#include "common/secure.hh"

#include <cstring>

namespace coldboot
{

void
secureWipe(void *p, size_t n)
{
    if (p == nullptr || n == 0)
        return;
    // The asm barrier takes p as an input and clobbers memory, so the
    // optimizer must assume the zeros are read through it and cannot
    // drop the memset as a dead store, even under LTO (the
    // memzero_explicit pattern).
    std::memset(p, 0, n);
    __asm__ __volatile__("" : : "r"(p) : "memory");
}

} // namespace coldboot

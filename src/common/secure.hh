/**
 * @file
 * Secret-hygiene primitives: guaranteed memory wiping.
 *
 * A cold-boot reproduction is exactly the wrong place to scrub key
 * material with plain std::memset: the call is dead-store-eliminable
 * when the buffer is not read afterwards, which is precisely the
 * wipe-before-free pattern. secureWipe() follows its memset with a
 * compiler barrier that takes the pointer and clobbers memory, so the
 * zeros are written regardless of optimization level. The in-tree
 * `coldboot-lint` secret-wipe rule bans memset/bzero on identifiers
 * that look like key material and points here instead.
 */

#ifndef COLDBOOT_COMMON_SECURE_HH
#define COLDBOOT_COMMON_SECURE_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace coldboot
{

/**
 * Zero @p n bytes at @p p with stores the optimizer cannot elide
 * (memset followed by a compiler barrier, as Linux's
 * memzero_explicit; the moral equivalent of C11 memset_s).
 */
void secureWipe(void *p, size_t n);

/** Wipe the contents of a byte span. */
inline void
secureWipe(std::span<uint8_t> bytes)
{
    secureWipe(bytes.data(), bytes.size());
}

/** Wipe a byte vector's contents (size and capacity unchanged). */
inline void
secureWipe(std::vector<uint8_t> &bytes)
{
    secureWipe(bytes.data(), bytes.size());
}

/**
 * A heap byte buffer that wipes itself on destruction.
 *
 * For transient key material (derived header keys, unpacked master
 * keys, candidate schedules): hold it in a SecureBuffer and the bytes
 * are guaranteed gone when the buffer goes out of scope, including on
 * early returns and exceptions. Movable, not copyable - copies of
 * secrets should be deliberate.
 */
class SecureBuffer
{
  public:
    SecureBuffer() = default;

    /** Allocate @p n zeroed bytes. */
    explicit SecureBuffer(size_t n) : bytes(n, 0) {}

    /** Copy @p contents into a fresh buffer. */
    explicit SecureBuffer(std::span<const uint8_t> contents)
        : bytes(contents.begin(), contents.end())
    {
    }

    SecureBuffer(const SecureBuffer &) = delete;
    SecureBuffer &operator=(const SecureBuffer &) = delete;

    SecureBuffer(SecureBuffer &&other) noexcept
    {
        bytes.swap(other.bytes);
    }

    SecureBuffer &
    operator=(SecureBuffer &&other) noexcept
    {
        if (this != &other) {
            wipe();
            bytes.swap(other.bytes);
        }
        return *this;
    }

    ~SecureBuffer() { wipe(); }

    uint8_t *data() { return bytes.data(); }
    const uint8_t *data() const { return bytes.data(); }
    size_t size() const { return bytes.size(); }
    bool empty() const { return bytes.empty(); }

    uint8_t &operator[](size_t i) { return bytes[i]; }
    uint8_t operator[](size_t i) const { return bytes[i]; }

    std::span<uint8_t> span() { return {bytes.data(), bytes.size()}; }
    std::span<const uint8_t> span() const
    {
        return {bytes.data(), bytes.size()};
    }

    /** Wipe and release the storage now. */
    void
    wipe()
    {
        secureWipe(bytes.data(), bytes.size());
        bytes.clear();
        bytes.shrink_to_fit();
    }

  private:
    std::vector<uint8_t> bytes;
};

} // namespace coldboot

#endif // COLDBOOT_COMMON_SECURE_HH

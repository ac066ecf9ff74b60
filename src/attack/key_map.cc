#include "attack/key_map.hh"

#include <algorithm>
#include <bit>
#include <numeric>

namespace coldboot::attack
{

namespace
{

/** Held-out differences times the slot width must reach this many
 *  bits: each difference of a randomly placed key lies in K with
 *  probability 2^-(n - dim K), so random placements pass the hold-out
 *  with probability below 2^-64. */
constexpr uint64_t kConfidenceBits = 64;

/** Widest slot index n - dim K, so the slot table stays at most
 *  4 MiB. */
constexpr unsigned kMaxSlotBits = 20;

/**
 * The representative of @p v's coset of K that is zero at every pivot
 * bit (rows[b]'s highest bit b). Rows only touch bits at or below
 * their pivot, so one high-to-low pass clears every pivot; the result
 * is unique per coset and linear in @p v.
 */
uint64_t
reduceLine(const uint32_t (&rows)[32], unsigned bits, uint64_t v)
{
    for (unsigned b = bits; b-- > 0;)
        v ^= rows[b] & (0 - ((v >> b) & 1));
    return v;
}

} // anonymous namespace

KeyMap::KeyMap(const std::vector<MinedKey> &keys)
{
    std::vector<std::span<const uint32_t>> groups;
    groups.reserve(keys.size());
    for (const MinedKey &k : keys)
        groups.emplace_back(k.lines);
    fit(groups, 0);
}

KeyMap::KeyMap(std::span<const std::span<const uint32_t>> groups,
               uint32_t top_line)
{
    fit(groups, top_line);
}

void
KeyMap::fit(std::span<const std::span<const uint32_t>> groups,
            uint32_t top)
{
    pool.resize(groups.size());
    std::iota(pool.begin(), pool.end(), 0u);
    for (auto lines : groups) {
        if (lines.empty())
            return;
        top = std::max(top, lines.back());
    }
    const auto n = static_cast<unsigned>(std::bit_width(top));

    // Fit: K is spanned by the even-ranked groups' line differences.
    unsigned dim = 0;
    for (size_t r = 0; r < groups.size() && dim < n; r += 2) {
        const uint32_t anchor = groups[r].front();
        for (uint32_t line : groups[r]) {
            uint64_t v = reduceLine(rows, n, line ^ anchor);
            if (v != 0) {
                rows[std::bit_width(v) - 1] = static_cast<uint32_t>(v);
                ++dim;
            }
        }
    }

    // Hold out: every odd-ranked group's differences must lie in K.
    uint64_t held_out = 0;
    for (size_t r = 1; r < groups.size(); r += 2) {
        const uint32_t anchor = groups[r].front();
        for (uint32_t line : groups[r])
            if (reduceLine(rows, n, line ^ anchor) != 0)
                return;
        held_out += groups[r].size() - 1;
    }
    const unsigned slot_bits = n - dim;
    if (slot_bits == 0 || slot_bits > kMaxSlotBits ||
        held_out * slot_bits < kConfidenceBits)
        return;
    line_bits = n;
    kernel_dim = dim;

    // A line's slot is its reduced line with the pivot bits dropped.
    auto slot_of = [&](uint64_t line) {
        uint64_t v = reduceLine(rows, n, line);
        uint32_t slot = 0;
        unsigned pos = 0;
        for (unsigned b = 0; b < n; ++b)
            if (rows[b] == 0)
                slot |= static_cast<uint32_t>((v >> b) & 1) << pos++;
        return slot;
    };
    byte_slots.resize(256 * ((n + 7) / 8));
    for (size_t i = 0; i < byte_slots.size(); ++i)
        byte_slots[i] = slot_of(uint64_t{i % 256} << (8 * (i / 256)));

    // Each key sits in its first line's slot; a counting sort keeps
    // every slot's keys ascending.
    std::vector<uint32_t> anchors(groups.size());
    slot_begin.assign((size_t{1} << slot_bits) + 1, 0);
    for (size_t k = 0; k < groups.size(); ++k) {
        anchors[k] = slot_of(groups[k].front());
        ++slot_begin[anchors[k]];
    }
    std::partial_sum(slot_begin.begin(), slot_begin.end(),
                     slot_begin.begin());
    slot_members.resize(groups.size());
    for (size_t k = groups.size(); k-- > 0;)
        slot_members[--slot_begin[anchors[k]]] = static_cast<uint32_t>(k);
}

bool
KeyMap::inKernel(uint64_t d) const
{
    return confident() && reduceLine(rows, line_bits, d) == 0;
}

} // namespace coldboot::attack

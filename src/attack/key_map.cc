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

    // A line's reduction is the representative of its coset of K that
    // is zero at every pivot bit (the highest bit of each basis row).
    // It is unique and linear in the line, so it is the XOR of one
    // table entry per line byte, the reduction of that byte in its
    // place. A new row is a reduced difference, zero at every earlier
    // pivot, so an entry takes it in with one conditional XOR on the
    // new pivot bit and stays zero at the earlier ones.
    const unsigned bytes = (n + 7) / 8;
    std::vector<uint32_t> reduced(256 * bytes);
    for (size_t i = 0; i < reduced.size(); ++i)
        reduced[i] = static_cast<uint32_t>(i % 256) << (8 * (i / 256));
    auto reduce = [&](uint32_t line) {
        uint32_t v = 0;
        for (unsigned j = 0; j < bytes; ++j)
            v ^= reduced[256 * j + ((line >> (8 * j)) & 255)];
        return v;
    };
    uint32_t pivots = 0;
    unsigned dim = 0;

    // Fit: K is spanned by the even-ranked groups' line differences.
    for (size_t r = 0; r < groups.size() && dim < n; r += 2) {
        const uint32_t anchor = groups[r].front();
        for (uint32_t line : groups[r]) {
            const uint32_t v = reduce(line ^ anchor);
            if (v == 0)
                continue;
            const unsigned pivot = std::bit_width(v) - 1;
            for (uint32_t &e : reduced)
                e ^= v & (0 - ((e >> pivot) & 1));
            pivots |= uint32_t{1} << pivot;
            ++dim;
        }
    }

    // Hold out: every odd-ranked group's differences must lie in K.
    uint64_t held_out = 0;
    for (size_t r = 1; r < groups.size(); r += 2) {
        const uint32_t anchor = groups[r].front();
        for (uint32_t line : groups[r])
            if (reduce(line ^ anchor) != 0)
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
    byte_slots.resize(reduced.size());
    for (size_t i = 0; i < reduced.size(); ++i) {
        uint32_t slot = 0;
        unsigned pos = 0;
        for (unsigned b = 0; b < n; ++b)
            if (((pivots >> b) & 1) == 0)
                slot |= ((reduced[i] >> b) & 1) << pos++;
        byte_slots[i] = slot;
    }

    // Each key sits in its first line's slot; a counting sort keeps
    // every slot's keys ascending.
    std::vector<uint32_t> anchors(groups.size());
    slot_begin.assign((size_t{1} << slot_bits) + 1, 0);
    for (size_t k = 0; k < groups.size(); ++k) {
        anchors[k] = slotOf(groups[k].front());
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
    // The slot drops only pivot bits, where every reduced line is
    // zero, so slot 0 holds exactly the lines that reduce to zero.
    return covers(d) && slotOf(d) == 0;
}

} // namespace coldboot::attack

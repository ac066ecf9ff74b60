/**
 * @file
 * The address → key map of a scrambled dump, learned black-box from
 * where the miner found each key (DESIGN.md §15, "Routing the
 * search").
 *
 * In the paper's DDR4 model a line's scrambler key is fixed by
 * address bits [17:6], and a dual-channel machine picks the channel
 * by an XOR of address bits: either way the key index is a
 * GF(2)-linear function of the line index, and the lines that share a
 * key are the cosets of that function's kernel K. As "Knock-Knock"
 * (PAPERS.md) recovers DRAM address maps from same-class address
 * differences, KeyMap fits K as the span of the within-key line
 * differences of the even-ranked mined keys, and trusts it only when
 * every difference of the odd-ranked keys lies in K too, with enough
 * of them that random placements pass with probability below 2^-64.
 * Then the AES search tries each block only against the keys whose
 * first line shares the block's coset, instead of the whole pool, and
 * a block whose coset mined no key against none.
 *
 * A map that declines (DDR3 universal-key dumps, random placements,
 * hand-built keys without lines) covers no line, and the search tries
 * every key on every block, exactly as without it.
 */

#ifndef COLDBOOT_ATTACK_KEY_MAP_HH
#define COLDBOOT_ATTACK_KEY_MAP_HH

#include <cstdint>
#include <span>
#include <vector>

#include "attack/key_miner.hh"

namespace coldboot::attack
{

/** Line → candidate-key routing table of one mined key set. */
class KeyMap
{
  public:
    /**
     * Fit the map to @p keys. It is confident only when every key
     * carries lines; every odd-ranked key's line differences lie in
     * the kernel K fitted on the even-ranked keys' differences; there
     * are h of them with h * (n - dim K) >= 64, n being the bit width
     * of the highest line; and n - dim K <= 20.
     */
    explicit KeyMap(const std::vector<MinedKey> &keys);

    /**
     * Fit the map to @p groups, each a run of ascending lines known to
     * share a key, ranked in the given order, by the same rule; n is
     * the bit width of @p top_line or of the highest grouped line,
     * whichever is wider. keysFor() then answers with group indices.
     * The miner fits this way before it clusters (DESIGN.md §15).
     */
    KeyMap(std::span<const std::span<const uint32_t>> groups,
           uint32_t top_line);

    /** True when the fit validated and the map covers lines. */
    bool confident() const { return !slot_begin.empty(); }

    /** Whether the map routes @p line: it is confident and @p line is
     *  no wider than the fitted lines. */
    bool
    covers(uint64_t line) const
    {
        return !slot_begin.empty() && (line >> line_bits) == 0;
    }

    /**
     * The keys to try on @p line, as ascending indices into the fitted
     * key vector. On a covered line, exactly the keys whose first line
     * shares @p line's coset of K - none when that coset mined no key.
     * Elsewhere (the map declined, or @p line is wider than the fitted
     * lines) every key.
     */
    std::span<const uint32_t>
    keysFor(uint64_t line) const
    {
        if (!covers(line))
            return pool;
        const uint32_t slot = slotOf(line);
        return {slot_members.data() + slot_begin[slot],
                slot_members.data() + slot_begin[slot + 1]};
    }

    /** The coset slot of a covered @p line, below slots(): lines share
     *  a slot exactly when their difference lies in K. */
    uint32_t
    slotOf(uint64_t line) const
    {
        uint32_t slot = 0;
        for (unsigned j = 0; 8 * j < line_bits; ++j)
            slot ^= byte_slots[256 * j + ((line >> (8 * j)) & 255)];
        return slot;
    }

    /** Slots of a confident map, 2^(n - dim K) (0 when declined). */
    size_t slots() const { return confident() ? slot_begin.size() - 1 : 0; }

    /** dim K of a confident map (0 when declined). */
    unsigned kernelDim() const { return confident() ? kernel_dim : 0; }

    /** Whether the line difference @p d lies in K (false when
     *  declined). */
    bool inKernel(uint64_t d) const;

  private:
    void fit(std::span<const std::span<const uint32_t>> groups,
             uint32_t top_line);

    /** Every key index, ascending: the answer for uncovered lines. */
    std::vector<uint32_t> pool;
    unsigned line_bits = 0;
    unsigned kernel_dim = 0;
    /** Coset slot of each byte value at each byte position of a line
     *  (the slot map is linear, so a line's slot is the XOR of its
     *  bytes' entries). */
    std::vector<uint32_t> byte_slots;
    /** Keys of slot s: slot_members[slot_begin[s] .. slot_begin[s+1]). */
    std::vector<uint32_t> slot_begin;
    std::vector<uint32_t> slot_members;
};

} // namespace coldboot::attack

#endif // COLDBOOT_ATTACK_KEY_MAP_HH

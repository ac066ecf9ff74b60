#include "fuzz/dump_builder.hh"

#include <algorithm>

#include "common/logging.hh"
#include "memctrl/scrambler.hh"

namespace coldboot::fuzz
{

namespace
{

/**
 * Claim @p run free consecutive lines, preferring a random draw and
 * falling back to a linear scan (deterministic either way).
 */
uint64_t
claimLines(std::vector<bool> &used, CaseRng &rng, uint64_t run)
{
    const uint64_t lines = used.size();
    cb_assert(run >= 1 && run <= lines, "claimLines: bad run %llu",
              static_cast<unsigned long long>(run));
    auto free_at = [&](uint64_t start) {
        if (start + run > lines)
            return false;
        for (uint64_t i = 0; i < run; ++i)
            if (used[start + i])
                return false;
        return true;
    };
    uint64_t start = rng.below(lines - run + 1);
    for (unsigned attempt = 0; attempt < 32 && !free_at(start);
         ++attempt)
        start = rng.below(lines - run + 1);
    if (!free_at(start)) {
        start = lines; // sentinel: scan
        for (uint64_t s = 0; s + run <= lines; ++s) {
            if (free_at(s)) {
                start = s;
                break;
            }
        }
        cb_assert(start < lines, "claimLines: dump too crowded");
    }
    for (uint64_t i = 0; i < run; ++i)
        used[start + i] = true;
    return start;
}

/** DDR4 keys repeat every 4,096 lines (address bits [17:6]). */
constexpr uint64_t kKeyPeriodLines = 4096;

/**
 * Claim up to @p copies free lines congruent to @p index modulo the
 * key period, drawn at random among the free ones; ascending.
 */
std::vector<uint64_t>
claimCongruent(std::vector<bool> &used, CaseRng &rng, uint64_t index,
               unsigned copies)
{
    std::vector<uint64_t> free_lines;
    for (uint64_t line = index; line < used.size();
         line += kKeyPeriodLines)
        if (!used[line])
            free_lines.push_back(line);
    std::vector<uint64_t> out;
    while (out.size() < copies && !free_lines.empty()) {
        auto pick = free_lines.begin() +
                    static_cast<ptrdiff_t>(rng.below(free_lines.size()));
        used[*pick] = true;
        out.push_back(*pick);
        free_lines.erase(pick);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // anonymous namespace

FuzzDump
buildFuzzDump(CaseRng &rng, const FuzzDumpSpec &spec)
{
    cb_assert(spec.bytes >= 64 && spec.bytes % 64 == 0,
              "buildFuzzDump: size must be a nonzero 64-multiple");
    const uint64_t lines = spec.bytes / 64;

    FuzzDump out;
    out.bytes.resize(spec.bytes);
    out.scrambler_seed = rng.next();
    memctrl::Ddr4Scrambler scrambler(out.scrambler_seed, 0);

    // Background: random lines (indistinguishable from scrambled
    // traffic) with a sprinkling of scrambled zero lines - the
    // mechanism that makes real dumps leak their scrambler keys. At
    // dump sizes below the 256 KiB key-pool wrap these leak *single*
    // copies, i.e. realistic sub-threshold noise for the miner.
    // Address-keyed, every line is plaintext until the end, where all
    // of them are scrambled with their own address's key.
    rng.fill(out.bytes);
    for (uint64_t line = 0; line < lines; ++line) {
        if (!rng.chance(spec.zero_line_fraction))
            continue;
        if (spec.address_keyed)
            std::fill_n(&out.bytes[line * 64], 64, 0);
        else
            scrambler.lineKey(line * 64, &out.bytes[line * 64]);
    }

    std::vector<bool> used(lines, false);
    // Plant @p copies of the pool key @p index: its raw bytes at
    // random free lines, or, address-keyed, zero lines (which the
    // final pass scrambles into it) at the free lines congruent to
    // @p index, as many as there are.
    auto plant = [&](unsigned index, unsigned copies) {
        PlantedKey &key = out.keys.emplace_back();
        key.pool_index = index;
        scrambler.poolKey(index, key.key.data());
        std::vector<uint64_t> at;
        if (spec.address_keyed)
            at = claimCongruent(used, rng, index, copies);
        else
            for (unsigned c = 0; c < copies; ++c)
                at.push_back(claimLines(used, rng, 1));
        for (uint64_t line : at) {
            if (spec.address_keyed)
                std::fill_n(&out.bytes[line * 64], 64, 0);
            else
                std::copy(key.key.begin(), key.key.end(),
                          &out.bytes[line * 64]);
            key.offsets.push_back(line * 64);
            out.planted_regions.push_back({line * 64, line * 64 + 64});
        }
    };

    // The schedule first: it needs a contiguous run of lines.
    if (spec.plant_schedule) {
        PlantedSchedule sched;
        sched.key_size = spec.schedule_size;
        sched.master.resize(static_cast<size_t>(spec.schedule_size));
        rng.fill(sched.master);
        auto schedule = crypto::aesExpandKey(sched.master);
        uint64_t run = (schedule.size() + 63) / 64;
        uint64_t start = claimLines(used, rng, run);
        sched.offset = start * 64;

        auto key_index = static_cast<unsigned>(rng.below(4096));
        if (spec.address_keyed)
            key_index = static_cast<unsigned>(start % kKeyPeriodLines);
        scrambler.poolKey(key_index, sched.scramble_key.data());

        // Schedule plaintext, tail-padded with random plaintext,
        // XOR-ed line by line with the one scrambler key (or left
        // for the final pass).
        std::vector<uint8_t> plain(run * 64);
        rng.fill(plain);
        std::copy(schedule.begin(), schedule.end(), plain.begin());
        for (uint64_t i = 0; i < plain.size(); ++i)
            out.bytes[sched.offset + i] =
                spec.address_keyed
                    ? plain[i]
                    : plain[i] ^ sched.scramble_key[i % 64];
        out.planted_regions.push_back(
            {sched.offset, sched.offset + run * 64});

        // Plant the scrambling keys themselves so the mining ->
        // search hand-off can work end to end.
        const unsigned copies = std::max(2u, spec.copies_per_key);
        if (spec.address_keyed)
            for (uint64_t l = start; l < start + run; ++l)
                plant(static_cast<unsigned>(l % kKeyPeriodLines), copies);
        else
            plant(key_index, copies);
        out.schedule = std::move(sched);
    }

    // Planted scrambler keys: raw pool-key bytes, exactly what a
    // zero-filled 64-byte block stores in scrambled DRAM.
    for (unsigned k = 0; k < spec.planted_keys; ++k)
        plant(static_cast<unsigned>(rng.below(4096)),
              spec.copies_per_key);

    if (spec.address_keyed) {
        for (uint64_t line = 0; line < lines; ++line) {
            uint8_t key[64];
            scrambler.lineKey(line * 64, key);
            for (unsigned b = 0; b < 64; ++b)
                out.bytes[line * 64 + b] ^= key[b];
        }
    }

    // Decay last, over everything - planted artifacts included.
    if (spec.decay_fraction > 0.0)
        out.bits_decayed = applyTargetDecay(
            out.bytes, spec.decay_fraction, rng.next());

    return out;
}

} // namespace coldboot::fuzz

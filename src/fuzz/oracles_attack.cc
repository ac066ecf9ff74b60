/**
 * @file
 * Attack-pipeline oracles: the miner and the AES search checked
 * against dumps with *known* planted ground truth, the search's
 * prefiltered scan against testing every pair, plus the
 * worker-count-independence fingerprint over the whole pipeline.
 *
 * Statistical care: at nonzero decay the attack is allowed to miss
 * (the paper's own success curves drop below 100% past ~2% decay),
 * so completeness is asserted unconditionally only at zero decay and
 * recorded as a coverage feature otherwise; soundness (anything
 * reported must match the planted truth) is asserted always.
 */

#include <algorithm>
#include <array>
#include <cstring>
#include <string>

#include "attack/aes_search.hh"
#include "attack/key_miner.hh"
#include "attack/litmus.hh"
#include "common/bits.hh"
#include "crypto/sha256.hh"
#include "exec/dump_io.hh"
#include "fuzz/dump_builder.hh"
#include "fuzz/fuzz_rng.hh"
#include "fuzz/mutator.hh"
#include "fuzz/oracles.hh"
#include "memctrl/scrambler.hh"

namespace coldboot::fuzz
{

namespace
{

using attack::MinedKey;
using attack::MinerParams;
using attack::SearchParams;

/**
 * miner-planted-keys: KeyMiner recovers keys planted into a
 * synthesized dump across a decay sweep. Soundness: every reported
 * key is (Hamming-)close to a real pool key of the dump's scrambler.
 * Completeness: at zero decay every planted key is recovered exactly;
 * at low decay within the clustering distance.
 */
class MinerPlantedKeysOracle final : public Oracle
{
  public:
    const char *name() const override { return "miner-planted-keys"; }

    const char *
    description() const override
    {
        return "KeyMiner recovers planted scrambler keys through a "
               "decay sweep; everything it reports is a real key";
    }

    unsigned smokeStride() const override { return 2; }

    OracleResult
    run(const FuzzCaseParams &params) const override
    {
        OracleResult res;
        CaseRng rng(params.seed);

        FuzzDumpSpec spec;
        spec.bytes = static_cast<uint64_t>(64 * 1024)
                     << params.scale;
        spec.planted_keys =
            2 + static_cast<unsigned>(rng.below(4));
        spec.copies_per_key =
            2 + static_cast<unsigned>(rng.below(3));
        spec.decay_fraction =
            rng.pick({0.0, 0.0, 0.005, 0.01, 0.02});
        FuzzDump dump = buildFuzzDump(rng, spec);
        res.feature(static_cast<uint32_t>(
            spec.decay_fraction * 1000));

        // Adversarial background noise, steered off the plants.
        mutateBytes(dump.bytes, rng, params.energy * 8,
                    dump.planted_regions);

        MinerParams mp;
        mp.threads = 1; // cases already run in parallel
        attack::MinerStats stats;
        exec::MemoryDumpSource source(dump.bytes);
        auto mined = attack::mineScramblerKeys(source, mp, &stats);

        res.feature(100 + static_cast<uint32_t>(
                              std::min<size_t>(mined.size(), 32)));
        if (stats.blocks_scanned != spec.bytes / 64) {
            res.fail("miner scanned " +
                     std::to_string(stats.blocks_scanned) +
                     " blocks of " +
                     std::to_string(spec.bytes / 64));
            return res;
        }

        // Soundness: every mined key must match some pool key of the
        // dump's scrambler within the clustering distance - decay
        // and line-duplicating mutations can only replicate real
        // keys, never mint a new litmus-passing cluster.
        memctrl::Ddr4Scrambler scrambler(dump.scrambler_seed, 0);
        for (const auto &m : mined) {
            unsigned best = 513;
            std::array<uint8_t, 64> pool_key;
            for (unsigned idx = 0; idx < 4096 && best > 0; ++idx) {
                scrambler.poolKey(idx, pool_key.data());
                unsigned d = static_cast<unsigned>(hammingDistance(
                    std::span<const uint8_t>(m.key),
                    std::span<const uint8_t>(pool_key)));
                best = std::min(best, d);
            }
            if (best > mp.cluster_distance) {
                res.fail("mined key at offset " +
                         std::to_string(m.first_offset) +
                         " matches no real pool key (distance " +
                         std::to_string(best) + ")");
                return res;
            }
        }

        // Completeness over the planted keys.
        for (const auto &planted : dump.keys) {
            if (planted.offsets.size() < mp.min_occurrences)
                continue;
            unsigned best = 513;
            for (const auto &m : mined)
                best = std::min(
                    best, static_cast<unsigned>(hammingDistance(
                              std::span<const uint8_t>(m.key),
                              std::span<const uint8_t>(
                                  planted.key))));
            if (spec.decay_fraction == 0.0 && best != 0) {
                res.fail("planted key (pool index " +
                         std::to_string(planted.pool_index) +
                         ") not mined exactly at zero decay");
                return res;
            }
            if (best <= mp.cluster_distance)
                res.feature(200);
            else if (spec.decay_fraction <= 0.01) {
                res.fail("planted key (pool index " +
                         std::to_string(planted.pool_index) +
                         ") lost at " +
                         std::to_string(spec.decay_fraction) +
                         " decay (best distance " +
                         std::to_string(best) + ")");
                return res;
            } else {
                res.feature(201); // allowed statistical miss
            }
        }
        return res;
    }
};

/**
 * search-planted-schedule: the AES search, fed the true scrambler
 * key among decoys, recovers a planted expanded schedule. Soundness:
 * any recovered key of the planted size equals the planted master
 * and locates its table. Completeness is required at zero decay.
 */
class SearchPlantedScheduleOracle final : public Oracle
{
  public:
    const char *name() const override
    {
        return "search-planted-schedule";
    }

    const char *
    description() const override
    {
        return "AES search recovers a planted key schedule; any "
               "reported master equals the planted one";
    }

    unsigned smokeStride() const override { return 4; }

    OracleResult
    run(const FuzzCaseParams &params) const override
    {
        OracleResult res;
        CaseRng rng(params.seed);

        FuzzDumpSpec spec;
        spec.bytes = static_cast<uint64_t>(64 * 1024)
                     << params.scale;
        spec.planted_keys = 1 + static_cast<unsigned>(rng.below(3));
        spec.plant_schedule = true;
        spec.schedule_size = rng.pick(
            {crypto::AesKeySize::Aes128, crypto::AesKeySize::Aes192,
             crypto::AesKeySize::Aes256});
        spec.decay_fraction = rng.pick({0.0, 0.0, 0.01, 0.02});
        FuzzDump dump = buildFuzzDump(rng, spec);
        res.feature(crypto::aesNk(spec.schedule_size));
        res.feature(10 + static_cast<uint32_t>(
                             spec.decay_fraction * 1000));

        mutateBytes(dump.bytes, rng, params.energy * 4,
                    dump.planted_regions);

        // Candidates: the true scramble key plus decoy pool keys -
        // the search must not be confused by wrong keys.
        memctrl::Ddr4Scrambler scrambler(dump.scrambler_seed, 0);
        std::vector<MinedKey> candidates;
        candidates.emplace_back(dump.schedule->scramble_key, 3, 0);
        unsigned decoys = static_cast<unsigned>(rng.below(3));
        for (unsigned d = 0; d < decoys; ++d) {
            std::array<uint8_t, 64> key;
            scrambler.poolKey(static_cast<unsigned>(rng.below(4096)),
                              key.data());
            candidates.emplace_back(key, 2, 64);
        }
        res.feature(20 + decoys);

        SearchParams sp;
        sp.key_size = spec.schedule_size;
        sp.threads = 1; // cases already run in parallel
        attack::SearchStats stats;
        exec::MemoryDumpSource source(dump.bytes);
        auto found =
            attack::searchAesKeyTables(source, candidates, sp,
                                       &stats);

        bool recovered = false;
        for (const auto &k : found) {
            if (k.key_size != spec.schedule_size)
                continue;
            if (!std::equal(k.master.begin(), k.master.end(),
                            dump.schedule->master.begin(),
                            dump.schedule->master.end())) {
                res.fail("recovered master differs from the planted "
                         "key");
                return res;
            }
            if (k.table_offset != dump.schedule->offset) {
                res.fail("recovered table offset " +
                         std::to_string(k.table_offset) +
                         " != planted " +
                         std::to_string(dump.schedule->offset));
                return res;
            }
            recovered = true;
        }
        if (!recovered) {
            if (spec.decay_fraction == 0.0) {
                res.fail("planted schedule not recovered at zero "
                         "decay");
                return res;
            }
            res.feature(31); // allowed statistical miss under decay
        } else {
            res.feature(30);
        }
        return res;
    }
};

/**
 * search-prefilter-exact: the table scan's linear-syndrome prefilter
 * is exact. scanAesKeyTables() must return exactly the hits of the
 * unscreened loop it replaced - the entropy guard and the byte-level
 * AES litmus on every (block, key) pair - for all three key sizes and
 * random litmus budgets. Near-threshold pairs come from decayed
 * planted schedules and from candidates that are the true scramble
 * key with a few flipped bits.
 */
class SearchPrefilterExactOracle final : public Oracle
{
  public:
    const char *name() const override
    {
        return "search-prefilter-exact";
    }

    const char *
    description() const override
    {
        return "the prefiltered AES table scan finds exactly the hits "
               "of testing every (block, key) pair";
    }

    unsigned smokeStride() const override { return 2; }

    OracleResult
    run(const FuzzCaseParams &params) const override
    {
        OracleResult res;
        CaseRng rng(params.seed);

        FuzzDumpSpec spec;
        spec.bytes = static_cast<uint64_t>(32 * 1024)
                     << params.scale;
        spec.planted_keys = 1 + static_cast<unsigned>(rng.below(3));
        spec.plant_schedule = true;
        spec.schedule_size = rng.pick(
            {crypto::AesKeySize::Aes128, crypto::AesKeySize::Aes192,
             crypto::AesKeySize::Aes256});
        spec.decay_fraction = rng.pick({0.0, 0.01, 0.02, 0.04});
        FuzzDump dump = buildFuzzDump(rng, spec);
        mutateBytes(dump.bytes, rng, params.energy * 4,
                    dump.planted_regions);
        res.feature(crypto::aesNk(spec.schedule_size));

        // The true key, near copies of it and pool decoys.
        std::vector<MinedKey> candidates;
        const auto &truth = dump.schedule->scramble_key;
        candidates.emplace_back(truth, 3, 0);
        unsigned near = 1 + static_cast<unsigned>(rng.below(6));
        for (unsigned n = 0; n < near; ++n) {
            std::array<uint8_t, 64> key = truth;
            for (uint64_t f = rng.below(25); f > 0; --f)
                key[rng.below(64)] ^=
                    static_cast<uint8_t>(1u << rng.below(8));
            candidates.emplace_back(key, 2, 0);
        }
        memctrl::Ddr4Scrambler scrambler(dump.scrambler_seed, 0);
        for (uint64_t d = rng.below(3); d > 0; --d) {
            std::array<uint8_t, 64> key;
            scrambler.poolKey(static_cast<unsigned>(rng.below(4096)),
                              key.data());
            candidates.emplace_back(key, 2, 64);
        }

        SearchParams sp;
        sp.key_size = spec.schedule_size;
        sp.threads = 1; // cases already run in parallel
        sp.litmus_max_bit_errors = static_cast<unsigned>(rng.below(129));
        sp.litmus_max_bits_per_check =
            static_cast<unsigned>(rng.below(34));
        attack::SearchStats stats;
        exec::MemoryDumpSource source(dump.bytes);
        auto hits =
            attack::scanAesKeyTables(source, candidates, sp, &stats);

        std::vector<attack::AesTableHit> want;
        uint64_t attempts = 0;
        for (uint64_t off = 0; off + 64 <= dump.bytes.size();
             off += 64) {
            std::span<const uint8_t> raw(&dump.bytes[off], 64);
            if (attack::isConstantBlock(raw))
                continue;
            for (uint32_t k = 0; k < candidates.size(); ++k) {
                ++attempts;
                std::array<uint8_t, 64> plain;
                for (unsigned i = 0; i < 64; ++i)
                    plain[i] = raw[i] ^ candidates[k].key[i];
                if (!attack::plausibleScheduleEntropy(plain))
                    continue;
                auto hit = attack::aesKeyLitmus(
                    plain, sp.key_size, sp.litmus_max_bit_errors,
                    sp.litmus_max_bits_per_check);
                if (hit)
                    want.push_back({off, k, hit->start_word});
            }
        }

        if (hits != want) {
            size_t i = 0;
            while (i < hits.size() && i < want.size() &&
                   hits[i] == want[i])
                ++i;
            res.fail("prefiltered scan has " +
                     std::to_string(hits.size()) + " hits, every-pair "
                     "scan " + std::to_string(want.size()) +
                     "; first difference at hit " + std::to_string(i) +
                     " (budgets " +
                     std::to_string(sp.litmus_max_bit_errors) + "/" +
                     std::to_string(sp.litmus_max_bits_per_check) +
                     ")");
            return res;
        }
        if (stats.descramble_attempts != attempts ||
            stats.litmus_hits != want.size() ||
            stats.prefilter_passes < want.size() ||
            stats.prefilter_passes > attempts) {
            res.fail("scan funnel counts inconsistent: attempts " +
                     std::to_string(stats.descramble_attempts) + "/" +
                     std::to_string(attempts) + ", prefilter passes " +
                     std::to_string(stats.prefilter_passes) +
                     ", hits " + std::to_string(stats.litmus_hits));
            return res;
        }
        res.feature(10 + static_cast<uint32_t>(
                             std::min<size_t>(want.size(), 8)));
        // Pairs the screen let through and the litmus (or the
        // entropy guard) rejected: the near-threshold cases.
        if (stats.prefilter_passes > want.size())
            res.feature(20);
        return res;
    }
};

/**
 * parallel-fingerprint: the miner and the search produce
 * byte-identical output at any worker count - serial in-line vs a
 * dedicated pool of k workers - on the same adversarial dump. This
 * is the fuzzing half of the DESIGN.md §9 determinism contract.
 */
class ParallelFingerprintOracle final : public Oracle
{
  public:
    const char *name() const override
    {
        return "parallel-fingerprint";
    }

    const char *
    description() const override
    {
        return "mine+search results are byte-identical between a "
               "serial run and a dedicated k-worker pool";
    }

    unsigned smokeStride() const override { return 8; }

    OracleResult
    run(const FuzzCaseParams &params) const override
    {
        OracleResult res;
        CaseRng rng(params.seed);

        FuzzDumpSpec spec;
        // Several scan chunks (the miner's grain is 1 MiB; the
        // search's is at most that) so the pool has real work to
        // hand out in racy order.
        spec.bytes = static_cast<uint64_t>(2 * 1024 * 1024)
                     << params.scale;
        spec.planted_keys = 3;
        spec.plant_schedule = true;
        spec.decay_fraction = rng.pick({0.0, 0.01});
        FuzzDump dump = buildFuzzDump(rng, spec);
        mutateBytes(dump.bytes, rng, params.energy * 8,
                    dump.planted_regions);

        const unsigned workers =
            2 + static_cast<unsigned>(rng.below(3));
        res.feature(workers);

        auto fingerprint = [&](unsigned threads) {
            crypto::Sha256 hash;
            auto absorb = [&](const void *p, size_t n) {
                hash.update({static_cast<const uint8_t *>(p), n});
            };

            exec::MemoryDumpSource source(dump.bytes);
            MinerParams mp;
            mp.threads = threads;
            auto mined = attack::mineScramblerKeys(source, mp);
            for (const auto &m : mined) {
                absorb(m.key.data(), m.key.size());
                uint64_t occ = m.occurrences;
                absorb(&occ, sizeof(occ));
                absorb(&m.first_offset, sizeof(m.first_offset));
            }

            SearchParams sp;
            sp.threads = threads;
            auto found =
                attack::searchAesKeyTables(source, mined, sp);
            for (const auto &k : found) {
                absorb(k.master.data(), k.master.size());
                absorb(&k.table_offset, sizeof(k.table_offset));
                uint64_t blocks = k.verified_blocks;
                absorb(&blocks, sizeof(blocks));
                unsigned errs = k.total_bit_errors;
                absorb(&errs, sizeof(errs));
            }
            return hash.finish();
        };

        auto serial = fingerprint(1);
        auto pooled = fingerprint(workers);
        if (serial != pooled) {
            res.fail("mine+search fingerprint differs between "
                     "serial and " +
                     std::to_string(workers) + "-worker runs");
            return res;
        }
        res.feature(16);
        return res;
    }
};

const MinerPlantedKeysOracle miner_oracle;
const SearchPlantedScheduleOracle search_oracle;
const SearchPrefilterExactOracle prefilter_oracle;
const ParallelFingerprintOracle fingerprint_oracle;

} // anonymous namespace

void
registerAttackOracles(std::vector<const Oracle *> &out)
{
    out.push_back(&miner_oracle);
    out.push_back(&search_oracle);
    out.push_back(&prefilter_oracle);
    out.push_back(&fingerprint_oracle);
}

} // namespace coldboot::fuzz

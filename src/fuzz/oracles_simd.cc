/**
 * @file
 * SIMD-layer oracle: every vector kernel backend must be
 * bit-identical to the scalar reference on hostile lengths and
 * alignments. The oracle addresses each backend's table directly via
 * simd::kernels() - the process-global active backend is never
 * touched, so concurrently running fuzz cases stay independent.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/fuzz_rng.hh"
#include "fuzz/mutator.hh"
#include "fuzz/oracles.hh"
#include "simd/simd.hh"

namespace coldboot::fuzz
{

namespace
{

/**
 * simd-vs-scalar: differential check of the whole kernel table. Each
 * trial draws a hostile length (tail boundaries, vector-width
 * multiples plus or minus one, or random up to the scale class) and
 * a hostile alignment (both source and destination offsets 0-63 on
 * exact-size heap buffers, so sanitized builds catch past-the-end
 * reads), then requires every usable backend to reproduce the scalar
 * result bit for bit on every kernel.
 */
class SimdVsScalarOracle final : public Oracle
{
  public:
    const char *name() const override { return "simd-vs-scalar"; }

    const char *
    description() const override
    {
        return "vector kernel backends bit-identical to the scalar "
               "reference on hostile lengths and alignments";
    }

    OracleResult
    run(const FuzzCaseParams &params) const override
    {
        OracleResult res;
        CaseRng rng(params.seed);
        const auto &scalar = simd::kernels(simd::Backend::Scalar);

        std::vector<simd::Backend> backends;
        for (unsigned i = 1; i < simd::kBackendCount; ++i) {
            auto b = static_cast<simd::Backend>(i);
            if (simd::backendUsable(b)) {
                backends.push_back(b);
                res.feature(i); // which vector backends this host has
            }
        }

        const unsigned trials = 8 + params.energy;
        for (unsigned t = 0; t < trials; ++t) {
            // Hostile length: cluster around the tail boundaries the
            // vector kernels switch strategy at.
            size_t n;
            unsigned cls = static_cast<unsigned>(rng.below(4));
            if (cls == 0)
                n = rng.below(4); // empty and near-empty
            else if (cls == 1)
                n = rng.pick({8u, 16u, 32u, 64u, 128u, 192u, 256u}) +
                    static_cast<size_t>(rng.range(0, 2)) - 1;
            else if (cls == 2)
                n = rng.below(200);
            else
                n = rng.below(
                    (1024u << std::min(params.scale, 4u)) + 1);
            size_t off_a = rng.below(64);
            size_t off_b = rng.below(64);

            // Exact allocations: the logical ranges end flush with
            // the heap blocks.
            auto mem_a = std::make_unique<uint8_t[]>(off_a + n);
            auto mem_b = std::make_unique<uint8_t[]>(off_b + n);
            auto mem_m = std::make_unique<uint8_t[]>(n);
            uint8_t *a = mem_a.get() + off_a;
            uint8_t *b = mem_b.get() + off_b;
            uint8_t *mask = mem_m.get();
            rng.fill({mem_a.get(), off_a + n});
            rng.fill({mem_b.get(), off_b + n});
            rng.fill({mask, n});
            if (n > 0 && rng.chance(0.5))
                mutateBytes({a, n}, rng, 1 + params.energy);

            size_t ref_dist = scalar.hamming_distance(a, b, n);
            size_t ref_weight = scalar.hamming_weight(a, n);
            size_t ref_masked = scalar.masked_mismatch(a, b, mask, n);
            bool ref_const = scalar.is_constant(a, n);
            size_t limit = rng.below(8 * n + 2);
            size_t ref_bounded = ref_dist <= limit ? ref_dist
                                                   : limit + 1;
            std::vector<uint8_t> ref_into(n);
            scalar.xor_into(ref_into.data(), a, b, n);

            res.feature(100 + std::min<unsigned>(
                                  static_cast<unsigned>(n / 64), 16));

            for (auto be : backends) {
                const auto &k = simd::kernels(be);
                const std::string tag =
                    std::string(simd::backendName(be)) + " n=" +
                    std::to_string(n) + " off_a=" +
                    std::to_string(off_a);
                if (k.hamming_distance(a, b, n) != ref_dist) {
                    res.fail("hamming_distance diverges: " + tag);
                    return res;
                }
                if (k.hamming_weight(a, n) != ref_weight) {
                    res.fail("hamming_weight diverges: " + tag);
                    return res;
                }
                if (k.masked_mismatch(a, b, mask, n) != ref_masked) {
                    res.fail("masked_mismatch diverges: " + tag);
                    return res;
                }
                if (k.is_constant(a, n) != ref_const) {
                    res.fail("is_constant diverges: " + tag);
                    return res;
                }
                if (k.hamming_bounded(a, b, n, limit) != ref_bounded) {
                    res.fail("hamming_bounded not min(d, limit+1): " +
                             tag + " limit=" + std::to_string(limit));
                    return res;
                }
                std::vector<uint8_t> into(n);
                k.xor_into(into.data(), a, b, n);
                if (into != ref_into) {
                    res.fail("xor_into diverges: " + tag);
                    return res;
                }
                std::vector<uint8_t> x(a, a + n), y(a, a + n);
                scalar.xor_bytes(x.data(), b, n);
                k.xor_bytes(y.data(), b, n);
                if (x != y) {
                    res.fail("xor_bytes diverges: " + tag);
                    return res;
                }
            }

            // 64-byte-block kernels on a dedicated exact-size block.
            auto block = std::make_unique<uint8_t[]>(64);
            auto key = std::make_unique<uint8_t[]>(64);
            rng.fill({block.get(), 64});
            rng.fill({key.get(), 64});
            unsigned ref_litmus =
                scalar.scrambler_litmus_score64(block.get());
            size_t rep_n = rng.below(300);
            std::vector<uint8_t> rep0(rep_n);
            rng.fill(rep0);
            std::vector<uint8_t> ref_rep(rep0);
            scalar.xor_repeat_key64(ref_rep.data(), key.get(), rep_n);
            std::vector<uint8_t> ground(rep_n);
            rng.fill(ground);
            std::vector<uint8_t> ref_decay(rep0);
            uint64_t ref_flips = scalar.decay_apply_ground(
                ref_decay.data(), ground.data(), rep_n);
            // Syndrome screen: key syndromes a few bits from the
            // block's, budgets around the per-check edge.
            size_t nkeys = rng.below(70);
            unsigned nchecks = static_cast<unsigned>(rng.below(10));
            unsigned per = static_cast<unsigned>(rng.below(34));
            unsigned total = static_cast<unsigned>(rng.below(200));
            std::vector<uint32_t> block_syn(nchecks);
            std::vector<uint32_t> key_syn(nchecks * nkeys);
            rng.fill({reinterpret_cast<uint8_t *>(block_syn.data()),
                      4 * block_syn.size()});
            for (size_t i = 0; i < key_syn.size(); ++i) {
                uint32_t w = block_syn[i / std::max<size_t>(nkeys, 1)];
                for (uint64_t f = rng.below(per + 4); f > 0; --f)
                    w ^= 1u << rng.below(32);
                key_syn[i] = w;
            }
            std::vector<uint32_t> ref_pass(nkeys);
            ref_pass.resize(scalar.syndrome_screen(
                block_syn.data(), key_syn.data(), nkeys, nkeys,
                nchecks, per, total, ref_pass.data()));
            for (auto be : backends) {
                const auto &k = simd::kernels(be);
                const char *bn = simd::backendName(be);
                if (k.scrambler_litmus_score64(block.get()) !=
                    ref_litmus) {
                    res.fail(std::string("litmus score diverges: ") +
                             bn);
                    return res;
                }
                std::vector<uint8_t> rep(rep0);
                k.xor_repeat_key64(rep.data(), key.get(), rep_n);
                if (rep != ref_rep) {
                    res.fail(std::string(
                                 "xor_repeat_key64 diverges: ") +
                             bn + " n=" + std::to_string(rep_n));
                    return res;
                }
                std::vector<uint8_t> dec(rep0);
                uint64_t flips = k.decay_apply_ground(
                    dec.data(), ground.data(), rep_n);
                if (flips != ref_flips || dec != ref_decay) {
                    res.fail(std::string(
                                 "decay_apply_ground diverges: ") +
                             bn + " n=" + std::to_string(rep_n));
                    return res;
                }
                std::vector<uint32_t> pass(nkeys);
                pass.resize(k.syndrome_screen(
                    block_syn.data(), key_syn.data(), nkeys, nkeys,
                    nchecks, per, total, pass.data()));
                if (pass != ref_pass) {
                    res.fail(std::string("syndrome_screen diverges: ") +
                             bn + " nkeys=" + std::to_string(nkeys) +
                             " nchecks=" + std::to_string(nchecks));
                    return res;
                }
            }
        }
        return res;
    }
};

const SimdVsScalarOracle simd_vs_scalar_oracle;

} // anonymous namespace

void
registerSimdOracles(std::vector<const Oracle *> &out)
{
    out.push_back(&simd_vs_scalar_oracle);
}

} // namespace coldboot::fuzz

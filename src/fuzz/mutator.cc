#include "fuzz/mutator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "dram/decay_model.hh"

namespace coldboot::fuzz
{

namespace
{

/** Whether [begin, end) intersects any protected region. */
bool
touchesProtected(uint64_t begin, uint64_t end,
                 std::span<const ProtectedRegion> protect)
{
    for (const auto &r : protect)
        if (begin < r.end && r.begin < end)
            return true;
    return false;
}

} // anonymous namespace

void
mutateBytes(std::span<uint8_t> data, CaseRng &rng, uint32_t count,
            std::span<const ProtectedRegion> protect,
            MutationStats *stats)
{
    if (data.empty())
        return;
    const uint64_t size = data.size();
    const uint64_t lines = size / 64;
    for (uint32_t m = 0; m < count; ++m) {
        auto kind = static_cast<ByteMutation>(
            rng.below(byteMutationKinds));
        // Line-granular kinds need at least two lines to act on;
        // degrade them to byte stomps on tiny inputs so the energy
        // budget still does work.
        if (lines < 2 && (kind == ByteMutation::LineDuplicate ||
                          kind == ByteMutation::LineSwap))
            kind = ByteMutation::ByteSet;

        switch (kind) {
          case ByteMutation::BitFlip: {
            uint64_t off = rng.below(size);
            unsigned bit = static_cast<unsigned>(rng.below(8));
            if (touchesProtected(off, off + 1, protect)) {
                if (stats)
                    ++stats->skipped;
                break;
            }
            data[off] ^= static_cast<uint8_t>(1u << bit);
            if (stats)
                ++stats->applied[0];
            break;
          }
          case ByteMutation::ByteSet: {
            uint64_t off = rng.below(size);
            uint8_t value = static_cast<uint8_t>(rng.below(256));
            if (touchesProtected(off, off + 1, protect)) {
                if (stats)
                    ++stats->skipped;
                break;
            }
            data[off] = value;
            if (stats)
                ++stats->applied[1];
            break;
          }
          case ByteMutation::LineDuplicate: {
            uint64_t src = rng.below(lines) * 64;
            uint64_t dst = rng.below(lines) * 64;
            if (touchesProtected(dst, dst + 64, protect)) {
                if (stats)
                    ++stats->skipped;
                break;
            }
            std::copy_n(&data[src], 64, &data[dst]);
            if (stats)
                ++stats->applied[2];
            break;
          }
          case ByteMutation::LineSwap: {
            uint64_t a = rng.below(lines) * 64;
            uint64_t b = rng.below(lines) * 64;
            if (touchesProtected(a, a + 64, protect) ||
                touchesProtected(b, b + 64, protect)) {
                if (stats)
                    ++stats->skipped;
                break;
            }
            std::swap_ranges(&data[a], &data[a] + 64, &data[b]);
            if (stats)
                ++stats->applied[3];
            break;
          }
          case ByteMutation::Splice: {
            uint64_t len = rng.range(1, std::min<uint64_t>(32, size));
            uint64_t src = rng.below(size - len + 1);
            uint64_t dst = rng.below(size - len + 1);
            if (touchesProtected(dst, dst + len, protect)) {
                if (stats)
                    ++stats->skipped;
                break;
            }
            // memmove semantics: ranges may overlap.
            std::vector<uint8_t> tmp(&data[src], &data[src] + len);
            std::copy(tmp.begin(), tmp.end(), &data[dst]);
            if (stats)
                ++stats->applied[4];
            break;
          }
        }
    }
}

uint64_t
applyTargetDecay(std::span<uint8_t> data, double fraction,
                 uint64_t seed)
{
    fraction = std::clamp(fraction, 0.0, 0.5);
    if (fraction <= 0.0 || data.empty())
        return 0;
    dram::DecayModel model(dram::DecayParams{}, seed);
    // Roughly half of all cells already store their ground value, so
    // a *visible* flip fraction f requires a decayed-cell fraction of
    // 2f. Invert the retention curve for the unpowered interval at a
    // fixed cooled-transfer temperature: f_cells = 1 - exp(-t/tau)
    // => t = -tau * ln(1 - f_cells).
    constexpr double celsius = -25.0;
    double cell_fraction = std::min(2.0 * fraction, 0.999);
    double seconds =
        -model.tau(celsius) * std::log(1.0 - cell_fraction);
    return model.applyDecay(data, seconds, celsius);
}

FileShapeMutation
pickFileShapeMutation(CaseRng &rng)
{
    return static_cast<FileShapeMutation>(
        rng.below(fileShapeMutationKinds));
}

bool
applyFileShapeMutation(std::vector<uint8_t> &bytes,
                       FileShapeMutation kind, CaseRng &rng)
{
    cb_assert(!bytes.empty() && bytes.size() % 64 == 0,
              "file-shape mutation wants a valid dump image");
    switch (kind) {
      case FileShapeMutation::KeepValid:
        return true;
      case FileShapeMutation::TruncateMisaligned: {
        // A size in [1, old) that is not a multiple of 64.
        uint64_t cut = rng.range(1, bytes.size() - 1);
        if (cut % 64 == 0)
            ++cut;
        bytes.resize(std::min<size_t>(cut, bytes.size() - 1));
        return false;
      }
      case FileShapeMutation::TruncateEmpty:
        bytes.clear();
        return false;
      case FileShapeMutation::ExtendMisaligned: {
        uint64_t tail = rng.range(1, 63);
        for (uint64_t i = 0; i < tail; ++i)
            bytes.push_back(static_cast<uint8_t>(rng.below(256)));
        return false;
      }
      case FileShapeMutation::TailBitRot: {
        uint64_t rot = rng.range(1, 64);
        for (uint64_t i = 0; i < rot; ++i) {
            uint64_t off =
                bytes.size() - 1 - rng.below(std::min<uint64_t>(
                                       bytes.size(), 4096));
            bytes[off] ^= static_cast<uint8_t>(
                1u << static_cast<unsigned>(rng.below(8)));
        }
        return true;
      }
    }
    return true;
}

} // namespace coldboot::fuzz

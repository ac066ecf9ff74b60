#include "crypto/aes.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/logging.hh"
#include "common/secure.hh"

namespace coldboot::crypto
{

namespace
{

/**
 * GF(2^8) arithmetic tables built from first principles at static
 * initialization: exp/log tables over generator 0x03, from which both
 * the S-box (multiplicative inverse + affine transform) and the
 * MixColumns multiplications are derived.
 */
struct GfTables
{
    std::array<uint8_t, 256> exp{};
    std::array<uint8_t, 256> log{};
    std::array<uint8_t, 256> sbox{};
    std::array<uint8_t, 256> inv_sbox{};

    GfTables()
    {
        // exp/log over generator 3 (a generator of GF(2^8)*).
        uint8_t x = 1;
        for (int i = 0; i < 255; ++i) {
            exp[i] = x;
            log[x] = static_cast<uint8_t>(i);
            // multiply x by 3: x ^= xtime(x)
            uint8_t xt = static_cast<uint8_t>(
                (x << 1) ^ ((x & 0x80) ? 0x1b : 0));
            x = static_cast<uint8_t>(x ^ xt);
        }
        exp[255] = exp[0];

        for (int i = 0; i < 256; ++i) {
            // Multiplicative inverse (0 maps to 0).
            uint8_t inv = i == 0
                ? 0 : exp[255 - log[static_cast<uint8_t>(i)]];
            // Affine transform per FIPS-197.
            uint8_t s = 0;
            for (int bit = 0; bit < 8; ++bit) {
                uint8_t b = static_cast<uint8_t>(
                    ((inv >> bit) & 1) ^
                    ((inv >> ((bit + 4) % 8)) & 1) ^
                    ((inv >> ((bit + 5) % 8)) & 1) ^
                    ((inv >> ((bit + 6) % 8)) & 1) ^
                    ((inv >> ((bit + 7) % 8)) & 1) ^
                    ((0x63 >> bit) & 1));
                s |= static_cast<uint8_t>(b << bit);
            }
            sbox[i] = s;
            inv_sbox[s] = static_cast<uint8_t>(i);
        }
    }

    /** GF(2^8) multiply via the log/exp tables. */
    uint8_t
    mul(uint8_t a, uint8_t b) const
    {
        if (a == 0 || b == 0)
            return 0;
        int sum = log[a] + log[b];
        if (sum >= 255)
            sum -= 255;
        return exp[sum];
    }
};

/**
 * Meyers-singleton accessor: the tables are built on first use, which
 * makes cross-translation-unit initialization order irrelevant (the
 * T-table constructor in aes_ttable.cc calls aesSbox() during its own
 * static initialization).
 */
const GfTables &
gfTables()
{
    static const GfTables tables;
    return tables;
}

uint32_t
subWord(uint32_t w)
{
    return (static_cast<uint32_t>(gfTables().sbox[(w >> 24) & 0xff]) << 24) |
           (static_cast<uint32_t>(gfTables().sbox[(w >> 16) & 0xff]) << 16) |
           (static_cast<uint32_t>(gfTables().sbox[(w >> 8) & 0xff]) << 8) |
           static_cast<uint32_t>(gfTables().sbox[w & 0xff]);
}

uint32_t
rotWord(uint32_t w)
{
    return (w << 8) | (w >> 24);
}

/** Round constant Rcon[j] = x^(j-1) in GF(2^8), placed in the MSB. */
uint32_t
rcon(unsigned j)
{
    uint8_t c = 1;
    for (unsigned k = 1; k < j; ++k)
        c = static_cast<uint8_t>((c << 1) ^ ((c & 0x80) ? 0x1b : 0));
    return static_cast<uint32_t>(c) << 24;
}

AesKeySize
keySizeFromBytes(size_t n)
{
    switch (n) {
      case 16: return AesKeySize::Aes128;
      case 24: return AesKeySize::Aes192;
      case 32: return AesKeySize::Aes256;
      default:
        cb_fatal("AES key must be 16, 24 or 32 bytes, got %zu", n);
    }
}

} // anonymous namespace

uint8_t
aesSbox(uint8_t v)
{
    return gfTables().sbox[v];
}

uint8_t
aesInvSbox(uint8_t v)
{
    return gfTables().inv_sbox[v];
}

uint32_t
aesScheduleStep(uint32_t prev, uint32_t back_nk, unsigned i, unsigned nk)
{
    uint32_t temp = prev;
    if (i % nk == 0)
        temp = subWord(rotWord(temp)) ^ rcon(i / nk);
    else if (nk > 6 && i % nk == 4)
        temp = subWord(temp);
    return back_nk ^ temp;
}

bool
aesStepIsLinear(unsigned i, unsigned nk)
{
    return i % nk != 0 && !(nk > 6 && i % nk == 4);
}

std::vector<uint8_t>
aesExpandKey(std::span<const uint8_t> key)
{
    AesKeySize ks = keySizeFromBytes(key.size());
    unsigned nk = aesNk(ks);
    unsigned total_words =
        static_cast<unsigned>(aesScheduleBytes(ks)) / 4;

    // At most 60 words (AES-256), wiped before they go out of scope;
    // the returned schedule is the caller's to wipe.
    uint32_t w[60];
    for (unsigned i = 0; i < nk; ++i)
        w[i] = aesWordFromBytes(&key[4 * i]);
    for (unsigned i = nk; i < total_words; ++i)
        w[i] = aesScheduleStep(w[i - 1], w[i - nk], i, nk);

    std::vector<uint8_t> out(4 * total_words);
    for (unsigned i = 0; i < total_words; ++i)
        aesBytesFromWord(w[i], &out[4 * i]);
    secureWipe(w, sizeof(w));
    return out;
}

std::vector<uint32_t>
aesScheduleContinue(std::span<const uint32_t> window, unsigned i0,
                    unsigned count, unsigned nk)
{
    cb_assert(window.size() == nk,
              "aesScheduleContinue: window must hold exactly Nk=%u "
              "words, got %zu", nk, window.size());
    cb_assert(nk <= 8, "aesScheduleContinue: Nk=%u > 8", nk);
    cb_assert(i0 >= nk, "aesScheduleContinue: i0=%u < nk=%u", i0, nk);

    // Rolling window of the last Nk (at most 8) words, wiped after.
    uint32_t last[8];
    std::copy(window.begin(), window.end(), last);
    std::vector<uint32_t> out;
    out.reserve(count);
    for (unsigned k = 0; k < count; ++k) {
        unsigned i = i0 + k;
        uint32_t next = aesScheduleStep(last[nk - 1], last[0], i, nk);
        out.push_back(next);
        // Slide the window.
        for (unsigned j = 0; j + 1 < nk; ++j)
            last[j] = last[j + 1];
        last[nk - 1] = next;
    }
    secureWipe(last, sizeof(last));
    return out;
}

std::vector<uint32_t>
aesScheduleBackward(std::span<const uint32_t> window, unsigned i0,
                    unsigned count, unsigned nk)
{
    cb_assert(window.size() == nk,
              "aesScheduleBackward: window must hold exactly Nk=%u "
              "words, got %zu", nk, window.size());
    cb_assert(nk <= 8, "aesScheduleBackward: Nk=%u > 8", nk);
    cb_assert(i0 >= count, "aesScheduleBackward: i0=%u < count=%u",
              i0, count);

    // Rolling window holding words w[j+1 .. j+nk] (Nk <= 8), wiped
    // after; initially j+1 == i0. Recover w[j], slide down, repeat.
    uint32_t win[8];
    std::copy(window.begin(), window.end(), win);
    std::vector<uint32_t> out(count);
    for (unsigned k = 0; k < count; ++k) {
        unsigned j = i0 - 1 - k;
        // w[j] = w[j+nk] ^ f(w[j+nk-1]), recurrence index j+nk.
        // aesScheduleStep(prev, 0, i, nk) evaluates f(prev) alone.
        uint32_t f_prev = aesScheduleStep(win[nk - 2], 0, j + nk, nk);
        uint32_t wj = win[nk - 1] ^ f_prev;
        out[count - 1 - k] = wj;
        for (unsigned m = nk - 1; m > 0; --m)
            win[m] = win[m - 1];
        win[0] = wj;
    }
    secureWipe(win, sizeof(win));
    return out;
}

Aes::Aes(std::span<const uint8_t> key)
    : size(keySizeFromBytes(key.size())), sched(aesExpandKey(key))
{
}

void
aesAddRoundKey(uint8_t state[aesBlockBytes],
               const uint8_t round_key[aesBlockBytes])
{
    for (int i = 0; i < 16; ++i)
        state[i] ^= round_key[i];
}

void
aesRoundEncrypt(uint8_t state[aesBlockBytes],
                const uint8_t round_key[aesBlockBytes], bool last)
{
    // SubBytes.
    for (int i = 0; i < 16; ++i)
        state[i] = gfTables().sbox[state[i]];
    // ShiftRows: row r rotates left by r (index = r + 4c).
    uint8_t t[16];
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            t[r + 4 * c] = state[r + 4 * ((c + r) & 3)];
    if (!last) {
        // MixColumns.
        for (int c = 0; c < 4; ++c) {
            uint8_t *col = &t[4 * c];
            uint8_t a0 = col[0], a1 = col[1];
            uint8_t a2 = col[2], a3 = col[3];
            col[0] = gfTables().mul(a0, 2) ^ gfTables().mul(a1, 3) ^ a2 ^ a3;
            col[1] = a0 ^ gfTables().mul(a1, 2) ^ gfTables().mul(a2, 3) ^ a3;
            col[2] = a0 ^ a1 ^ gfTables().mul(a2, 2) ^ gfTables().mul(a3, 3);
            col[3] = gfTables().mul(a0, 3) ^ a1 ^ a2 ^ gfTables().mul(a3, 2);
        }
    }
    for (int i = 0; i < 16; ++i)
        state[i] = t[i] ^ round_key[i];
}

void
Aes::encryptBlock(const uint8_t in[aesBlockBytes],
                  uint8_t out[aesBlockBytes]) const
{
    uint8_t s[16];
    std::memcpy(s, in, 16);

    aesAddRoundKey(s, sched.data());
    int nr = rounds();
    for (int round = 1; round <= nr; ++round)
        aesRoundEncrypt(s, sched.data() + 16 * round, round == nr);
    std::memcpy(out, s, 16);
}

void
Aes::decryptBlock(const uint8_t in[aesBlockBytes],
                  uint8_t out[aesBlockBytes]) const
{
    uint8_t s[16];
    std::memcpy(s, in, 16);

    int nr = rounds();
    const uint8_t *rk = sched.data() + 16 * nr;
    for (int i = 0; i < 16; ++i)
        s[i] ^= rk[i];

    for (int round = nr - 1; round >= 0; --round) {
        // InvShiftRows: row r rotates right by r.
        uint8_t t[16];
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c < 4; ++c)
                t[r + 4 * ((c + r) & 3)] = s[r + 4 * c];
        // InvSubBytes.
        for (auto &b : t)
            b = gfTables().inv_sbox[b];
        // AddRoundKey.
        rk = sched.data() + 16 * round;
        for (int i = 0; i < 16; ++i)
            t[i] ^= rk[i];
        if (round > 0) {
            // InvMixColumns.
            for (int c = 0; c < 4; ++c) {
                uint8_t *col = &t[4 * c];
                uint8_t a0 = col[0], a1 = col[1];
                uint8_t a2 = col[2], a3 = col[3];
                col[0] = gfTables().mul(a0, 14) ^ gfTables().mul(a1, 11) ^
                         gfTables().mul(a2, 13) ^ gfTables().mul(a3, 9);
                col[1] = gfTables().mul(a0, 9) ^ gfTables().mul(a1, 14) ^
                         gfTables().mul(a2, 11) ^ gfTables().mul(a3, 13);
                col[2] = gfTables().mul(a0, 13) ^ gfTables().mul(a1, 9) ^
                         gfTables().mul(a2, 14) ^ gfTables().mul(a3, 11);
                col[3] = gfTables().mul(a0, 11) ^ gfTables().mul(a1, 13) ^
                         gfTables().mul(a2, 9) ^ gfTables().mul(a3, 14);
            }
        }
        std::memcpy(s, t, 16);
    }
    std::memcpy(out, s, 16);
}

} // namespace coldboot::crypto

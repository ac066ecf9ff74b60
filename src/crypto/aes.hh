/**
 * @file
 * FIPS-197 AES implementation with the pieces the cold boot attack
 * needs exposed as first-class API:
 *
 *  - the block cipher itself (AES-128/192/256, encrypt + decrypt);
 *  - full key-schedule expansion (the attack searches memory for these
 *    expanded schedules, exactly as disk encryption software caches
 *    them in RAM);
 *  - *partial* schedule stepping: given a window of Nk consecutive
 *    schedule words assumed to sit at an arbitrary position inside a
 *    schedule, predict the following words. The round-constant (Rcon)
 *    sequence depends on the absolute position, which is why the paper
 *    tries all possible round starts ("12 possible expansions" for
 *    AES-256) when testing a 64-byte memory block.
 *
 * The implementation is portable byte-oriented C++ (no AES-NI); the
 * S-box and its inverse are derived from the GF(2^8) definition at
 * static-initialization time rather than pasted as opaque tables.
 */

#ifndef COLDBOOT_CRYPTO_AES_HH
#define COLDBOOT_CRYPTO_AES_HH

#include <cstdint>
#include <span>
#include <vector>

namespace coldboot::crypto
{

/** AES always operates on 16-byte blocks. */
constexpr size_t aesBlockBytes = 16;

/** Supported AES key sizes, valued in bytes. */
enum class AesKeySize : size_t
{
    Aes128 = 16,
    Aes192 = 24,
    Aes256 = 32,
};

/** Number of rounds for a key size (10 / 12 / 14). */
constexpr int
aesRounds(AesKeySize ks)
{
    switch (ks) {
      case AesKeySize::Aes128: return 10;
      case AesKeySize::Aes192: return 12;
      case AesKeySize::Aes256: return 14;
    }
    return 0;
}

/** Key length in 32-bit words (Nk: 4 / 6 / 8). */
constexpr unsigned
aesNk(AesKeySize ks)
{
    return static_cast<unsigned>(ks) / 4;
}

/**
 * Expanded schedule length in bytes: 16 * (rounds + 1).
 * 176 for AES-128, 208 for AES-192, 240 for AES-256.
 */
constexpr size_t
aesScheduleBytes(AesKeySize ks)
{
    return aesBlockBytes * (static_cast<size_t>(aesRounds(ks)) + 1);
}

/** Forward S-box lookup (exposed for tests and the litmus code). */
uint8_t aesSbox(uint8_t x);

/**
 * One forward AES round applied in place: SubBytes, ShiftRows,
 * MixColumns (skipped when @p last) and AddRoundKey. Exposed so the
 * cycle-accurate pipelined engine model (one round per pipeline
 * stage) shares the exact datapath with the behavioural cipher.
 */
void aesRoundEncrypt(uint8_t state[aesBlockBytes],
                     const uint8_t round_key[aesBlockBytes],
                     bool last);

/** AddRoundKey alone (the whitening step before round 1). */
void aesAddRoundKey(uint8_t state[aesBlockBytes],
                    const uint8_t round_key[aesBlockBytes]);

/** Inverse S-box lookup. */
uint8_t aesInvSbox(uint8_t x);

/**
 * Expand a raw AES key into the full round-key schedule.
 *
 * @param key Raw key; length selects AES-128/192/256.
 * @return Schedule of aesScheduleBytes() bytes (round key r occupies
 *         bytes [16r, 16r+16)).
 */
std::vector<uint8_t> aesExpandKey(std::span<const uint8_t> key);

/**
 * One key-schedule recurrence step.
 *
 * Computes schedule word w[i] from w[i-1] (@p prev) and w[i-Nk]
 * (@p back_nk) for absolute word index @p i under key length @p nk
 * words. Words use the FIPS-197 big-endian byte order convention.
 */
uint32_t aesScheduleStep(uint32_t prev, uint32_t back_nk, unsigned i,
                         unsigned nk);

/**
 * Whether schedule step @p i applies no SubWord, i.e. is the pure XOR
 * w[i] = w[i-Nk] ^ w[i-1]: every step except i % Nk == 0 and, for
 * Nk > 6, i % Nk == 4.
 */
bool aesStepIsLinear(unsigned i, unsigned nk);

/**
 * Continue a key schedule from an arbitrary window.
 *
 * Treats @p window (exactly Nk words) as schedule words
 * w[i0-Nk] .. w[i0-1] and generates @p count subsequent words
 * w[i0] .. w[i0+count-1].
 *
 * This is the primitive behind the AES key litmus test: the caller
 * guesses i0 (equivalently, the starting round) and checks whether the
 * predicted continuation matches adjacent memory.
 *
 * @param window Nk consecutive schedule words (big-endian packed).
 * @param i0     Absolute index of the first word to generate;
 *               must be >= Nk.
 * @param count  Number of words to generate.
 * @param nk     Key length in words (4, 6 or 8).
 */
std::vector<uint32_t> aesScheduleContinue(
    std::span<const uint32_t> window, unsigned i0, unsigned count,
    unsigned nk);

/**
 * Run a key schedule backward from an arbitrary window.
 *
 * Treats @p window (exactly Nk words) as schedule words
 * w[i0] .. w[i0+Nk-1] and generates @p count preceding words,
 * returned in ascending index order: w[i0-count] .. w[i0-1].
 *
 * The recurrence w[i] = w[i-Nk] xor f(w[i-1]) is trivially invertible
 * (w[i-Nk] = w[i] xor f(w[i-1])), which lets the attack recover the
 * head of a key table - including the raw master key in words
 * w[0..Nk) - from any clean window found mid-table.
 *
 * @param window Nk consecutive schedule words.
 * @param i0     Absolute index of the window's first word;
 *               i0 >= count must hold.
 * @param count  Number of preceding words to generate.
 * @param nk     Key length in words (4, 6 or 8).
 */
std::vector<uint32_t> aesScheduleBackward(
    std::span<const uint32_t> window, unsigned i0, unsigned count,
    unsigned nk);

/** Pack 4 schedule bytes into a word (FIPS-197 order). */
inline uint32_t
aesWordFromBytes(const uint8_t *p)
{
    return (static_cast<uint32_t>(p[0]) << 24) |
           (static_cast<uint32_t>(p[1]) << 16) |
           (static_cast<uint32_t>(p[2]) << 8) |
           static_cast<uint32_t>(p[3]);
}

/** Unpack a schedule word back into 4 bytes (FIPS-197 order). */
inline void
aesBytesFromWord(uint32_t w, uint8_t *p)
{
    p[0] = static_cast<uint8_t>(w >> 24);
    p[1] = static_cast<uint8_t>(w >> 16);
    p[2] = static_cast<uint8_t>(w >> 8);
    p[3] = static_cast<uint8_t>(w);
}

/**
 * The AES block cipher with a fixed key.
 */
class Aes
{
  public:
    /**
     * Construct from a raw key.
     * @param key 16-, 24- or 32-byte key; anything else is fatal().
     */
    explicit Aes(std::span<const uint8_t> key);

    /** Encrypt one 16-byte block (in and out may alias). */
    void encryptBlock(const uint8_t in[aesBlockBytes],
                      uint8_t out[aesBlockBytes]) const;

    /** Decrypt one 16-byte block (in and out may alias). */
    void decryptBlock(const uint8_t in[aesBlockBytes],
                      uint8_t out[aesBlockBytes]) const;

    /** Key size this instance was constructed with. */
    AesKeySize keySize() const { return size; }

    /** Number of rounds (10/12/14). */
    int rounds() const { return aesRounds(size); }

    /**
     * The expanded round-key schedule, exactly as disk-encryption
     * software caches it in memory.
     */
    std::span<const uint8_t> schedule() const
    {
        return {sched.data(), sched.size()};
    }

  private:
    AesKeySize size;
    std::vector<uint8_t> sched;
};

} // namespace coldboot::crypto

#endif // COLDBOOT_CRYPTO_AES_HH

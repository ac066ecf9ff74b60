/**
 * @file
 * Internal registration hooks of the oracle catalogue. Each
 * oracles_*.cc translation unit appends its oracles to the registry
 * vector in the fixed catalogue order; oracle.cc calls these once,
 * in order, to build the process-lifetime registry.
 */

#ifndef COLDBOOT_FUZZ_ORACLES_HH
#define COLDBOOT_FUZZ_ORACLES_HH

#include <vector>

#include "fuzz/oracle.hh"

namespace coldboot::fuzz
{

/** scramble-roundtrip, reboot-xor-factoring, decay-monotone. */
void registerScramblerOracles(std::vector<const Oracle *> &out);

/** scrambler-litmus-diff, aes-litmus-brute, aes-schedule-inverse. */
void registerLitmusOracles(std::vector<const Oracle *> &out);

/** miner-planted-keys, miner-cluster-exact, search-planted-schedule,
 *  search-prefilter-exact, search-routed-exact, parallel-fingerprint. */
void registerAttackOracles(std::vector<const Oracle *> &out);

/** dump-backend-equality. */
void registerIoOracles(std::vector<const Oracle *> &out);

/** simd-vs-scalar. */
void registerSimdOracles(std::vector<const Oracle *> &out);

} // namespace coldboot::fuzz

#endif // COLDBOOT_FUZZ_ORACLES_HH

// Flash fault-injection model: per-operation failure probabilities plus the
// retirement policy the FTL applies when a block keeps failing.
//
// The model is deliberately simple and fully deterministic: a single seeded
// per-device RNG is consumed in event order, so a fixed (workload, seed)
// pair reproduces the exact same fault sequence on every platform. All
// probabilities default to zero — a default-constructed model is disabled
// and the device behaves bit-identically to the fault-free simulator.
//
// What is modeled:
//   * Read ECC failure: each read attempt (initial sense + every retry)
//     fails with probability read_ber + read_ber_per_pe * block_erases —
//     raw bit-error rate grows with a block's P/E cycle count, the dominant
//     endurance effect. A failed attempt triggers a read retry (re-sense at
//     a shifted threshold, escalating latency, see Timing::read_retry_ns);
//     after max_read_retries the page is uncorrectable.
//   * Program failure: a program completes but the page is bad. The page is
//     invalidated and the write is re-placed on a sibling plane; the block
//     is retired after program_fails_to_retire failures.
//   * Erase failure: the erase is retried; after erase_fails_to_retire
//     failures the block is retired (grown bad block).
//   * Endurance retirement: with max_pe_cycles > 0, a block is retired as
//     soon as its erase count reaches the limit (modeled-BER threshold).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

namespace ssdk::sim {

struct FaultModel {
  /// Per-attempt raw ECC-failure probability of a read at zero P/E cycles.
  double read_ber = 0.0;
  /// Added ECC-failure probability per erase cycle of the target block.
  double read_ber_per_pe = 0.0;
  /// Probability a program operation fails (page unusable).
  double program_fail = 0.0;
  /// Probability an erase operation fails.
  double erase_fail = 0.0;

  /// Read retries before a page is declared uncorrectable (at most 65535).
  std::uint32_t max_read_retries = 3;
  /// Program failures that retire a block (valid pages are rescued).
  std::uint32_t program_fails_to_retire = 2;
  /// Erase failures that retire a block (1 = first failure retires).
  std::uint32_t erase_fails_to_retire = 1;
  /// Retire a block once its erase count reaches this (0 = no limit).
  std::uint64_t max_pe_cycles = 0;

  /// Seed of the per-device fault RNG; the injected fault sequence is a
  /// deterministic function of (workload, seed).
  std::uint64_t seed = 0x5D5DFA17ULL;

  static FaultModel none() { return FaultModel{}; }

  /// Disabled models draw no random numbers and take no new code paths.
  bool enabled() const {
    return read_ber > 0.0 || read_ber_per_pe > 0.0 || program_fail > 0.0 ||
           erase_fail > 0.0 || max_pe_cycles > 0;
  }

  /// Effective per-attempt ECC-failure probability for a block with the
  /// given erase count, clamped to [0, 1].
  double read_fail_prob(std::uint64_t block_erases) const {
    return std::clamp(
        read_ber + read_ber_per_pe * static_cast<double>(block_erases), 0.0,
        1.0);
  }

  /// Throws std::invalid_argument on out-of-range fields: a probability
  /// outside [0, 1] or NaN, max_read_retries above 65535, and (when
  /// enabled) a zero retirement threshold. program_fail and erase_fail
  /// must stay below 1: a certain failure would make every write/erase
  /// retry forever (reads are bounded by max_read_retries, so read_ber = 1
  /// is legal and useful in tests).
  void validate() const;

  std::string describe() const;
};

}  // namespace ssdk::sim

// Deterministic, splittable random number generation.
//
// The simulator, the workload generators and the neural-network trainer all
// need reproducible randomness. std::mt19937_64 is heavyweight to copy and
// its distributions are not guaranteed bit-identical across standard library
// implementations, so we ship our own small generator (xoshiro256**) plus the
// handful of distributions the project needs. Every component takes an
// explicit seed; identical seeds give bit-identical streams on every platform.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace ssdk {

/// splitmix64: used to expand a single 64-bit seed into generator state and
/// to derive independent child seeds (the "split" in splittable RNG).
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** 1.0 — fast, high-quality 64-bit PRNG (Blackman & Vigna).
/// Copyable value type: simulations snapshot and fork RNGs freely.
class Rng {
 public:
  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal via Box–Muller (deterministic, no cached spare).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Exponentially distributed value with the given rate (mean = 1/rate).
  double exponential(double rate);

  /// Derive an independent child generator; deterministic function of the
  /// parent's current state. Advances the parent.
  Rng split();

  /// Fisher–Yates shuffle of an index vector (used by the NN trainer).
  void shuffle(std::vector<std::size_t>& v);

  /// Full 256-bit generator state, for checkpoint/restore. Unlike
  /// re-seeding, round-tripping through state()/set_state() resumes the
  /// stream exactly where it left off.
  std::array<std::uint64_t, 4> state() const { return s_; }

  /// Restore state captured by state(). An all-zero state is invalid for
  /// xoshiro256** (the stream would be stuck at zero) and is replaced by
  /// the default-seed state, mirroring the constructor's guard.
  void set_state(const std::array<std::uint64_t, 4>& s);

 private:
  // ssdk-snap: skip(s_): owners capture the stream via state()/set_state(); the raw array is never serialized directly
  std::array<std::uint64_t, 4> s_{};
};

/// Zipfian integer distribution over [0, n) with skew theta in [0, 1).
/// theta = 0 degenerates to uniform. Uses the Gray et al. rejection-free
/// computation with cached zeta constants; O(1) per sample. Construction
/// sums n terms the first time a thread sees (n, theta) and reuses that
/// sum while the thread keeps building generators with the same key.
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta);

  std::uint64_t operator()(Rng& rng) const;

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  static double zeta(std::uint64_t n, double theta);

  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
};

}  // namespace ssdk

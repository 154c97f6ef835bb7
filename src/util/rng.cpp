#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace ssdk {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // All-zero state is the one invalid xoshiro state; splitmix64 cannot
  // produce four zero outputs from any seed, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

void Rng::set_state(const std::array<std::uint64_t, 4>& s) {
  s_ = s;
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) {
    s_ = Rng{}.s_;
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless method.
  __uint128_t m = static_cast<__uint128_t>(next_u64()) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      m = static_cast<__uint128_t>(next_u64()) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  // 53 random bits into [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::normal(double mean, double stddev) {
  // Box–Muller; draw u1 in (0,1] to avoid log(0).
  const double u1 = 1.0 - next_double();
  const double u2 = next_double();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::exponential(double rate) {
  assert(rate > 0.0);
  const double u = 1.0 - next_double();  // (0, 1]
  return -std::log(u) / rate;
}

Rng Rng::split() {
  std::uint64_t child_seed = next_u64();
  return Rng(child_seed);
}

void Rng::shuffle(std::vector<std::size_t>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = next_below(i);
    std::swap(v[i - 1], v[j]);
  }
}

double ZipfGenerator::zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
  assert(n > 0);
  assert(theta >= 0.0 && theta < 1.0);
  // zeta(n, theta) is an O(n) sum of pow terms, and callers such as fleet
  // epochs rebuild generators with the same key over and over. Each thread
  // keeps its last key's sum: the same loop gives the same double, so a hit
  // is bit-identical to recomputing. n == 0 is never a valid key.
  thread_local struct {
    std::uint64_t n = 0;
    double theta = 0.0;
    double zetan = 0.0;
  } memo;
  if (memo.n != n || memo.theta != theta) {
    memo.zetan = zeta(n, theta);
    memo.n = n;
    memo.theta = theta;
  }
  zetan_ = memo.zetan;
  const double zeta2 = zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan_);
}

std::uint64_t ZipfGenerator::operator()(Rng& rng) const {
  const double u = rng.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto v = static_cast<std::uint64_t>(
      static_cast<double>(n_) *
      std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return v >= n_ ? n_ - 1 : v;
}

}  // namespace ssdk

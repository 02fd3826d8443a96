#pragma once

// Deterministic pseudo-randomness for workload generation.
//
// Every stochastic element of the reproduction (trace arrivals, scene
// activity, latency jitter) draws from a seeded Pcg32 so that experiments
// are bit-for-bit repeatable across runs and platforms. std::mt19937 +
// std::*_distribution are avoided because distribution implementations
// differ across standard libraries.

#include <cmath>
#include <cstdint>
#include <vector>

namespace microedge {

// PCG-XSH-RR 64/32 (O'Neill 2014). Small, fast, statistically solid.
class Pcg32 {
 public:
  explicit Pcg32(std::uint64_t seed, std::uint64_t stream = 0xda3e39cb94b95bdbULL) {
    state_ = 0;
    inc_ = (stream << 1u) | 1u;
    next();
    state_ += seed;
    next();
  }

  std::uint32_t next() {
    std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  // Uniform in [0, 1).
  double nextDouble() {
    return next() * (1.0 / 4294967296.0);
  }

  // Uniform integer in [0, bound) without modulo bias.
  std::uint32_t nextBounded(std::uint32_t bound) {
    if (bound == 0) return 0;
    std::uint32_t threshold = (-bound) % bound;
    for (;;) {
      std::uint32_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * nextDouble(); }

  bool bernoulli(double p) { return nextDouble() < p; }

  // Exponential with the given mean (inter-arrival sampling).
  double exponential(double mean) {
    double u = nextDouble();
    // Guard against log(0).
    if (u <= 0.0) u = 1e-12;
    return -mean * std::log(u);
  }

  // Knuth's method for small lambda; normal approximation above.
  int poisson(double lambda) {
    if (lambda <= 0.0) return 0;
    if (lambda < 30.0) {
      double l = std::exp(-lambda);
      int k = 0;
      double p = 1.0;
      do {
        ++k;
        p *= nextDouble();
      } while (p > l);
      return k - 1;
    }
    double g = gaussian(lambda, std::sqrt(lambda));
    return g < 0.0 ? 0 : static_cast<int>(g + 0.5);
  }

  // Box-Muller.
  double gaussian(double mean, double stddev) {
    if (has_spare_) {
      has_spare_ = false;
      return mean + stddev * spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    s = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * s;
    has_spare_ = true;
    return mean + stddev * u * s;
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = nextBounded(static_cast<std::uint32_t>(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Derive an independent child generator (per camera / per function).
  Pcg32 split() {
    std::uint64_t seed = (static_cast<std::uint64_t>(next()) << 32) | next();
    std::uint64_t stream = (static_cast<std::uint64_t>(next()) << 32) | next();
    return Pcg32{seed, stream};
  }

 private:
  std::uint64_t state_ = 0;
  std::uint64_t inc_ = 0;
  bool has_spare_ = false;
  double spare_ = 0.0;
};

// SplitMix64 finalizer (Steele et al.). The sweep runner chains it over a
// point's grid coordinates to derive per-point seeds that depend only on
// *where* the point sits in the grid — never on thread or completion order.
inline constexpr std::uint64_t splitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace microedge

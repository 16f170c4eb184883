#ifndef TUFFY_UTIL_RNG_H_
#define TUFFY_UTIL_RNG_H_

#include <algorithm>
#include <cstdint>

namespace tuffy {

/// One SplitMix64 mixing round: a bijective avalanche over 64 bits, so
/// nearby inputs map to decorrelated outputs.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Derives the seed of stream `stream` from a base seed. Equivalent to
/// reading position `stream` of the SplitMix64 sequence started at
/// `base`, so distinct streams are decorrelated even when base seeds or
/// stream indices are adjacent — unlike `base + k + stream`, which hands
/// nearby seeds to nearby streams. Every parallel searcher (per-component
/// WalkSAT workers, per-session search state) derives its Rng seed
/// through this.
inline uint64_t DeriveSeed(uint64_t base, uint64_t stream) {
  return SplitMix64(base + 0x9E3779B97F4A7C15ull * stream);
}

/// Deterministic xoshiro256**-based pseudo-random generator. Every
/// stochastic component in the library (WalkSAT, SampleSAT, MC-SAT, data
/// generators) takes an explicit `Rng` so runs are reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) { Seed(seed); }

  void Seed(uint64_t seed) {
    // SplitMix64 to spread the seed across the state.
    uint64_t z = seed;
    for (int i = 0; i < 4; ++i) {
      z += 0x9E3779B97F4A7C15ull;
      uint64_t t = z;
      t = (t ^ (t >> 30)) * 0xBF58476D1CE4E5B9ull;
      t = (t ^ (t >> 27)) * 0x94D049BB133111EBull;
      s_[i] = t ^ (t >> 31);
    }
  }

  /// Uniform 64-bit value.
  uint64_t Next() {
    uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
};

/// Decorrelated-jitter backoff: the wait after `previous` is uniform in
/// [base, min(cap, 3 * previous)], or exactly `base` when that range is
/// empty. Waits grow exponentially in expectation without synchronizing
/// concurrent retriers. Draws one NextDouble().
inline double NextBackoff(double previous, double base, double cap,
                          Rng* rng) {
  const double hi = std::min(cap, previous * 3.0);
  return base + rng->NextDouble() * std::max(0.0, hi - base);
}

}  // namespace tuffy

#endif  // TUFFY_UTIL_RNG_H_

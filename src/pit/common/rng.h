// Deterministic random number generation.
//
// All stochastic pieces of the repository (sparsity masks, routing decisions,
// synthetic datasets) draw from this generator so that every test and every
// benchmark is exactly reproducible across runs and machines.
#ifndef PIT_COMMON_RNG_H_
#define PIT_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

namespace pit {

// SplitMix64-seeded xoshiro256** — small, fast, and good enough statistical
// quality for workload synthesis. Not cryptographic.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      s = z ^ (z >> 31);
    }
  }

  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  // Uniform in [0, n).
  uint64_t NextBelow(uint64_t n) { return n == 0 ? 0 : NextU64() % n; }

  // Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(NextBelow(static_cast<uint64_t>(hi - lo + 1)));
  }

  // Uniform float in [lo, hi). One rounding (an explicit fma), so builds with
  // and without hardware FMA draw the same bits. A draw close to 1 can round
  // up to exactly `hi`; it is returned as the largest float below `hi`.
  float NextFloat(float lo = 0.0f, float hi = 1.0f) {
    const float v = std::fma(static_cast<float>(NextDouble()), hi - lo, lo);
    return v < hi ? v : std::nextafter(hi, lo);
  }

  // Bernoulli draw with probability p of true.
  bool NextBool(double p) { return NextDouble() < p; }

  // Standard normal via Box–Muller (one value per call; no caching to keep
  // the generator state trivially serializable).
  float NextGaussian();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace pit

#endif  // PIT_COMMON_RNG_H_

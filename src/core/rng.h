#ifndef CYCLEQR_CORE_RNG_H_
#define CYCLEQR_CORE_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cyqr {

/// Complete serializable state of an Rng: the xoshiro256** words plus the
/// Box-Muller cache. Capturing and restoring it mid-stream reproduces the
/// remaining sequence bit-for-bit — the seam crash-safe training resume
/// relies on.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool has_cached_gaussian = false;
  double cached_gaussian = 0.0;
};

/// Deterministic pseudo-random number generator (xoshiro256** seeded through
/// splitmix64). Every stochastic component in the library takes an Rng so
/// experiments are reproducible bit-for-bit across runs.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42);

  /// Uniform 64-bit value. Inline, like NextDouble: dropout draws one per
  /// element.
  uint64_t NextUint64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1): the top 53 bits of NextUint64.
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1).
  float NextFloat() { return static_cast<float>(NextDouble()); }

  /// Uniform integer in [0, n). Precondition: n > 0.
  uint64_t NextBelow(uint64_t n);

  /// Uniform integer in [lo, hi]. Precondition: lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Standard normal (Box-Muller).
  double NextGaussian();

  /// True with the given probability.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Samples an index proportionally to `weights` (need not be normalized;
  /// all weights must be >= 0 and at least one > 0).
  size_t SampleCategorical(const std::vector<float>& weights);

  /// Samples an index from `log_weights` via the Gumbel-free softmax route:
  /// exponentiates against the max for stability, then samples.
  size_t SampleFromLogits(const float* logits, size_t n);

  /// Fisher-Yates shuffle of [0, n) indices.
  std::vector<size_t> Permutation(size_t n);

  /// Splits off an independent generator (for deterministic sub-streams).
  Rng Split();

  /// Derives the seed of a stateless sub-stream from a root seed and up to
  /// three stream coordinates (e.g. training step and gradient shard).
  /// Pure function of its inputs: data-parallel workers can re-derive any
  /// shard's stream on any rank — nothing extra to checkpoint, and the
  /// stream is identical no matter which thread consumes it.
  static uint64_t DeriveStreamSeed(uint64_t seed, uint64_t a, uint64_t b = 0,
                                   uint64_t c = 0);

  /// Snapshots / restores the full generator state (checkpoint support).
  RngState state() const;
  void set_state(const RngState& state);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace cyqr

#endif  // CYCLEQR_CORE_RNG_H_

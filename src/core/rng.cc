#include "core/rng.h"

#include <cmath>
#include <numeric>

#include "core/check.h"

namespace cyqr {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextBelow(uint64_t n) {
  CYQR_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  CYQR_CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  NextBelow(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

size_t Rng::SampleCategorical(const std::vector<float>& weights) {
  CYQR_CHECK(!weights.empty());
  double total = 0.0;
  for (float w : weights) {
    CYQR_CHECK_GE(w, 0.0f);
    total += w;
  }
  CYQR_CHECK_GT(total, 0.0);
  double u = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return i;
  }
  return weights.size() - 1;  // Guard against floating-point undershoot.
}

size_t Rng::SampleFromLogits(const float* logits, size_t n) {
  CYQR_CHECK_GT(n, 0u);
  float max_logit = logits[0];
  for (size_t i = 1; i < n; ++i) max_logit = std::max(max_logit, logits[i]);
  std::vector<float> probs(n);
  for (size_t i = 0; i < n; ++i) probs[i] = std::exp(logits[i] - max_logit);
  return SampleCategorical(probs);
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (size_t i = n; i > 1; --i) {
    size_t j = NextBelow(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

Rng Rng::Split() { return Rng(NextUint64()); }

uint64_t Rng::DeriveStreamSeed(uint64_t seed, uint64_t a, uint64_t b,
                               uint64_t c) {
  // Feed each coordinate through splitmix64 so adjacent (step, shard)
  // pairs land in unrelated regions of the seed space; plain XOR of small
  // integers would produce heavily correlated xoshiro init states.
  uint64_t state = seed;
  uint64_t mixed = SplitMix64(&state);
  state ^= a + 0x9E3779B97F4A7C15ULL;
  mixed ^= SplitMix64(&state);
  state ^= b + 0xBF58476D1CE4E5B9ULL;
  mixed ^= SplitMix64(&state);
  state ^= c + 0x94D049BB133111EBULL;
  mixed ^= SplitMix64(&state);
  return mixed;
}

RngState Rng::state() const {
  RngState state;
  for (int i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.has_cached_gaussian = has_cached_gaussian_;
  state.cached_gaussian = cached_gaussian_;
  return state;
}

void Rng::set_state(const RngState& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  has_cached_gaussian_ = state.has_cached_gaussian;
  cached_gaussian_ = state.cached_gaussian;
}

}  // namespace cyqr

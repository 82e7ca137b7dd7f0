#ifndef CYCLEQR_DECODE_COMMON_H_
#define CYCLEQR_DECODE_COMMON_H_

#include <cstdint>
#include <vector>

#include "core/deadline.h"
#include "nmt/seq2seq.h"

namespace cyqr {

/// A decoded hypothesis: token ids (no BOS/EOS) plus the model log
/// probability log P(sequence, EOS | source) accumulated during decoding.
struct DecodedSequence {
  std::vector<int32_t> ids;
  double log_prob = 0.0;
};

/// Knobs shared by every decoding algorithm. Defaults follow the paper:
/// beam width k = 3, top-n candidate pool n = 40 (Section III-F).
struct DecodeOptions {
  int64_t max_len = 20;
  int64_t beam_size = 3;   // k: number of hypotheses / output sequences.
  int64_t top_n = 40;      // n: sampling pool per step (top-n decoder).
  uint64_t seed = 42;      // Sampling seed (top-n decoder).
  float diversity_penalty = 0.5f;  // Diverse beam search lambda.
  int64_t num_groups = 3;          // Diverse beam search groups.
  // GNMT-style length normalization for the final beam ranking:
  // score = log_prob / ((5 + len) / 6)^alpha; 0 disables it.
  float length_penalty = 0.0f;
  // Optional per-request budget. Decoders check it once per generation
  // step and stop expanding when it expires, returning the best
  // hypotheses found so far — a deadline-bound request degrades to fewer
  // or shorter rewrites rather than blowing through its budget mid-beam.
  // Not owned; must outlive the decode call.
  const Deadline* deadline = nullptr;
};

}  // namespace cyqr

#endif  // CYCLEQR_DECODE_COMMON_H_

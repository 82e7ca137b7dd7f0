#ifndef CYCLEQR_BENCH_E2E_TIMED_H_
#define CYCLEQR_BENCH_E2E_TIMED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/spans.h"
#include "nmt/seq2seq.h"
#include "serving/backends.h"

namespace cyqr::e2e {

/// KvBackend decorator: one "kv.lookup" span per call, plus a hit count.
class TimedKvBackend : public KvBackend {
 public:
  /// `inner` and `spans` must outlive the decorator.
  TimedKvBackend(KvBackend* inner, SpanRecorder* spans);

  [[nodiscard]] Status Lookup(const std::string& key, Deadline& deadline,
                              RewriteKvStore::Rewrites* out) override;

  int64_t hits() const { return hits_.load(); }

 private:
  KvBackend* inner_;
  SpanRecorder* spans_;
  int32_t span_name_;
  std::atomic<int64_t> hits_{0};
};

/// ModelBackend decorator: one "model_rung.rewrite" span per call, plus
/// counts of failed calls and of calls that returned at least one rewrite.
class TimedModelBackend : public ModelBackend {
 public:
  /// `inner` and `spans` must outlive the decorator.
  TimedModelBackend(ModelBackend* inner, SpanRecorder* spans);

  [[nodiscard]] Status Rewrite(const std::vector<std::string>& query_tokens,
                               int64_t k, int64_t max_len, Deadline& deadline,
                               std::vector<RewriteCandidate>* out) override;

  int64_t errors() const { return errors_.load(); }
  int64_t useful() const { return useful_.load(); }

 private:
  ModelBackend* inner_;
  SpanRecorder* spans_;
  int32_t span_name_;
  std::atomic<int64_t> errors_{0};
  std::atomic<int64_t> useful_{0};
};

/// Seq2SeqModel decorator for single-threaded replays. Spans, under the
/// layer prefix given at construction (e.g. "nmt.fwd"):
///   <layer>.encode   StartDecode
///   <layer>.step.posA-B  Step at decode position A..B (1-based; the
///                    first Step after StartDecode is position 1)
///   <layer>.clone    DecodeState::Clone
///   <layer>.forward  teacher-forced Forward (sequence scoring)
/// The wrapped state carries the position across Clone(), so a forked beam
/// hypothesis keeps counting where its parent stopped.
class TimedSeq2Seq : public Seq2SeqModel {
 public:
  static constexpr int kPositionBuckets = 4;
  static constexpr int kPositionsPerBucket = 5;

  /// `inner` and `spans` must outlive the decorator.
  TimedSeq2Seq(const Seq2SeqModel* inner, SpanRecorder* spans,
               const std::string& layer);

  Tensor Forward(const EncodedBatch& src,
                 const EncodedBatch& tgt_in) const override;
  std::unique_ptr<DecodeState> StartDecode(
      const std::vector<int32_t>& src_ids) const override;
  std::vector<float> Step(DecodeState& state, int32_t token) const override;
  int64_t vocab_size() const override { return inner_->vocab_size(); }
  std::string name() const override { return inner_->name(); }

  /// Span name of position bucket `bucket` (0-based), e.g.
  /// "nmt.fwd.step.pos1-5".
  static std::string StepSpanName(const std::string& layer, int bucket);

 private:
  class State;

  const Seq2SeqModel* inner_;
  SpanRecorder* spans_;
  int32_t encode_name_;
  int32_t clone_name_;
  int32_t forward_name_;
  int32_t step_names_[kPositionBuckets];
};

}  // namespace cyqr::e2e

#endif  // CYCLEQR_BENCH_E2E_TIMED_H_

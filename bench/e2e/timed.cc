#include "bench/e2e/timed.h"

#include <utility>

namespace cyqr::e2e {

TimedKvBackend::TimedKvBackend(KvBackend* inner, SpanRecorder* spans)
    : inner_(inner), spans_(spans), span_name_(spans->Intern("kv.lookup")) {}

Status TimedKvBackend::Lookup(const std::string& key, Deadline& deadline,
                              RewriteKvStore::Rewrites* out) {
  Status status;
  {
    const SpanRecorder::Scope scope(spans_, span_name_);
    status = inner_->Lookup(key, deadline, out);
  }
  if (status.ok()) ++hits_;
  return status;
}

TimedModelBackend::TimedModelBackend(ModelBackend* inner, SpanRecorder* spans)
    : inner_(inner),
      spans_(spans),
      span_name_(spans->Intern("model_rung.rewrite")) {}

Status TimedModelBackend::Rewrite(const std::vector<std::string>& query_tokens,
                                  int64_t k, int64_t max_len,
                                  Deadline& deadline,
                                  std::vector<RewriteCandidate>* out) {
  Status status;
  {
    const SpanRecorder::Scope scope(spans_, span_name_);
    status = inner_->Rewrite(query_tokens, k, max_len, deadline, out);
  }
  if (!status.ok()) {
    ++errors_;
  } else if (!out->empty()) {
    ++useful_;
  }
  return status;
}

/// The inner model's state plus the decode position of this lineage.
class TimedSeq2Seq::State : public DecodeState {
 public:
  State(std::unique_ptr<DecodeState> inner, int64_t position,
        const TimedSeq2Seq* model)
      : inner_(std::move(inner)), position_(position), model_(model) {}

  std::unique_ptr<DecodeState> Clone() const override {
    const SpanRecorder::Scope scope(model_->spans_, model_->clone_name_);
    return std::make_unique<State>(inner_->Clone(), position_, model_);
  }

  DecodeState& inner() { return *inner_; }
  int64_t Advance() { return ++position_; }

 private:
  std::unique_ptr<DecodeState> inner_;
  int64_t position_;
  const TimedSeq2Seq* model_;
};

TimedSeq2Seq::TimedSeq2Seq(const Seq2SeqModel* inner, SpanRecorder* spans,
                           const std::string& layer)
    : inner_(inner),
      spans_(spans),
      encode_name_(spans->Intern(layer + ".encode")),
      clone_name_(spans->Intern(layer + ".clone")),
      forward_name_(spans->Intern(layer + ".forward")) {
  for (int b = 0; b < kPositionBuckets; ++b) {
    step_names_[b] = spans->Intern(StepSpanName(layer, b));
  }
}

std::string TimedSeq2Seq::StepSpanName(const std::string& layer, int bucket) {
  const int first = bucket * kPositionsPerBucket + 1;
  return layer + ".step.pos" + std::to_string(first) + "-" +
         std::to_string(first + kPositionsPerBucket - 1);
}

Tensor TimedSeq2Seq::Forward(const EncodedBatch& src,
                             const EncodedBatch& tgt_in) const {
  const SpanRecorder::Scope scope(spans_, forward_name_);
  return inner_->Forward(src, tgt_in);
}

std::unique_ptr<DecodeState> TimedSeq2Seq::StartDecode(
    const std::vector<int32_t>& src_ids) const {
  const SpanRecorder::Scope scope(spans_, encode_name_);
  return std::make_unique<State>(inner_->StartDecode(src_ids), 0, this);
}

std::vector<float> TimedSeq2Seq::Step(DecodeState& state,
                                      int32_t token) const {
  // Decoders only hand back states this model created (StartDecode and
  // Clone above), so the downcast is exact.
  State& timed = static_cast<State&>(state);
  const int64_t bucket = (timed.Advance() - 1) / kPositionsPerBucket;
  const SpanRecorder::Scope scope(
      spans_, step_names_[bucket < kPositionBuckets ? bucket
                                                    : kPositionBuckets - 1]);
  return inner_->Step(timed.inner(), token);
}

}  // namespace cyqr::e2e

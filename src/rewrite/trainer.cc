#include "rewrite/trainer.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <set>
#include <shared_mutex>
#include <thread>
#include <utility>

#include "core/check.h"
#include "core/collective.h"
#include "core/fault.h"
#include "core/math.h"
#include "core/stopwatch.h"
#include "core/thread_annotations.h"
#include "decode/topn_sampling.h"
#include "nn/grad_accum.h"
#include "obs/flight_recorder.h"
#include "rewrite/checkpoint.h"
#include "tensor/ops.h"

namespace cyqr {

std::vector<SeqPair> EncodePairs(const std::vector<TokenPair>& pairs,
                                 const Vocabulary& vocab) {
  std::vector<SeqPair> out;
  out.reserve(pairs.size());
  for (const TokenPair& p : pairs) {
    out.push_back({vocab.Encode(p.query), vocab.Encode(p.title)});
  }
  return out;
}

std::vector<SeqPair> EncodeQueryPairs(const std::vector<QueryPair>& pairs,
                                      const Vocabulary& vocab) {
  std::vector<SeqPair> out;
  out.reserve(2 * pairs.size());
  for (const QueryPair& p : pairs) {
    std::vector<int32_t> a = vocab.Encode(p.a);
    std::vector<int32_t> b = vocab.Encode(p.b);
    out.push_back({a, b});
    out.push_back({std::move(b), std::move(a)});
  }
  return out;
}

std::vector<SeqPair> ReversePairs(const std::vector<SeqPair>& pairs) {
  std::vector<SeqPair> out;
  out.reserve(pairs.size());
  for (const SeqPair& p : pairs) out.push_back({p.tgt, p.src});
  return out;
}

namespace {

/// The full forward construction of one shard's loss — L_f + L_b, plus the
/// cycle term when `cyclic` (Algorithm 1 lines 9-12 / Eq. 5). Any model
/// replica with identical parameters, identical `decode_rng` state, and an
/// identical dropout stream produces bit-identical loss and gradients,
/// which is the whole determinism argument.
Tensor ComputeBatchLoss(CycleModel& model, const CycleTrainerOptions& options,
                        const std::vector<SeqPair>& batch, bool cyclic,
                        Rng& decode_rng) {
  const CycleConfig& config = model.config();

  // L_f: query -> title.
  std::vector<std::vector<int32_t>> queries;
  std::vector<std::vector<int32_t>> titles;
  for (const SeqPair& p : batch) {
    queries.push_back(p.src);
    titles.push_back(p.tgt);
  }
  const EncodedBatch q_batch = PadBatch(queries, config.max_query_len);
  const TeacherForcedBatch t_tf = MakeTeacherForced(titles,
                                                    config.max_title_len);
  Tensor lf = MaskedCrossEntropy(model.forward().Forward(q_batch,
                                                         t_tf.inputs),
                                 t_tf.targets, t_tf.target_mask,
                                 options.label_smoothing);

  // L_b: title -> query.
  const EncodedBatch t_batch = PadBatch(titles, config.max_title_len);
  const TeacherForcedBatch q_tf = MakeTeacherForced(queries,
                                                    config.max_query_len);
  Tensor lb = MaskedCrossEntropy(model.backward().Forward(t_batch,
                                                          q_tf.inputs),
                                 q_tf.targets, q_tf.target_mask,
                                 options.label_smoothing);
  Tensor loss = Add(lf, lb);

  if (cyclic) {
    // Algorithm 1 lines 9-12: k synthetic titles per query via the top-n
    // sampling decoder, then the approximated cycle likelihood (Eq. 5).
    const int64_t k = config.beam_width;
    DecodeOptions decode_options;
    decode_options.beam_size = k;
    decode_options.top_n = config.top_n;
    decode_options.max_len = config.max_title_len;
    std::vector<std::vector<int32_t>> synth_queries;  // Each repeated k times.
    std::vector<std::vector<int32_t>> synth_titles;
    for (const SeqPair& p : batch) {
      std::vector<DecodedSequence> decoded = TopNSamplingDecode(
          model.forward(), p.src, decode_options, decode_rng);
      // Guarantee exactly k titles (tiny vocabularies can yield fewer).
      while (static_cast<int64_t>(decoded.size()) < k && !decoded.empty()) {
        decoded.push_back(decoded.back());
      }
      if (decoded.empty()) {
        decoded.assign(static_cast<size_t>(k), DecodedSequence{{kUnkId}, 0.0});
      }
      for (int64_t i = 0; i < k; ++i) {
        synth_queries.push_back(p.src);
        synth_titles.push_back(decoded[i].ids);
      }
    }
    // log P_f(y_i | x) — differentiable in theta_f.
    const EncodedBatch sq_batch = PadBatch(synth_queries,
                                           config.max_query_len);
    const TeacherForcedBatch st_tf =
        MakeTeacherForced(synth_titles, config.max_title_len);
    Tensor lpf = SequenceLogProb(
        model.forward().Forward(sq_batch, st_tf.inputs), st_tf.targets,
        st_tf.target_mask);
    // log P_b(x | y_i) — differentiable in theta_b.
    const EncodedBatch st_batch = PadBatch(synth_titles,
                                           config.max_title_len);
    const TeacherForcedBatch sq_tf =
        MakeTeacherForced(synth_queries, config.max_query_len);
    Tensor lpb = SequenceLogProb(
        model.backward().Forward(st_batch, sq_tf.inputs), sq_tf.targets,
        sq_tf.target_mask);
    // L_c = mean_x logsumexp_i (lpf_i + lpb_i); maximize => subtract.
    Tensor lc = MeanAll(GroupLogSumExp(Add(lpf, lpb), k));
    loss = Sub(loss, Scale(lc, config.lambda));
  }
  return loss;
}

/// What the coordinator tells the ranks to do next. Published before the
/// step's first barrier, read by every rank after it.
struct StepPlan {
  int64_t step = 0;
  int64_t adam_step = 0;  // The optimizer update this step applies.
  bool cyclic = false;
  bool stop = false;
  std::vector<SeqPair> batch;  // The full global batch, shard-sliced later.
};

}  // namespace

/// Shared state of the engine's K ranks, for one Train() run or for every
/// StepOnce() call. The plan rides under a reader/writer lock (the
/// coordinator is the only writer; ranks take the shared side). The gradient slots and shard losses are deliberately
/// unlocked: each slot/loss index has exactly one writer per step, and the
/// collective's barriers hand the elements across threads with a proper
/// happens-before edge. The slots are allocated once, full length, and
/// every step overwrites them in place.
class DataParallelContext {
 public:
  DataParallelContext(int64_t world_size, const CycleTrainerOptions& options,
                      std::vector<Tensor> master)
      : master_params(std::move(master)),
        collective({static_cast<int>(world_size),
                    options.collective_timeout_millis}),
        slots(static_cast<size_t>(options.grad_shards),
              std::vector<float>(
                  static_cast<size_t>(TotalParameterSize(master_params)))),
        shard_losses(static_cast<size_t>(options.grad_shards), 0.0) {}

  void PublishPlan(StepPlan next) {
    std::unique_lock<std::shared_mutex> lock(plan_mu_);
    plan_ = std::move(next);
  }

  StepPlan SnapshotPlan() const {
    std::shared_lock<std::shared_mutex> lock(plan_mu_);
    return plan_;
  }

  // The master model's parameters, listed once per run: rank 0 computes
  // on them and every worker copies them into its replica.
  const std::vector<Tensor> master_params;
  Collective collective;
  std::vector<std::vector<float>> slots;
  std::vector<double> shard_losses;

 private:
  mutable std::shared_mutex plan_mu_;
  StepPlan plan_ CYQR_GUARDED_BY(plan_mu_);
};

namespace {

/// Computes every gradient shard owned by `rank` (shard j is owned by rank
/// j % K) into ctx.slots / ctx.shard_losses, then runs the per-rank fault
/// hooks. `params` is `model.Parameters()`, listed once per run. Each
/// shard draws its decode and dropout randomness from streams derived
/// purely from (seed, step, shard), so the shard's bits do not depend on
/// which rank — or how many ranks — computed it.
Status ComputeOwnedShards(int rank, const StepPlan& plan, CycleModel& model,
                          const std::vector<Tensor>& params,
                          const CycleTrainerOptions& options,
                          DataParallelContext& ctx) {
  const int64_t num_shards = static_cast<int64_t>(ctx.slots.size());
  const int64_t per_shard = options.batch_size / num_shards;
  for (int64_t j = rank; j < num_shards;
       j += ctx.collective.world_size()) {
    // Flight event: args = (step, shard index). The dp crash drill kills a
    // worker right after this loop, so the dump tail names the in-flight
    // step and the shards this rank finished before dying.
    static const int32_t kShardEvent =
        FlightRecorder::Global().InternName("train.shard_compute");
    FlightRecorder::Global().Record(FlightCategory::kTrain, kShardEvent,
                                    plan.step, j);
    Rng decode_rng(
        Rng::DeriveStreamSeed(options.seed, plan.step, j, /*substream=*/1));
    const Rng dropout_rng(
        Rng::DeriveStreamSeed(options.seed, plan.step, j, /*substream=*/2));
    model.rng().set_state(dropout_rng.state());
    const std::vector<SeqPair> sub_batch(
        plan.batch.begin() + j * per_shard,
        plan.batch.begin() + (j + 1) * per_shard);
    for (const Tensor& p : params) {
      Tensor t = p;  // Handles share storage; copy is an alias.
      t.ZeroGrad();
    }
    Tensor loss =
        ComputeBatchLoss(model, options, sub_batch, plan.cyclic, decode_rng);
    loss.Backward();
    FlattenGradients(params, &ctx.slots[static_cast<size_t>(j)]);
    ctx.shard_losses[static_cast<size_t>(j)] = loss.item();
  }
  if (options.fault_plan.WorkerCrashesAt(rank, plan.step)) {
    // Drill hook: die mid-step, after compute but before the gradient
    // collective — the widest torn-collective window.
    SimulateCrash();
  }
  if (options.fault_plan.WorkerStallsAt(rank, plan.step)) {
    // Drill hook: stop participating. Peers time out at the next barrier
    // and the abort fan-out (or the self-abort, when there are no peers)
    // unwinds this rank too.
    return ctx.collective.StallUntilAborted();
  }
  return Status::OK();
}

/// What every rank derives, alike, from the shard losses and the reduced
/// gradient in slot 0: the mean loss, the pre-clip gradient norm, whether
/// the step is skipped, and the clip scale.
struct StepVerdict {
  double loss = 0.0;
  double grad_norm = 0.0;
  bool anomaly = false;
  float clip_scale = 1.0f;  // 1 when the norm is within the clip.
};

/// The optimizer tail of a step on `rank`. Every rank first reaches the
/// same verdict from slot 0 and the shard losses; its norm is the sum
/// ClipGradNorm takes over the averaged gradients, the squares of
/// g = slot0[e] * (1/S) in element order. Unless the step is skipped, the
/// rank then applies its slice [n*r/K, n*(r+1)/K) of the Adam update to
/// the master parameters. The slices are disjoint, so the ranks run them
/// at once; the caller's next barrier publishes them.
StepVerdict StepOptimizerSlice(int rank, const StepPlan& plan,
                               const CycleTrainerOptions& options,
                               const DataParallelContext& ctx,
                               Adam& optimizer) {
  const std::vector<float>& reduced = ctx.slots[0];
  StepVerdict verdict;
  for (const double shard_loss : ctx.shard_losses) verdict.loss += shard_loss;
  verdict.loss /= static_cast<double>(ctx.slots.size());
  if (options.fault_plan.StepHasNanLoss(plan.step)) {
    // Drill hook: pretend this batch produced a NaN loss.
    verdict.loss = std::numeric_limits<double>::quiet_NaN();
  }
  const float grad_scale = 1.0f / static_cast<float>(ctx.slots.size());
  double sq = 0.0;
  for (const float sum : reduced) {
    const float g = sum * grad_scale;
    sq += static_cast<double>(g) * g;
  }
  verdict.grad_norm = std::sqrt(sq);
  verdict.anomaly = !std::isfinite(verdict.loss) ||
                    !std::isfinite(verdict.grad_norm) ||
                    verdict.grad_norm > options.anomaly_grad_norm;
  if (verdict.grad_norm > options.grad_clip && verdict.grad_norm > 0.0) {
    verdict.clip_scale =
        static_cast<float>(options.grad_clip / verdict.grad_norm);
  }
  if (!verdict.anomaly) {
    const int64_t n = static_cast<int64_t>(reduced.size());
    const int64_t world = ctx.collective.world_size();
    optimizer.StepRange(plan.adam_step, n * rank / world,
                        n * (rank + 1) / world, reduced.data(), grad_scale,
                        verdict.clip_scale);
  }
  return verdict;
}

/// Barrier() wrapped in a flight event: args = (step, wait micros). The
/// recorder lives in obs, which core cannot link against, so barrier waits
/// are booked here at the call sites instead of inside Collective. A crash
/// dump whose tail is a barrier_wait with no matching step_end reads as
/// "died parked at the rendezvous for that step".
Status TimedBarrier(Collective& collective, int64_t step) {
  static const int32_t kBarrierEvent =
      FlightRecorder::Global().InternName("collective.barrier_wait");
  Stopwatch watch;
  Status status = collective.Barrier();
  FlightRecorder::Global().Record(
      FlightCategory::kCollective, kBarrierEvent, step,
      static_cast<int64_t>(watch.ElapsedMicros()));
  return status;
}

Status CheckShardOptions(const CycleTrainerOptions& options) {
  if (options.grad_shards < 1) {
    return Status::InvalidArgument("options.grad_shards must be >= 1");
  }
  if (options.batch_size % options.grad_shards != 0) {
    return Status::InvalidArgument(
        "options.batch_size (" + std::to_string(options.batch_size) +
        ") must be divisible by options.grad_shards (" +
        std::to_string(options.grad_shards) + ")");
  }
  if (options.workers < 0 || options.workers > options.grad_shards) {
    return Status::InvalidArgument(
        "options.workers (" + std::to_string(options.workers) +
        ") must be in [0, options.grad_shards (" +
        std::to_string(options.grad_shards) + ")]");
  }
  return Status::OK();
}

}  // namespace

CycleTrainer::CycleTrainer(CycleModel* model,
                           std::vector<SeqPair> train_pairs,
                           const CycleTrainerOptions& options)
    : model_(model),
      train_(std::move(train_pairs)),
      options_(options),
      optimizer_(model->Parameters(), Adam::Options{}),
      schedule_(model->config().forward.d_model, options.noam_warmup,
                options.noam_factor),
      rng_(options.seed) {
  CYQR_CHECK(model != nullptr);
  CYQR_CHECK(!train_.empty());
  InitInstruments(options.metrics);
}

CycleTrainer::~CycleTrainer() = default;

void CycleTrainer::InitInstruments(MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  obs_ = std::make_unique<Instruments>();
  obs_->steps = metrics->GetCounter("cyqr_train_steps_total");
  obs_->skipped_batches =
      metrics->GetCounter("cyqr_train_skipped_batches_total");
  obs_->rollbacks = metrics->GetCounter("cyqr_train_rollbacks_total");
  obs_->step_time = metrics->GetHistogram(
      "cyqr_train_step_time_millis", Histogram::DefaultLatencyBoundsMillis());
  obs_->checkpoint_write =
      metrics->GetHistogram("cyqr_train_checkpoint_write_millis",
                            Histogram::DefaultLatencyBoundsMillis());
  obs_->collective_wait =
      metrics->GetHistogram("cyqr_train_collective_wait_millis",
                            Histogram::DefaultLatencyBoundsMillis());
  obs_->allreduce =
      metrics->GetHistogram("cyqr_train_allreduce_millis",
                            Histogram::DefaultLatencyBoundsMillis());
  obs_->optimizer =
      metrics->GetHistogram("cyqr_train_optimizer_millis",
                            Histogram::DefaultLatencyBoundsMillis());
  obs_->tokens_per_sec = metrics->GetGauge("cyqr_train_tokens_per_sec");
  obs_->loss = metrics->GetGauge("cyqr_train_loss_value");
  obs_->grad_norm = metrics->GetGauge("cyqr_train_grad_norm");
}

std::vector<SeqPair> CycleTrainer::SampleBatch() {
  std::vector<SeqPair> batch;
  batch.reserve(options_.batch_size);
  for (int64_t i = 0; i < options_.batch_size; ++i) {
    batch.push_back(train_[rng_.NextBelow(train_.size())]);
  }
  return batch;
}

Result<double> CycleTrainer::RunStep(DataParallelContext& ctx) {
  Stopwatch step_watch;
  const double wait_before = ctx.collective.total_wait_millis();
  const int64_t next_step = step_ + 1;
  if (options_.fault_plan.crash_at_step == next_step) {
    SimulateCrash();  // Drill hook: die as if SIGKILLed mid-run.
  }
  StepPlan plan;
  plan.step = next_step;
  plan.adam_step = optimizer_.step_count() + 1;
  plan.cyclic = options_.joint && next_step > options_.warmup_steps;
  plan.batch = SampleBatch();
  int64_t batch_tokens = 0;
  for (const SeqPair& p : plan.batch) {
    batch_tokens += static_cast<int64_t>(p.src.size() + p.tgt.size());
  }
  // Flight event: args = (step, batch tokens). A crash dump whose last
  // train event is a step_begin with no matching step_end identifies the
  // in-flight step.
  static const int32_t kStepBeginEvent =
      FlightRecorder::Global().InternName("train.step_begin");
  FlightRecorder::Global().Record(FlightCategory::kTrain, kStepBeginEvent,
                                  next_step, batch_tokens);
  // Every rank reads the learning rate in its optimizer slice; the plan
  // barrier publishes it with the plan.
  optimizer_.set_learning_rate(schedule_.LearningRate(next_step));
  ctx.PublishPlan(plan);
  // Plan barrier.
  CYQR_RETURN_IF_ERROR(TimedBarrier(ctx.collective, next_step));
  CYQR_RETURN_IF_ERROR(ComputeOwnedShards(0, plan, *model_,
                                          ctx.master_params, options_, ctx));
  // Compute barrier.
  CYQR_RETURN_IF_ERROR(TimedBarrier(ctx.collective, next_step));
  Stopwatch allreduce_watch;
  CYQR_RETURN_IF_ERROR(ctx.collective.AllReduceSum(0, &ctx.slots));
  const double allreduce_millis = allreduce_watch.ElapsedMillis();

  // Every rank judges the step from slot 0 itself, so the verdict needs
  // no barrier, and steps its slice of the master parameters. After the
  // tail barrier the coordinator owns everything up to the next plan
  // barrier: the traces, evaluation, and checkpointing all happen while
  // the workers are parked, so no collective can be torn by a mid-step
  // checkpoint and rank 0 is the only writer of curve/grad-norm state.
  Stopwatch optimizer_watch;
  const StepVerdict verdict =
      StepOptimizerSlice(0, plan, options_, ctx, optimizer_);
  // Tail barrier.
  CYQR_RETURN_IF_ERROR(TimedBarrier(ctx.collective, next_step));
  const double optimizer_millis = optimizer_watch.ElapsedMillis();
  ++step_;
  grad_norms_.push_back(verdict.grad_norm);
  if (verdict.anomaly) {
    // The update was skipped: the parameters stay untouched by a poisoned
    // batch, and the streak counter drives the rollback in PostStep().
    ++consecutive_anomalies_;
    ++skipped_batches_;
    // Flight event: args = (step, anomaly streak length).
    static const int32_t kAnomalyEvent =
        FlightRecorder::Global().InternName("train.anomaly");
    FlightRecorder::Global().Record(FlightCategory::kTrain, kAnomalyEvent,
                                    step_, consecutive_anomalies_);
  } else {
    consecutive_anomalies_ = 0;
    optimizer_.set_step_count(plan.adam_step);
  }
  if (obs_ != nullptr) {
    const double step_seconds = step_watch.ElapsedSeconds();
    obs_->steps->Increment();
    obs_->step_time->Observe(step_seconds * 1e3);
    if (step_seconds > 0) {
      obs_->tokens_per_sec->Set(batch_tokens / step_seconds);
    }
    if (std::isfinite(verdict.loss)) obs_->loss->Set(verdict.loss);
    if (std::isfinite(verdict.grad_norm)) {
      obs_->grad_norm->Set(verdict.grad_norm);
    }
    if (verdict.anomaly) obs_->skipped_batches->Increment();
    obs_->collective_wait->Observe(ctx.collective.total_wait_millis() -
                                   wait_before);
    obs_->allreduce->Observe(allreduce_millis);
    obs_->optimizer->Observe(optimizer_millis);
  }
  // Flight event: args = (step, step time in micros).
  static const int32_t kStepEndEvent =
      FlightRecorder::Global().InternName("train.step_end");
  FlightRecorder::Global().Record(
      FlightCategory::kTrain, kStepEndEvent, step_,
      static_cast<int64_t>(step_watch.ElapsedMicros()));
  return verdict.loss;
}

double CycleTrainer::StepOnce() {
  if (step_ctx_ == nullptr) {
    const Status valid = CheckShardOptions(options_);
    CYQR_CHECK_MSG(valid.ok(), valid.ToString().c_str());
    step_ctx_ = std::make_unique<DataParallelContext>(1, options_,
                                                      model_->Parameters());
  }
  const Result<double> loss = RunStep(*step_ctx_);
  CYQR_CHECK_MSG(loss.ok(), loss.status().ToString().c_str());
  return loss.value();
}

TrainMetricsPoint CycleTrainer::Evaluate(
    const std::vector<SeqPair>& eval_pairs) {
  NoGradGuard no_grad;
  const CycleConfig& config = model_->config();
  TrainMetricsPoint point;
  point.step = step_;

  const TeacherForcedMetrics q2t =
      EvaluateTeacherForced(model_->forward(), eval_pairs);
  const std::vector<SeqPair> reversed = ReversePairs(eval_pairs);
  const TeacherForcedMetrics t2q =
      EvaluateTeacherForced(model_->backward(), reversed);
  point.q2t_perplexity = q2t.perplexity;
  point.t2q_perplexity = t2q.perplexity;
  point.q2t_accuracy = q2t.token_accuracy;
  point.t2q_accuracy = t2q.token_accuracy;

  // Translate-back metrics over distinct eval queries.
  std::set<std::string> seen;
  std::vector<std::vector<int32_t>> eval_queries;
  for (const SeqPair& p : eval_pairs) {
    std::string key;
    for (int32_t id : p.src) key += std::to_string(id) + ",";
    if (!seen.insert(key).second) continue;
    eval_queries.push_back(p.src);
    if (static_cast<int64_t>(eval_queries.size()) >= options_.eval_queries) {
      break;
    }
  }
  DecodeOptions decode_options;
  decode_options.beam_size = config.beam_width;
  decode_options.top_n = config.top_n;
  decode_options.max_len = config.max_title_len;
  decode_options.seed = 7777;  // Fixed: evaluation must be comparable.

  double total_lp = 0.0;
  double total_acc = 0.0;
  int64_t counted = 0;
  for (const std::vector<int32_t>& query : eval_queries) {
    const std::vector<DecodedSequence> titles =
        TopNSamplingDecode(model_->forward(), query, decode_options);
    if (titles.empty()) continue;
    std::vector<std::vector<int32_t>> title_ids;
    for (const DecodedSequence& t : titles) title_ids.push_back(t.ids);
    // log P(x|x) = logsumexp_i [log P_f(y_i|x) + log P_b(x|y_i)].
    const std::vector<double> lpf =
        ScoreSequences(model_->forward(), query, title_ids);
    std::vector<double> joint_lp(titles.size());
    std::vector<double> back_acc(titles.size());
    for (size_t i = 0; i < titles.size(); ++i) {
      const double lpb =
          ScoreSequence(model_->backward(), title_ids[i], query);
      joint_lp[i] = lpf[i] + lpb;
      // Token accuracy of reproducing the query from this title.
      const EncodedBatch src = PadBatch({title_ids[i]});
      const TeacherForcedBatch tf = MakeTeacherForced({query});
      Tensor logits = model_->backward().Forward(src, tf.inputs);
      back_acc[i] =
          TokenAccuracyFromLogits(logits, tf.targets, tf.target_mask);
    }
    total_lp += LogSumExp(joint_lp);
    // Accuracy weighted by the forward title probabilities.
    double wsum = 0.0;
    double acc = 0.0;
    double max_lpf = *std::max_element(lpf.begin(), lpf.end());
    for (size_t i = 0; i < titles.size(); ++i) {
      const double w = std::exp(lpf[i] - max_lpf);
      wsum += w;
      acc += w * back_acc[i];
    }
    total_acc += acc / wsum;
    ++counted;
  }
  if (counted > 0) {
    point.translate_back_log_prob = total_lp / counted;
    point.translate_back_accuracy = total_acc / counted;
  }
  return point;
}

Status CycleTrainer::SaveCheckpoint() {
  if (options_.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "SaveCheckpoint requires options.checkpoint_dir");
  }
  TrainerCheckpoint ckpt;
  ckpt.step = step_;
  ckpt.trainer_rng = rng_.state();
  ckpt.consecutive_anomalies = consecutive_anomalies_;
  ckpt.skipped_batches = skipped_batches_;
  ckpt.optimizer = optimizer_.ExportState();
  ckpt.curve = curve_;
  ckpt.grad_norms = grad_norms_;
  const std::string path =
      options_.checkpoint_dir + "/" + CheckpointFileName(step_);
  Stopwatch write_watch;
  CYQR_RETURN_IF_ERROR(
      SaveTrainerCheckpoint(model_->Parameters(), ckpt, path));
  CYQR_RETURN_IF_ERROR(
      PruneCheckpoints(options_.checkpoint_dir, options_.checkpoint_keep));
  if (obs_ != nullptr) {
    obs_->checkpoint_write->Observe(write_watch.ElapsedMillis());
  }
  // Flight event: args = (step, write time in micros).
  static const int32_t kCheckpointEvent =
      FlightRecorder::Global().InternName("train.checkpoint");
  FlightRecorder::Global().Record(
      FlightCategory::kTrain, kCheckpointEvent, step_,
      static_cast<int64_t>(write_watch.ElapsedMicros()));
  if (consecutive_anomalies_ == 0) last_good_checkpoint_ = path;
  return Status::OK();
}

Status CycleTrainer::Resume(const std::string& path) {
  TrainerCheckpoint ckpt;
  CYQR_RETURN_IF_ERROR(
      LoadTrainerCheckpoint(model_->Parameters(), &ckpt, path));
  CYQR_RETURN_IF_ERROR(optimizer_.ImportState(ckpt.optimizer));
  rng_.set_state(ckpt.trainer_rng);
  step_ = ckpt.step;
  consecutive_anomalies_ = ckpt.consecutive_anomalies;
  skipped_batches_ = ckpt.skipped_batches;
  curve_ = std::move(ckpt.curve);
  grad_norms_ = std::move(ckpt.grad_norms);
  return Status::OK();
}

Status CycleTrainer::ResumeLatest() {
  if (options_.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "ResumeLatest requires options.checkpoint_dir");
  }
  Result<std::string> latest = LatestCheckpointFile(options_.checkpoint_dir);
  if (!latest.ok()) return latest.status();
  return Resume(latest.value());
}

Status CycleTrainer::PostStep(const std::vector<SeqPair>& eval_pairs) {
  if (options_.eval_every > 0 &&
      (step_ % options_.eval_every == 0 || step_ == options_.max_steps)) {
    model_->SetTraining(false);
    curve_.push_back(Evaluate(eval_pairs));
    model_->SetTraining(true);
  }
  if (options_.checkpoint_every > 0 &&
      step_ % options_.checkpoint_every == 0) {
    CYQR_RETURN_IF_ERROR(SaveCheckpoint());
  }
  if (consecutive_anomalies_ >= options_.max_consecutive_anomalies) {
    if (last_good_checkpoint_.empty()) {
      return Status::Internal(
          "training diverged (" +
          std::to_string(consecutive_anomalies_) +
          " consecutive anomalous batches) with no checkpoint to roll "
          "back to");
    }
    ++rollbacks_;
    if (obs_ != nullptr) obs_->rollbacks->Increment();
    // Flight event: args = (step being abandoned, rollback count).
    static const int32_t kRollbackEvent =
        FlightRecorder::Global().InternName("train.rollback");
    FlightRecorder::Global().Record(FlightCategory::kTrain, kRollbackEvent,
                                    step_, rollbacks_);
    // Post-mortem seam: dump the journal *before* Resume rewinds trainer
    // state, so the anomaly streak that forced the rollback is on record.
    // No-op when no flight dump is armed.
    NotifyFaultDump("trainer-rollback");
    if (rollbacks_ > options_.max_rollbacks) {
      return Status::Internal(
          "training diverged: rollback budget exhausted after " +
          std::to_string(rollbacks_ - 1) + " rollbacks");
    }
    CYQR_RETURN_IF_ERROR(Resume(last_good_checkpoint_));
    consecutive_anomalies_ = 0;
  }
  return Status::OK();
}

Status CycleTrainer::Train(const std::vector<SeqPair>& eval_pairs) {
  if (options_.checkpoint_every > 0) {
    if (options_.checkpoint_dir.empty()) {
      return Status::InvalidArgument(
          "options.checkpoint_every requires options.checkpoint_dir");
    }
    std::error_code ec;
    std::filesystem::create_directories(options_.checkpoint_dir, ec);
    if (ec) {
      return Status::IoError("cannot create checkpoint directory " +
                             options_.checkpoint_dir);
    }
  }
  CYQR_RETURN_IF_ERROR(CheckShardOptions(options_));
  const int64_t workers =
      options_.workers > 0
          ? options_.workers
          : std::clamp<int64_t>(std::thread::hardware_concurrency(), 1,
                                options_.grad_shards);
  DataParallelContext ctx(workers, options_, model_->Parameters());

  // Ranks 1..K-1 are worker threads; the calling thread is rank 0, the
  // coordinator. Workers hold a private replica model and copy the master
  // parameters at the top of every step. Each rank writes its own slice of
  // the master's Adam update between the all-reduce and the tail barrier;
  // otherwise the master is only mutated while every worker is parked.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers - 1));
  for (int64_t r = 1; r < workers; ++r) {
    threads.emplace_back([this, &ctx](int rank) {
      Rng replica_rng(options_.seed);  // State re-derived per shard.
      CycleModel replica(model_->config(), replica_rng);
      replica.SetTraining(true);
      const std::vector<Tensor> replica_params = replica.Parameters();
      int64_t last_step = 0;  // Step label for the next plan-barrier wait.
      for (;;) {
        // Plan barrier.
        if (!TimedBarrier(ctx.collective, last_step).ok()) return;
        const StepPlan plan = ctx.SnapshotPlan();
        if (plan.stop) return;
        last_step = plan.step;
        CopyParameters(replica_params, ctx.master_params);
        const Status computed = ComputeOwnedShards(
            rank, plan, replica, replica_params, options_, ctx);
        if (!computed.ok()) return;
        // Compute barrier.
        if (!TimedBarrier(ctx.collective, plan.step).ok()) return;
        if (!ctx.collective.AllReduceSum(rank, &ctx.slots).ok()) return;
        StepOptimizerSlice(rank, plan, options_, ctx, optimizer_);
        // Tail barrier.
        if (!TimedBarrier(ctx.collective, plan.step).ok()) return;
      }
    }, static_cast<int>(r));
  }

  Status run_status;
  while (step_ < options_.max_steps) {
    const Result<double> stepped = RunStep(ctx);
    run_status = stepped.ok() ? PostStep(eval_pairs) : stepped.status();
    if (!run_status.ok()) break;
  }

  if (run_status.ok()) {
    // Clean shutdown: a stop plan plus one last barrier releases every
    // worker out of its loop.
    StepPlan stop_plan;
    stop_plan.stop = true;
    ctx.PublishPlan(stop_plan);
    run_status = TimedBarrier(ctx.collective, step_);
  } else {
    // Poison the collective so workers blocked at any barrier unwind with
    // the same status instead of timing out one by one. No-op when the
    // failure already came from the collective (first abort wins).
    ctx.collective.Abort(run_status);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  collective_wait_millis_ = ctx.collective.total_wait_millis();
  return run_status;
}

double TrainSupervised(Seq2SeqModel& model,
                       const std::vector<SeqPair>& train_pairs,
                       const SupervisedTrainOptions& options,
                       const std::vector<SeqPair>* eval_pairs,
                       std::vector<SupervisedEvalPoint>* curve) {
  CYQR_CHECK(!train_pairs.empty());
  Adam optimizer(model.Parameters(), Adam::Options{});
  // NoamSchedule needs the model width; infer from parameter shapes is
  // brittle, so use a fixed reference width — only the absolute scale of
  // the learning rate changes.
  NoamSchedule schedule(32, options.noam_warmup, options.noam_factor);
  Rng rng(options.seed);
  double last_loss = 0.0;
  for (int64_t step = 1; step <= options.max_steps; ++step) {
    optimizer.set_learning_rate(schedule.LearningRate(step));
    std::vector<std::vector<int32_t>> srcs;
    std::vector<std::vector<int32_t>> tgts;
    for (int64_t i = 0; i < options.batch_size; ++i) {
      const SeqPair& p = train_pairs[rng.NextBelow(train_pairs.size())];
      srcs.push_back(p.src);
      tgts.push_back(p.tgt);
    }
    const EncodedBatch src = PadBatch(srcs, options.max_src_len);
    const TeacherForcedBatch tf = MakeTeacherForced(tgts,
                                                    options.max_tgt_len);
    Tensor loss = MaskedCrossEntropy(model.Forward(src, tf.inputs),
                                     tf.targets, tf.target_mask,
                                     options.label_smoothing);
    optimizer.ZeroGrad();
    loss.Backward();
    ClipGradNorm(model.Parameters(), options.grad_clip);
    optimizer.Step();
    last_loss = loss.item();
    if (curve != nullptr && eval_pairs != nullptr &&
        options.eval_every > 0 &&
        (step % options.eval_every == 0 || step == options.max_steps)) {
      model.SetTraining(false);
      curve->push_back({step, EvaluateTeacherForced(model, *eval_pairs)});
      model.SetTraining(true);
    }
  }
  return last_loss;
}

}  // namespace cyqr

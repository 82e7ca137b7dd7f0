#ifndef CYCLEQR_REWRITE_TRAINER_H_
#define CYCLEQR_REWRITE_TRAINER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fault.h"
#include "core/status.h"
#include "obs/metrics.h"
#include "datagen/click_log.h"
#include "datagen/query_pairs.h"
#include "nmt/scorer.h"
#include "nn/optimizer.h"
#include "nn/schedule.h"
#include "rewrite/cycle_model.h"
#include "text/vocabulary.h"

namespace cyqr {

/// Encodes token pairs (query -> title) into id pairs for training.
std::vector<SeqPair> EncodePairs(const std::vector<TokenPair>& pairs,
                                 const Vocabulary& vocab);

/// Encodes mined synonymous query pairs into id pairs, both directions
/// (a->b and b->a), for the direct query-to-query model.
std::vector<SeqPair> EncodeQueryPairs(const std::vector<QueryPair>& pairs,
                                      const Vocabulary& vocab);

/// Swaps src/tgt of every pair (query->title becomes title->query).
std::vector<SeqPair> ReversePairs(const std::vector<SeqPair>& pairs);

/// One point of the Figure 7 convergence curves.
struct TrainMetricsPoint {
  int64_t step = 0;
  double q2t_perplexity = 0.0;
  double t2q_perplexity = 0.0;
  double q2t_accuracy = 0.0;
  double t2q_accuracy = 0.0;
  // "Translate back" quality: log P(x|x) marginalized over k sampled
  // synthetic titles, and token accuracy of reproducing the query.
  double translate_back_log_prob = 0.0;
  double translate_back_accuracy = 0.0;
};

struct CycleTrainerOptions {
  int64_t max_steps = 600;      // T in Algorithm 1.
  int64_t warmup_steps = 400;   // G: cyclic term enabled after this.
  int64_t batch_size = 8;       // B.
  bool joint = true;            // false = never enable the cyclic term
                                // ("separately trained" baseline).
  float grad_clip = 5.0f;
  float noam_factor = 2.0f;
  int64_t noam_warmup = 200;
  int64_t eval_every = 50;      // Curve sampling period (0 = never).
  int64_t eval_queries = 32;    // Queries used for translate-back metrics.
  float label_smoothing = 0.0f; // Uniform label smoothing for L_f / L_b.
  uint64_t seed = 123;

  // --- Crash-safe training ---------------------------------------------
  // Checkpoint period in steps (0 = never checkpoint). When enabled,
  // `checkpoint_dir` must be set; the newest `checkpoint_keep` files are
  // retained and older ones rotated away.
  int64_t checkpoint_every = 0;
  std::string checkpoint_dir;
  int64_t checkpoint_keep = 3;
  // Guardrails: a step whose loss is non-finite, or whose pre-clip
  // gradient norm is non-finite or above `anomaly_grad_norm`, is skipped
  // (no optimizer update). After `max_consecutive_anomalies` skipped
  // steps in a row the trainer rolls back to the last checkpoint written
  // on a healthy step; after `max_rollbacks` rollbacks Train() gives up
  // and returns an error instead of looping forever.
  double anomaly_grad_norm = 1e6;
  int64_t max_consecutive_anomalies = 5;
  int64_t max_rollbacks = 2;
  // Fault drill hooks: inject NaN losses / a hard crash at chosen steps.
  // The *_worker_* fields target individual data-parallel ranks.
  TrainFaultPlan fault_plan;

  // --- Data-parallel training ------------------------------------------
  // Number of ranks K of the synchronous data-parallel engine (DESIGN.md
  // "Data-parallel training"); 0 picks one rank per host core, at most
  // `grad_shards`. The calling thread is rank 0 (the coordinator, which
  // owns evaluation and every checkpoint write), ranks 1..K-1 are worker
  // threads computing on replica models, and every rank applies its slice
  // of the optimizer update. The parameter trajectory depends on
  // `grad_shards`, never on K — K=1 and K=4 produce bit-identical
  // parameters.
  int64_t workers = 0;
  // Number of gradient shards S: each step's batch splits into S equal
  // sub-batches whose gradients are reduced along a fixed slot tree.
  // batch_size must be divisible by S, and workers must not exceed S.
  int64_t grad_shards = 4;
  // Collective barrier timeout: a rank missing for this long poisons the
  // run with kDeadlineExceeded instead of hanging it.
  double collective_timeout_millis = 20000.0;

  // --- Telemetry -------------------------------------------------------
  // When set, the trainer records step time, tokens/sec, loss, gradient
  // norm, checkpoint write time, and skip/rollback counters here
  // (`cyqr_train_*` instruments; DESIGN.md "Observability"). Null
  // disables telemetry; training math is identical either way.
  MetricsRegistry* metrics = nullptr;
};

class DataParallelContext;  // The engine's shared per-run state.

/// Algorithm 1: cyclic-consistent training. Warmup phase maximizes the two
/// independent likelihoods L_f + L_b; after G steps each batch additionally
/// samples k synthetic titles per query with the top-n decoder and adds
/// lambda * L_c where
///   L_c = mean_x logsumexp_i [ log P_f(y_i|x) + log P_b(x|y_i) ]   (Eq. 5)
class CycleTrainer {
 public:
  /// `model` must outlive the trainer; the training pairs are copied so
  /// temporaries are safe to pass.
  CycleTrainer(CycleModel* model, std::vector<SeqPair> train_pairs,
               const CycleTrainerOptions& options);
  ~CycleTrainer();

  /// Runs the full schedule (or the remainder after Resume) on the
  /// data-parallel engine; records the metric curve on `eval_pairs` every
  /// options.eval_every steps, writes checkpoints per
  /// options.checkpoint_every, and applies the anomaly guardrails. Fails
  /// if the sharding or checkpointing is misconfigured, a rank is lost, a
  /// checkpoint cannot be written, or the rollback budget is exhausted.
  [[nodiscard]] Status Train(const std::vector<SeqPair>& eval_pairs);

  /// Runs the engine's step once on one rank and returns the batch loss.
  /// It is the step Train() runs, so StepOnce() calls and Train() continue
  /// one trajectory; no evaluation, checkpoint or rollback runs here.
  /// Anomalous batches (see CycleTrainerOptions) are skipped: gradients
  /// are computed and recorded but the optimizer is not stepped. Dies on
  /// options Train() would reject. Exposed for tests and step timing.
  double StepOnce();

  /// Restores parameters, optimizer state, the batch-sampling RNG, the
  /// step counter, and the metric/grad-norm traces from a checkpoint
  /// written by a trainer with identical configuration. After Resume,
  /// Train() replays the remaining steps bit-identically to a run that was
  /// never interrupted, at any worker count.
  [[nodiscard]] Status Resume(const std::string& path);

  /// Resume from the newest checkpoint in options.checkpoint_dir;
  /// NotFound when the directory holds none.
  [[nodiscard]] Status ResumeLatest();

  /// Writes a checkpoint for the current step into options.checkpoint_dir
  /// and rotates old files. Train() calls this on schedule; exposed for
  /// tests and the CLI.
  [[nodiscard]] Status SaveCheckpoint();

  const std::vector<TrainMetricsPoint>& curve() const { return curve_; }
  int64_t step() const { return step_; }
  /// Pre-clip global gradient L2 norm of every executed step, in order —
  /// the observability trace behind the anomaly guardrail.
  const std::vector<double>& grad_norms() const { return grad_norms_; }
  int64_t skipped_batches() const { return skipped_batches_; }
  int64_t consecutive_anomalies() const { return consecutive_anomalies_; }
  int64_t rollbacks() const { return rollbacks_; }
  /// Total milliseconds all ranks spent blocked in the collective during
  /// the last Train() — the scaling bench's synchronization-overhead
  /// signal.
  double collective_wait_millis() const { return collective_wait_millis_; }

  /// Evaluates the Figure 7 metrics at the current parameters.
  TrainMetricsPoint Evaluate(const std::vector<SeqPair>& eval_pairs);

 private:
  /// Pre-resolved telemetry instruments; null members when metrics are
  /// disabled (see CycleTrainerOptions::metrics).
  struct Instruments {
    Counter* steps = nullptr;
    Counter* skipped_batches = nullptr;
    Counter* rollbacks = nullptr;
    Histogram* step_time = nullptr;
    Histogram* checkpoint_write = nullptr;
    Histogram* collective_wait = nullptr;
    // The coordinator's gradient tail of a data-parallel step: its slice
    // of the all-reduce plus the closing barrier, then the gradient norm,
    // its slice of the Adam update and the tail barrier.
    Histogram* allreduce = nullptr;
    Histogram* optimizer = nullptr;
    Gauge* tokens_per_sec = nullptr;
    Gauge* loss = nullptr;
    Gauge* grad_norm = nullptr;
  };

  std::vector<SeqPair> SampleBatch();
  void InitInstruments(MetricsRegistry* metrics);
  /// Rank 0's half of one engine step: samples and publishes the plan,
  /// computes its shards, all-reduces, applies its optimizer slice, and
  /// books the step. Returns the mean shard loss.
  [[nodiscard]] Result<double> RunStep(DataParallelContext& ctx);
  /// What Train() does between steps: curve sampling, scheduled
  /// checkpointing, and the anomaly-streak rollback.
  [[nodiscard]] Status PostStep(const std::vector<SeqPair>& eval_pairs);

  CycleModel* model_;
  std::vector<SeqPair> train_;
  CycleTrainerOptions options_;
  Adam optimizer_;
  NoamSchedule schedule_;
  Rng rng_;
  int64_t step_ = 0;
  std::vector<TrainMetricsPoint> curve_;
  std::vector<double> grad_norms_;
  int64_t consecutive_anomalies_ = 0;
  int64_t skipped_batches_ = 0;
  int64_t rollbacks_ = 0;
  // Newest checkpoint written while the anomaly streak was zero — the
  // rollback target. Rotation keeps it alive as long as healthy
  // checkpoints are more recent than `checkpoint_keep` unhealthy ones.
  std::string last_good_checkpoint_;
  double collective_wait_millis_ = 0.0;
  std::unique_ptr<Instruments> obs_;  // Null when telemetry is disabled.
  // StepOnce()'s one-rank context, built on its first call.
  std::unique_ptr<DataParallelContext> step_ctx_;
};

/// Plain supervised seq2seq training (used for the direct query-to-query
/// model and the Figure 8/9 architecture comparisons). Returns the final
/// training loss; optionally records an eval curve.
struct SupervisedTrainOptions {
  int64_t max_steps = 400;
  int64_t batch_size = 8;
  float grad_clip = 5.0f;
  float noam_factor = 2.0f;
  int64_t noam_warmup = 150;
  int64_t eval_every = 0;
  int64_t max_src_len = 24;
  int64_t max_tgt_len = 24;
  float label_smoothing = 0.0f;
  uint64_t seed = 321;
};

struct SupervisedEvalPoint {
  int64_t step = 0;
  TeacherForcedMetrics metrics;
};

double TrainSupervised(Seq2SeqModel& model,
                       const std::vector<SeqPair>& train_pairs,
                       const SupervisedTrainOptions& options,
                       const std::vector<SeqPair>* eval_pairs = nullptr,
                       std::vector<SupervisedEvalPoint>* curve = nullptr);

}  // namespace cyqr

#endif  // CYCLEQR_REWRITE_TRAINER_H_

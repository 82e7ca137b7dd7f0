// Data-parallel determinism drills (thread-only — no forking here, so the
// whole binary also runs under TSan): the parameter trajectory must be a
// pure function of the options, never of the worker count; a killed or
// stalled rank must end the run with a clean status instead of a hang;
// and checkpoints racing into one directory must never corrupt resume.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/checksum.h"
#include "rewrite/checkpoint.h"
#include "rewrite/trainer.h"
#include "tensor/ops.h"

namespace cyqr {
namespace {

struct TinyWorld {
  Vocabulary vocab;
  std::vector<SeqPair> pairs;
};

TinyWorld MakeTinyWorld() {
  TinyWorld world;
  const std::vector<std::vector<std::string>> corpus = {
      {"cheap", "phone"},  {"brandx", "model1", "smartphone", "budget"},
      {"senior", "phone"}, {"brandx", "model2", "smartphone", "elderly"},
      {"gift", "watch"},   {"brandy", "luxury", "wrist", "watch"},
  };
  world.vocab = Vocabulary::Build(corpus);
  for (size_t i = 0; i + 1 < corpus.size(); i += 2) {
    world.pairs.push_back({world.vocab.Encode(corpus[i]),
                           world.vocab.Encode(corpus[i + 1])});
  }
  return world;
}

CycleConfig TinyConfig(int64_t vocab_size) {
  CycleConfig config = PaperScaledConfig(vocab_size);
  config.forward.num_layers = 1;
  config.forward.d_model = 16;
  config.forward.ff_hidden = 32;
  config.backward.num_layers = 1;
  config.backward.d_model = 16;
  config.backward.ff_hidden = 32;
  config.backward.vocab_size = vocab_size;
  config.max_title_len = 8;
  config.max_query_len = 6;
  return config;
}

/// Short warmup then a few cyclic steps with S=4 shards: covers both
/// phases of Algorithm 1 and every shard-to-rank assignment for K <= 4.
CycleTrainerOptions DpOptions(int64_t workers) {
  CycleTrainerOptions options;
  options.max_steps = 12;
  options.warmup_steps = 8;
  options.batch_size = 4;
  options.grad_shards = 4;
  options.workers = workers;
  options.eval_every = 6;
  options.eval_queries = 3;
  return options;
}

struct TrainRun {
  std::unique_ptr<Rng> rng;
  std::unique_ptr<CycleModel> model;
  std::unique_ptr<CycleTrainer> trainer;
};

TrainRun MakeRun(const TinyWorld& world, const CycleTrainerOptions& options) {
  TrainRun run;
  run.rng = std::make_unique<Rng>(7);
  run.model = std::make_unique<CycleModel>(TinyConfig(world.vocab.size()),
                                           *run.rng);
  run.trainer = std::make_unique<CycleTrainer>(run.model.get(), world.pairs,
                                               options);
  return run;
}

std::vector<float> FlattenParams(const CycleModel& model) {
  std::vector<float> flat;
  for (const Tensor& p : model.Parameters()) {
    flat.insert(flat.end(), p.data(), p.data() + p.NumElements());
  }
  return flat;
}

std::string FreshDir(const char* name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(DpTrainTest, WorkerCountNeverChangesTheTrajectory) {
  const TinyWorld world = MakeTinyWorld();
  TrainRun baseline = MakeRun(world, DpOptions(1));
  ASSERT_TRUE(baseline.trainer->Train(world.pairs).ok());
  const std::vector<float> expected = FlattenParams(*baseline.model);
  ASSERT_FALSE(baseline.trainer->curve().empty());

  for (const int64_t workers : {2, 4}) {
    TrainRun run = MakeRun(world, DpOptions(workers));
    ASSERT_TRUE(run.trainer->Train(world.pairs).ok());
    EXPECT_EQ(FlattenParams(*run.model), expected) << "K=" << workers;
    EXPECT_EQ(run.trainer->grad_norms(), baseline.trainer->grad_norms())
        << "K=" << workers;
    ASSERT_EQ(run.trainer->curve().size(),
              baseline.trainer->curve().size());
    for (size_t i = 0; i < run.trainer->curve().size(); ++i) {
      EXPECT_EQ(run.trainer->curve()[i].translate_back_log_prob,
                baseline.trainer->curve()[i].translate_back_log_prob);
      EXPECT_EQ(run.trainer->curve()[i].q2t_perplexity,
                baseline.trainer->curve()[i].q2t_perplexity);
    }
  }
}

/// FNV-1a over the parameter bytes, then the grad-norm trace's bytes.
uint64_t TrainingDigest(const CycleModel& model, const CycleTrainer& trainer) {
  Fnv1aHasher hasher;
  const std::vector<float> params = FlattenParams(model);
  hasher.Update(params.data(), params.size() * sizeof(float));
  const std::vector<double>& norms = trainer.grad_norms();
  hasher.Update(norms.data(), norms.size() * sizeof(double));
  return hasher.Digest();
}

TEST(DpTrainTest, PaperScaledRunMatchesGoldenDigest) {
  // The K=1 == K=4 checks above cannot see a change that moves every
  // worker count's bits the same way; this pins the bits themselves. A
  // deliberate change to the training arithmetic updates the constant.
  constexpr uint64_t kGoldenDigest = 0x164eaf8ab844ce89ull;
  const TinyWorld world = MakeTinyWorld();
  // K = 3 owns the four shards unevenly and slices the optimizer update
  // across tensor boundaries.
  for (const int64_t workers : {1, 3, 4}) {
    CycleTrainerOptions options = DpOptions(workers);
    options.eval_every = 0;
    Rng rng(7);
    CycleConfig config = PaperScaledConfig(world.vocab.size());
    config.max_title_len = 8;
    config.max_query_len = 6;
    CycleModel model(config, rng);
    CycleTrainer trainer(&model, world.pairs, options);
    ASSERT_TRUE(trainer.Train({}).ok());
    ASSERT_EQ(trainer.grad_norms().size(), 12u);
    const uint64_t digest = TrainingDigest(model, trainer);
    EXPECT_EQ(digest, kGoldenDigest)
        << "K=" << workers << " actual digest 0x" << std::hex << digest;
  }
}

TEST(DpTrainTest, StepOnceThenTrainMatchesTrainAlone) {
  // StepOnce() runs Train()'s step on one rank, so ten steps taken one at
  // a time, across the warm-up boundary, leave Train() at K=4 exactly the
  // state it would have reached by itself.
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DpOptions(4);
  options.eval_every = 0;
  TrainRun reference = MakeRun(world, options);
  ASSERT_TRUE(reference.trainer->Train({}).ok());

  TrainRun stepped = MakeRun(world, options);
  ASSERT_LT(options.warmup_steps, 10);
  for (int i = 0; i < 10; ++i) stepped.trainer->StepOnce();
  ASSERT_EQ(stepped.trainer->step(), 10);
  ASSERT_TRUE(stepped.trainer->Train({}).ok());
  EXPECT_EQ(stepped.trainer->step(), options.max_steps);
  EXPECT_EQ(FlattenParams(*stepped.model), FlattenParams(*reference.model));
  EXPECT_EQ(stepped.trainer->grad_norms(), reference.trainer->grad_norms());
}

TEST(DpTrainTest, ResumeWithDifferentWorkerCountIsBitIdentical) {
  const TinyWorld world = MakeTinyWorld();

  // Reference: K=1, never interrupted, no checkpointing at all.
  TrainRun reference = MakeRun(world, DpOptions(1));
  ASSERT_TRUE(reference.trainer->Train(world.pairs).ok());

  // Interrupted at step 9 under K=2 (checkpoint rotation leaves step 8)...
  CycleTrainerOptions first = DpOptions(2);
  first.checkpoint_every = 4;
  first.checkpoint_dir = FreshDir("dp_resume_cross_k");
  {
    CycleTrainerOptions partial = first;
    partial.max_steps = 9;
    TrainRun interrupted = MakeRun(world, partial);
    ASSERT_TRUE(interrupted.trainer->Train(world.pairs).ok());
  }
  // ...then resumed under K=4: every word of persisted state is
  // K-independent, so the trajectory must still match the K=1 reference.
  CycleTrainerOptions second = first;
  second.workers = 4;
  TrainRun resumed = MakeRun(world, second);
  ASSERT_TRUE(resumed.trainer->ResumeLatest().ok());
  EXPECT_EQ(resumed.trainer->step(), 8);
  ASSERT_TRUE(resumed.trainer->Train(world.pairs).ok());

  EXPECT_EQ(FlattenParams(*reference.model), FlattenParams(*resumed.model));
  EXPECT_EQ(reference.trainer->grad_norms(),
            resumed.trainer->grad_norms());
}

TEST(DpTrainTest, StalledWorkerEndsRunWithDeadlineExceeded) {
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DpOptions(2);
  options.collective_timeout_millis = 300.0;
  options.fault_plan.stall_worker_rank = 1;
  options.fault_plan.stall_worker_at_step = 3;
  TrainRun run = MakeRun(world, options);
  const Status status = run.trainer->Train(world.pairs);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(DpTrainTest, StalledCoordinatorAlsoUnwindsCleanly) {
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DpOptions(2);
  options.collective_timeout_millis = 300.0;
  options.fault_plan.stall_worker_rank = 0;
  options.fault_plan.stall_worker_at_step = 2;
  TrainRun run = MakeRun(world, options);
  const Status status = run.trainer->Train(world.pairs);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(DpTrainTest, StallAfterCheckpointLeavesResumableState) {
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DpOptions(2);
  options.checkpoint_every = 4;
  options.checkpoint_dir = FreshDir("dp_stall_resume");
  options.collective_timeout_millis = 300.0;
  options.fault_plan.stall_worker_rank = 1;
  options.fault_plan.stall_worker_at_step = 6;
  TrainRun run = MakeRun(world, options);
  ASSERT_EQ(run.trainer->Train(world.pairs).code(),
            StatusCode::kDeadlineExceeded);

  // Checkpoints only happen at step boundaries while every rank is
  // parked, so the stall cannot have torn one: resume and finish, and the
  // result must match an undisturbed K=1 run.
  CycleTrainerOptions clean = options;
  clean.fault_plan = TrainFaultPlan{};
  TrainRun resumed = MakeRun(world, clean);
  ASSERT_TRUE(resumed.trainer->ResumeLatest().ok());
  EXPECT_EQ(resumed.trainer->step(), 4);
  ASSERT_TRUE(resumed.trainer->Train(world.pairs).ok());

  TrainRun reference = MakeRun(world, DpOptions(1));
  ASSERT_TRUE(reference.trainer->Train(world.pairs).ok());
  EXPECT_EQ(FlattenParams(*reference.model), FlattenParams(*resumed.model));
}

TEST(DpTrainTest, NanGuardrailsWorkUnderDataParallelism) {
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DpOptions(2);
  options.max_steps = 8;
  options.warmup_steps = 8;
  options.eval_every = 0;
  options.fault_plan.nan_loss_steps = {3};
  TrainRun run = MakeRun(world, options);
  ASSERT_TRUE(run.trainer->Train(world.pairs).ok());
  EXPECT_EQ(run.trainer->skipped_batches(), 1);
  EXPECT_EQ(run.trainer->rollbacks(), 0);
  for (float v : FlattenParams(*run.model)) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(DpTrainTest, SkippedStepLeavesTheOptimizerStepCount) {
  const TinyWorld world = MakeTinyWorld();
  for (const int64_t workers : {1, 3}) {
    CycleTrainerOptions options = DpOptions(workers);
    options.max_steps = 6;
    options.eval_every = 0;
    options.fault_plan.nan_loss_steps = {2, 5};
    options.checkpoint_every = 6;
    options.checkpoint_dir = FreshDir("dp_skip_step_count");
    TrainRun run = MakeRun(world, options);
    ASSERT_TRUE(run.trainer->Train(world.pairs).ok());
    EXPECT_EQ(run.trainer->skipped_batches(), 2);
    Result<std::string> latest = LatestCheckpointFile(options.checkpoint_dir);
    ASSERT_TRUE(latest.ok());
    TrainerCheckpoint ckpt;
    ASSERT_TRUE(LoadTrainerCheckpoint(run.model->Parameters(), &ckpt,
                                      latest.value())
                    .ok());
    EXPECT_EQ(ckpt.step, 6);
    EXPECT_EQ(ckpt.optimizer.step, 4) << "K=" << workers;
  }
}

/// Every tensor reachable from `loss` through the tape, `loss` included.
std::vector<std::shared_ptr<TensorImpl>> ReachableTensors(const Tensor& loss) {
  std::vector<std::shared_ptr<TensorImpl>> out = {loss.impl()};
  std::set<TensorImpl*> seen = {loss.impl().get()};
  for (size_t i = 0; i < out.size(); ++i) {
    const GradNode* node = out[i]->node.get();
    if (node == nullptr) continue;
    for (size_t j = 0; j < node->num_inputs(); ++j) {
      if (seen.insert(node->input(j).get()).second) {
        out.push_back(node->input(j));
      }
    }
  }
  return out;
}

/// Tensor::Backward() as it was before it consumed the tape: the same DFS
/// and firing order, but every node, gradient and tensor stays, so a test
/// can read the gradient of every intermediate afterwards.
void NonConsumingBackward(const Tensor& loss) {
  std::vector<TensorImpl*> order;
  std::set<TensorImpl*> seen = {loss.impl().get()};
  std::vector<std::pair<TensorImpl*, size_t>> stack = {{loss.impl().get(), 0}};
  while (!stack.empty()) {
    auto& [t, next_child] = stack.back();
    if (t->node == nullptr || next_child >= t->node->num_inputs()) {
      order.push_back(t);
      stack.pop_back();
      continue;
    }
    TensorImpl* child = t->node->input(next_child++).get();
    if (seen.insert(child).second) stack.emplace_back(child, 0);
  }
  loss.impl()->EnsureGrad();
  loss.impl()->grad[0] += 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->node != nullptr && !(*it)->grad.empty()) {
      (*it)->node->Backward(**it);
    }
  }
}

/// The paper-scaled L_f + L_b - lambda * L_c over the tiny world's pairs,
/// every op of Eq. 5's loss, with each named term held by a handle.
struct CycleLoss {
  Tensor lf;
  Tensor lb;
  Tensor lpf;
  Tensor lpb;
  Tensor lc;
  Tensor loss;
};

CycleLoss BuildCycleLoss(CycleModel& model, const TinyWorld& world) {
  const CycleConfig& config = model.config();
  std::vector<std::vector<int32_t>> queries;
  std::vector<std::vector<int32_t>> titles;
  for (const SeqPair& p : world.pairs) {
    queries.push_back(p.src);
    titles.push_back(p.tgt);
  }
  const EncodedBatch q_batch = PadBatch(queries, config.max_query_len);
  const TeacherForcedBatch t_tf =
      MakeTeacherForced(titles, config.max_title_len);
  const EncodedBatch t_batch = PadBatch(titles, config.max_title_len);
  const TeacherForcedBatch q_tf =
      MakeTeacherForced(queries, config.max_query_len);
  CycleLoss out;
  out.lf = MaskedCrossEntropy(model.forward().Forward(q_batch, t_tf.inputs),
                              t_tf.targets, t_tf.target_mask);
  out.lb = MaskedCrossEntropy(model.backward().Forward(t_batch, q_tf.inputs),
                              q_tf.targets, q_tf.target_mask);
  // A cycle term over the same pairs.
  out.lpf = SequenceLogProb(model.forward().Forward(q_batch, t_tf.inputs),
                            t_tf.targets, t_tf.target_mask);
  out.lpb = SequenceLogProb(model.backward().Forward(t_batch, q_tf.inputs),
                            q_tf.targets, q_tf.target_mask);
  out.lc = MeanAll(GroupLogSumExp(Add(out.lpf, out.lpb),
                                  static_cast<int64_t>(world.pairs.size())));
  out.loss = Sub(Add(out.lf, out.lb), Scale(out.lc, config.lambda));
  return out;
}

TEST(TapedGradientTest, NoGradientReachableFromAPaperScaledLossIsNegZero) {
  // The fused Affine op reads dY where MatMul read 0 + dY; the two are the
  // same bits only because no stored gradient is -0. Backward frees every
  // intermediate gradient as it goes, so the test fires the tape through
  // a walk that keeps them.
  const TinyWorld world = MakeTinyWorld();
  Rng rng(7);
  CycleModel model(PaperScaledConfig(world.vocab.size()), rng);
  model.SetTraining(true);
  const CycleLoss terms = BuildCycleLoss(model, world);
  NonConsumingBackward(terms.loss);

  int64_t checked = 0;
  for (const std::shared_ptr<TensorImpl>& t : ReachableTensors(terms.loss)) {
    for (const float g : t->grad) {
      ASSERT_FALSE(g == 0.0f && std::signbit(g)) << "a -0 gradient";
      ++checked;
    }
  }
  EXPECT_GT(checked, 100000);
}

TEST(TapeConsumedTest, BackwardFreesTheTapeAndKeepsLeafGradientsBitForBit) {
  const TinyWorld world = MakeTinyWorld();
  Rng rng(7);
  CycleModel model(PaperScaledConfig(world.vocab.size()), rng);
  model.SetTraining(true);
  const std::vector<Tensor> params = model.Parameters();
  const RngState dropout_state = model.rng().state();

  // The same loss, dropout draws included, fired by the walk that keeps
  // the tape: the leaf gradients Backward must reproduce.
  std::vector<std::vector<float>> expected;
  {
    const CycleLoss reference = BuildCycleLoss(model, world);
    NonConsumingBackward(reference.loss);
    for (const Tensor& p : params) {
      expected.push_back(p.has_grad()
                             ? std::vector<float>(p.grad(),
                                                  p.grad() + p.NumElements())
                             : std::vector<float>());
      Tensor alias = p;
      alias.ZeroGrad();
    }
  }

  model.rng().set_state(dropout_state);
  CycleLoss terms = BuildCycleLoss(model, world);
  const float loss_value = terms.loss.item();
  const std::vector<Tensor> held = {terms.lf,  terms.lb, terms.lpf,
                                    terms.lpb, terms.lc, terms.loss};
  std::set<const TensorImpl*> held_impls;
  for (const Tensor& t : held) held_impls.insert(t.impl().get());
  std::vector<std::weak_ptr<TensorImpl>> tape_only;
  for (const std::shared_ptr<TensorImpl>& t : ReachableTensors(terms.loss)) {
    if (t->node != nullptr && held_impls.count(t.get()) == 0) {
      tape_only.push_back(t);
    }
  }
  ASSERT_GT(tape_only.size(), 500u);

  terms.loss.Backward();

  // Intermediates a handle still holds keep their values only.
  for (const Tensor& t : held) {
    EXPECT_TRUE(t.impl()->consumed);
    EXPECT_EQ(t.impl()->node, nullptr);
    EXPECT_FALSE(t.has_grad());
  }
  EXPECT_EQ(terms.loss.item(), loss_value);
  // Intermediates only the tape held are gone.
  int64_t alive = 0;
  for (const std::weak_ptr<TensorImpl>& t : tape_only) alive += !t.expired();
  EXPECT_EQ(alive, 0) << "of " << tape_only.size();
  // Leaves keep their gradients, the reference walk's bits.
  for (size_t i = 0; i < params.size(); ++i) {
    ASSERT_EQ(params[i].has_grad(), !expected[i].empty()) << "parameter " << i;
    if (expected[i].empty()) continue;
    EXPECT_EQ(std::memcmp(params[i].grad(), expected[i].data(),
                          expected[i].size() * sizeof(float)),
              0)
        << "parameter " << i;
  }
}

TEST(TapeReleaseTest, PaperScaledLossKeepsOnlyTheValuesABackwardReads) {
  const TinyWorld world = MakeTinyWorld();
  Rng rng(7);
  CycleModel model(PaperScaledConfig(world.vocab.size()), rng);
  model.SetTraining(true);
  const CycleLoss terms = BuildCycleLoss(model, world);
  const std::set<const TensorImpl*> held = {
      terms.lf.impl().get(),  terms.lb.impl().get(), terms.lpf.impl().get(),
      terms.lpb.impl().get(), terms.lc.impl().get(), terms.loss.impl().get()};
  // What reads each op output on the tape, by op name.
  std::map<const TensorImpl*, std::set<std::string>> readers;
  const std::vector<std::shared_ptr<TensorImpl>> tape =
      ReachableTensors(terms.loss);
  for (const std::shared_ptr<TensorImpl>& t : tape) {
    if (t->node == nullptr) continue;
    for (size_t i = 0; i < t->node->num_inputs(); ++i) {
      readers[t->node->input(i).get()].insert(t->node->name);
    }
  }
  // Before Backward, an op output that no handle holds keeps its values
  // exactly when a recorded backward reads them.
  std::map<std::string, int> freed;  // By the reader it feeds.
  int64_t kept_residuals = 0;
  for (const std::shared_ptr<TensorImpl>& t : tape) {
    if (t->node == nullptr || held.count(t.get()) > 0) continue;
    ASSERT_NE(t->values_read, t->values_freed) << t->node->name;
    ASSERT_EQ(t->data.empty(), t->values_freed) << t->node->name;
    const std::set<std::string>& by = readers[t.get()];
    const std::string name = t->node->name;
    if (by.count("SplitHeads") > 0 || by.count("Softmax") > 0 ||
        by.count("MaskedCrossEntropy") > 0 ||
        by.count("SequenceLogProb") > 0 ||
        (name == "Scale" && by.count("AddMask") > 0) ||
        (name == "MatMul" && by.count("Scale") > 0)) {
      EXPECT_TRUE(t->values_freed) << name << " read by " << *by.begin();
      for (const std::string& reader : by) ++freed[reader];
    }
    // Pre-LN: every residual sum feeds a LayerNorm, which reads it.
    if (name == "Add" && by.count("LayerNorm") > 0) {
      EXPECT_TRUE(t->values_read);
      ++kept_residuals;
    }
  }
  // The pre-split projections, the raw, scaled and masked attention
  // scores, and the logits under both losses.
  EXPECT_GT(freed["SplitHeads"], 0);
  EXPECT_GT(freed["Scale"], 0);
  EXPECT_GT(freed["AddMask"], 0);
  EXPECT_GT(freed["Softmax"], 0);
  EXPECT_GT(freed["MaskedCrossEntropy"], 0);
  EXPECT_GT(freed["SequenceLogProb"], 0);
  EXPECT_GT(kept_residuals, 0);
}

std::vector<float> FlattenGrads(const std::vector<Tensor>& params) {
  std::vector<float> flat;
  for (const Tensor& p : params) {
    if (p.has_grad()) {
      flat.insert(flat.end(), p.grad(), p.grad() + p.NumElements());
    }
  }
  return flat;
}

TEST(TapeReleaseTest, FourThreadsWalkTheirOwnTapesOverSharedParameters) {
  // Four threads share one model's parameter handles, as serving workers
  // share a model's. Each copies and drops the handles in a loop, then
  // builds and walks its own tape, twice. The copies, the forwards and
  // every release of values run at once; the walks take turns, as each
  // adds into the shared parameters' gradients. Under TSan a race on a
  // handle count, or a write to a shared leaf, fails the run. The copy
  // loop matters: a race shows only where two threads touch a count with
  // no shared_ptr traffic between them to order the two.
  constexpr int kThreads = 4;
  constexpr int kRounds = 2;
  const TinyWorld world = MakeTinyWorld();
  Rng rng(7);
  CycleModel model(TinyConfig(world.vocab.size()), rng);
  model.SetTraining(false);  // Dropout would draw from the model's stream.
  const std::vector<Tensor> params = model.Parameters();
  for (int i = 0; i < kThreads * kRounds; ++i) {
    BuildCycleLoss(model, world).loss.Backward();
  }
  const std::vector<float> expected = FlattenGrads(params);
  ASSERT_FALSE(expected.empty());
  for (const Tensor& p : params) {
    Tensor alias = p;
    alias.ZeroGrad();
  }

  std::latch start(kThreads);
  std::mutex walk_mu;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&model, &world, &start, &walk_mu] {
      start.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < 50; ++i) {
          const std::vector<Tensor> copies = model.Parameters();
        }
        CycleLoss terms = BuildCycleLoss(model, world);
        std::lock_guard<std::mutex> lock(walk_mu);
        terms.loss.Backward();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Identical walks in turn add the same sums in the same order.
  EXPECT_EQ(FlattenGrads(params), expected);
}

TEST(DpTrainTest, MisconfiguredShardingIsRejected) {
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DpOptions(2);
  options.grad_shards = 3;  // batch_size=4 not divisible.
  TrainRun run = MakeRun(world, options);
  EXPECT_EQ(run.trainer->Train(world.pairs).code(),
            StatusCode::kInvalidArgument);

  options = DpOptions(4);
  options.grad_shards = 2;  // More workers than shards.
  TrainRun run2 = MakeRun(world, options);
  EXPECT_EQ(run2.trainer->Train(world.pairs).code(),
            StatusCode::kInvalidArgument);
}

TEST(DpTrainTest, CollectiveWaitIsReportedAfterDataParallelRuns) {
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DpOptions(2);
  options.max_steps = 4;
  options.warmup_steps = 4;
  options.eval_every = 0;
  TrainRun run = MakeRun(world, options);
  ASSERT_TRUE(run.trainer->Train(world.pairs).ok());
  EXPECT_GE(run.trainer->collective_wait_millis(), 0.0);
}

TEST(DpTrainTest, RacingCheckpointWritersNeverCorruptResume) {
  // The coordinator-owns-writes invariant makes this race impossible in
  // the trainer itself; this drill attacks the layer below anyway: two
  // trainers (think: two ranks that both wrongly believe they own the
  // directory) checkpoint the same step into the same dir concurrently.
  // Unique temp staging means the survivor is one complete file, so
  // ResumeLatest must always load a valid checkpoint.
  const TinyWorld world = MakeTinyWorld();
  const std::string dir = FreshDir("dp_ckpt_race");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  ASSERT_FALSE(ec);

  CycleTrainerOptions options = DpOptions(1);
  options.max_steps = 2;
  options.warmup_steps = 2;
  options.eval_every = 0;
  options.checkpoint_dir = dir;
  TrainRun a = MakeRun(world, options);
  TrainRun b = MakeRun(world, options);
  ASSERT_TRUE(a.trainer->Train(world.pairs).ok());
  ASSERT_TRUE(b.trainer->Train(world.pairs).ok());

  for (int round = 0; round < 8; ++round) {
    std::thread racer_a([&] { ASSERT_TRUE(a.trainer->SaveCheckpoint().ok()); });
    std::thread racer_b([&] { ASSERT_TRUE(b.trainer->SaveCheckpoint().ok()); });
    racer_a.join();
    racer_b.join();
    TrainRun reader = MakeRun(world, options);
    ASSERT_TRUE(reader.trainer->ResumeLatest().ok()) << "round " << round;
    EXPECT_EQ(reader.trainer->step(), 2);
  }
  // No staging debris: every temp file was either renamed or removed.
  int leftovers = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().find(".tmp") != std::string::npos) {
      ++leftovers;
    }
  }
  EXPECT_EQ(leftovers, 0);
}

}  // namespace
}  // namespace cyqr

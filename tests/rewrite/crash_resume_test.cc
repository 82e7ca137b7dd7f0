// The crash-injection drill: kill training at an arbitrary step (real
// fork + hard exit, mimicking SIGKILL), resume from the newest
// checkpoint, and require the finished run to be bit-identical to one
// that was never interrupted. Also covers the NaN/grad-norm guardrails.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "rewrite/checkpoint.h"
#include "rewrite/trainer.h"

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

/// The shared run shape: short warmup then a few cyclic steps, so the
/// replay covers both phases of Algorithm 1 (the cyclic phase draws from
/// both the batch RNG and the dropout RNG, the hard case for resume).
CycleTrainerOptions DrillOptions() {
  CycleTrainerOptions options;
  options.max_steps = 24;
  options.warmup_steps = 18;
  options.batch_size = 2;
  options.grad_shards = 1;
  options.eval_every = 12;
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

TEST(CrashResumeTest, ResumeIsBitIdenticalToUninterruptedRun) {
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DrillOptions();

  // Reference: uninterrupted.
  TrainRun reference = MakeRun(world, options);
  ASSERT_TRUE(reference.trainer->Train(world.pairs).ok());

  // Interrupted: stop at an arbitrary step past a checkpoint, then a
  // brand-new process-equivalent (fresh model, fresh trainer) resumes.
  options.checkpoint_every = 5;
  options.checkpoint_dir = FreshDir("resume_bitident");
  TrainRun first = MakeRun(world, options);
  {
    CycleTrainerOptions partial = options;
    partial.max_steps = 17;  // "Killed" at step 17; newest checkpoint: 15.
    TrainRun interrupted = MakeRun(world, partial);
    ASSERT_TRUE(interrupted.trainer->Train(world.pairs).ok());
  }
  ASSERT_TRUE(first.trainer->ResumeLatest().ok());
  EXPECT_EQ(first.trainer->step(), 15);
  ASSERT_TRUE(first.trainer->Train(world.pairs).ok());

  // Wait: the reference ran WITHOUT checkpointing — prove writing
  // checkpoints did not perturb training either.
  EXPECT_EQ(FlattenParams(*reference.model), FlattenParams(*first.model));
  ASSERT_EQ(reference.trainer->curve().size(),
            first.trainer->curve().size());
  for (size_t i = 0; i < reference.trainer->curve().size(); ++i) {
    EXPECT_EQ(reference.trainer->curve()[i].translate_back_log_prob,
              first.trainer->curve()[i].translate_back_log_prob);
    EXPECT_EQ(reference.trainer->curve()[i].q2t_perplexity,
              first.trainer->curve()[i].q2t_perplexity);
  }
  EXPECT_EQ(reference.trainer->grad_norms(), first.trainer->grad_norms());
}

TEST(CrashResumeTest, ForkKillResumeMatchesUninterrupted) {
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DrillOptions();
  options.checkpoint_every = 5;
  options.checkpoint_dir = FreshDir("fork_drill");

  // Child: train with a hard crash injected mid-run. SimulateCrash uses
  // _Exit(137), the same observable as SIGKILL — no destructors, no
  // flushes, nothing graceful.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    CycleTrainerOptions crash = options;
    crash.fault_plan.crash_at_step = 13;
    TrainRun child = MakeRun(world, crash);
    const Status status = child.trainer->Train(world.pairs);
    (void)status;
    _Exit(0);  // Reaching here means the crash never fired.
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 137) << "child did not die at the drill";

  // The kill at step 13 must leave the rotation's newest checkpoint at
  // step 10, written atomically — never a torn file.
  Result<std::string> latest =
      LatestCheckpointFile(options.checkpoint_dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_NE(latest.value().find(CheckpointFileName(10)), std::string::npos);

  // Parent: resume in a fresh trainer and finish.
  TrainRun resumed = MakeRun(world, options);
  ASSERT_TRUE(resumed.trainer->ResumeLatest().ok());
  EXPECT_EQ(resumed.trainer->step(), 10);
  ASSERT_TRUE(resumed.trainer->Train(world.pairs).ok());

  // Reference: the same schedule never interrupted (no checkpointing).
  TrainRun reference = MakeRun(world, DrillOptions());
  ASSERT_TRUE(reference.trainer->Train(world.pairs).ok());

  EXPECT_EQ(FlattenParams(*reference.model), FlattenParams(*resumed.model));
  EXPECT_EQ(reference.trainer->grad_norms(),
            resumed.trainer->grad_norms());
}

TEST(CrashResumeTest, ForkKillLeavesParseableFlightDump) {
  // The post-mortem half of the kill drill: a hard _Exit(137) mid-run
  // must still leave a readable flight.json (written by the fault-dump
  // hook on the way down) whose newest events identify the in-flight
  // step. The child arms EnableCrashDump exactly like `cyqr_cli train`.
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DrillOptions();
  options.checkpoint_every = 5;
  options.checkpoint_dir = FreshDir("flight_dump_drill");
  const std::string dump_path =
      testing::TempDir() + "/flight_dump_drill.json";
  std::filesystem::remove(dump_path);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    FlightRecorder::Global().EnableCrashDump(dump_path);
    CycleTrainerOptions crash = options;
    crash.fault_plan.crash_at_step = 13;
    TrainRun child = MakeRun(world, crash);
    const Status status = child.trainer->Train(world.pairs);
    (void)status;
    _Exit(0);  // Reaching here means the crash never fired.
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 137) << "child did not die at the drill";

  std::ifstream in(dump_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "no flight dump at " << dump_path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string dump = buf.str();
  // No torn temp file left next to the finished dump.
  EXPECT_FALSE(std::filesystem::exists(dump_path + ".crash.tmp"));

  EXPECT_NE(dump.find("{\"version\":1"), std::string::npos);
  EXPECT_NE(dump.find("\"source\":\"simulated-crash\""), std::string::npos);
  // The newest step event pins the death to the in-flight step: the
  // crash fires as step 13 is entered, so the journal's last
  // train.step_begin is step 12 (and step 12 also finished).
  const size_t last_begin = dump.rfind("\"name\":\"train.step_begin\"");
  ASSERT_NE(last_begin, std::string::npos);
  EXPECT_EQ(dump.compare(last_begin + std::strlen("\"name\":\"train.step_begin\""),
                         std::strlen(",\"arg0\":12"), ",\"arg0\":12"),
            0)
      << dump.substr(last_begin, 120);
  EXPECT_NE(dump.find("\"name\":\"train.step_end\""), std::string::npos);
  EXPECT_NE(dump.find("\"name\":\"train.checkpoint\""), std::string::npos);
}

TEST(CrashResumeTest, DataParallelForkKillResumeWithDifferentWorkerCount) {
  // The data-parallel torn-collective drill: a worker rank dies mid-step
  // (after shard compute, before the gradient collective) under K=2; the
  // whole process must exit 137 without corrupting the checkpoint
  // rotation, and a K=4 resume must land bit-identical to an
  // uninterrupted K=1 run.
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DrillOptions();
  options.batch_size = 4;
  options.grad_shards = 4;
  options.workers = 2;
  options.checkpoint_every = 5;
  options.checkpoint_dir = FreshDir("dp_fork_drill");

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    CycleTrainerOptions crash = options;
    crash.fault_plan.crash_worker_rank = 1;
    crash.fault_plan.crash_worker_at_step = 13;
    TrainRun child = MakeRun(world, crash);
    const Status status = child.trainer->Train(world.pairs);
    (void)status;
    _Exit(0);  // Reaching here means the crash never fired.
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 137) << "child did not die at the drill";

  Result<std::string> latest =
      LatestCheckpointFile(options.checkpoint_dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_NE(latest.value().find(CheckpointFileName(10)), std::string::npos);

  // Resume with twice the ranks.
  CycleTrainerOptions wider = options;
  wider.workers = 4;
  TrainRun resumed = MakeRun(world, wider);
  ASSERT_TRUE(resumed.trainer->ResumeLatest().ok());
  EXPECT_EQ(resumed.trainer->step(), 10);
  ASSERT_TRUE(resumed.trainer->Train(world.pairs).ok());

  // Reference: K=1, never interrupted, no checkpointing.
  CycleTrainerOptions single = DrillOptions();
  single.batch_size = 4;
  single.grad_shards = 4;
  single.workers = 1;
  TrainRun reference = MakeRun(world, single);
  ASSERT_TRUE(reference.trainer->Train(world.pairs).ok());

  EXPECT_EQ(FlattenParams(*reference.model), FlattenParams(*resumed.model));
  EXPECT_EQ(reference.trainer->grad_norms(),
            resumed.trainer->grad_norms());
}

TEST(CrashResumeTest, GradNormTraceIsRecordedEveryStep) {
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DrillOptions();
  options.max_steps = 10;
  options.warmup_steps = 10;
  options.eval_every = 0;
  TrainRun run = MakeRun(world, options);
  ASSERT_TRUE(run.trainer->Train(world.pairs).ok());
  ASSERT_EQ(run.trainer->grad_norms().size(), 10u);
  for (double norm : run.trainer->grad_norms()) {
    EXPECT_TRUE(std::isfinite(norm));
    EXPECT_GT(norm, 0.0);
  }
}

TEST(CrashResumeTest, InjectedNanBatchIsSkippedWithoutAborting) {
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DrillOptions();
  options.max_steps = 8;
  options.warmup_steps = 8;
  options.eval_every = 0;
  options.fault_plan.nan_loss_steps = {3};
  TrainRun run = MakeRun(world, options);
  ASSERT_TRUE(run.trainer->Train(world.pairs).ok());
  EXPECT_EQ(run.trainer->skipped_batches(), 1);
  EXPECT_EQ(run.trainer->consecutive_anomalies(), 0);  // Reset by step 4.
  EXPECT_EQ(run.trainer->rollbacks(), 0);
  for (float v : FlattenParams(*run.model)) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(CrashResumeTest, SkippedBatchDoesNotUpdateParameters) {
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DrillOptions();
  options.max_steps = 8;
  options.warmup_steps = 8;
  options.eval_every = 0;
  options.fault_plan.nan_loss_steps = {3};
  TrainRun run = MakeRun(world, options);
  for (int i = 0; i < 2; ++i) run.trainer->StepOnce();
  const std::vector<float> before = FlattenParams(*run.model);
  const double loss = run.trainer->StepOnce();  // The poisoned step.
  EXPECT_TRUE(std::isnan(loss));
  EXPECT_EQ(FlattenParams(*run.model), before);
  run.trainer->StepOnce();  // A healthy step updates again.
  EXPECT_NE(FlattenParams(*run.model), before);
}

TEST(CrashResumeTest, SustainedAnomaliesRollBackThenError) {
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DrillOptions();
  options.max_steps = 20;
  options.warmup_steps = 20;
  options.eval_every = 0;
  options.checkpoint_every = 2;
  options.checkpoint_dir = FreshDir("rollback_drill");
  options.max_consecutive_anomalies = 3;
  options.max_rollbacks = 1;
  // A persistent poison window: deterministic replay re-hits it, so the
  // trainer must roll back, retry, and finally give up with an error
  // instead of looping forever.
  options.fault_plan.nan_loss_steps = {5, 6, 7, 8, 9, 10};
  TrainRun run = MakeRun(world, options);
  const Status status = run.trainer->Train(world.pairs);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("rollback"), std::string::npos);
  EXPECT_EQ(run.trainer->rollbacks(), 2);  // 1 allowed + the fatal one.
}

TEST(CrashResumeTest, AnomaliesWithoutCheckpointsErrorOut) {
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DrillOptions();
  options.max_steps = 20;
  options.warmup_steps = 20;
  options.eval_every = 0;
  options.max_consecutive_anomalies = 3;
  options.fault_plan.nan_loss_steps = {2, 3, 4};
  TrainRun run = MakeRun(world, options);
  const Status status = run.trainer->Train(world.pairs);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("no checkpoint"), std::string::npos);
}

TEST(CrashResumeTest, ResumeLatestOnEmptyDirIsNotFound) {
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DrillOptions();
  options.checkpoint_dir = FreshDir("resume_empty");
  TrainRun run = MakeRun(world, options);
  const Status status = run.trainer->ResumeLatest();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(CrashResumeTest, CheckpointRotationKeepsOnlyNewest) {
  const TinyWorld world = MakeTinyWorld();
  CycleTrainerOptions options = DrillOptions();
  options.max_steps = 12;
  options.warmup_steps = 12;
  options.eval_every = 0;
  options.checkpoint_every = 2;
  options.checkpoint_keep = 2;
  options.checkpoint_dir = FreshDir("rotation_drill");
  TrainRun run = MakeRun(world, options);
  ASSERT_TRUE(run.trainer->Train(world.pairs).ok());
  Result<std::vector<std::string>> files =
      ListCheckpointFiles(options.checkpoint_dir);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files.value().size(), 2u);
  EXPECT_NE(files.value()[0].find(CheckpointFileName(10)),
            std::string::npos);
  EXPECT_NE(files.value()[1].find(CheckpointFileName(12)),
            std::string::npos);
}

}  // namespace
}  // namespace cyqr

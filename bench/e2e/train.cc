// train_cyclic: Algorithm 1 through CycleTrainer::Train's data-parallel
// engine, one rank over four gradient shards, batch 8. Warm-up steps
// train L_f + L_b; each cyclic step also top-n decodes k synthetic titles
// per query, which takes most of the wall time.
//
// Step times come from the coordinator's train.step_end flight events
// (the trainer's own step clock, read after Train returns). Every run
// trains kTimedRuns times from the same initial model, which must end
// in the same bits every time, and keeps each step's fastest time: the
// guest's single-thread speed drops by up to half for seconds at a time,
// and such a slowdown rarely covers the same step in every run. The traced
// run then repeats the schedule through CycleTrainer::StepOnce, timing
// each step from outside, to split warm-up from cyclic steps.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/workloads.h"
#include "obs/flight_recorder.h"
#include "rewrite/trainer.h"

namespace cyqr::e2e {
namespace {

// Warm-up steps per --seconds, sized so the timed runs take about 0.75 x
// --seconds on a 4-core x86 KVM guest, and three warm-up steps per cyclic
// step.
constexpr double kWarmupStepsPerSecond = 4.0;
constexpr int64_t kWarmupStepsPerCyclic = 3;
// Step times are read back from the calling thread's flight ring, which
// must still hold every step of a run. With one rank each step records 8
// events there (step_begin, two barrier waits, four shard computes,
// step_end), so the cap leaves room for a few anomaly events too.
constexpr int64_t kFlightEventsPerStep = 8;
constexpr int64_t kMaxWarmupSteps = 360;
static_assert((kMaxWarmupSteps + kMaxWarmupSteps / kWarmupStepsPerCyclic) *
                      kFlightEventsPerStep +
                  64 <=
              static_cast<int64_t>(FlightRecorder::kDefaultEventsPerThread));
// One rank: the data-parallel engine still splits each batch into the
// shards, meets at every barrier and tree-reduces, but never waits for a
// second thread. With two ranks a step waits for whichever of two guest
// CPUs the host slowed, and over ten interleaved runs the p50 spread was
// 0.30 with two ranks against 0.04 with one.
constexpr int64_t kWorkers = 1;
// Over ten seeds, eight runs of half the steps spread throughput 0.17
// (quartile distance over median) where four full runs spread it 0.11.
constexpr int kTimedRuns = 4;

CycleTrainerOptions Schedule(const RunOptions& options, int64_t workers) {
  const int64_t warmup = std::clamp<int64_t>(
      std::llround(kWarmupStepsPerSecond * options.seconds),
      kWarmupStepsPerCyclic, kMaxWarmupSteps);
  CycleTrainerOptions schedule;
  schedule.warmup_steps = warmup;
  schedule.max_steps = warmup + warmup / kWarmupStepsPerCyclic;
  schedule.batch_size = 8;
  schedule.grad_shards = 4;
  schedule.workers = workers;
  schedule.eval_every = 0;
  schedule.seed = StreamSeed(options.seed, Stream::kTrainer);
  return schedule;
}

/// Times of the last `steps` steps trained on this thread, in ms.
std::vector<double> StepTimesMs(int64_t steps) {
  std::vector<double> out;
  for (const FlightEvent& e : FlightRecorder::Global().Snapshot()) {
    if (std::strcmp(e.name, "train.step_end") == 0) {
      out.push_back(static_cast<double>(e.arg1) / 1e3);
    }
  }
  if (static_cast<int64_t>(out.size()) > steps) {
    out.erase(out.begin(), out.end() - steps);
  }
  return out;
}

bool FiniteParameters(const CycleModel& model) {
  for (const float v : FlatParameters(model.Parameters())) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

void RunTrain(const RunOptions& options, Report* report) {
  const CycleTrainerOptions schedule = Schedule(options, kWorkers);
  SpanRecorder* spans = options.spans;
  std::unique_ptr<World> world;
  JointModel joint;
  std::vector<double> setup_s;
  std::vector<double> best_ms;
  std::vector<float> first_params;
  double wall_s = 0.0;
  double collective_wait_ms = 0.0;
  int64_t skipped = 0;
  for (int run = 0; run < kTimedRuns; ++run) {
    // Each timed run starts from its own set-up, so the set-up samples
    // spread over the run: repeated back to back, the 40 ms set-up read
    // alike within a process and up to a third apart between processes.
    const int64_t setup_start = NowNs();
    world = std::make_unique<World>(BuildWorld(options.scale));
    joint = NewJointModel(*world);
    setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);
    CycleTrainer trainer(joint.model.get(), world->pairs, schedule);
    const int64_t start = NowNs();
    const Status trained = trainer.Train({});
    const double run_s = static_cast<double>(NowNs() - start) / 1e9;
    if (!trained.ok()) {
      report->Fail("Train failed: " + trained.ToString());
      return;
    }
    const std::vector<double> step_ms = StepTimesMs(schedule.max_steps);
    if (static_cast<int64_t>(step_ms.size()) != schedule.max_steps) {
      report->Fail("found " + std::to_string(step_ms.size()) +
                   " step events for " + std::to_string(schedule.max_steps) +
                   " steps");
      return;
    }
    if (run == 0) {
      best_ms = step_ms;
      wall_s = run_s;
      first_params = FlatParameters(joint.model->Parameters());
      collective_wait_ms = trainer.collective_wait_millis();
      skipped = trainer.skipped_batches();
    } else {
      for (size_t i = 0; i < best_ms.size(); ++i) {
        best_ms[i] = std::min(best_ms[i], step_ms[i]);
      }
      if (FlatParameters(joint.model->Parameters()) != first_params) {
        report->Fail("two runs of one schedule trained different bits");
      }
    }
  }
  if (!FiniteParameters(*joint.model)) {
    report->Fail("training left non-finite parameters");
  }
  report->AddOperations(schedule.max_steps, skipped);

  if (spans == nullptr) {
    ReportSetup(setup_s, report);
    report->Add("success_ratio",
                static_cast<double>(schedule.max_steps - skipped) /
                    static_cast<double>(schedule.max_steps),
                "ratio");
    // Training has no degraded answers.
    report->Add("nondegraded_ratio", 1.0, "ratio");
    return;
  }

  report->Add("train.collective_wait_ms",
              collective_wait_ms / static_cast<double>(schedule.max_steps),
              "ms");
  report->Add("train.collective_wait_ratio",
              collective_wait_ms /
                  (wall_s * 1e3 * static_cast<double>(kWorkers)),
              "ratio");
  report->Add("train.skipped_batches", static_cast<double>(skipped),
              "count");
  double total_ms = 0.0;
  for (const double ms : best_ms) total_ms += ms;
  report->Add("run.throughput_per_s",
              static_cast<double>(schedule.max_steps) / (total_ms / 1e3),
              "1/s");
  report->Add("run.p50_ms", Quantile(best_ms, 0.5), "ms");
  report->Add("run.p99_ms", Quantile(best_ms, 0.99), "ms");

  // The same schedule on a fresh model, one StepOnce at a time.
  const int32_t warmup_name = spans->Intern("train.warmup_step");
  const int32_t cyclic_name = spans->Intern("train.cyclic_step");
  JointModel replica = NewJointModel(*world);
  CycleTrainer stepper(replica.model.get(), world->pairs, Schedule(options, 0));
  const int64_t loop_start = NowNs();
  for (int64_t step = 1; step <= schedule.max_steps; ++step) {
    const SpanRecorder::Scope scope(
        spans, step <= schedule.warmup_steps ? warmup_name : cyclic_name);
    stepper.StepOnce();
  }
  const double loop_s = static_cast<double>(NowNs() - loop_start) / 1e9;
  const SpanRecorder::Collected c = spans->Collect();
  report->Add("train.warmup_step_p50_ms",
              Quantile(c.Micros("train.warmup_step", false), 0.5) / 1e3, "ms");
  report->Add("train.cyclic_step_p50_ms",
              Quantile(c.Micros("train.cyclic_step", false), 0.5) / 1e3, "ms");
  report->Add("obs.flight_dropped_ratio", FlightDroppedRatio(), "ratio");
  report->Add("trace.overhead_ratio",
              TraceOverheadRatio(spans->size(), loop_s), "ratio");
}

}  // namespace cyqr::e2e

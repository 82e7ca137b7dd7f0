// Data-parallel training scaling bench: runs the same training schedule
// under --workers=1,2,4 (comma list, overridable), reports steps/sec,
// collective wait, and the speedup over the 1-worker baseline, and checks
// that every worker count lands on bit-identical parameters — the
// determinism contract the trainer's collective is built around.
//
// Every run books its trainer telemetry (step time, collective wait, the
// coordinator's all-reduce and optimizer time) into the global metrics
// registry, which is dumped after the run to BENCH_training.json (override
// with --metrics-out=PATH, disable with --metrics-out=); CI validates the
// file with scripts/check_metrics_json.sh.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "obs/metrics.h"
#include "rewrite/cycle_model.h"
#include "rewrite/trainer.h"

namespace cyqr::bench {
namespace {

struct ScalingPoint {
  int64_t workers = 0;
  double seconds = 0.0;
  double steps_per_sec = 0.0;
  double tokens_per_sec = 0.0;
  double collective_wait_millis = 0.0;
  std::vector<float> params;
};

CycleTrainerOptions ScalingOptions(int64_t workers) {
  CycleTrainerOptions options = BenchTrainerOptions(/*joint=*/true);
  options.max_steps = 48;
  options.warmup_steps = 32;
  options.batch_size = 8;
  options.grad_shards = 8;
  options.workers = workers;
  options.seed = 99;
  options.metrics = &MetricsRegistry::Global();
  return options;
}

ScalingPoint RunOne(const BenchWorld& world, int64_t workers) {
  const CycleTrainerOptions options = ScalingOptions(workers);
  const CycleConfig config =
      BenchCycleConfig(world.vocab.size(), ArchType::kTransformer,
                       /*forward_layers=*/1);
  Rng rng(1234);
  CycleModel model(config, rng);
  CycleTrainer trainer(&model, world.train, options);
  Stopwatch watch;
  const Status trained = trainer.Train({});
  ScalingPoint point;
  point.workers = workers;
  point.seconds = watch.ElapsedSeconds();
  if (!trained.ok()) {
    std::fprintf(stderr, "error: workers=%lld: %s\n",
                 static_cast<long long>(workers),
                 trained.ToString().c_str());
    return point;
  }
  point.steps_per_sec =
      static_cast<double>(options.max_steps) / point.seconds;
  // Uniform batch sampling makes the expected token throughput the mean
  // pair length times the batch schedule.
  int64_t corpus_tokens = 0;
  for (const SeqPair& p : world.train) {
    corpus_tokens += static_cast<int64_t>(p.src.size() + p.tgt.size());
  }
  const double tokens_per_step =
      static_cast<double>(corpus_tokens) /
      static_cast<double>(world.train.size()) *
      static_cast<double>(options.batch_size);
  point.tokens_per_sec = tokens_per_step * point.steps_per_sec;
  point.collective_wait_millis = trainer.collective_wait_millis();
  for (const Tensor& p : model.Parameters()) {
    point.params.insert(point.params.end(), p.data(),
                        p.data() + p.NumElements());
  }
  return point;
}

int RunScalingBench(const std::vector<int64_t>& worker_counts,
                    const std::string& metrics_out) {
  BenchWorld world = BuildWorld(/*num_queries=*/200, /*num_sessions=*/4000);
  std::printf("train scaling: %zu pairs, vocabulary %lld tokens\n",
              world.train.size(),
              static_cast<long long>(world.vocab.size()));

  MetricsRegistry& registry = MetricsRegistry::Global();
  std::vector<ScalingPoint> points;
  for (const int64_t workers : worker_counts) {
    points.push_back(RunOne(world, workers));
    const ScalingPoint& p = points.back();
    if (p.params.empty()) return 1;
    const std::string prefix =
        "cyqr_train_workers" + std::to_string(workers);
    registry.GetGauge(prefix + "_steps_per_sec")->Set(p.steps_per_sec);
    registry.GetGauge(prefix + "_tokens_per_sec")->Set(p.tokens_per_sec);
    registry.GetGauge(prefix + "_collective_wait_millis")
        ->Set(p.collective_wait_millis);
    const double speedup =
        points.front().steps_per_sec > 0.0
            ? p.steps_per_sec / points.front().steps_per_sec
            : 0.0;
    registry.GetGauge(prefix + "_speedup_ratio")->Set(speedup);
    std::printf(
        "  workers=%lld: %.2f steps/s, %.0f tokens/s (%.2fs total, "
        "collective wait %.1f ms, speedup %.2fx)\n",
        static_cast<long long>(workers), p.steps_per_sec,
        p.tokens_per_sec, p.seconds, p.collective_wait_millis, speedup);
  }

  // The scaling curve is only honest if every point trained the same
  // model: worker count must never change the bits.
  bool deterministic = true;
  for (const ScalingPoint& p : points) {
    if (p.params != points.front().params) {
      std::fprintf(stderr,
                   "error: workers=%lld diverged from workers=%lld\n",
                   static_cast<long long>(p.workers),
                   static_cast<long long>(points.front().workers));
      deterministic = false;
    }
  }
  registry.GetGauge("cyqr_train_scaling_deterministic_state")
      ->Set(deterministic ? 1.0 : 0.0);
  if (!deterministic) return 1;
  std::printf("  all worker counts bit-identical\n");

  if (!metrics_out.empty()) {
    const Status s = DumpMetrics(metrics_out);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("metrics snapshot written to %s\n", metrics_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace cyqr::bench

// Custom main (no google-benchmark registration): the interesting numbers
// are whole-run throughputs, not per-iteration timings.
int main(int argc, char** argv) {
  std::string metrics_out = "BENCH_training.json";
  std::vector<int64_t> worker_counts = {1, 2, 4};
  for (int i = 1; i < argc; ++i) {
    constexpr char kMetricsFlag[] = "--metrics-out=";
    constexpr char kWorkersFlag[] = "--workers=";
    if (std::strncmp(argv[i], kMetricsFlag, std::strlen(kMetricsFlag)) ==
        0) {
      metrics_out = argv[i] + std::strlen(kMetricsFlag);
    } else if (std::strncmp(argv[i], kWorkersFlag,
                            std::strlen(kWorkersFlag)) == 0) {
      worker_counts.clear();
      std::string list = argv[i] + std::strlen(kWorkersFlag);
      size_t start = 0;
      while (start <= list.size()) {
        const size_t comma = list.find(',', start);
        const std::string item =
            list.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        if (!item.empty()) worker_counts.push_back(std::stoll(item));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (worker_counts.empty()) {
    std::fprintf(stderr, "--workers= needs at least one worker count\n");
    return 2;
  }
  return cyqr::bench::RunScalingBench(worker_counts, metrics_out);
}

#ifndef CYCLEQR_BENCH_E2E_WORKLOADS_H_
#define CYCLEQR_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/e2e/report.h"
#include "bench/e2e/spans.h"
#include "bench/e2e/world.h"

namespace cyqr::e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured part of the run; every workload sizes its
  /// schedule from it (never from a calibration of the code under test).
  double seconds = 15.0;
  Scale scale;
  /// Non-null for the traced run: decorators record spans here and the
  /// workload reports per-layer metrics instead of end-to-end ones.
  SpanRecorder* spans = nullptr;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics an untraced run reports (BENCHMARK.json "end_to_end").
const std::vector<MetricSpec>& EndToEndMetrics();

/// The metrics a traced run reports (BENCHMARK.json "per_layer"); a layer
/// a workload never runs reports 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Workload names, in the order the runner runs them.
const std::vector<std::string>& WorkloadNames();

/// serve_head and serve_mixed: open-loop Poisson traffic against the full
/// serving ladder behind RewriteServer.
void RunServing(const RunOptions& options, Report* report);

/// precompute_cyclic: the nightly CycleRewriter pass over the most popular
/// queries, then PutMany into a store.
void RunPrecompute(const RunOptions& options, Report* report);

/// train_cyclic: Algorithm 1 through CycleTrainer::Train, data-parallel.
void RunTrain(const RunOptions& options, Report* report);

/// Median of per-repeat set-up times, in seconds.
void ReportSetup(const std::vector<double>& seconds, Report* report);

/// Tracing cost as a share of `wall_seconds`: `spans` times the measured
/// cost of recording one span.
double TraceOverheadRatio(int64_t spans, double wall_seconds);

/// Flight-recorder events lost to ring wrap-around over recorded events.
double FlightDroppedRatio();

}  // namespace cyqr::e2e

#endif  // CYCLEQR_BENCH_E2E_WORKLOADS_H_

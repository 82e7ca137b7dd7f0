// cyqr_bench: the repository's end-to-end benchmark (bench/e2e/README.md).
//
//   cyqr_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
//              [--trace-out PATH] [--json-out PATH]
//
// Runs one workload in this process, checks its outputs, prints every
// metric with its unit, and ends standard output with one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// An untraced run reports the end-to-end metrics; --trace 1 (or
// --trace-out) runs the same workload through the benchmark's decorators
// and reports the per-layer metrics instead. Exits 1 when a check failed.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench/e2e/report.h"
#include "bench/e2e/spans.h"
#include "bench/e2e/workloads.h"
#include "core/file_util.h"
#include "core/flags.h"
#include "obs/flight_recorder.h"

namespace cyqr::e2e {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"success_ratio", "ratio"},
      {"nondegraded_ratio", "ratio"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"server.queue_wait_p50_ms", "ms"},
      {"server.queue_wait_p99_ms", "ms"},
      {"server.handoff_p50_ms", "ms"},
      {"server.shed", "count"},
      {"server.retries", "count"},
      {"ladder.serve_p50_ms", "ms"},
      {"ladder.serve_p99_ms", "ms"},
      {"ladder.self_p50_us", "us"},
      {"ladder.cache_ratio", "ratio"},
      {"ladder.model_ratio", "ratio"},
      {"ladder.rules_ratio", "ratio"},
      {"ladder.passthrough_ratio", "ratio"},
      {"ladder.degraded_ratio", "ratio"},
      {"kv.lookups", "count"},
      {"kv.lookup_p50_us", "us"},
      {"kv.lookup_p99_us", "us"},
      {"kv.hit_ratio", "ratio"},
      {"kv.put_many_calls", "count"},
      {"kv.put_many_p50_ms", "ms"},
      {"model_rung.calls", "count"},
      {"model_rung.p50_ms", "ms"},
      {"model_rung.p99_ms", "ms"},
      {"model_rung.errors", "count"},
      {"model_rung.useful_ratio", "ratio"},
      {"decode.beam.calls", "count"},
      {"decode.beam.self_ms", "ms"},
      {"decode.beam.steps_per_call", "count"},
      {"decode.beam.clones_per_call", "count"},
      {"decode.topn.calls", "count"},
      {"decode.topn.self_ms", "ms"},
      {"decode.topn.steps_per_call", "count"},
      {"decode.topn.clones_per_call", "count"},
      {"nmt.direct.encode_us", "us"},
      {"nmt.direct.step_us", "us"},
      {"nmt.direct.clone_us", "us"},
      {"nmt.direct.steps", "count"},
      {"nmt.fwd.encode_us", "us"},
      {"nmt.fwd.step_us", "us"},
      {"nmt.fwd.clone_us", "us"},
      {"nmt.fwd.steps", "count"},
      {"nmt.fwd.step_us.pos1-5", "us"},
      {"nmt.fwd.step_us.pos6-10", "us"},
      {"nmt.fwd.step_us.pos11-15", "us"},
      {"nmt.fwd.step_us.pos16-20", "us"},
      {"nmt.bwd.encode_us", "us"},
      {"nmt.bwd.step_us", "us"},
      {"nmt.bwd.clone_us", "us"},
      {"nmt.bwd.steps", "count"},
      {"nmt.bwd.score_forward_ms", "ms"},
      {"pipeline.title_decode_ms", "ms"},
      {"pipeline.query_decode_ms", "ms"},
      {"pipeline.score_ms", "ms"},
      {"pipeline.rank_ms", "ms"},
      {"pipeline.candidates", "count"},
      {"pipeline.coverage_ratio", "ratio"},
      {"pipeline.replay_mismatches", "count"},
      {"train.warmup_step_p50_ms", "ms"},
      {"train.cyclic_step_p50_ms", "ms"},
      {"train.collective_wait_ms", "ms"},
      {"train.collective_wait_ratio", "ratio"},
      {"train.skipped_batches", "count"},
      {"loadgen.sent", "count"},
      {"loadgen.slo_rate_rps", "1/s"},
      {"loadgen.lag_p50_ms", "ms"},
      {"loadgen.lag_p99_ms", "ms"},
      {"obs.flight_dropped_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"run.throughput_per_s", "1/s"},
      {"run.p50_ms", "ms"},
      {"run.p99_ms", "ms"},
  };
  return kMetrics;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "serve_head", "serve_mixed", "precompute_cyclic", "train_cyclic"};
  return kNames;
}

void ReportSetup(const std::vector<double>& seconds, Report* report) {
  report->Add("setup_s", Quantile(seconds, 0.5), "s");
}

double TraceOverheadRatio(int64_t spans, double wall_seconds) {
  // Cost of one span, measured on a scratch recorder of the same shape.
  constexpr int kCalibrationSpans = 100000;
  static const double kNsPerSpan = [] {
    SpanRecorder scratch;
    const int32_t name = scratch.Intern("calibration");
    const int64_t start = NowNs();
    for (int i = 0; i < kCalibrationSpans; ++i) {
      const SpanRecorder::Scope scope(&scratch, name);
    }
    return static_cast<double>(NowNs() - start) / kCalibrationSpans;
  }();
  if (wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(spans) * kNsPerSpan / (wall_seconds * 1e9);
}

double FlightDroppedRatio() {
  const FlightRecorder& flight = FlightRecorder::Global();
  const int64_t recorded = flight.events_recorded_total();
  if (recorded == 0) return 0.0;
  return static_cast<double>(flight.events_dropped_total()) /
         static_cast<double>(recorded);
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cyqr_bench --workload NAME --seed N [--seconds S] "
               "[--trace 0|1] [--trace-out PATH] [--json-out PATH]\n"
               "workloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// The run must report exactly the declared metric set, each with its
/// declared unit; a layer the workload never ran reports 0 when traced.
void CheckMetricSet(bool traced, Report* report) {
  const std::vector<MetricSpec>& specs =
      traced ? PerLayerMetrics() : EndToEndMetrics();
  std::set<std::string> reported;
  for (const std::string& name : report->names()) {
    if (!reported.insert(name).second) {
      report->Fail("metric reported twice: " + name);
    }
  }
  std::set<std::string> declared;
  for (const MetricSpec& spec : specs) {
    declared.insert(spec.name);
    if (reported.count(spec.name) > 0) {
      if (report->unit(spec.name) != spec.unit) {
        report->Fail("metric " + std::string(spec.name) + " has unit " +
                     report->unit(spec.name) + ", want " + spec.unit);
      }
    } else if (traced) {
      report->Add(spec.name, 0.0, spec.unit);
    } else {
      report->Fail("end-to-end metric not reported: " +
                   std::string(spec.name));
    }
  }
  for (const std::string& name : reported) {
    if (declared.count(name) == 0) report->Fail("undeclared metric: " + name);
  }
}

int Main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  RunOptions options;
  options.workload = flags.GetString("workload");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.seconds = flags.GetDouble("seconds", 15.0);
  options.scale = ScaleFor(flags.GetBool("smoke"));
  const std::string trace_out = flags.GetString("trace-out");
  const std::string json_out = flags.GetString("json-out");
  const bool traced = flags.GetInt("trace", 0) != 0 || !trace_out.empty();
  for (const std::string& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "unknown flag --%s\n", unused.c_str());
    return Usage();
  }
  if (!flags.positional().empty() || options.seconds <= 0.0) return Usage();

  SpanRecorder spans;
  if (traced) options.spans = &spans;
  Report report;
  if (options.workload == "serve_head" || options.workload == "serve_mixed") {
    RunServing(options, &report);
  } else if (options.workload == "precompute_cyclic") {
    RunPrecompute(options, &report);
  } else if (options.workload == "train_cyclic") {
    RunTrain(options, &report);
  } else {
    return Usage();
  }
  if (!traced) report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  CheckMetricSet(traced, &report);

  if (!trace_out.empty()) {
    const Status written = WriteStringToFileAtomic(
        trace_out, TraceJson(spans.Collect(), /*max_spans=*/20000));
    if (!written.ok()) report.Fail("trace not written: " + written.ToString());
  }
  const std::string json = report.Json();
  if (!json_out.empty()) {
    const std::string record =
        "{\"workload\": " + JsonString(options.workload) +
        ", \"seed\": " + std::to_string(options.seed) +
        ", \"seconds\": " + JsonNumber(options.seconds) +
        ", \"trace\": " + (traced ? "1" : "0") + ", \"result\": " + json +
        "}\n";
    const Status written = WriteStringToFileAtomic(json_out, record);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  std::printf("%s (seed %llu, %s)\n%s", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              traced ? "traced" : "untraced", report.Table().c_str());
  for (const std::string& failure : report.failures()) {
    std::fprintf(stderr, "FAILED CHECK: %s\n", failure.c_str());
  }
  std::printf("%s\n", json.c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace cyqr::e2e

int main(int argc, char** argv) { return cyqr::e2e::Main(argc, argv); }

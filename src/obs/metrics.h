#ifndef CYCLEQR_OBS_METRICS_H_
#define CYCLEQR_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/thread_annotations.h"

namespace cyqr {

/// The observability layer's instrument registry (DESIGN.md
/// "Observability"). Design goals, in order:
///
///   1. Hot-path recording is lock-free: Counter/Gauge/Histogram updates
///      are relaxed atomics, no mutex, no allocation. The registry mutex
///      is taken only on instrument *registration* and on snapshot reads,
///      so instrumented serving code pays a handful of atomic adds per
///      request.
///   2. Fixed memory: histograms use configurable fixed bucket bounds, so
///      a service that runs for a week holds exactly as much metric state
///      as one that served a single request.
///   3. Two export formats from one registry: Prometheus-style text
///      exposition and a JSON snapshot (the `BENCH_*.json` emitter).
///
/// Naming convention (enforced by the `metrics-naming` lint rule at
/// registry call sites): `cyqr_<layer>_<name>_<unit>` — lowercase
/// [a-z0-9_], at least four `_`-separated segments, ending in a known
/// unit (`total`, `millis`, `micros`, `seconds`, `bytes`, `tokens`,
/// `ratio`, `count`, `state`, `norm`, `value`, `per_sec`).

/// Key/value label pairs attached to one instrument instance
/// (e.g. {{"rung", "cache"}}). Keep cardinality bounded: labels must come
/// from small closed sets (rung names, breaker states), never from
/// request data such as query strings.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. Increment is a single relaxed fetch_add.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// `delta` must be >= 0 (counters are monotonic); negative deltas are
  /// dropped rather than corrupting the series.
  void Increment(int64_t delta = 1) {
    // ordering: relaxed — observability counter/snapshot; no other memory is
    // published or consumed through it.
    if (delta > 0) value_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Increment() by one that also returns the pre-increment value, so hot
  /// paths can reuse the counter as a sampling sequence (e.g. observe an
  /// expensive histogram on every Nth event) without a second atomic op.
  int64_t FetchIncrement() {
    // ordering: relaxed — observability counter/snapshot; no other memory is
    // published or consumed through it.
    return value_.fetch_add(1, std::memory_order_relaxed);
  }

  // ordering: relaxed — stat snapshot for reporting; a stale value is
  // acceptable.
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins gauge for levels (breaker state, tokens/sec, loss).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  // ordering: relaxed — observability counter/snapshot; no other memory is
  // published or consumed through it.
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta);

  // ordering: relaxed — stat snapshot for reporting; a stale value is
  // acceptable.
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: cumulative-style buckets over strictly
/// increasing upper bounds plus an implicit +Inf overflow bucket, with
/// exact count/sum/max tracked alongside. Safe under concurrent Observe;
/// mergeable when bounds match.
class Histogram {
 public:
  /// `bounds` are the bucket upper bounds, strictly increasing, non-empty.
  /// A value v lands in the first bucket with v <= bound, else overflow.
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Default bounds for request/rung latencies in milliseconds
  /// (50 us .. 1 s, roughly log-spaced around the paper's 50 ms budget).
  static std::vector<double> DefaultLatencyBoundsMillis();
  /// Default bounds for micro-scale timings in microseconds.
  static std::vector<double> DefaultTimeBoundsMicros();

  void Observe(double value) { Observe(value, 0); }

  /// Observe with an exemplar: `exemplar_id` (a Trace id; 0 = none) is
  /// remembered for the bucket the value lands in, last writer wins. This
  /// is the latency-to-trace join: a p99 bucket in /metrics carries the id
  /// of one concrete request that landed there, findable in /tracez.
  /// The (id, value) pair is two relaxed stores — a concurrent reader can
  /// pair one writer's id with another's value; exemplars are debugging
  /// breadcrumbs, not accounting, so tearing across the pair is accepted
  /// (each field individually is never torn).
  void Observe(double value, uint64_t exemplar_id);

  /// Exemplar trace id for bucket `i` (same indexing as BucketCount);
  /// 0 when the bucket never saw an exemplar.
  uint64_t ExemplarTraceId(size_t i) const;
  /// The observed value that carried that exemplar (0 when none).
  double ExemplarValue(size_t i) const;

  /// Total observations, derived by summing the buckets at read time:
  /// Observe stays three atomic ops, and snapshot reads are cold.
  int64_t Count() const;
  // ordering: relaxed — stat snapshot for reporting; a stale value is
  // acceptable.
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Largest observed value; 0 when empty.
  // ordering: relaxed — stat snapshot for reporting; a stale value is
  // acceptable.
  double Max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const;

  /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
  /// bucket holding the target rank; the overflow bucket reports Max().
  /// Exact whenever observations sit on bucket bounds.
  double QuantileEstimate(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket `i`, i in [0, bounds().size()]; the last index is the
  /// +Inf overflow bucket.
  int64_t BucketCount(size_t i) const;

  /// Adds `other`'s buckets/count/sum/max into this histogram, taking
  /// `other`'s exemplar for every bucket where it has one. The two
  /// histograms must share identical bounds.
  void MergeFrom(const Histogram& other);

 private:
  /// Last exemplar seen by one bucket. See Observe(value, exemplar_id) for
  /// the (deliberate) cross-field tearing contract.
  struct ExemplarSlot {
    std::atomic<uint64_t> trace_id{0};
    std::atomic<double> value{0.0};
  };

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;  // bounds_.size() + 1.
  std::unique_ptr<ExemplarSlot[]> exemplars_;        // bounds_.size() + 1.
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// True when `name` follows the instrument naming convention above.
bool IsValidMetricName(const std::string& name);

/// Hot-path sampling decision for histogram observations, driven by a
/// counter sequence (Counter::FetchIncrement): record every observation
/// while the series is cold (seq < exact_window), then one in `stride`
/// (a power of two) once it is hot. Counters are never sampled — only
/// distribution fidelity is traded for the cost of Observe on paths that
/// run millions of times per second — so accounting invariants such as
/// "rung answers sum to requests" stay exact.
constexpr bool SampleObservation(int64_t seq, int64_t exact_window,
                                 int64_t stride) {
  return seq < exact_window || (seq & (stride - 1)) == 0;
}

/// Thread-safe instrument registry. Get* registers on first use and
/// returns the same instrument pointer afterwards; returned pointers stay
/// valid for the registry's lifetime, so callers resolve them once and
/// record through raw pointers on the hot path. Instrument names are
/// CYQR_CHECK-validated against the naming convention.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name,
                      const MetricLabels& labels = {});
  Gauge* GetGauge(const std::string& name, const MetricLabels& labels = {});
  /// Registering the same name twice with different bounds is a
  /// programming error (CYQR_CHECK).
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds,
                          const MetricLabels& labels = {});

  /// Prometheus-style text exposition: `# TYPE` lines plus
  /// `name{label="v"} value` samples; histograms expand into
  /// `_bucket{le=...}` / `_sum` / `_count` series. Deterministic order
  /// (sorted by name, then label set).
  std::string ExpositionText() const;

  /// JSON snapshot: {"counters": [...], "gauges": [...],
  /// "histograms": [...]} with per-histogram count/sum/max/mean and
  /// p50/p90/p99 estimates. Deterministic order; machine-checked by
  /// scripts/check_metrics_json.sh.
  std::string JsonSnapshot() const;

  [[nodiscard]] Status WriteJsonSnapshot(const std::string& path) const;
  [[nodiscard]] Status WriteExpositionText(const std::string& path) const;

  /// Process-wide default registry (what `cyqr_cli --metrics-out` and the
  /// benches dump). Library code takes a registry pointer instead of
  /// using this directly so tests can isolate their counts.
  static MetricsRegistry& Global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Instrument {
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    Kind kind = Kind::kCounter;
    /// Serialized sorted label set -> instrument.
    std::map<std::string, Instrument> instruments;
  };

  Family* GetFamily(const std::string& name, Kind kind) CYQR_REQUIRES(mu_);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_ CYQR_GUARDED_BY(mu_);
};

}  // namespace cyqr

#endif  // CYCLEQR_OBS_METRICS_H_

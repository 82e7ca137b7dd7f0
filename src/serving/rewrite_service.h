#ifndef CYCLEQR_SERVING_REWRITE_SERVICE_H_
#define CYCLEQR_SERVING_REWRITE_SERVICE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "baseline/rule_based.h"
#include "core/deadline.h"
#include "core/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewrite/direct_model.h"
#include "rewrite/inference.h"
#include "serving/backends.h"
#include "serving/circuit_breaker.h"
#include "serving/kv_store.h"

namespace cyqr {

/// The two-tier serving architecture of Section III-G, hardened into a
/// degradation ladder so a slow or broken tier degrades the answer instead
/// of taking the request down:
///
///   1. kCache        precomputed KV store (head queries, <5 ms);
///   2. kDirectModel  fast direct q2q model — only if deadline budget
///                    remains and the circuit breaker admits the call;
///   3. kRuleBased    synonym-dictionary baseline (microseconds);
///   4. kPassthrough  identity: the original query is returned unchanged.
///
/// Every rung is tried in order; rung 4 cannot fail, so Serve() always
/// answers. The Response records which rung answered, every rung attempt
/// with its Status, and whether the request was degraded.
///
/// Serve() is safe to call from N threads over one shared instance: the
/// breaker, fault injectors, KV snapshot reads, and metrics instruments
/// are all atomic or immutable. The one caveat is the ModelBackend — the
/// in-process DirectModelBackend decode is read-only over frozen
/// parameters and therefore safe, but a stateful backend must provide its
/// own synchronization.
class RewriteService {
 public:
  struct Options {
    int64_t max_rewrites = 3;
    int64_t max_rewrite_len = 10;
    /// Per-request budget when the caller does not pass a Deadline
    /// (the paper's end-to-end serving budget). <= 0 means no deadline.
    double default_budget_millis = 50.0;
    /// The model rung is skipped when less than this much budget remains.
    double model_min_budget_millis = 1.0;
    CircuitBreaker::Options breaker;
    /// When non-null, finished traced requests are sampled here (the
    /// /tracez store). Requests the caller did not trace get a
    /// service-created trace on the same 1-in-N cadence as the latency
    /// histogram, so every /metrics exemplar resolves in /tracez.
    TraceSampler* trace_sampler = nullptr;
  };

  /// The ladder rung that produced the answer (also used to label rung
  /// attempts). Order matters: lower enum value = higher rung.
  enum class Source { kCache, kDirectModel, kRuleBased, kPassthrough };

  static const char* SourceName(Source source);

  /// One rung's outcome for this request. `skipped` means the rung never
  /// ran (absent backend, exhausted budget, open circuit breaker); its
  /// Status then says why. For rungs that ran, NotFound is a clean miss
  /// and any other non-OK Status is a failure.
  struct RungAttempt {
    Source rung = Source::kCache;
    Status status;
    bool skipped = false;
  };

  struct Response {
    std::vector<std::vector<std::string>> rewrites;
    Source source = Source::kPassthrough;
    /// True when the answer did not come from the cache or a healthy
    /// direct-model call — i.e. some rung failed, was skipped for budget
    /// or breaker reasons, or the ladder fell through to rules/identity.
    bool degraded = false;
    /// First real failure on the ladder (never NotFound); OK when the
    /// request merely fell through clean misses.
    Status degraded_status;
    /// Wall-clock time plus any fault-injected virtual latency.
    double latency_millis = 0.0;
    std::vector<RungAttempt> attempts;
  };

  /// Backend-seam constructor (tests, benches, fault injection). `cache`
  /// must be non-null; `model` and `rule_based` may be null (their rungs
  /// are then reported as skipped). All pointers must outlive the service.
  /// The service registers its instruments in `metrics`, or in a registry
  /// of its own when `metrics` is null, and records per-rung counters,
  /// latencies, deadline headroom and breaker transitions on every request
  /// (DESIGN.md "Observability").
  RewriteService(KvBackend* cache, ModelBackend* model,
                 const RuleBasedRewriter* rule_based, const Options& options,
                 MetricsRegistry* metrics = nullptr);

  /// Production convenience: wraps the store and direct model in the
  /// default in-process backends. `fallback` and `rule_based` may be null.
  RewriteService(const RewriteKvStore* store, const DirectRewriter* fallback,
                 const Options& options,
                 const RuleBasedRewriter* rule_based = nullptr,
                 MetricsRegistry* metrics = nullptr);

  /// Serves under the default deadline from Options.
  Response Serve(const std::vector<std::string>& query_tokens);

  /// Serves under an explicit deadline (threaded through every rung).
  Response Serve(const std::vector<std::string>& query_tokens,
                 Deadline deadline);

  /// Full-control overload: an optional per-request Trace records the
  /// exact path through the ladder (rung outcomes, breaker transitions,
  /// deadline headroom). `trace` may be null.
  Response Serve(const std::vector<std::string>& query_tokens,
                 Deadline deadline, Trace* trace);

  /// Offline precompute: runs the full cyclic pipeline over head queries
  /// and fills the store (the paper's nightly batch job).
  static void PrecomputeHead(const CycleRewriter& rewriter,
                             const std::vector<std::vector<std::string>>&
                                 head_queries,
                             const RewriteOptions& rewrite_options,
                             RewriteKvStore* store);

  /// Ladder counts, read from the service's instruments. Services that
  /// share one registry share these counts.
  int64_t cache_hits() const {
    return rung_obs(Source::kCache).answers->Value();
  }
  int64_t model_calls() const {
    return rung_obs(Source::kDirectModel).answers->Value() +
           rung_obs(Source::kDirectModel).misses->Value();
  }
  int64_t model_failures() const {
    return rung_obs(Source::kDirectModel).errors->Value();
  }
  int64_t rule_based_answers() const {
    return rung_obs(Source::kRuleBased).answers->Value();
  }
  int64_t passthrough_answers() const {
    return rung_obs(Source::kPassthrough).answers->Value();
  }
  int64_t degraded_requests() const { return obs_.degraded->Value(); }
  /// Latency of the rung's calls that ran (answers, misses and errors;
  /// skips are not timed), sampled 1-in-8 once the series is hot.
  const Histogram& rung_latency(Source source) const {
    return *rung_obs(source).latency;
  }
  const CircuitBreaker& breaker() const { return breaker_; }

 private:
  /// Pre-resolved instrument pointers (resolved once at construction, so
  /// the hot path records through raw pointers — no registry lookups).
  struct RungInstruments {
    Counter* attempts = nullptr;
    Counter* answers = nullptr;
    Counter* errors = nullptr;
    Counter* misses = nullptr;
    Counter* skipped = nullptr;
    Histogram* latency = nullptr;
  };
  struct Instruments {
    Counter* requests = nullptr;
    Counter* degraded = nullptr;
    Histogram* request_latency = nullptr;
    Histogram* deadline_remaining = nullptr;
    Gauge* breaker_state = nullptr;
    Counter* breaker_transitions[3] = {nullptr, nullptr, nullptr};
    RungInstruments rungs[4];
  };

  /// True when `rewrites` looks like sane model output (non-empty, no
  /// empty tokens, within the length limit) — the guard that catches
  /// corrupt-output faults.
  bool ValidRewrites(
      const std::vector<std::vector<std::string>>& rewrites) const;

  void InitInstruments(MetricsRegistry* metrics);

  const RungInstruments& rung_obs(Source source) const {
    return obs_.rungs[static_cast<size_t>(source)];
  }

  /// Books one rung outcome, once, everywhere it is reported: the
  /// Response's attempt trail and degraded_status, the span's detail, the
  /// serving.rung flight event, and the per-rung counters and sampled
  /// latency histogram. OK is an answer, NotFound a clean miss, and any
  /// other Status an error; a non-null `skipped` (the span detail) means
  /// the rung never ran. Returns true when the rung answered.
  bool BookRung(Source rung, const Status& status, const char* skipped,
                double latency_millis, TraceSpan* span, Response* response);

  /// The model rung: budget gate, breaker gate, decode, and output checks.
  /// Returns the rung's Status; sets `*skipped` to the span detail when a
  /// gate kept the model from running.
  [[nodiscard]] Status TryModel(const std::vector<std::string>& query_tokens,
                                Deadline& deadline, Trace* trace,
                                RewriteKvStore::Rewrites* out,
                                const char** skipped);

  /// Detects breaker state transitions (after AllowRequest/Record*) and
  /// books them into the transition counters, state gauge, and trace.
  void NoteBreakerState(Trace* trace);

  // Owned adapters for the convenience constructor; null when the caller
  // provided backends directly.
  std::unique_ptr<KvStoreBackend> owned_cache_;
  std::unique_ptr<DirectModelBackend> owned_model_;

  KvBackend* cache_;
  ModelBackend* model_;
  const RuleBasedRewriter* rule_based_;
  Options options_;
  CircuitBreaker breaker_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // When none was passed.
  Instruments obs_;
  std::atomic<CircuitBreaker::State> last_breaker_state_{
      CircuitBreaker::State::kClosed};
};

}  // namespace cyqr

#endif  // CYCLEQR_SERVING_REWRITE_SERVICE_H_

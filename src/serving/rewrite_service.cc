#include "serving/rewrite_service.h"

#include <string>
#include <utility>

#include "core/check.h"
#include "core/stopwatch.h"
#include "core/string_util.h"
#include "obs/flight_recorder.h"

namespace cyqr {
namespace {

// Latency histograms record exactly until a series has this many
// observations, then sample (SampleObservation in obs/metrics.h). Deadline
// headroom costs an extra clock read on top of Observe, so it thins out
// more aggressively.
constexpr int64_t kExactObservationWindow = 1024;
constexpr int64_t kLatencySampleStride = 8;
constexpr int64_t kDeadlineSampleStride = 16;

// The class of one rung outcome. The values (0..3) are the flight
// recorder's outcome codes (arg1 of the serving.rung event).
enum class Outcome : int64_t { kAnswer, kMiss, kError, kSkipped };

// Trace span names; indexed by Source.
constexpr const char* kRungSpanNames[] = {"rung:cache", "rung:direct-model",
                                          "rung:rule-based",
                                          "rung:passthrough"};

}  // namespace

const char* RewriteService::SourceName(Source source) {
  switch (source) {
    case Source::kCache:
      return "cache";
    case Source::kDirectModel:
      return "direct-model";
    case Source::kRuleBased:
      return "rule-based";
    case Source::kPassthrough:
      return "passthrough";
  }
  return "unknown";
}

RewriteService::RewriteService(KvBackend* cache, ModelBackend* model,
                               const RuleBasedRewriter* rule_based,
                               const Options& options,
                               MetricsRegistry* metrics)
    : cache_(cache),
      model_(model),
      rule_based_(rule_based),
      options_(options),
      breaker_(options.breaker) {
  CYQR_CHECK(cache != nullptr);
  InitInstruments(metrics);
}

RewriteService::RewriteService(const RewriteKvStore* store,
                               const DirectRewriter* fallback,
                               const Options& options,
                               const RuleBasedRewriter* rule_based,
                               MetricsRegistry* metrics)
    : owned_cache_(std::make_unique<KvStoreBackend>(store)),
      owned_model_(fallback == nullptr
                       ? nullptr
                       : std::make_unique<DirectModelBackend>(fallback)),
      cache_(owned_cache_.get()),
      model_(owned_model_.get()),
      rule_based_(rule_based),
      options_(options),
      breaker_(options.breaker) {
  CYQR_CHECK(store != nullptr);
  InitInstruments(metrics);
}

void RewriteService::InitInstruments(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  obs_.requests = metrics->GetCounter("cyqr_serving_requests_total");
  obs_.degraded = metrics->GetCounter("cyqr_serving_degraded_total");
  obs_.request_latency =
      metrics->GetHistogram("cyqr_serving_request_latency_millis",
                            Histogram::DefaultLatencyBoundsMillis());
  obs_.deadline_remaining =
      metrics->GetHistogram("cyqr_serving_deadline_remaining_millis",
                            Histogram::DefaultLatencyBoundsMillis());
  obs_.breaker_state = metrics->GetGauge("cyqr_serving_breaker_state");
  for (int s = 0; s < 3; ++s) {
    obs_.breaker_transitions[s] = metrics->GetCounter(
        "cyqr_serving_breaker_transitions_total",
        {{"to", CircuitBreaker::StateName(
                    static_cast<CircuitBreaker::State>(s))}});
  }
  for (int r = 0; r < 4; ++r) {
    const MetricLabels labels = {
        {"rung", SourceName(static_cast<Source>(r))}};
    RungInstruments& rung = obs_.rungs[r];
    rung.attempts =
        metrics->GetCounter("cyqr_serving_rung_attempts_total", labels);
    rung.answers =
        metrics->GetCounter("cyqr_serving_rung_answers_total", labels);
    rung.errors =
        metrics->GetCounter("cyqr_serving_rung_errors_total", labels);
    rung.misses =
        metrics->GetCounter("cyqr_serving_rung_misses_total", labels);
    rung.skipped =
        metrics->GetCounter("cyqr_serving_rung_skipped_total", labels);
    rung.latency =
        metrics->GetHistogram("cyqr_serving_rung_latency_millis",
                              Histogram::DefaultLatencyBoundsMillis(), labels);
  }
  obs_.breaker_state->Set(0.0);  // kClosed.
}

bool RewriteService::BookRung(Source rung, const Status& status,
                              const char* skipped, double latency_millis,
                              TraceSpan* span, Response* response) {
  const Outcome outcome = skipped != nullptr ? Outcome::kSkipped
                          : status.ok()      ? Outcome::kAnswer
                          : status.code() == StatusCode::kNotFound
                              ? Outcome::kMiss
                              : Outcome::kError;
  response->attempts.push_back({rung, status, skipped != nullptr});
  // Degradation starts at the first error or refused call (budget,
  // breaker); a rung with no backend configured is not a failure.
  const bool configured =
      (rung != Source::kDirectModel || model_ != nullptr) &&
      (rung != Source::kRuleBased || rule_based_ != nullptr);
  if ((outcome == Outcome::kError ||
       (outcome == Outcome::kSkipped && configured)) &&
      response->degraded_status.ok()) {
    response->degraded_status = status;
  }
  switch (outcome) {
    case Outcome::kAnswer:
      span->SetDetail("hit");
      break;
    case Outcome::kMiss:
      span->SetDetail("miss");
      break;
    case Outcome::kError:
      span->SetStatus(status);
      break;
    case Outcome::kSkipped:
      span->SetDetail(skipped);
      break;
  }
  // Always-on flight event: the recorder is the transient-failure journal,
  // and a rung outcome is exactly the kind of breadcrumb a post-mortem
  // needs. args = (rung index, outcome code).
  static const int32_t kRungEvent =
      FlightRecorder::Global().InternName("serving.rung");
  FlightRecorder::Global().Record(FlightCategory::kServing, kRungEvent,
                                  static_cast<int64_t>(rung),
                                  static_cast<int64_t>(outcome));
  RungInstruments& in = obs_.rungs[static_cast<size_t>(rung)];
  if (outcome == Outcome::kSkipped) {
    in.skipped->Increment();
    return false;
  }
  // The attempt counter doubles as the per-rung sampling sequence: a hot
  // rung (cache at full traffic) thins its latency histogram to 1-in-8
  // while a cold one (rare model calls) keeps recording exactly.
  const int64_t seq = in.attempts->FetchIncrement();
  if (SampleObservation(seq, kExactObservationWindow, kLatencySampleStride)) {
    in.latency->Observe(latency_millis);
  }
  Counter* tally = outcome == Outcome::kAnswer ? in.answers
                   : outcome == Outcome::kMiss ? in.misses
                                               : in.errors;
  tally->Increment();
  return outcome == Outcome::kAnswer;
}

void RewriteService::NoteBreakerState(Trace* trace) {
  const CircuitBreaker::State state = breaker_.state();
  // One atomic exchange claims the transition: under concurrent callers
  // exactly one thread observes (prev != state) per state change and books
  // it. A burst of transitions between two calls can coalesce — transition
  // *counts* are best-effort observability; the state gauge converges.
  // ordering: relaxed — last-seen snapshot for trace annotation; a lost race
  // mislabels one trace at worst.
  const CircuitBreaker::State prev =
      last_breaker_state_.exchange(state, std::memory_order_relaxed);
  if (state == prev) return;
  if (trace != nullptr) {
    trace->Annotate("breaker",
                    std::string(CircuitBreaker::StateName(prev)) + " -> " +
                        CircuitBreaker::StateName(state));
  }
  obs_.breaker_transitions[static_cast<size_t>(state)]->Increment();
  obs_.breaker_state->Set(static_cast<double>(state));
}

Status RewriteService::TryModel(const std::vector<std::string>& query_tokens,
                                Deadline& deadline, Trace* trace,
                                RewriteKvStore::Rewrites* out,
                                const char** skipped) {
  if (model_ == nullptr) {
    *skipped = "skipped(no model)";
    return Status::FailedPrecondition("no direct model configured");
  }
  if (!deadline.HasBudget(options_.model_min_budget_millis)) {
    *skipped = "skipped(no budget)";
    return Status::FailedPrecondition(
        "deadline budget exhausted before model rung");
  }
  const bool admitted = breaker_.AllowRequest();
  NoteBreakerState(trace);
  if (!admitted) {
    *skipped = "skipped(breaker open)";
    return Status::FailedPrecondition("direct-model circuit breaker open");
  }
  std::vector<RewriteCandidate> candidates;
  Status status =
      model_->Rewrite(query_tokens, options_.max_rewrites,
                      options_.max_rewrite_len, deadline, &candidates);
  for (RewriteCandidate& c : candidates) out->push_back(std::move(c.tokens));
  if (status.ok() && deadline.Expired()) {
    status = Status::FailedPrecondition(
        "deadline expired during model decode");
  } else if (status.ok() && out->empty()) {
    status = Status::NotFound("model produced no rewrites");
  } else if (status.ok() && !ValidRewrites(*out)) {
    status = Status::Internal("direct model returned invalid output");
  }
  // A miss is a healthy model with nothing to say, not a failure.
  if (status.ok() || status.code() == StatusCode::kNotFound) {
    breaker_.RecordSuccess();
  } else {
    breaker_.RecordFailure();
  }
  NoteBreakerState(trace);
  return status;
}

RewriteService::Response RewriteService::Serve(
    const std::vector<std::string>& query_tokens) {
  return Serve(query_tokens,
               options_.default_budget_millis > 0
                   ? Deadline::AfterMillis(options_.default_budget_millis)
                   : Deadline::Infinite(),
               nullptr);
}

RewriteService::Response RewriteService::Serve(
    const std::vector<std::string>& query_tokens, Deadline deadline) {
  return Serve(query_tokens, deadline, nullptr);
}

RewriteService::Response RewriteService::Serve(
    const std::vector<std::string>& query_tokens, Deadline deadline,
    Trace* trace) {
  Response response;
  Stopwatch watch;
  const double charged_at_entry = deadline.charged_millis();
  // Wall clock plus virtual (fault-injected) time spent inside this call.
  const auto elapsed = [&] {
    return watch.ElapsedMillis() +
           (deadline.charged_millis() - charged_at_entry);
  };

  // The request counter doubles as the sampling sequence for the
  // request-level histograms; every counter stays exact.
  const int64_t request_seq = obs_.requests->FetchIncrement();
  if (SampleObservation(request_seq, kExactObservationWindow,
                        kDeadlineSampleStride) &&
      !deadline.infinite()) {
    obs_.deadline_remaining->Observe(deadline.RemainingMillis());
  }
  const bool sample_latency = SampleObservation(
      request_seq, kExactObservationWindow, kLatencySampleStride);
  // Exemplar coverage: requests the caller did not trace get a
  // service-created trace exactly when their latency will be observed, so
  // every exemplar written below resolves in the sampler.
  std::unique_ptr<Trace> sampled_trace;
  if (trace == nullptr && options_.trace_sampler != nullptr &&
      sample_latency) {
    sampled_trace = std::make_unique<Trace>();
    trace = sampled_trace.get();
  }

  // Walk the ladder; the passthrough rung always answers.
  for (const Source rung : {Source::kCache, Source::kDirectModel,
                            Source::kRuleBased, Source::kPassthrough}) {
    TraceSpan span(trace, kRungSpanNames[static_cast<size_t>(rung)]);
    const double rung_start = elapsed();
    RewriteKvStore::Rewrites rewrites;
    const char* skipped = nullptr;
    Status status;
    switch (rung) {
      case Source::kCache:
        status = cache_->Lookup(JoinStrings(query_tokens), deadline,
                                &rewrites);
        break;
      case Source::kDirectModel:
        status = TryModel(query_tokens, deadline, trace, &rewrites, &skipped);
        break;
      case Source::kRuleBased:
        if (rule_based_ == nullptr) {
          skipped = "skipped(no rules)";
          status = Status::FailedPrecondition(
              "no rule-based rewriter configured");
          break;
        }
        // In-memory synonym lookup: microseconds, cannot block, so
        // RuleBasedRewriter deliberately has no Deadline overload.
        // NOLINTNEXTLINE(cyqr-deadline-propagation): see above.
        rewrites = rule_based_->Rewrite(query_tokens, options_.max_rewrites);
        if (rewrites.empty()) {
          status = Status::NotFound("no synonym phrase matched");
        }
        break;
      case Source::kPassthrough:
        rewrites = {query_tokens};
        break;
    }
    if (!BookRung(rung, status, skipped, elapsed() - rung_start, &span,
                  &response)) {
      continue;
    }
    response.source = rung;
    response.rewrites = std::move(rewrites);
    if (static_cast<int64_t>(response.rewrites.size()) >
        options_.max_rewrites) {
      response.rewrites.resize(options_.max_rewrites);
    }
    response.latency_millis = elapsed();
    // Rules and passthrough always degrade; the model degrades only when
    // an upstream rung failed (e.g. a cache outage).
    response.degraded =
        rung >= Source::kRuleBased || !response.degraded_status.ok();
    span.End();  // Close the span before the sampler reads the trace.
    break;
  }

  // Flight event per finished request: (answering rung, latency in
  // microseconds). Always on — this is what makes the tail of a
  // post-mortem journal identify the in-flight request mix.
  static const int32_t kRequestEvent =
      FlightRecorder::Global().InternName("serving.request");
  FlightRecorder::Global().Record(
      FlightCategory::kServing, kRequestEvent,
      static_cast<int64_t>(response.source),
      static_cast<int64_t>(response.latency_millis * 1000.0));
  if (options_.trace_sampler != nullptr && trace != nullptr) {
    options_.trace_sampler->Sample(*trace, SourceName(response.source));
  }
  if (sample_latency) {
    // The trace id rides along as the bucket's exemplar — the /metrics
    // -> /tracez join for one concrete request in this bucket.
    obs_.request_latency->Observe(response.latency_millis,
                                  trace != nullptr ? trace->id() : 0);
  }
  if (response.degraded) obs_.degraded->Increment();
  return response;
}

bool RewriteService::ValidRewrites(
    const std::vector<std::vector<std::string>>& rewrites) const {
  for (const std::vector<std::string>& r : rewrites) {
    if (r.empty()) return false;
    if (static_cast<int64_t>(r.size()) > options_.max_rewrite_len) {
      return false;
    }
    for (const std::string& token : r) {
      if (token.empty()) return false;
    }
  }
  return true;
}

void RewriteService::PrecomputeHead(
    const CycleRewriter& rewriter,
    const std::vector<std::vector<std::string>>& head_queries,
    const RewriteOptions& rewrite_options, RewriteKvStore* store) {
  CYQR_CHECK(store != nullptr);
  // Batch the inserts: the store's copy-swap Put would otherwise copy the
  // growing table once per head query.
  std::vector<std::pair<std::string, RewriteKvStore::Rewrites>> entries;
  entries.reserve(head_queries.size());
  for (const auto& query : head_queries) {
    CycleRewriter::Result result = rewriter.Rewrite(query, rewrite_options);
    RewriteKvStore::Rewrites rewrites;
    for (const RewriteCandidate& c : result.rewrites) {
      rewrites.push_back(c.tokens);
    }
    entries.emplace_back(JoinStrings(query), std::move(rewrites));
  }
  store->PutMany(std::move(entries));
}

}  // namespace cyqr

// The multi-threaded fault drill (ROADMAP "multi-threaded serving"), plus
// contention tests for the shared serving state it depends on: the breaker
// admits exactly one half-open probe under a thundering herd, the KV
// snapshot survives concurrent copy-swap writes, and the fault injector's
// deterministic failure window fires exactly once per scheduled call no
// matter how calls interleave.
//
// The drill itself: N submitter threads push traffic through a
// RewriteServer over a service whose cache is in a fault-injected outage
// and whose model flaps, concurrently tripping and re-closing the breaker.
// The accounting invariant — per-rung answers sum exactly to requests
// served, and served + shed equals requests submitted — must hold to the
// request, and the MetricsRegistry counters must agree exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.h"
#include "obs/flight_recorder.h"
#include "serving/fault_injection.h"
#include "serving/server.h"

namespace cyqr {
namespace {

using Source = RewriteService::Source;
using State = CircuitBreaker::State;

// ---------------------------------------------------------------------------
// CircuitBreaker under contention.
// ---------------------------------------------------------------------------

TEST(BreakerConcurrencyTest, ExactlyOneProbeWinsTheHalfOpenTransition) {
  CircuitBreaker::Options options;
  options.failure_threshold = 1;
  options.cooldown_requests = 1;
  CircuitBreaker breaker(options);
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), State::kOpen);

  // A thundering herd arrives exactly when the cooldown expires: every
  // thread is eligible to become the probe, but the CAS must pick one.
  constexpr int kThreads = 8;
  std::atomic<int> admitted{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> herd;
  for (int i = 0; i < kThreads; ++i) {
    herd.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      if (breaker.AllowRequest()) admitted.fetch_add(1);
    });
  }
  go.store(true);
  for (auto& t : herd) t.join();

  EXPECT_EQ(admitted.load(), 1);
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
  EXPECT_EQ(breaker.rejected_requests(), kThreads - 1);
}

TEST(BreakerConcurrencyTest, InvariantsHoldUnderMixedContention) {
  CircuitBreaker::Options options;
  options.failure_threshold = 2;
  options.cooldown_requests = 3;
  CircuitBreaker breaker(options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<int64_t> allowed{0};
  std::atomic<int64_t> denied{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (breaker.AllowRequest()) {
          allowed.fetch_add(1);
          // Mostly failures, so the breaker keeps cycling through all
          // three states while threads race on every transition.
          if ((t + i) % 5 == 0) {
            breaker.RecordSuccess();
          } else {
            breaker.RecordFailure();
          }
        } else {
          denied.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : workers) t.join();

  // No request is lost or double-counted by the admission decision.
  EXPECT_EQ(allowed.load() + denied.load(), kThreads * kPerThread);
  EXPECT_EQ(breaker.rejected_requests(), denied.load());
  // The breaker really cycled (this workload trips it thousands of times).
  EXPECT_GT(breaker.times_opened(), 0);
  const State final_state = breaker.state();
  EXPECT_TRUE(final_state == State::kClosed || final_state == State::kOpen ||
              final_state == State::kHalfOpen);
}

// ---------------------------------------------------------------------------
// KV store: lock-free readers against copy-swap writers.
// ---------------------------------------------------------------------------

TEST(KvStoreConcurrencyTest, ReadersNeverSeeTornStateDuringWrites) {
  RewriteKvStore store;
  store.Put("stable", {{"always", "here"}});

  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const RewriteKvStore::Snapshot snap = store.snapshot();
        auto it = snap->find("stable");
        // The stable key must be visible and intact in every snapshot,
        // no matter how many swaps happen mid-read.
        ASSERT_NE(it, snap->end());
        ASSERT_EQ(it->second.size(), 1u);
        ASSERT_EQ(it->second[0],
                  (std::vector<std::string>{"always", "here"}));
        reads.fetch_add(1);
      }
    });
  }

  constexpr int kWrites = 300;
  for (int i = 0; i < kWrites; ++i) {
    store.Put("key " + std::to_string(i), {{"value", std::to_string(i)}});
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(store.size(), 1u + kWrites);
  // Spot-check a few written keys landed.
  EXPECT_NE(store.Get("key 0"), nullptr);
  EXPECT_NE(store.Get("key 299"), nullptr);
}

// ---------------------------------------------------------------------------
// FaultInjector: the deterministic window is exact under concurrency.
// ---------------------------------------------------------------------------

TEST(FaultInjectorConcurrencyTest, FailureWindowFiresExactlyByCount) {
  FaultSpec spec;
  spec.fail_calls_begin = 10;
  spec.fail_calls_end = 30;
  FaultInjector injector(spec, /*seed=*/7);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;  // 100 calls total, window covers 20.
  std::atomic<int64_t> failures{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        Deadline deadline = Deadline::Infinite();
        if (!injector.OnCall(deadline).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();

  // Deterministic-by-count: calls 10..29 fail, wherever they landed.
  EXPECT_EQ(failures.load(), spec.fail_calls_end - spec.fail_calls_begin);
  EXPECT_EQ(injector.calls(), kThreads * kPerThread);
  EXPECT_EQ(injector.injected_errors(), failures.load());
}

// ---------------------------------------------------------------------------
// The drill.
// ---------------------------------------------------------------------------

/// Minimal thread-safe model backend that answers every call.
class SteadyModelBackend : public ModelBackend {
 public:
  Status Rewrite(const std::vector<std::string>& query_tokens, int64_t k,
                 int64_t max_len, Deadline& deadline,
                 std::vector<RewriteCandidate>* out) override {
    (void)query_tokens;
    (void)k;
    (void)max_len;
    (void)deadline;
    RewriteCandidate c;
    c.tokens = {"model", "answer"};
    *out = {c};
    return Status::OK();
  }
};

TEST(ConcurrentFaultDrillTest, AccountingStaysExactThroughOutageAndFlapping) {
  // Store covers some queries so the cache rung answers when healthy.
  RewriteKvStore store;
  for (int i = 0; i < 8; ++i) {
    store.Put("hot " + std::to_string(i), {{"cached", std::to_string(i)}});
  }
  KvStoreBackend base_cache(&store);
  SteadyModelBackend base_model;

  // The outage: the cache hard-fails for a deterministic window of calls,
  // and the model flaps with 30% errors — enough to trip the breaker
  // (threshold 3) repeatedly and drive real open/half-open/closed cycling
  // while the herd runs.
  FaultPlan plan;
  plan.cache.fail_calls_begin = 50;
  plan.cache.fail_calls_end = 250;
  plan.cache.error_code = StatusCode::kIoError;
  plan.model.error_probability = 0.4;
  plan.model.error_code = StatusCode::kInternal;
  plan.seed = 1234;
  FaultHarness faults(&base_cache, &base_model, plan);

  SynonymDictionary dictionary;
  dictionary.Add("hot", "popular");
  RuleBasedRewriter rules(&dictionary);

  MetricsRegistry metrics;
  RewriteService::Options service_options;
  service_options.breaker.failure_threshold = 3;
  service_options.breaker.cooldown_requests = 5;
  RewriteService service(&faults.cache, &faults.model, &rules,
                         service_options, &metrics);

  RewriteServer::Options server_options;
  server_options.num_threads = 4;
  server_options.queue_depth = 64;
  server_options.retry.max_retries = 1;
  server_options.retry.base_backoff_millis = 0.5;
  RewriteServer server(&service, server_options, &metrics);

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 150;
  constexpr int kTotal = kSubmitters * kPerSubmitter;

  // Per-rung answer tally, collected from the responses themselves.
  std::atomic<int64_t> answered_by[4] = {{0}, {0}, {0}, {0}};
  std::atomic<int64_t> served{0};
  std::atomic<int64_t> shed{0};
  std::atomic<int64_t> answered{0};
  auto tally = [&](RewriteServer::ServerResponse response) {
    answered.fetch_add(1);
    if (response.status.ok()) {
      served.fetch_add(1);
      answered_by[static_cast<int>(response.response.source)].fetch_add(1);
    } else {
      shed.fetch_add(1);
    }
  };

  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        // Mix of cacheable and uncached queries, unlimited budget so only
        // backpressure (never admission control) can shed.
        std::vector<std::string> query =
            (i % 3 == 0)
                ? std::vector<std::string>{"hot", std::to_string(i % 8)}
                : std::vector<std::string>{"tail", std::to_string(s),
                                           std::to_string(i)};
        if (i % 4 == 3) {
          // Open-loop burst: fire-and-forget, may shed under backpressure;
          // (void): every outcome reaches `tally` through the callback.
          (void)server.Submit(std::move(query), Deadline::Infinite(), tally);
        } else {
          // Closed-loop: guarantees the workers process real volume (the
          // outage window and breaker cycling need served traffic, not a
          // queue that overflows faster than one core can drain it).
          tally(server.ServeBlocking(query, Deadline::Infinite()));
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  server.Drain();

  // --- The accounting invariant, exact to the request. ---
  EXPECT_EQ(answered.load(), kTotal);  // Every submission was answered.
  EXPECT_EQ(served.load() + shed.load(), kTotal);
  EXPECT_EQ(server.submitted_total(), kTotal);
  EXPECT_EQ(server.served_total(), served.load());
  EXPECT_EQ(server.shed_total(), shed.load());

  // Per-rung answers sum exactly to requests served.
  const int64_t rung_sum = answered_by[0].load() + answered_by[1].load() +
                           answered_by[2].load() + answered_by[3].load();
  EXPECT_EQ(rung_sum, served.load());

  // The metrics pipeline is exact, not approximate: requests counter ==
  // Serve() invocations (one per served request plus one per retry —
  // retried Serve() calls also answer through some rung, so rung-level
  // series exceed the final-response tally by exactly the retry count).
  EXPECT_EQ(metrics.GetCounter("cyqr_serving_requests_total")->Value(),
            served.load() + server.retries_total());
  const char* kRungLabels[4] = {"cache", "direct-model", "rule-based",
                                "passthrough"};
  int64_t metric_rung_sum = 0;
  for (const char* rung : kRungLabels) {
    metric_rung_sum +=
        metrics
            .GetCounter("cyqr_serving_rung_answers_total", {{"rung", rung}})
            ->Value();
  }
  EXPECT_EQ(metric_rung_sum, served.load() + server.retries_total());

  // The service's accessors agree with the tallies built from the
  // responses. A cache answer is never degraded, so it is never retried:
  // that count matches exactly. A retried Serve() answered through a lower
  // rung first, so those counts can exceed the final responses' tally by
  // at most the retry count.
  const auto final_answers = [&](Source source) {
    return answered_by[static_cast<int>(source)].load();
  };
  EXPECT_EQ(service.cache_hits(), final_answers(Source::kCache));
  EXPECT_GE(service.rule_based_answers(), final_answers(Source::kRuleBased));
  EXPECT_LE(service.rule_based_answers(),
            final_answers(Source::kRuleBased) + server.retries_total());
  EXPECT_GE(service.passthrough_answers(),
            final_answers(Source::kPassthrough));
  EXPECT_LE(service.passthrough_answers(),
            final_answers(Source::kPassthrough) + server.retries_total());

  // The drill exercised what it claims: the outage window fired in full,
  // and the breaker actually cycled under contention.
  EXPECT_EQ(faults.cache.injector().injected_errors(),
            plan.cache.fail_calls_end - plan.cache.fail_calls_begin);
  EXPECT_GT(service.breaker().times_opened(), 0);

  // --- Flight-recorder coherence under the same contention. ---
  // The serving path records into the global recorder from every worker
  // thread while this drill runs; the stitched journal must come back
  // time-ordered with no torn slots (garbage args) despite the lock-free
  // writes. This is the in-process half of the TSan drill — the sanitizer
  // preset runs this whole binary.
  const std::vector<FlightEvent> journal =
      FlightRecorder::Global().Snapshot();
  ASSERT_FALSE(journal.empty());
  int64_t last_t = 0;
  int64_t rung_events = 0;
  int64_t queue_events = 0;
  for (const FlightEvent& event : journal) {
    EXPECT_GE(event.t_micros, last_t);
    last_t = event.t_micros;
    if (std::string(event.name) == "serving.rung") {
      ++rung_events;
      // arg0 = rung index, arg1 = outcome code: both live in [0, 3]; a
      // torn slot would surface out-of-range garbage here.
      EXPECT_GE(event.arg0, 0);
      EXPECT_LE(event.arg0, 3);
      EXPECT_GE(event.arg1, 0);
      EXPECT_LE(event.arg1, 3);
    } else if (std::string(event.name).rfind("queue.", 0) == 0) {
      ++queue_events;
    }
  }
  EXPECT_GT(rung_events, 0);
  EXPECT_GT(queue_events, 0);
  EXPECT_GT(FlightRecorder::Global().events_recorded_total(), 0);
  EXPECT_GT(FlightRecorder::Global().thread_count(), 0);
}

}  // namespace
}  // namespace cyqr

#include <gtest/gtest.h>

#include <cstddef>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rewrite/trainer.h"
#include "serving/fault_injection.h"
#include "serving/rewrite_service.h"

namespace cyqr {
namespace {

using Source = RewriteService::Source;

TEST(KvStoreTest, PutGetRoundTrip) {
  RewriteKvStore store;
  store.Put("cheap phone", {{"budget", "smartphone"}});
  const auto* hit = store.Get("cheap phone");
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ((*hit)[0], (std::vector<std::string>{"budget", "smartphone"}));
  EXPECT_EQ(store.Get("missing"), nullptr);
  EXPECT_EQ(store.size(), 1u);
}

TEST(KvStoreTest, OverwriteReplaces) {
  RewriteKvStore store;
  store.Put("q", {{"a"}});
  store.Put("q", {{"b"}, {"c"}});
  ASSERT_EQ(store.Get("q")->size(), 2u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(KvStoreTest, SaveLoadRoundTrip) {
  RewriteKvStore store;
  store.Put("cheap phone", {{"budget", "smartphone"}, {"senior", "phone"}});
  store.Put("coin", {});
  const std::string path = testing::TempDir() + "/kv_store.tsv";
  ASSERT_TRUE(store.Save(path).ok());
  RewriteKvStore loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.size(), 2u);
  const auto* hit = loaded.Get("cheap phone");
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->size(), 2u);
  EXPECT_EQ((*hit)[1], (std::vector<std::string>{"senior", "phone"}));
  ASSERT_NE(loaded.Get("coin"), nullptr);
  EXPECT_TRUE(loaded.Get("coin")->empty());
}

TEST(KvStoreTest, LoadMissingFileFails) {
  RewriteKvStore store;
  EXPECT_FALSE(store.Load("/nonexistent/path.tsv").ok());
}

// ---------------------------------------------------------------------------
// Degradation-ladder tests, driven through the backend seams with fakes and
// fault injection (no model training: fully deterministic).
// ---------------------------------------------------------------------------

/// Scriptable model backend: returns canned rewrites, charges virtual
/// latency, or fails, as configured.
class FakeModelBackend : public ModelBackend {
 public:
  Status Rewrite(const std::vector<std::string>& query_tokens, int64_t k,
                 int64_t max_len, Deadline& deadline,
                 std::vector<RewriteCandidate>* out) override {
    (void)query_tokens;
    (void)k;
    (void)max_len;
    ++calls;
    if (charge_millis > 0) deadline.Charge(charge_millis);
    if (!status.ok()) return status;
    *out = result;
    return Status::OK();
  }

  static std::vector<RewriteCandidate> Canned(
      std::vector<std::string> tokens) {
    RewriteCandidate c;
    c.tokens = std::move(tokens);
    return {c};
  }

  Status status = Status::OK();
  std::vector<RewriteCandidate> result = Canned({"model", "answer"});
  double charge_millis = 0;
  int calls = 0;
};

class LadderTest : public ::testing::Test {
 protected:
  LadderTest() {
    store_.Put("senior phone", {{"elderly", "phone"}});
    dictionary_.Add("cheap", "budget");
    rules_ = std::make_unique<RuleBasedRewriter>(&dictionary_);
    cache_ = std::make_unique<KvStoreBackend>(&store_);
  }

  RewriteService::Options SmallBreakerOptions() {
    RewriteService::Options options;
    options.breaker.failure_threshold = 2;
    options.breaker.cooldown_requests = 3;
    return options;
  }

  RewriteKvStore store_;
  SynonymDictionary dictionary_;
  std::unique_ptr<RuleBasedRewriter> rules_;
  std::unique_ptr<KvStoreBackend> cache_;
  FakeModelBackend model_;
};

TEST_F(LadderTest, CacheHitIsNotDegraded) {
  RewriteService service(cache_.get(), &model_, rules_.get(), {});
  const auto response = service.Serve({"senior", "phone"});
  EXPECT_EQ(response.source, Source::kCache);
  EXPECT_FALSE(response.degraded);
  EXPECT_TRUE(response.degraded_status.ok());
  ASSERT_EQ(response.rewrites.size(), 1u);
  EXPECT_EQ(response.rewrites[0],
            (std::vector<std::string>{"elderly", "phone"}));
  EXPECT_EQ(service.cache_hits(), 1);
  EXPECT_EQ(model_.calls, 0);
}

TEST_F(LadderTest, CacheMissFallsToModelNotDegraded) {
  RewriteService service(cache_.get(), &model_, rules_.get(), {});
  const auto response = service.Serve({"gaming", "mouse"});
  EXPECT_EQ(response.source, Source::kDirectModel);
  EXPECT_FALSE(response.degraded);
  ASSERT_EQ(response.rewrites.size(), 1u);
  EXPECT_EQ(response.rewrites[0],
            (std::vector<std::string>{"model", "answer"}));
  // The cache attempt is recorded as a clean miss.
  ASSERT_GE(response.attempts.size(), 2u);
  EXPECT_EQ(response.attempts[0].rung, Source::kCache);
  EXPECT_EQ(response.attempts[0].status.code(), StatusCode::kNotFound);
}

TEST_F(LadderTest, ModelFailureFallsToRuleBased) {
  model_.status = Status::Internal("model wedged");
  RewriteService service(cache_.get(), &model_, rules_.get(), {});
  const auto response = service.Serve({"cheap", "phone"});
  EXPECT_EQ(response.source, Source::kRuleBased);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.degraded_status.code(), StatusCode::kInternal);
  ASSERT_EQ(response.rewrites.size(), 1u);
  EXPECT_EQ(response.rewrites[0],
            (std::vector<std::string>{"budget", "phone"}));
  EXPECT_EQ(service.model_failures(), 1);
  EXPECT_EQ(service.rule_based_answers(), 1);
}

TEST_F(LadderTest, ModelFailureNoSynonymFallsToPassthrough) {
  model_.status = Status::Internal("model wedged");
  RewriteService service(cache_.get(), &model_, rules_.get(), {});
  const auto response = service.Serve({"gaming", "mouse"});
  EXPECT_EQ(response.source, Source::kPassthrough);
  EXPECT_TRUE(response.degraded);
  ASSERT_EQ(response.rewrites.size(), 1u);
  EXPECT_EQ(response.rewrites[0],
            (std::vector<std::string>{"gaming", "mouse"}));
  // The rule rung was tried and missed cleanly.
  bool saw_rule_miss = false;
  for (const auto& attempt : response.attempts) {
    if (attempt.rung == Source::kRuleBased) {
      saw_rule_miss = attempt.status.code() == StatusCode::kNotFound;
    }
  }
  EXPECT_TRUE(saw_rule_miss);
}

TEST_F(LadderTest, NullModelReportsPassthroughNotModel) {
  // Regression: a cache-only service used to report kDirectModel, bump
  // model_calls_, and record a phantom latency sample on every miss.
  RewriteService service(cache_.get(), nullptr, nullptr, {});
  const auto response = service.Serve({"unknown", "query"});
  EXPECT_EQ(response.source, Source::kPassthrough);
  EXPECT_TRUE(response.degraded);
  EXPECT_TRUE(response.degraded_status.ok());  // Nothing *failed*.
  ASSERT_EQ(response.rewrites.size(), 1u);
  EXPECT_EQ(response.rewrites[0],
            (std::vector<std::string>{"unknown", "query"}));
  EXPECT_EQ(service.model_calls(), 0);
  EXPECT_EQ(service.rung_latency(Source::kDirectModel).Count(), 0);
  // The model rung is visible as skipped, not as a phantom call.
  bool saw_skipped_model = false;
  for (const auto& attempt : response.attempts) {
    if (attempt.rung == Source::kDirectModel) {
      saw_skipped_model = attempt.skipped;
    }
  }
  EXPECT_TRUE(saw_skipped_model);
}

TEST_F(LadderTest, ExhaustedDeadlineSkipsModel) {
  RewriteService service(cache_.get(), &model_, rules_.get(), {});
  Deadline deadline = Deadline::AfterMillis(1000.0);
  deadline.Charge(1000.0);  // Budget already gone at entry.
  const auto response = service.Serve({"cheap", "phone"}, deadline);
  EXPECT_EQ(model_.calls, 0);
  EXPECT_EQ(response.source, Source::kRuleBased);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.degraded_status.code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(LadderTest, SlowModelCountsAsFailureAndTripsBreaker) {
  RewriteService::Options options = SmallBreakerOptions();
  model_.charge_millis = 500.0;  // Each decode blows the 100 ms budget.
  RewriteService service(cache_.get(), &model_, rules_.get(), options);

  for (int i = 0; i < 2; ++i) {
    const auto response =
        service.Serve({"gaming", "mouse"}, Deadline::AfterMillis(100.0));
    EXPECT_EQ(response.source, Source::kPassthrough);
    EXPECT_TRUE(response.degraded);
  }
  EXPECT_EQ(service.model_failures(), 2);
  EXPECT_EQ(service.breaker().state(), CircuitBreaker::State::kOpen);
}

TEST_F(LadderTest, CorruptModelOutputIsRejected) {
  model_.result.clear();
  RewriteCandidate garbage;
  garbage.tokens = {"ok", "", "tokens"};  // Empty token: invalid output.
  model_.result.push_back(garbage);
  RewriteService service(cache_.get(), &model_, rules_.get(), {});
  const auto response = service.Serve({"cheap", "phone"});
  EXPECT_EQ(response.source, Source::kRuleBased);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.degraded_status.code(), StatusCode::kInternal);
  EXPECT_EQ(service.model_failures(), 1);
}

TEST_F(LadderTest, CacheOutageServedByModelIsDegraded) {
  FaultSpec outage;
  outage.error_probability = 1.0;
  outage.error_code = StatusCode::kIoError;
  outage.error_message = "kv cluster down";
  FaultyKvBackend faulty_cache(cache_.get(), outage, /*seed=*/7);
  RewriteService service(&faulty_cache, &model_, rules_.get(), {});

  // Even a head query (cached!) is served by the model during the outage.
  const auto response = service.Serve({"senior", "phone"});
  EXPECT_EQ(response.source, Source::kDirectModel);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.degraded_status.code(), StatusCode::kIoError);
  EXPECT_EQ(service.cache_hits(), 0);
}

TEST_F(LadderTest, CacheLatencySpikeEatsModelBudget) {
  FaultSpec slow_cache;
  slow_cache.latency_probability = 1.0;
  slow_cache.latency_millis = 80.0;
  FaultyKvBackend faulty_cache(cache_.get(), slow_cache, /*seed=*/8);
  RewriteService::Options options;
  options.model_min_budget_millis = 30.0;
  RewriteService service(&faulty_cache, &model_, rules_.get(), options);

  // 100 ms budget, 80 ms cache stall: under 30 ms left, model skipped.
  const auto response =
      service.Serve({"cheap", "phone"}, Deadline::AfterMillis(100.0));
  EXPECT_EQ(model_.calls, 0);
  EXPECT_EQ(response.source, Source::kRuleBased);
  EXPECT_TRUE(response.degraded);
  EXPECT_GE(response.latency_millis, 80.0);
}

TEST_F(LadderTest, FaultHarnessAppliesWholePlan) {
  // One FaultPlan describes the whole scenario: flaky cache AND slow model.
  FaultPlan plan;
  plan.cache.error_probability = 1.0;
  plan.cache.error_code = StatusCode::kIoError;
  plan.model.latency_probability = 1.0;
  plan.model.latency_millis = 80.0;
  plan.seed = 21;
  FaultHarness faults(cache_.get(), &model_, plan);
  RewriteService service(&faults.cache, &faults.model, rules_.get(), {});

  // Cache down, model blows the 50 ms default budget: rules answer.
  const auto response = service.Serve({"cheap", "phone"});
  EXPECT_EQ(response.source, Source::kRuleBased);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.degraded_status.code(), StatusCode::kIoError);
  EXPECT_EQ(faults.cache.injector().injected_errors(), 1);
  EXPECT_EQ(faults.model.injector().injected_latency_spikes(), 1);
}

// The acceptance scenario: direct model fault-injected to fail 100%; every
// request is still answered; responses are flagged degraded with the
// failing rung's Status; the breaker transitions open -> half-open ->
// closed as the fault clears.
TEST_F(LadderTest, FlappingModelDrivesBreakerThroughFullCycle) {
  FaultSpec wedged;
  wedged.error_probability = 1.0;
  wedged.error_code = StatusCode::kInternal;
  wedged.error_message = "model wedged";
  FaultyModelBackend faulty_model(&model_, wedged, /*seed=*/9);
  RewriteService service(cache_.get(), &faulty_model, rules_.get(),
                         SmallBreakerOptions());
  const std::vector<std::string> query = {"gaming", "mouse"};

  // Requests 1-2: model fails twice -> breaker opens (threshold 2).
  for (int i = 0; i < 2; ++i) {
    const auto response = service.Serve(query, Deadline::Infinite());
    ASSERT_FALSE(response.rewrites.empty());
    EXPECT_EQ(response.source, Source::kPassthrough);
    EXPECT_TRUE(response.degraded);
    EXPECT_EQ(response.degraded_status.code(), StatusCode::kInternal);
    EXPECT_EQ(response.degraded_status.message(), "model wedged");
  }
  EXPECT_EQ(service.breaker().state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(service.breaker().times_opened(), 1);

  // Requests 3-4: breaker open -> model rung skipped, still answered.
  for (int i = 0; i < 2; ++i) {
    const auto response = service.Serve(query, Deadline::Infinite());
    ASSERT_FALSE(response.rewrites.empty());
    EXPECT_TRUE(response.degraded);
    EXPECT_EQ(response.degraded_status.code(),
              StatusCode::kFailedPrecondition);
    bool model_skipped = false;
    for (const auto& attempt : response.attempts) {
      if (attempt.rung == Source::kDirectModel) {
        model_skipped = attempt.skipped;
      }
    }
    EXPECT_TRUE(model_skipped);
  }
  const int faulted_calls_before_probe =
      static_cast<int>(faulty_model.injector().calls());
  EXPECT_EQ(service.breaker().rejected_requests(), 2);

  // Request 5: cooldown (3) served -> half-open probe; still wedged, so
  // the probe fails and the breaker reopens.
  {
    const auto response = service.Serve(query, Deadline::Infinite());
    ASSERT_FALSE(response.rewrites.empty());
    EXPECT_TRUE(response.degraded);
  }
  EXPECT_EQ(static_cast<int>(faulty_model.injector().calls()),
            faulted_calls_before_probe + 1);
  EXPECT_EQ(service.breaker().state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(service.breaker().times_opened(), 2);

  // The fault clears mid-run.
  faulty_model.injector().set_spec(FaultSpec{});

  // Requests 6-7: still in cooldown, answered degraded.
  for (int i = 0; i < 2; ++i) {
    const auto response = service.Serve(query, Deadline::Infinite());
    ASSERT_FALSE(response.rewrites.empty());
    EXPECT_TRUE(response.degraded);
  }

  // Request 8: half-open probe succeeds -> breaker closes, healthy answer.
  {
    const auto response = service.Serve(query, Deadline::Infinite());
    EXPECT_EQ(response.source, Source::kDirectModel);
    EXPECT_FALSE(response.degraded);
  }
  EXPECT_EQ(service.breaker().state(), CircuitBreaker::State::kClosed);

  // Request 9: back to normal operation.
  {
    const auto response = service.Serve(query, Deadline::Infinite());
    EXPECT_EQ(response.source, Source::kDirectModel);
    EXPECT_FALSE(response.degraded);
  }
  // Every single request during the outage was answered.
  EXPECT_EQ(service.degraded_requests(), 7);
}

TEST_F(LadderTest, ModelBackendNotFoundIsACleanMiss) {
  // NotFound is a miss on every rung, whether the model says so with an
  // empty answer or with the status itself: the breaker sees a healthy
  // model, the trace reads "miss", and nothing is reported as a failure.
  model_.status = Status::NotFound("no rewrite for this query");
  RewriteService service(cache_.get(), &model_, rules_.get(),
                         SmallBreakerOptions());
  for (int i = 0; i < 6; ++i) {
    Trace trace;
    const auto response =
        service.Serve({"cheap", "phone"}, Deadline::Infinite(), &trace);
    EXPECT_EQ(response.source, Source::kRuleBased);
    EXPECT_TRUE(response.degraded);  // Rules answered.
    EXPECT_TRUE(response.degraded_status.ok())
        << response.degraded_status.ToString();
    ASSERT_EQ(response.attempts.size(), 3u);
    EXPECT_EQ(response.attempts[1].rung, Source::kDirectModel);
    EXPECT_FALSE(response.attempts[1].skipped);
    EXPECT_EQ(response.attempts[1].status.code(), StatusCode::kNotFound);
    ASSERT_EQ(trace.events().size(), 3u);
    EXPECT_EQ(trace.events()[1].name, "rung:direct-model");
    EXPECT_EQ(trace.events()[1].detail, "miss");
    EXPECT_TRUE(trace.events()[1].ok);
  }
  EXPECT_EQ(model_.calls, 6);
  EXPECT_EQ(service.model_failures(), 0);
  EXPECT_EQ(service.model_calls(), 6);
  EXPECT_EQ(service.breaker().state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(service.breaker().times_opened(), 0);
}

TEST_F(LadderTest, InjectedCorruptOutputRejectedByValidation) {
  FaultSpec corrupting;
  corrupting.corrupt_probability = 1.0;
  FaultyModelBackend faulty_model(&model_, corrupting, /*seed=*/10);
  RewriteService service(cache_.get(), &faulty_model, rules_.get(), {});
  const auto response = service.Serve({"cheap", "phone"});
  EXPECT_NE(response.source, Source::kDirectModel);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.degraded_status.code(), StatusCode::kInternal);
  EXPECT_EQ(service.model_failures(), 1);
}

// ---------------------------------------------------------------------------
// End-to-end tests with a real (tiny, trained) direct model.
// ---------------------------------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::vector<std::vector<std::string>> corpus = {
        {"cheap", "phone"}, {"budget", "phone"}, {"senior", "phone"}};
    vocab_ = Vocabulary::Build(corpus);
    Seq2SeqConfig config;
    config.vocab_size = vocab_.size();
    config.d_model = 16;
    config.num_heads = 2;
    config.ff_hidden = 32;
    config.num_layers = 1;
    Rng rng(4);
    fallback_ = std::make_unique<DirectRewriter>(DirectArch::kHybrid,
                                                 config, &vocab_, rng);
    std::vector<SeqPair> pairs = {
        {vocab_.Encode({"cheap", "phone"}),
         vocab_.Encode({"budget", "phone"})},
    };
    SupervisedTrainOptions options;
    options.max_steps = 120;
    options.batch_size = 1;
    TrainSupervised(fallback_->model(), pairs, options);
    fallback_->model().SetTraining(false);
    store_.Put("senior phone", {{"elderly", "phone"}});
  }

  Vocabulary vocab_;
  RewriteKvStore store_;
  std::unique_ptr<DirectRewriter> fallback_;
};

TEST_F(ServiceTest, CacheHitServesFromStore) {
  RewriteService service(&store_, fallback_.get(), {});
  const auto response = service.Serve({"senior", "phone"});
  EXPECT_EQ(response.source, Source::kCache);
  EXPECT_FALSE(response.degraded);
  ASSERT_EQ(response.rewrites.size(), 1u);
  EXPECT_EQ(response.rewrites[0],
            (std::vector<std::string>{"elderly", "phone"}));
  EXPECT_EQ(service.cache_hits(), 1);
  EXPECT_EQ(service.model_calls(), 0);
}

TEST_F(ServiceTest, CacheMissFallsBackToModel) {
  RewriteService service(&store_, fallback_.get(), {});
  const auto response = service.Serve({"cheap", "phone"});
  EXPECT_EQ(response.source, Source::kDirectModel);
  EXPECT_EQ(service.model_calls(), 1);
  ASSERT_FALSE(response.rewrites.empty());
  EXPECT_EQ(response.rewrites[0],
            (std::vector<std::string>{"budget", "phone"}));
}

TEST_F(ServiceTest, CacheIsFasterThanModel) {
  RewriteService service(&store_, fallback_.get(), {});
  for (int i = 0; i < 20; ++i) {
    service.Serve({"senior", "phone"});
    service.Serve({"cheap", "phone"});
  }
  EXPECT_LT(service.rung_latency(Source::kCache).Mean(),
            service.rung_latency(Source::kDirectModel).Mean());
}

TEST_F(ServiceTest, MaxRewritesCapApplies) {
  store_.Put("many", {{"a"}, {"b"}, {"c"}, {"d"}, {"e"}});
  RewriteService::Options options;
  options.max_rewrites = 2;
  RewriteService service(&store_, nullptr, options);
  EXPECT_EQ(service.Serve({"many"}).rewrites.size(), 2u);
}

TEST_F(ServiceTest, DirectRewriterHonorsExpiredDeadline) {
  // Regression for the deadline-propagation fix: the deadline-bound
  // Rewrite overload must stop before the first decode step when the
  // budget is already gone, and behave identically to the unbounded form
  // when plenty of budget remains.
  Deadline expired = Deadline::AfterMillis(0);
  expired.Charge(1.0);  // Deterministically expired (virtual time).
  ASSERT_TRUE(expired.Expired());
  EXPECT_TRUE(fallback_->Rewrite({"cheap", "phone"}, 2, 10, expired).empty());

  const Deadline generous = Deadline::AfterMillis(60000);
  const auto bounded = fallback_->Rewrite({"cheap", "phone"}, 2, 10, generous);
  const auto unbounded = fallback_->Rewrite({"cheap", "phone"}, 2, 10);
  ASSERT_EQ(bounded.size(), unbounded.size());
  for (size_t i = 0; i < bounded.size(); ++i) {
    EXPECT_EQ(bounded[i].ids, unbounded[i].ids);
  }
}

TEST_F(ServiceTest, DirectModelBackendReportsDeadlineExpiry) {
  DirectModelBackend backend(fallback_.get());
  Deadline expired = Deadline::AfterMillis(0);
  expired.Charge(1.0);
  std::vector<RewriteCandidate> out;
  const Status status =
      backend.Rewrite({"cheap", "phone"}, 2, 10, expired, &out);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("deadline expired"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(out.empty());

  Deadline fresh = Deadline::AfterMillis(60000);
  ASSERT_TRUE(backend.Rewrite({"cheap", "phone"}, 2, 10, fresh, &out).ok());
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].tokens, (std::vector<std::string>{"budget", "phone"}));
}

TEST_F(ServiceTest, FourThreadsDecodeOneSharedModelAsOneThreadDoes) {
  // Tail queries only: none is in the store, so each reaches the model rung
  // and decodes on the fixture's one model, which every thread shares.
  const std::vector<std::vector<std::string>> tail = {
      {"cheap", "phone"}, {"budget", "phone"}, {"cheap", "budget"}};
  RewriteService::Options options;
  options.default_budget_millis = 0;  // No deadline: TSan slows decodes.
  using Answers =
      std::vector<std::pair<Source, std::vector<std::vector<std::string>>>>;
  const auto serve = [&](Answers* answers) {
    RewriteService service(&store_, fallback_.get(), options);
    for (int round = 0; round < 4; ++round) {
      for (const std::vector<std::string>& query : tail) {
        const auto response = service.Serve(query);
        answers->emplace_back(response.source, response.rewrites);
      }
    }
  };
  Answers one_thread;
  serve(&one_thread);
  ASSERT_EQ(one_thread[0].first, Source::kDirectModel);
  std::vector<Answers> per_thread(4);
  std::latch start(static_cast<std::ptrdiff_t>(per_thread.size()));
  std::vector<std::thread> threads;
  for (Answers& answers : per_thread) {
    threads.emplace_back([&start, &serve, &answers] {
      start.arrive_and_wait();
      serve(&answers);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Answers& answers : per_thread) EXPECT_EQ(answers, one_thread);
}

TEST_F(ServiceTest, NullFallbackServesIdentityPassthrough) {
  RewriteService service(&store_, nullptr, {});
  const auto response = service.Serve({"unknown", "query"});
  EXPECT_EQ(response.source, Source::kPassthrough);
  EXPECT_TRUE(response.degraded);
  ASSERT_EQ(response.rewrites.size(), 1u);
  EXPECT_EQ(response.rewrites[0],
            (std::vector<std::string>{"unknown", "query"}));
  EXPECT_EQ(service.model_calls(), 0);
}

}  // namespace
}  // namespace cyqr

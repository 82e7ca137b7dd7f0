// Online-serving demo (Section III-G): precompute the traffic head into a
// key-value store with the full cyclic pipeline, serve the long tail with
// the fast hybrid direct model, and report per-path latency percentiles
// against the 50 ms serving budget. Ends with a fault drill: the direct
// model is fault-injected dead and the degradation ladder + circuit
// breaker keep every request answered.

#include <cstdio>

#include "core/string_util.h"
#include "datagen/traffic.h"
#include "rewrite/direct_model.h"
#include "rewrite/inference.h"
#include "rewrite/trainer.h"
#include "serving/fault_injection.h"
#include "serving/rewrite_service.h"

using namespace cyqr;

int main() {
  // World.
  Catalog catalog = Catalog::Generate({});
  ClickLogConfig log_config;
  log_config.num_distinct_queries = 600;
  log_config.num_sessions = 30000;
  ClickLog click_log = ClickLog::Generate(catalog, log_config);
  const std::vector<TokenPair> token_pairs = click_log.TokenPairs(catalog);
  std::vector<std::vector<std::string>> corpus;
  for (const TokenPair& p : token_pairs) {
    corpus.push_back(p.query);
    corpus.push_back(p.title);
  }
  const Vocabulary vocab = Vocabulary::Build(corpus);

  // Offline model: the full cyclic pipeline (slow, accurate).
  CycleConfig config = PaperScaledConfig(vocab.size());
  config.forward.num_layers = 2;
  Rng rng(7);
  CycleModel cycle(config, rng);
  CycleTrainerOptions cycle_options;
  cycle_options.max_steps = 420;
  cycle_options.warmup_steps = 340;
  cycle_options.eval_every = 0;
  std::printf("training offline cycle model...\n");
  CycleTrainer trainer(&cycle, EncodePairs(token_pairs, vocab),
                       cycle_options);
  if (!trainer.Train({}).ok()) return 1;
  cycle.SetTraining(false);
  CycleRewriter pipeline(&cycle, &vocab);

  // Online fallback: hybrid direct q2q model on mined synonymous pairs.
  std::printf("training online direct model...\n");
  Seq2SeqConfig direct_config;
  direct_config.vocab_size = vocab.size();
  direct_config.d_model = 32;
  direct_config.num_heads = 2;
  direct_config.ff_hidden = 64;
  direct_config.num_layers = 1;
  Rng direct_rng(8);
  DirectRewriter direct(DirectArch::kHybrid, direct_config, &vocab,
                        direct_rng);
  const auto mined = MineSynonymousQueryPairs(click_log, 3);
  SupervisedTrainOptions direct_options;
  direct_options.max_steps = 250;
  TrainSupervised(direct.model(), EncodeQueryPairs(mined, vocab),
                  direct_options);
  direct.model().SetTraining(false);

  // Nightly batch job: precompute the head (80% of traffic) into the KV
  // store.
  TrafficSampler traffic(&click_log);
  const std::vector<int64_t> head = traffic.HeadQueries(0.8);
  std::printf("precomputing %zu head queries into the KV store...\n",
              head.size());
  RewriteKvStore store;
  std::vector<std::vector<std::string>> head_tokens;
  for (int64_t q : head) {
    head_tokens.push_back(click_log.queries()[q].tokens);
  }
  RewriteService::PrecomputeHead(pipeline, head_tokens, {}, &store);

  // Live traffic through the two-tier service.
  RewriteService service(&store, &direct, {});
  Rng traffic_rng(99);
  const int64_t kRequests = 400;
  for (int64_t i = 0; i < kRequests; ++i) {
    const int64_t q = traffic.SampleQueryIndex(traffic_rng);
    service.Serve(click_log.queries()[q].tokens);
  }

  std::printf("\nserved %lld requests: %lld cache hits, %lld model calls "
              "(%.0f%% cache hit rate)\n",
              static_cast<long long>(kRequests),
              static_cast<long long>(service.cache_hits()),
              static_cast<long long>(service.model_calls()),
              100.0 * service.cache_hits() / kRequests);
  const Histogram& cache_latency =
      service.rung_latency(RewriteService::Source::kCache);
  const Histogram& model_latency =
      service.rung_latency(RewriteService::Source::kDirectModel);
  std::printf("cache path:  mean %.3f ms, p99 %.3f ms\n",
              cache_latency.Mean(), cache_latency.QuantileEstimate(0.99));
  std::printf("model path:  mean %.1f ms, p99 %.1f ms\n",
              model_latency.Mean(), model_latency.QuantileEstimate(0.99));
  std::printf("(paper budget: 50 ms end-to-end; cache <5 ms, direct model "
              "~30 ms on a 32-core CPU)\n");

  // Show one example from each path.
  const auto cached = service.Serve(head_tokens[0]);
  std::printf("\nhead query \"%s\" -> ", JoinStrings(head_tokens[0]).c_str());
  for (const auto& r : cached.rewrites) {
    std::printf("\"%s\" ", JoinStrings(r).c_str());
  }
  std::printf("(from cache)\n");

  // Fault drill: wedge the direct model (100%% injected errors) and replay
  // traffic. The ladder answers every request anyway; the circuit breaker
  // opens after a few failures so tail queries stop paying for timeouts.
  std::printf("\n--- fault drill: direct model wedged ---\n");
  KvStoreBackend cache_backend(&store);
  DirectModelBackend model_backend(&direct);
  FaultSpec wedged;
  wedged.error_probability = 1.0;
  wedged.error_message = "injected model outage";
  FaultyModelBackend faulty_model(&model_backend, wedged, /*seed=*/5);
  RewriteService drilled(&cache_backend, &faulty_model, nullptr, {});
  Rng drill_rng(123);
  int64_t answered = 0;
  for (int64_t i = 0; i < kRequests; ++i) {
    const int64_t q = traffic.SampleQueryIndex(drill_rng);
    const auto response = drilled.Serve(click_log.queries()[q].tokens);
    answered += response.rewrites.empty() ? 0 : 1;
  }
  std::printf("answered %lld/%lld requests during the outage "
              "(%lld degraded, %lld model failures)\n",
              static_cast<long long>(answered),
              static_cast<long long>(kRequests),
              static_cast<long long>(drilled.degraded_requests()),
              static_cast<long long>(drilled.model_failures()));
  std::printf("circuit breaker: state=%s, opened %lld times, "
              "rejected %lld model calls\n",
              CircuitBreaker::StateName(drilled.breaker().state()),
              static_cast<long long>(drilled.breaker().times_opened()),
              static_cast<long long>(drilled.breaker().rejected_requests()));
  return 0;
}

// Section III-G serving bench: latency of the three rewrite paths —
// KV-store cache hit (paper: <5 ms at production scale), the fast direct
// query-to-query model (paper: ~30 ms on a 32-core CPU), and the full
// two-hop cyclic pipeline (paper: >100 ms even on GPU, too slow to serve).
// Shape to reproduce: cache << direct model << full pipeline.
//
// The fault-injection benches measure the degradation ladder under outage:
// a dead cache falls back to the model, and a dead model is absorbed by the
// circuit breaker (after the first few timeouts, requests short-circuit to
// the passthrough rung — the steady-state cost of an outage should be
// microseconds, not model-decode milliseconds).

// The instrumentation-overhead pair (BM_CacheHit vs BM_CacheHitTraced)
// measures the cost of per-request tracing on the serving hot path; the
// metrics registry is always on, so both sides of the pair pay for it.
// Running this binary also writes the registry contents to
// BENCH_serving.json (override with --metrics-out=PATH, disable with
// --metrics-out=).

// The closed-loop overload mode (--overload) measures saturation behaviour
// of the concurrent RewriteServer front end: Zipfian traffic is offered at
// 1x / 2x / 4x the calibrated capacity and the resulting curves — achieved
// QPS, shed rate, p50/p99 of admitted requests, deadline violations — are
// recorded into the same metrics snapshot. The acceptance shape is
// shed-not-collapse: past saturation the server refuses load (nonzero shed
// rate) while the p99 of what it does admit stays inside the deadline
// budget, instead of every request timing out in a growing queue.

#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/deadline.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/string_util.h"
#include "datagen/traffic.h"
#include "obs/flight_recorder.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewrite/direct_model.h"
#include "serving/fault_injection.h"
#include "serving/http_endpoint.h"
#include "serving/rewrite_service.h"
#include "serving/server.h"

namespace {

using namespace cyqr;

struct ServingFixture {
  bench::BenchWorld world = bench::BuildWorld();
  std::unique_ptr<CycleModel> joint;
  std::unique_ptr<CycleRewriter> pipeline;
  std::unique_ptr<DirectRewriter> direct;
  RewriteKvStore store;
  std::vector<std::vector<std::string>> head_queries;
  std::vector<std::vector<std::string>> tail_queries;

  ServingFixture() {
    const CycleConfig config =
        bench::BenchCycleConfig(world.vocab.size());
    joint = bench::GetTrainedCycleModel(world, config, /*joint=*/true,
                                        "joint_transformer");
    pipeline = std::make_unique<CycleRewriter>(joint.get(), &world.vocab);

    // Fast path: hybrid direct model on mined synonymous pairs.
    Seq2SeqConfig direct_config;
    direct_config.vocab_size = world.vocab.size();
    direct_config.d_model = 32;
    direct_config.num_heads = 2;
    direct_config.ff_hidden = 64;
    direct_config.num_layers = 1;
    Rng rng(42);
    direct = std::make_unique<DirectRewriter>(DirectArch::kHybrid,
                                              direct_config, &world.vocab,
                                              rng);
    const auto mined = MineSynonymousQueryPairs(world.click_log, 3);
    const auto pairs = EncodeQueryPairs(mined, world.vocab);
    SupervisedTrainOptions options;
    options.max_steps = 200;
    TrainSupervised(direct->model(), pairs, options);
    direct->model().SetTraining(false);

    // Precompute the traffic head into the KV store.
    TrafficSampler traffic(&world.click_log);
    for (int64_t q : traffic.HeadQueries(0.8)) {
      head_queries.push_back(world.click_log.queries()[q].tokens);
    }
    RewriteOptions rewrite_options;
    // Cap precompute volume so fixture setup stays fast.
    if (head_queries.size() > 100) head_queries.resize(100);
    RewriteService::PrecomputeHead(*pipeline, head_queries, rewrite_options,
                                   &store);
    for (const QuerySpec& q : world.click_log.queries()) {
      if (store.Get(JoinStrings(q.tokens)) == nullptr) {
        tail_queries.push_back(q.tokens);
      }
      if (tail_queries.size() >= 50) break;
    }
  }
};

ServingFixture& GetFixture() {
  // Intentionally leaked Meyers singleton: benchmark fixtures must outlive
  // static-destruction order at process exit.
  static ServingFixture* fixture =
      new ServingFixture();  // NOLINT(cyqr-raw-owning-new)
  return *fixture;
}

void BM_CacheHit(benchmark::State& state) {
  ServingFixture& f = GetFixture();
  RewriteService service(&f.store, f.direct.get(), {});
  size_t i = 0;
  for (auto _ : state) {
    const auto response =
        service.Serve(f.head_queries[i++ % f.head_queries.size()]);
    benchmark::DoNotOptimize(&response);
  }
}
BENCHMARK(BM_CacheHit)->Unit(benchmark::kMicrosecond);

// BM_CacheHit plus a per-request Trace: the fully-observable configuration
// a debugging session would run with. The difference between the two is
// the per-request cost of tracing.
void BM_CacheHitTraced(benchmark::State& state) {
  ServingFixture& f = GetFixture();
  RewriteService service(&f.store, f.direct.get(), {}, nullptr,
                         &MetricsRegistry::Global());
  size_t i = 0;
  for (auto _ : state) {
    Trace trace;
    const auto response =
        service.Serve(f.head_queries[i++ % f.head_queries.size()],
                      Deadline::AfterMillis(50.0), &trace);
    benchmark::DoNotOptimize(&response);
    benchmark::DoNotOptimize(&trace);
  }
}
BENCHMARK(BM_CacheHitTraced)->Unit(benchmark::kMicrosecond);

void BM_DirectModelFallback(benchmark::State& state) {
  ServingFixture& f = GetFixture();
  RewriteService service(&f.store, f.direct.get(), {});
  size_t i = 0;
  for (auto _ : state) {
    const auto response =
        service.Serve(f.tail_queries[i++ % f.tail_queries.size()]);
    benchmark::DoNotOptimize(&response);
  }
}
BENCHMARK(BM_DirectModelFallback)->Unit(benchmark::kMillisecond);
// Four threads, each with its own service, over the fixture's one direct
// model: the serving pattern, where workers share the frozen parameters.
BENCHMARK(BM_DirectModelFallback)
    ->Unit(benchmark::kMillisecond)
    ->Threads(4)
    ->UseRealTime();

// Cache outage (100% injected IoError): every request, including head
// queries, is absorbed by the direct-model rung.
void BM_CacheOutageFallsToModel(benchmark::State& state) {
  ServingFixture& f = GetFixture();
  KvStoreBackend cache(&f.store);
  FaultSpec outage;
  outage.error_probability = 1.0;
  outage.error_code = StatusCode::kIoError;
  FaultyKvBackend faulty_cache(&cache, outage, /*seed=*/17);
  DirectModelBackend model(f.direct.get());
  RewriteService service(&faulty_cache, &model, nullptr, {});
  size_t i = 0;
  for (auto _ : state) {
    const auto response =
        service.Serve(f.head_queries[i++ % f.head_queries.size()]);
    benchmark::DoNotOptimize(&response);
  }
}
BENCHMARK(BM_CacheOutageFallsToModel)->Unit(benchmark::kMillisecond);

// Model outage (100% injected errors) on tail queries: after the breaker
// opens, requests short-circuit to passthrough — steady-state cost of a
// wedged model should be near the cache-hit floor, not model latency.
void BM_ModelOutageSteadyState(benchmark::State& state) {
  ServingFixture& f = GetFixture();
  KvStoreBackend cache(&f.store);
  DirectModelBackend model(f.direct.get());
  FaultSpec wedged;
  wedged.error_probability = 1.0;
  FaultyModelBackend faulty_model(&model, wedged, /*seed=*/18);
  RewriteService service(&cache, &faulty_model, nullptr, {});
  // Trip the breaker before timing starts.
  for (int i = 0; i < 8; ++i) {
    service.Serve(f.tail_queries[i % f.tail_queries.size()]);
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto response =
        service.Serve(f.tail_queries[i++ % f.tail_queries.size()]);
    benchmark::DoNotOptimize(&response);
  }
}
BENCHMARK(BM_ModelOutageSteadyState)->Unit(benchmark::kMicrosecond);

void BM_FullCyclicPipeline(benchmark::State& state) {
  ServingFixture& f = GetFixture();
  size_t i = 0;
  for (auto _ : state) {
    const auto result = f.pipeline->Rewrite(
        f.tail_queries[i++ % f.tail_queries.size()], {});
    benchmark::DoNotOptimize(&result);
  }
}
BENCHMARK(BM_FullCyclicPipeline)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Overload mode (--overload): closed-loop saturation curves for the
// concurrent RewriteServer front end.
// ---------------------------------------------------------------------------

// Stands in for the direct model in the overload drill: burns a fixed slice
// of wall-clock CPU per call so server capacity is known and reproducible,
// and the drill does not pay for training a real model.
class SpinModelBackend : public ModelBackend {
 public:
  explicit SpinModelBackend(double spin_millis) : spin_millis_(spin_millis) {}

  [[nodiscard]] Status Rewrite(const std::vector<std::string>& query_tokens,
                               int64_t /*k*/, int64_t /*max_len*/,
                               Deadline& /*deadline*/,
                               std::vector<RewriteCandidate>* out) override {
    Stopwatch spin;
    while (spin.ElapsedMillis() < spin_millis_) {
    }
    RewriteCandidate candidate;
    candidate.tokens = query_tokens;
    out->push_back(std::move(candidate));
    return Status::OK();
  }

 private:
  double spin_millis_;
};

// Minimal loopback HTTP GET for the scrape-under-load drill: returns true
// when the endpoint answered 200 within the (blocking) socket round trip.
bool HttpGetOk(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  char buf[512];
  std::string head;
  while (head.find("\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    head.append(buf, static_cast<size_t>(n));
    if (head.size() > 65536) break;  // Drain cap; status line seen by now.
  }
  ::close(fd);
  return head.rfind("HTTP/1.1 200", 0) == 0;
}

// Offers paced Zipfian traffic at 1x / 2x / 4x the calibrated capacity and
// records the resulting curves as labelled gauges in the global registry
// (they land in BENCH_serving.json next to the per-path latency benches).
// The shape that matters: past saturation the shed ratio grows while the
// p99 of *admitted* requests stays inside the 50 ms deadline budget —
// overload is refused at the door instead of timing out everyone in a
// growing queue.
void RunOverloadBench(int introspect_port) {
  std::printf("overload mode: paced Zipfian traffic at 1x/2x/4x capacity\n");

  // --introspect-port: stand up the live endpoint and scrape /metrics at
  // ~1 Hz for the whole overload run, proving introspection stays
  // answerable while the serving path is saturated.
  std::unique_ptr<Introspector> introspector;
  std::unique_ptr<HttpEndpoint> endpoint;
  if (introspect_port >= 0) {
    Introspector::Options introspect_options;
    introspect_options.metrics = &MetricsRegistry::Global();
    introspect_options.traces = &TraceSampler::Global();
    introspect_options.flight = &FlightRecorder::Global();
    introspect_options.build_info = "bench_serving overload";
    introspector = std::make_unique<Introspector>(introspect_options);
    HttpEndpoint::Options endpoint_options;
    endpoint_options.port = introspect_port;
    endpoint = std::make_unique<HttpEndpoint>(endpoint_options);
    RegisterIntrospectionRoutes(endpoint.get(), introspector.get());
    const Status started = endpoint->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "warning: introspection disabled: %s\n",
                   started.ToString().c_str());
      endpoint.reset();
      introspector.reset();
    } else {
      std::printf("  introspection: http://127.0.0.1:%d/metrics\n",
                  endpoint->port());
    }
  }
  std::atomic<bool> stop_scraper{false};
  std::atomic<int64_t> scrapes_ok{0};
  std::atomic<int64_t> scrapes_failed{0};
  std::thread scraper;
  if (endpoint != nullptr) {
    scraper = std::thread([&] {
      // ordering: relaxed — plain stop flag and tallies; joined before read.
      while (!stop_scraper.load(std::memory_order_relaxed)) {
        if (HttpGetOk(endpoint->port(), "/metrics")) {
          // ordering: relaxed — plain tally; the join below synchronizes.
          scrapes_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          // ordering: relaxed — same tally contract as above.
          scrapes_failed.fetch_add(1, std::memory_order_relaxed);
        }
        // ~1 Hz, in short slices so shutdown stays prompt.
        for (int i = 0; i < 20; ++i) {
          // ordering: relaxed — see stop flag note above.
          if (stop_scraper.load(std::memory_order_relaxed)) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }
    });
  }

  // World + precomputed head cache, but no model training: overload is
  // about queueing behaviour, so the deterministic spin backend stands in
  // for the model and the head queries get canned rewrites.
  bench::BenchWorld world = bench::BuildWorld();
  RewriteKvStore store;
  {
    TrafficSampler head_traffic(&world.click_log);
    std::vector<std::pair<std::string, RewriteKvStore::Rewrites>> entries;
    for (int64_t q : head_traffic.HeadQueries(0.8)) {
      const auto& tokens = world.click_log.queries()[q].tokens;
      entries.emplace_back(JoinStrings(tokens),
                           RewriteKvStore::Rewrites{tokens});
    }
    store.PutMany(std::move(entries));
  }

  KvStoreBackend cache(&store);
  SpinModelBackend model(/*spin_millis=*/0.3);
  RewriteService service(&cache, &model, nullptr, {});

  // Pre-sample the traffic so the paced loop below does no sampling work.
  constexpr int kRequestsPerLevel = 500;
  TrafficSampler traffic(&world.click_log);
  Rng rng(2024);
  std::vector<const std::vector<std::string>*> requests;
  requests.reserve(kRequestsPerLevel);
  for (int i = 0; i < kRequestsPerLevel; ++i) {
    const int64_t q = traffic.SampleQueryIndex(rng);
    requests.push_back(&world.click_log.queries()[q].tokens);
  }

  // Calibrate capacity with a closed one-at-a-time loop over the same mix.
  constexpr int kCalibration = 200;
  Stopwatch calibration;
  for (int i = 0; i < kCalibration; ++i) {
    const auto response = service.Serve(*requests[i % requests.size()],
                                        Deadline::AfterMillis(50.0));
    benchmark::DoNotOptimize(&response);
  }
  const double capacity_qps =
      kCalibration / (calibration.ElapsedMillis() / 1000.0);
  std::printf("  calibrated capacity: %.0f requests/sec\n", capacity_qps);

  MetricsRegistry& registry = MetricsRegistry::Global();
  constexpr struct {
    const char* label;
    double multiplier;
  } kLevels[] = {{"1x", 1.0}, {"2x", 2.0}, {"4x", 4.0}};
  for (const auto& level : kLevels) {
    RewriteServer::Options options;
    options.num_threads = 2;
    options.queue_depth = 32;
    options.retry.max_retries = 1;
    RewriteServer server(&service, options);
    Histogram latency(Histogram::DefaultLatencyBoundsMillis());

    const double offered_qps = capacity_qps * level.multiplier;
    Stopwatch clock;
    for (int i = 0; i < kRequestsPerLevel; ++i) {
      const double send_at_millis = 1000.0 * i / offered_qps;
      while (clock.ElapsedMillis() < send_at_millis) {
        std::this_thread::yield();
      }
      // (void): sheds are expected under overload; the callback filters.
      (void)server.Submit(*requests[i], Deadline::AfterMillis(50.0),
                          [&latency](RewriteServer::ServerResponse response) {
                            if (response.status.ok()) {
                              latency.Observe(response.total_millis);
                            }
                          });
    }
    const double offered_window_millis = clock.ElapsedMillis();
    server.Drain();
    const double served_window_millis = clock.ElapsedMillis();

    const int64_t served = server.served_total();
    const int64_t shed = server.shed_total();
    const int64_t violations = server.deadline_violations_total();
    const double shed_ratio =
        static_cast<double>(shed) / kRequestsPerLevel;
    const double violation_ratio =
        served > 0 ? static_cast<double>(violations) / served : 0.0;
    const double offered_per_sec =
        kRequestsPerLevel / (offered_window_millis / 1000.0);
    const double served_per_sec =
        static_cast<double>(served) / (served_window_millis / 1000.0);
    const double p50 = latency.QuantileEstimate(0.5);
    const double p99 = latency.QuantileEstimate(0.99);

    const MetricLabels labels = {{"load", level.label}};
    registry.GetGauge("cyqr_bench_overload_offered_qps_value", labels)
        ->Set(offered_per_sec);
    registry.GetGauge("cyqr_bench_overload_served_qps_value", labels)
        ->Set(served_per_sec);
    registry.GetGauge("cyqr_bench_overload_shed_ratio", labels)
        ->Set(shed_ratio);
    registry.GetGauge("cyqr_bench_overload_p50_millis", labels)->Set(p50);
    registry.GetGauge("cyqr_bench_overload_p99_millis", labels)->Set(p99);
    registry.GetGauge("cyqr_bench_overload_deadline_violation_ratio", labels)
        ->Set(violation_ratio);
    std::printf(
        "  %s: offered %.0f/s served %.0f/s shed %.1f%% p50 %.2f ms "
        "p99 %.2f ms deadline-violations %.1f%%\n",
        level.label, offered_per_sec, served_per_sec, 100.0 * shed_ratio,
        p50, p99, 100.0 * violation_ratio);
  }

  if (scraper.joinable()) {
    // ordering: relaxed — plain stop flag; the join is the synchronization.
    stop_scraper.store(true, std::memory_order_relaxed);
    scraper.join();
    const int64_t ok = scrapes_ok.load();
    const int64_t failed = scrapes_failed.load();
    registry.GetGauge("cyqr_bench_introspect_scrapes_count")
        ->Set(static_cast<double>(ok));
    registry.GetGauge("cyqr_bench_introspect_scrape_failures_count")
        ->Set(static_cast<double>(failed));
    std::printf("  scrape under load: %lld ok, %lld failed\n",
                static_cast<long long>(ok), static_cast<long long>(failed));
    endpoint->Stop();
  }

  // Flight-recorder accounting for the whole overload run: the always-on
  // queue.* / serving.* events land here so BENCH_serving.json shows what
  // the recorder cost (drops mean the ring or thread table saturated).
  const FlightRecorder& flight = FlightRecorder::Global();
  registry.GetGauge("cyqr_bench_flight_events_recorded_count")
      ->Set(static_cast<double>(flight.events_recorded_total()));
  registry.GetGauge("cyqr_bench_flight_events_dropped_count")
      ->Set(static_cast<double>(flight.events_dropped_total()));
  registry.GetGauge("cyqr_bench_flight_threads_count")
      ->Set(static_cast<double>(flight.thread_count()));
  std::printf(
      "  flight recorder: %lld events recorded, %lld dropped, "
      "%d threads\n",
      static_cast<long long>(flight.events_recorded_total()),
      static_cast<long long>(flight.events_dropped_total()),
      static_cast<int>(flight.thread_count()));
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): strips --metrics-out=PATH,
// --overload and --introspect-port=N before handing argv to the benchmark
// library, then dumps the global metrics registry as the
// BENCH_serving.json artifact after the run.
int main(int argc, char** argv) {
  std::string metrics_out = "BENCH_serving.json";
  bool overload = false;
  int introspect_port = -1;  // Disabled unless --introspect-port is given.
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    constexpr char kFlag[] = "--metrics-out=";
    constexpr char kPortFlag[] = "--introspect-port=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      metrics_out = argv[i] + std::strlen(kFlag);
    } else if (std::strncmp(argv[i], kPortFlag, std::strlen(kPortFlag)) ==
               0) {
      char* end = nullptr;
      const long port = std::strtol(argv[i] + std::strlen(kPortFlag),
                                    &end, 10);
      if (end == nullptr || *end != '\0') {
        std::fprintf(stderr, "error: bad %s value\n", argv[i]);
        return 1;
      }
      introspect_port = static_cast<int>(port);
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (overload) {
    RunOverloadBench(introspect_port);
  }
  if (!metrics_out.empty()) {
    const cyqr::Status s = cyqr::bench::DumpMetrics(metrics_out);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("metrics snapshot written to %s\n", metrics_out.c_str());
  }
  return 0;
}

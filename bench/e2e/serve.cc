// serve_head and serve_mixed: open-loop Poisson traffic through
// RewriteServer::Submit into the production ladder (KV cache -> hybrid
// direct model -> rule-based -> passthrough) with the metrics registry and
// trace sampler attached and a 50 ms deadline per request.
//
// Each request is timed from the moment it was due, so a stall also
// charges the requests queued behind it. The client retries a shed request
// a few times within its budget, as a caller given a retry-after answer
// would; a request still shed after that counts as an infinite latency and
// as a failure. After a warm-up, a run offers the nominal rate for
// --seconds and reports over every request of that phase; a traced run
// then climbs a fixed ladder of rates to find the highest one that still
// meets the SLO.

#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline/rule_based.h"
#include "bench/e2e/timed.h"
#include "bench/e2e/workloads.h"
#include "core/deadline.h"
#include "core/rng.h"
#include "core/string_util.h"
#include "core/thread_annotations.h"
#include "datagen/synonyms.h"
#include "datagen/traffic.h"
#include "decode/beam.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/backends.h"
#include "serving/kv_store.h"
#include "serving/rewrite_service.h"
#include "serving/server.h"

namespace cyqr::e2e {
namespace {

using Rewrites = RewriteKvStore::Rewrites;
using Source = RewriteService::Source;

// Section III-G: the most popular queries, covering 80% of traffic, are
// precomputed into the KV store, and a request has 50 ms end to end.
constexpr double kHeadFraction = 0.8;
constexpr double kBudgetMillis = 50.0;
constexpr int64_t kMaxRewrites = 3;
constexpr int64_t kMaxRewriteLen = 10;
// Two workers leave the load generator and the refresh writer a core each
// on a 4-core machine.
constexpr int kWorkers = 2;
// Deep enough to absorb the burst a 100 ms stall of the generator leaves
// behind at serve_head's rate. With the CLI's default of 64, the guest's
// stalls of a few ms shed requests in most runs: failures of the
// benchmark's own thread, not of the server.
constexpr size_t kQueueDepth = 1024;
// A shed request is submitted again after up to 1, 2, 4, 8 and 16 ms (each
// backoff cut by a random share of up to half), under the deadline of its
// first attempt, which leaves the last attempt at least 19 of its 50 ms.
// A pause of the host stalls a worker mid-request, and the server's
// queue-wait estimate then refuses the burst that comes due meanwhile until
// the next few answers bring the estimate down. Without retries, stopping
// the process for 20 ms eight times in a serve_mixed run failed 13
// requests.
constexpr int kClientRetries = 5;
constexpr double kFirstBackoffMillis = 1.0;
constexpr double kRuleCoverage = 0.7;
constexpr uint64_t kRuleSeed = 5;
// serve_mixed's writer re-puts a rotating tenth of the head entries.
constexpr auto kRefreshPeriod = std::chrono::milliseconds(250);
constexpr double kRefreshFraction = 0.1;
// A rate meets the SLO when p99 <= the workload's bound and at most 1% of
// requests failed (shed or invalid) and at most 1% were degraded.
constexpr double kSloShare = 0.01;
// The warm-up, not measured, runs hot: after an idle minute a run warmed
// at the nominal rate read p50 four times higher than the next run.
constexpr double kWarmupSeconds = 1.0;
constexpr double kWarmupRateFactor = 2.5;
// Each rung of the traced run's SLO ladder lasts this share of --seconds.
constexpr double kRungShare = 0.1;
// The ladder judges a rung by its windows of this many consecutive
// requests, so each window's p99 has ten requests beyond it.
constexpr size_t kWindowRequests = 1000;
// The generator sleeps until this long before a due time, then spins.
constexpr int64_t kSpinNs = 50000;

struct ServeSpec {
  bool head_only;  // Traffic restricted to queries the KV store holds.
  bool refresh;    // A writer thread PutManys head entries meanwhile.
  double nominal_rps;
  double slo_p99_ms;
  std::vector<double> ladder_rps;  // SLO ladder above nominal_rps.
};

ServeSpec SpecFor(const std::string& workload) {
  if (workload == "serve_head") {
    // The cache rung's bound (Section III-G: under 5 ms). 10k req/s leaves
    // the queue room for a 100 ms stall of the whole process; at 40k a
    // stall of 150 ms shed thousands of requests.
    return {true, false, 10000.0, 5.0,
            {20000, 40000, 80000, 160000, 320000, 640000}};
  }
  return {false, true, 4000.0, kBudgetMillis,
          {5600, 8000, 11000, 16000, 23000, 32000, 45000}};
}

uint64_t Digest(const Rewrites& rewrites) {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a.
  const auto mix = [&hash](unsigned char c) {
    hash ^= c;
    hash *= 1099511628211ull;
  };
  for (const std::vector<std::string>& rewrite : rewrites) {
    for (const std::string& token : rewrite) {
      for (const char c : token) mix(static_cast<unsigned char>(c));
      mix(' ');
    }
    mix('\n');
  }
  return hash;
}

/// At most kMaxRewrites non-empty rewrites of non-empty tokens, each at
/// most `max_len` tokens long.
bool ValidRewrites(const Rewrites& rewrites, int64_t max_len) {
  if (rewrites.empty() ||
      static_cast<int64_t>(rewrites.size()) > kMaxRewrites) {
    return false;
  }
  for (const std::vector<std::string>& rewrite : rewrites) {
    if (rewrite.empty() || static_cast<int64_t>(rewrite.size()) > max_len) {
      return false;
    }
    for (const std::string& token : rewrite) {
      if (token.empty()) return false;
    }
  }
  return true;
}

/// What set-up builds: the world, the trained direct model, the rule
/// dictionary, and the head entries (the direct model's own beam rewrites
/// of the head queries) with a digest per key for checking cache answers.
struct Fixture {
  World world;
  std::unique_ptr<DirectRewriter> direct;
  SynonymDictionary dictionary;
  std::unique_ptr<RuleBasedRewriter> rules;
  std::vector<std::string> keys;  // Space-joined tokens per query index.
  std::vector<std::pair<std::string, Rewrites>> head_entries;
  std::unordered_map<std::string, uint64_t> cached_digest;
};

std::unique_ptr<Fixture> BuildFixture(const Scale& scale) {
  auto f = std::make_unique<Fixture>();
  f->world = BuildWorld(scale);
  f->direct = TrainDirectModel(f->world, scale);
  Rng rule_rng(kRuleSeed);
  f->dictionary =
      BuildRuleDictionary(f->world.catalog, kRuleCoverage, rule_rng);
  f->rules = std::make_unique<RuleBasedRewriter>(&f->dictionary);
  for (const QuerySpec& q : f->world.log.queries()) {
    f->keys.push_back(JoinStrings(q.tokens));
  }
  const TrafficSampler traffic(&f->world.log);
  for (const int64_t q : traffic.HeadQueries(kHeadFraction)) {
    const std::string& key = f->keys[static_cast<size_t>(q)];
    if (f->cached_digest.count(key) > 0) continue;
    Rewrites rewrites;
    for (RewriteCandidate& c :
         f->direct->Rewrite(f->world.log.queries()[q].tokens, kMaxRewrites,
                            kMaxRewriteLen)) {
      rewrites.push_back(std::move(c.tokens));
    }
    // Nothing to cache: the query stays a model-rung query.
    if (rewrites.empty()) continue;
    f->cached_digest.emplace(key, Digest(rewrites));
    f->head_entries.emplace_back(key, std::move(rewrites));
  }
  return f;
}

/// A served answer is valid when every rewrite is well formed, and a cache
/// answer must also be exactly what the store holds for the query. The
/// length limit is the model rung's option: a rule-based rewrite or the
/// passthrough of a long query may exceed it (a few queries of the world
/// have 11 tokens), and those answers come only when the model rung could
/// not answer in time.
bool ValidAnswer(const Fixture& f, int64_t query,
                 const RewriteService::Response& response) {
  const bool model_bound = response.source == Source::kCache ||
                           response.source == Source::kDirectModel;
  if (!ValidRewrites(response.rewrites,
                     model_bound ? kMaxRewriteLen
                                 : std::numeric_limits<int64_t>::max())) {
    return false;
  }
  if (response.source != Source::kCache) return true;
  const auto it = f.cached_digest.find(f.keys[static_cast<size_t>(query)]);
  return it != f.cached_digest.end() &&
         it->second == Digest(response.rewrites);
}

struct Arrival {
  int64_t due_ns;  // Since the phase start.
  int64_t query;   // Index into the click log's queries.
};

/// A query drawn by popularity (Zipf), from the cached head only when
/// `head_only`.
int64_t SampleQuery(const Fixture& f, const TrafficSampler& traffic,
                    bool head_only, Rng& sampling) {
  int64_t q = traffic.SampleQueryIndex(sampling);
  while (head_only &&
         f.cached_digest.count(f.keys[static_cast<size_t>(q)]) == 0) {
    q = traffic.SampleQueryIndex(sampling);
  }
  return q;
}

std::vector<Arrival> PoissonSchedule(const Fixture& f,
                                     const TrafficSampler& traffic,
                                     bool head_only, double rps,
                                     double seconds, Rng& arrivals,
                                     Rng& sampling) {
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - arrivals.NextDouble()) / rps;
    if (t >= seconds) break;
    out.push_back({static_cast<int64_t>(t * 1e9),
                   SampleQuery(f, traffic, head_only, sampling)});
  }
  return out;
}

/// The load generator (the calling thread) keeps the first CPU it may run
/// on to itself and the threads it starts get the rest, so its spin-waits
/// never sit between a woken worker and a CPU. No-op with a single CPU.
class CpuSplit {
 public:
  CpuSplit() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
    CPU_ZERO(&generator_);
    CPU_ZERO(&others_);
    int count = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &all)) continue;
      CPU_SET(cpu, count++ == 0 ? &generator_ : &others_);
    }
    split_ = count > 1;
  }

  /// Starts `make()`'s threads off the generator's CPU, then moves the
  /// calling thread onto it.
  template <typename Make>
  auto StartOffGenerator(Make make) const {
    if (split_) (void)sched_setaffinity(0, sizeof(others_), &others_);
    auto started = make();
    if (split_) (void)sched_setaffinity(0, sizeof(generator_), &generator_);
    return started;
  }

 private:
  cpu_set_t generator_;
  cpu_set_t others_;
  bool split_ = false;
};

void WaitUntil(int64_t target_ns) {
  const int64_t left = target_ns - NowNs();
  if (left > 2 * kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
  }
  while (NowNs() < target_ns) {
  }
}

/// One request's fate. The generator writes the submit fields, the
/// completion callback the rest; Drain() orders both before any read. A
/// shed attempt is answered on the generator before it submits the next
/// attempt, so the fields describe the last attempt.
struct Outcome {
  int64_t submit_ns = 0;   // First attempt, since the phase start.
  int64_t handoff_ns = 0;  // How long the first Submit() took.
  int64_t done_ns = -1;    // Callback entry since the phase start.
  double serve_ms = 0.0;   // RewriteService::Response::latency_millis.
  int retries = 0;         // The server's own retries of the served attempt.
  int sheds = 0;           // Attempts the server shed.
  Source source = Source::kPassthrough;
  bool shed = false;       // The last attempt was shed too.
  bool valid = false;
  bool degraded = false;
};

struct Phase {
  const Fixture* f = nullptr;
  const std::vector<Arrival>* schedule = nullptr;
  std::vector<Outcome> outcomes;
  int64_t start_ns = 0;
  int64_t request_base = 0;  // Request id of outcomes[0].
  SpanRecorder* spans = nullptr;
};

/// The completion callback; runs on the worker that served the request
/// (or on the generator, for a request shed at admission).
void Complete(Phase* phase, size_t i, RewriteServer::ServerResponse response) {
  Outcome& o = phase->outcomes[i];
  o.done_ns = NowNs() - phase->start_ns;
  o.shed = !response.status.ok();
  if (o.shed) {
    ++o.sheds;
    return;
  }
  const RewriteService::Response& r = response.response;
  o.source = r.source;
  o.degraded = r.degraded;
  o.retries = response.retries;
  o.serve_ms = r.latency_millis;
  o.valid = ValidAnswer(*phase->f, (*phase->schedule)[i].query, r);
  if (phase->spans != nullptr) {
    phase->spans->StampPending(phase->request_base +
                               static_cast<int64_t>(i));
  }
}

/// A shed request's next attempt, under the deadline of its first one.
struct Retry {
  int64_t due_ns;  // Since the phase start.
  size_t request;
  int retry;  // 1 for the first retry.
  Deadline deadline;

  bool operator>(const Retry& other) const { return due_ns > other.due_ns; }
};

std::unique_ptr<RewriteServer> StartServer(RewriteService* service,
                                           const CpuSplit& cpus) {
  RewriteServer::Options options;
  options.num_threads = kWorkers;
  options.queue_depth = kQueueDepth;
  options.default_budget_millis = kBudgetMillis;
  return cpus.StartOffGenerator([&] {
    return std::make_unique<RewriteServer>(service, options,
                                           &MetricsRegistry::Global());
  });
}

/// Offers `schedule` to a fresh RewriteServer and waits for every answer.
std::unique_ptr<Phase> RunPhase(RewriteService* service, const Fixture& f,
                                const std::vector<Arrival>& schedule,
                                int64_t request_base, const CpuSplit& cpus,
                                SpanRecorder* spans, Report* report) {
  auto phase = std::make_unique<Phase>();
  phase->f = &f;
  phase->schedule = &schedule;
  phase->outcomes.resize(schedule.size());
  phase->request_base = request_base;
  phase->spans = spans;
  const std::unique_ptr<RewriteServer> server = StartServer(service, cpus);
  Phase* p = phase.get();
  p->start_ns = NowNs() + 1000000;  // Let the workers start.
  // Shed requests waiting for their next attempt, earliest first.
  std::priority_queue<Retry, std::vector<Retry>, std::greater<>> retries;
  // Spreads the retries of a burst shed together over their backoff.
  Rng jitter(static_cast<uint64_t>(request_base));
  // Submits one attempt of request i; a shed one is queued for a retry
  // unless it has had them all.
  const auto attempt = [&](size_t i, const Deadline& deadline, int retry) {
    // Submit() returns false exactly when the attempt was shed, and then
    // its callback has already run on this thread.
    if (server->Submit(
            f.world.log.queries()[static_cast<size_t>(schedule[i].query)]
                .tokens,
            deadline,
            [p, i](RewriteServer::ServerResponse response) {
              Complete(p, i, std::move(response));
            }) ||
        retry >= kClientRetries) {
      return;
    }
    const double backoff_ms = kFirstBackoffMillis * std::ldexp(1.0, retry) *
                              (0.5 + 0.5 * jitter.NextDouble());
    retries.push({NowNs() - p->start_ns +
                      static_cast<int64_t>(backoff_ms * 1e6),
                  i, retry + 1, deadline});
  };
  size_t next = 0;
  while (next < schedule.size() || !retries.empty()) {
    if (!retries.empty() && (next == schedule.size() ||
                             retries.top().due_ns < schedule[next].due_ns)) {
      const Retry r = retries.top();
      retries.pop();
      WaitUntil(p->start_ns + r.due_ns);
      attempt(r.request, r.deadline, r.retry);
      continue;
    }
    const size_t i = next++;
    WaitUntil(p->start_ns + schedule[i].due_ns);
    Outcome& o = p->outcomes[i];
    const int64_t submit = NowNs();
    o.submit_ns = submit - p->start_ns;
    attempt(i, Deadline::AfterMillis(kBudgetMillis), 0);
    o.handoff_ns = NowNs() - submit;
  }
  server->Drain();
  if (server->submitted_total() !=
      server->served_total() + server->shed_total()) {
    report->Fail("submitted != served + shed");
  }
  for (const Outcome& o : p->outcomes) {
    if (o.done_ns < 0) {
      report->Fail("a submitted request was never answered");
      break;
    }
  }
  return phase;
}

/// Request counts and latencies over some span of due times.
struct Tally {
  int64_t sent = 0;
  int64_t shed = 0;         // Requests whose every attempt was shed.
  int64_t server_sheds = 0;  // Attempts shed, retried ones included.
  int64_t invalid = 0;
  int64_t degraded = 0;
  int64_t retries = 0;
  int64_t by_source[4] = {0, 0, 0, 0};
  std::vector<double> latency_ms;  // From the due time; +inf when shed.
};

/// A phase's tally overall and per kWindowRequests requests (the last
/// window takes the remainder), which the SLO ladder judges a rung by.
struct PhaseStats {
  Tally all;
  std::vector<Tally> windows;
};

/// Tallies a phase and fails the run on any invalid answer.
PhaseStats Summarize(const Phase& phase, const std::vector<Arrival>& schedule,
                     Report* report) {
  PhaseStats s;
  s.windows.resize(std::max<size_t>(1, schedule.size() / kWindowRequests));
  for (size_t i = 0; i < schedule.size(); ++i) {
    const size_t w = std::min(i / kWindowRequests, s.windows.size() - 1);
    const Outcome& o = phase.outcomes[i];
    for (Tally* t : {&s.all, &s.windows[w]}) {
      ++t->sent;
      t->server_sheds += o.sheds;
      if (o.shed) {
        ++t->shed;
        t->latency_ms.push_back(HUGE_VAL);
        continue;
      }
      t->latency_ms.push_back(
          static_cast<double>(o.done_ns - schedule[i].due_ns) / 1e6);
      if (!o.valid) ++t->invalid;
      if (o.degraded || o.source == Source::kRuleBased ||
          o.source == Source::kPassthrough) {
        ++t->degraded;
      }
      t->retries += o.retries;
      ++t->by_source[static_cast<size_t>(o.source)];
    }
  }
  if (s.all.invalid > 0) {
    report->Fail(std::to_string(s.all.invalid) +
                 " served responses were invalid");
  }
  return s;
}

/// How far a window is from the SLO: above 1 means it missed.
double SloFactor(const Tally& t, double slo_p99_ms) {
  const double sent = static_cast<double>(std::max<int64_t>(t.sent, 1));
  double factor =
      std::max(static_cast<double>(t.shed + t.invalid) / sent,
               static_cast<double>(t.degraded) / sent) /
      kSloShare;
  const double p99 = Quantile(t.latency_ms, 0.99);
  // An infinite p99 means over 1% were shed, which the share term counts.
  if (std::isfinite(p99)) factor = std::max(factor, p99 / slo_p99_ms);
  return factor;
}

/// A phase's SLO factor: the median over its windows.
double SloFactor(const PhaseStats& s, double slo_p99_ms) {
  std::vector<double> per_window;
  for (const Tally& t : s.windows) {
    if (t.sent > 0) per_window.push_back(SloFactor(t, slo_p99_ms));
  }
  return Quantile(per_window, 0.5);
}

/// The highest rate meeting the SLO: log-log interpolation between the
/// last passing rung and the failing rung above it, so the estimate moves
/// smoothly with the system instead of jumping a whole rung.
double SloRate(const std::vector<double>& rates,
               const std::vector<double>& factors) {
  int last_pass = -1;
  for (size_t i = 0; i < factors.size(); ++i) {
    if (factors[i] <= 1.0) last_pass = static_cast<int>(i);
  }
  if (last_pass < 0) return rates[0] / factors[0];
  const size_t lo = static_cast<size_t>(last_pass);
  if (lo + 1 >= factors.size()) return rates[lo];
  const double f0 = std::max(factors[lo], 1e-3);
  const double f1 = factors[lo + 1];
  const double t = -std::log(f0) / (std::log(f1) - std::log(f0));
  return std::exp(std::log(rates[lo]) +
                  t * (std::log(rates[lo + 1]) - std::log(rates[lo])));
}

/// serve_mixed's nightly-refresh stand-in: every kRefreshPeriod, PutMany a
/// rotating slice of the head entries (same values, so cache answers stay
/// checkable) while readers hit the store.
class RefreshWriter {
 public:
  RefreshWriter(RewriteKvStore* store,
                const std::vector<std::pair<std::string, Rewrites>>* entries,
                SpanRecorder* spans)
      : store_(store),
        entries_(entries),
        spans_(spans),
        span_name_(spans == nullptr ? 0 : spans->Intern("kv.put_many")),
        thread_([this] { Loop(); }) {}
  ~RefreshWriter() { Stop(); }
  RefreshWriter(const RefreshWriter&) = delete;
  RefreshWriter& operator=(const RefreshWriter&) = delete;

  /// Stops and joins the writer; returns each PutMany's duration in ms.
  std::vector<double> Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return put_ms_;
  }

 private:
  void Loop() {
    const size_t n = entries_->size();
    const size_t batch = std::max<size_t>(
        1, static_cast<size_t>(std::lround(static_cast<double>(n) *
                                           kRefreshFraction)));
    size_t next = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_for(lock, kRefreshPeriod, [this] { return stop_; })) {
          return;
        }
      }
      std::vector<std::pair<std::string, Rewrites>> slice;
      for (size_t j = 0; j < batch; ++j) {
        slice.push_back((*entries_)[(next + j) % n]);
      }
      next = (next + batch) % n;
      const int64_t start = NowNs();
      {
        const SpanRecorder::Scope scope(spans_, span_name_);
        store_->PutMany(std::move(slice));
      }
      put_ms_.push_back(static_cast<double>(NowNs() - start) / 1e6);
    }
  }

  RewriteKvStore* store_;
  const std::vector<std::pair<std::string, Rewrites>>* entries_;
  SpanRecorder* spans_;
  int32_t span_name_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ CYQR_GUARDED_BY(mu_) = false;
  std::vector<double> put_ms_;  // Writer thread only until joined.
  std::thread thread_;          // Last: starts after every field above.
};

/// Replays every model-rung request of the nominal phase through
/// BeamSearchDecode on the decorated direct model, and checks each result
/// against an unbounded DirectRewriter::Rewrite of the same query.
void ReplayModelRung(const Fixture& f, const Phase& phase,
                     const std::vector<Arrival>& schedule,
                     SpanRecorder* spans, Report* report) {
  const TimedSeq2Seq model(&f.direct->model(), spans, "nmt.direct");
  const int32_t beam_name = spans->Intern("decode.beam");
  std::unordered_map<int64_t, std::vector<RewriteCandidate>> expected;
  int64_t mismatches = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Outcome& o = phase.outcomes[i];
    if (o.shed || o.source == Source::kCache) continue;
    const int64_t q = schedule[i].query;
    const std::vector<std::string>& tokens = f.world.log.queries()[q].tokens;
    const std::vector<int32_t> ids = f.world.vocab.Encode(tokens);
    DecodeOptions options;
    options.beam_size = kMaxRewrites + 1;  // As DirectRewriter::Rewrite.
    options.max_len = kMaxRewriteLen;
    std::vector<DecodedSequence> decoded;
    {
      const SpanRecorder::Scope scope(spans, beam_name);
      decoded = BeamSearchDecode(model, ids, options);
    }
    std::vector<std::vector<int32_t>> replayed;
    for (const DecodedSequence& s : decoded) {
      if (s.ids.empty() || s.ids == ids) continue;
      replayed.push_back(s.ids);
      if (static_cast<int64_t>(replayed.size()) >= kMaxRewrites) break;
    }
    auto it = expected.find(q);
    if (it == expected.end()) {
      it = expected
               .emplace(q, f.direct->Rewrite(tokens, kMaxRewrites,
                                             kMaxRewriteLen))
               .first;
    }
    bool same = replayed.size() == it->second.size();
    for (size_t j = 0; same && j < replayed.size(); ++j) {
      same = replayed[j] == it->second[j].ids;
    }
    if (!same) ++mismatches;
  }
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) +
                 " model-rung replays differ from DirectRewriter::Rewrite");
  }
}

/// What the decorators counted during the nominal phase.
struct DecoratorCounts {
  int64_t kv_hits;
  int64_t model_errors;
  int64_t model_useful;
};

void ReportLayers(const Phase& nominal, const Tally& stats,
                  const std::vector<Arrival>& schedule,
                  const SpanRecorder::Collected& c,
                  const DecoratorCounts& counts,
                  const std::vector<double>& put_ms, Report* report) {
  const size_t n = schedule.size();
  const int64_t base = nominal.request_base;
  const int32_t kv_name = c.Id("kv.lookup");
  const int32_t model_name = c.Id("model_rung.rewrite");
  std::vector<int64_t> first_start(n, -1);
  std::vector<int64_t> rung_ns(n, 0);
  std::vector<double> kv_us;
  std::vector<double> model_ms;
  for (const SpanRecorder::Span& span : c.spans) {
    if (span.request < base || span.request >= base + static_cast<int64_t>(n)) {
      continue;
    }
    if (span.name != kv_name && span.name != model_name) continue;
    const size_t r = static_cast<size_t>(span.request - base);
    const int64_t ns = span.end_ns - span.start_ns;
    if (first_start[r] < 0 || span.start_ns < first_start[r]) {
      first_start[r] = span.start_ns;
    }
    rung_ns[r] += ns;
    if (span.name == kv_name) {
      kv_us.push_back(static_cast<double>(ns) / 1e3);
    } else {
      model_ms.push_back(static_cast<double>(ns) / 1e6);
    }
  }
  std::vector<double> queue_wait_ms;
  std::vector<double> handoff_ms;
  std::vector<double> serve_ms;
  std::vector<double> self_us;
  std::vector<double> lag_ms;
  for (size_t i = 0; i < n; ++i) {
    const Outcome& o = nominal.outcomes[i];
    handoff_ms.push_back(static_cast<double>(o.handoff_ns) / 1e6);
    lag_ms.push_back(static_cast<double>(o.submit_ns - schedule[i].due_ns) /
                     1e6);
    if (o.shed || first_start[i] < 0) continue;
    queue_wait_ms.push_back(
        static_cast<double>(first_start[i] - nominal.start_ns - o.submit_ns) /
        1e6);
    serve_ms.push_back(o.serve_ms);
    self_us.push_back(o.serve_ms * 1e3 -
                      static_cast<double>(rung_ns[i]) / 1e3);
  }
  const double served = static_cast<double>(
      std::max<int64_t>(stats.sent - stats.shed, 1));
  report->Add("server.queue_wait_p50_ms", Quantile(queue_wait_ms, 0.5), "ms");
  report->Add("server.queue_wait_p99_ms", Quantile(queue_wait_ms, 0.99),
              "ms");
  report->Add("server.handoff_p50_ms", Quantile(handoff_ms, 0.5), "ms");
  report->Add("server.shed", static_cast<double>(stats.server_sheds),
              "count");
  report->Add("server.retries", static_cast<double>(stats.retries), "count");
  report->Add("ladder.serve_p50_ms", Quantile(serve_ms, 0.5), "ms");
  report->Add("ladder.serve_p99_ms", Quantile(serve_ms, 0.99), "ms");
  report->Add("ladder.self_p50_us", Quantile(self_us, 0.5), "us");
  const char* kRatioNames[4] = {"ladder.cache_ratio", "ladder.model_ratio",
                                "ladder.rules_ratio",
                                "ladder.passthrough_ratio"};
  for (size_t s = 0; s < 4; ++s) {
    report->Add(kRatioNames[s],
                static_cast<double>(stats.by_source[s]) / served, "ratio");
  }
  report->Add("ladder.degraded_ratio",
              static_cast<double>(stats.degraded) / served, "ratio");
  const double lookups = static_cast<double>(kv_us.size());
  report->Add("kv.lookups", lookups, "count");
  report->Add("kv.lookup_p50_us", Quantile(kv_us, 0.5), "us");
  report->Add("kv.lookup_p99_us", Quantile(kv_us, 0.99), "us");
  report->Add("kv.hit_ratio",
              lookups > 0 ? static_cast<double>(counts.kv_hits) / lookups
                          : 0.0,
              "ratio");
  report->Add("kv.put_many_calls", static_cast<double>(put_ms.size()),
              "count");
  report->Add("kv.put_many_p50_ms", Quantile(put_ms, 0.5), "ms");
  const double calls = static_cast<double>(model_ms.size());
  report->Add("model_rung.calls", calls, "count");
  report->Add("model_rung.p50_ms", Quantile(model_ms, 0.5), "ms");
  report->Add("model_rung.p99_ms", Quantile(model_ms, 0.99), "ms");
  report->Add("model_rung.errors",
              static_cast<double>(counts.model_errors), "count");
  report->Add("model_rung.useful_ratio",
              calls > 0 ? static_cast<double>(counts.model_useful) /
                              calls
                        : 0.0,
              "ratio");
  const double beam_calls = static_cast<double>(c.Count("decode.beam"));
  int64_t steps = 0;
  std::vector<double> step_us;
  for (int b = 0; b < TimedSeq2Seq::kPositionBuckets; ++b) {
    const std::vector<double> bucket =
        c.Micros(TimedSeq2Seq::StepSpanName("nmt.direct", b), false);
    steps += static_cast<int64_t>(bucket.size());
    step_us.insert(step_us.end(), bucket.begin(), bucket.end());
  }
  const double clones = static_cast<double>(c.Count("nmt.direct.clone"));
  report->Add("decode.beam.calls", beam_calls, "count");
  report->Add("decode.beam.self_ms",
              Mean(c.Micros("decode.beam", true)) / 1e3, "ms");
  report->Add("decode.beam.steps_per_call",
              beam_calls > 0 ? static_cast<double>(steps) / beam_calls : 0.0,
              "count");
  report->Add("decode.beam.clones_per_call",
              beam_calls > 0 ? clones / beam_calls : 0.0, "count");
  report->Add("nmt.direct.encode_us",
              Mean(c.Micros("nmt.direct.encode", false)), "us");
  report->Add("nmt.direct.step_us", Mean(step_us), "us");
  report->Add("nmt.direct.clone_us",
              Mean(c.Micros("nmt.direct.clone", false)), "us");
  report->Add("nmt.direct.steps", static_cast<double>(steps), "count");
  report->Add("loadgen.sent", static_cast<double>(stats.sent), "count");
  report->Add("loadgen.lag_p50_ms", Quantile(lag_ms, 0.5), "ms");
  report->Add("loadgen.lag_p99_ms", Quantile(lag_ms, 0.99), "ms");
  // Valid answers per second up to the last one: below the offered rate
  // only when the server sheds, answers wrongly or falls behind.
  int64_t end_ns = 1;
  for (const Outcome& o : nominal.outcomes) {
    end_ns = std::max(end_ns, o.done_ns);
  }
  report->Add("run.throughput_per_s",
              static_cast<double>(stats.sent - stats.shed - stats.invalid) /
                  (static_cast<double>(end_ns) / 1e9),
              "1/s");
  report->Add("run.p50_ms", Quantile(stats.latency_ms, 0.5), "ms");
  report->Add("run.p99_ms", Quantile(stats.latency_ms, 0.99), "ms");
}

/// The untraced run's metrics, over every request of the nominal phase.
void ReportEndToEnd(const Tally& stats, Report* report) {
  const double sent = static_cast<double>(std::max<int64_t>(stats.sent, 1));
  report->Add("success_ratio",
              static_cast<double>(stats.sent - stats.shed - stats.invalid) /
                  sent,
              "ratio");
  report->Add("nondegraded_ratio",
              1.0 - static_cast<double>(stats.degraded) / sent, "ratio");
}

}  // namespace

void RunServing(const RunOptions& options, Report* report) {
  const ServeSpec spec = SpecFor(options.workload);
  const Scale& scale = options.scale;

  // Set-up, repeated; every repeat must train bit-identical parameters.
  std::unique_ptr<Fixture> f;
  std::vector<double> setup_s;
  std::vector<float> first_params;
  for (int r = 0; r < scale.setup_repeats; ++r) {
    const int64_t start = NowNs();
    f = BuildFixture(scale);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    const std::vector<float> params =
        FlatParameters(f->direct->model().Parameters());
    if (r == 0) {
      first_params = params;
    } else if (params != first_params) {
      report->Fail("repeated set-up trained different direct models");
    }
  }
  if (f->head_entries.empty()) {
    report->Fail("no head query has a cached rewrite");
    return;
  }

  RewriteKvStore store;
  store.PutMany(f->head_entries);
  KvStoreBackend kv(&store);
  DirectModelBackend model(f->direct.get());
  SpanRecorder* spans = options.spans;
  std::unique_ptr<TimedKvBackend> timed_kv;
  std::unique_ptr<TimedModelBackend> timed_model;
  if (spans != nullptr) {
    timed_kv = std::make_unique<TimedKvBackend>(&kv, spans);
    timed_model = std::make_unique<TimedModelBackend>(&model, spans);
  }
  RewriteService::Options service_options;
  service_options.max_rewrites = kMaxRewrites;
  service_options.max_rewrite_len = kMaxRewriteLen;
  service_options.default_budget_millis = kBudgetMillis;
  // As under `cyqr_cli serve --introspect-port`.
  service_options.trace_sampler = &TraceSampler::Global();
  RewriteService service(
      timed_kv != nullptr ? static_cast<KvBackend*>(timed_kv.get()) : &kv,
      timed_model != nullptr ? static_cast<ModelBackend*>(timed_model.get())
                             : &model,
      f->rules.get(), service_options, &MetricsRegistry::Global());

  const TrafficSampler traffic(&f->world.log);
  Rng arrivals(StreamSeed(options.seed, Stream::kArrivals));
  Rng sampling(StreamSeed(options.seed, Stream::kQueries));
  const auto schedule = [&](double rps, double seconds) {
    return PoissonSchedule(*f, traffic, spec.head_only, rps, seconds,
                           arrivals, sampling);
  };
  const std::vector<Arrival> warmup =
      schedule(kWarmupRateFactor * spec.nominal_rps,
               std::min(kWarmupSeconds, 0.1 * options.seconds));

  // The generator's sleeps should wake it within microseconds.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const int64_t traced_start = NowNs();
  const CpuSplit cpus;
  std::unique_ptr<RefreshWriter> writer;
  if (spec.refresh) {
    writer = cpus.StartOffGenerator([&] {
      return std::make_unique<RefreshWriter>(&store, &f->head_entries, spans);
    });
  }
  int64_t next_request = 0;
  const auto run = [&](const std::vector<Arrival>& phase_schedule) {
    std::unique_ptr<Phase> phase = RunPhase(
        &service, *f, phase_schedule, next_request, cpus, spans, report);
    next_request += static_cast<int64_t>(phase_schedule.size());
    return phase;
  };
  Summarize(*run(warmup), warmup, report);

  // What the decorators count, for the traced run's nominal phase.
  const auto snapshot = [&] {
    if (spans == nullptr) return DecoratorCounts{0, 0, 0};
    return DecoratorCounts{timed_kv->hits(), timed_model->errors(),
                           timed_model->useful()};
  };
  const DecoratorCounts before = snapshot();
  const std::vector<Arrival> nominal =
      schedule(spec.nominal_rps, options.seconds);
  const std::unique_ptr<Phase> nominal_phase = run(nominal);
  const DecoratorCounts after = snapshot();
  const PhaseStats stats = Summarize(*nominal_phase, nominal, report);
  report->AddOperations(stats.all.sent, stats.all.shed + stats.all.invalid);
  if (spans == nullptr) {
    if (writer != nullptr) writer->Stop();
    ReportSetup(setup_s, report);
    ReportEndToEnd(stats.all, report);
    return;
  }
  const DecoratorCounts counts = {after.kv_hits - before.kv_hits,
                                  after.model_errors - before.model_errors,
                                  after.model_useful - before.model_useful};

  // The SLO ladder starts at the nominal rate and climbs until two rates
  // in a row miss the SLO.
  std::vector<double> rates = {spec.nominal_rps};
  std::vector<double> factors = {SloFactor(stats, spec.slo_p99_ms)};
  for (const double rps : spec.ladder_rps) {
    const size_t n = factors.size();
    if (n >= 2 && factors[n - 1] > 1.0 && factors[n - 2] > 1.0) break;
    const std::vector<Arrival> rung =
        schedule(rps, kRungShare * options.seconds);
    rates.push_back(rps);
    factors.push_back(
        SloFactor(Summarize(*run(rung), rung, report), spec.slo_p99_ms));
  }
  const std::vector<double> put_ms =
      writer != nullptr ? writer->Stop() : std::vector<double>{};
  if (!spec.head_only) {
    ReplayModelRung(*f, *nominal_phase, nominal, spans, report);
  }
  const double traced_seconds =
      static_cast<double>(NowNs() - traced_start) / 1e9;
  ReportLayers(*nominal_phase, stats.all, nominal, spans->Collect(), counts,
               put_ms, report);
  report->Add("loadgen.slo_rate_rps", SloRate(rates, factors), "1/s");
  report->Add("obs.flight_dropped_ratio", FlightDroppedRatio(), "ratio");
  report->Add("trace.overhead_ratio",
              TraceOverheadRatio(spans->size(), traced_seconds), "ratio");
}

}  // namespace cyqr::e2e

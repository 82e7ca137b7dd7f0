// cyqr — command-line interface for the cycle-consistent query rewriter.
//
//   cyqr generate-data --out DIR [--queries N] [--sessions N] [--seed S]
//       Writes a synthetic click log (pairs.tsv) plus the distinct queries.
//
//   cyqr train --data pairs.tsv --out MODEL_DIR
//              [--steps N] [--warmup N] [--layers N] [--separate]
//              [--batch B] [--workers K] [--grad-shards S]
//              [--checkpoint-every N] [--checkpoint-dir DIR]
//              [--checkpoint-keep K] [--resume]
//              [--crash-at-step N] [--nan-at-step N]
//              [--introspect-port P] [--introspect-hold-ms MS]
//              [--flight-out flight.json]
//       Builds a vocabulary, trains the cycle model (Algorithm 1), and
//       stores config + vocabulary + parameters in MODEL_DIR. Training
//       runs on K data-parallel threads (--workers 0, the default: one
//       per host core, at most S) over S gradient shards; B must be
//       divisible by S, and the bits depend on S only. With
//       --checkpoint-every the run is crash-safe: atomic checksummed
//       checkpoints rotate in --checkpoint-dir (default
//       MODEL_DIR/checkpoints) and --resume continues bit-identically
//       from the newest one. --crash-at-step / --nan-at-step are the
//       fault-drill hooks (die as if SIGKILLed / poison one batch).
//       The flight recorder is always armed: any kill/fault dumps the
//       event journal to --flight-out (default MODEL_DIR/flight.json),
//       and a clean run writes it there on exit. --introspect-port
//       serves /metrics /statusz /tracez /flightz live during training
//       (0 = ephemeral; --introspect-hold-ms keeps the endpoint up
//       after the run for scraping).
//
//   cyqr rewrite --model MODEL_DIR --query "phone for grandpa" [--k 3]
//       Runs the Figure 3 inference pipeline on one query.
//
//   cyqr eval --model MODEL_DIR --data pairs.tsv [--limit N]
//       Teacher-forced perplexity/accuracy plus translate-back metrics.
//
//   cyqr precompute --model MODEL_DIR --queries queries.tsv --out kv.tsv
//                   [--limit N] [--k 3]
//       The nightly batch job: runs the cyclic pipeline over head queries
//       and writes the KV rewrite snapshot (atomic, checksummed).
//
//   cyqr serve --kv kv.tsv --queries queries.tsv [--requests N]
//              [--budget-ms 50] [--cache-error-p F] [--cache-latency-p F]
//              [--cache-latency-ms F] [--fault-seed S]
//              [--threads N] [--queue-depth D] [--shed-policy reject|oldest]
//              [--metrics-out metrics.json] [--metrics-prom metrics.prom]
//              [--print-trace N] [--introspect-port P]
//              [--introspect-hold-ms MS] [--flight-out flight.json]
//       Replays traffic through the fault-tolerant serving ladder
//       (cache -> ... -> identity passthrough) with optional cache fault
//       injection, and reports rung mix, degradation, and latency.
//       --threads N > 0 serves through the concurrent RewriteServer front
//       end (N workers, bounded admission queue of --queue-depth, full
//       queue handled per --shed-policy) and adds served/shed/retry
//       accounting to the report. --metrics-out / --metrics-prom dump the
//       metrics registry as a JSON snapshot / Prometheus text exposition
//       after the replay; --print-trace prints the per-request trace (the
//       exact rung path) for the first N requests (single-threaded mode
//       only). train accepts the same two metrics flags for its
//       cyqr_train_* telemetry. --introspect-port serves the live
//       /metrics /statusz /tracez /flightz pages during the replay
//       (and, with --introspect-hold-ms, for a scrape window after it);
//       --flight-out arms the crash dump and writes the flight journal
//       there when the replay completes.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/bounded_queue.h"
#include "core/deadline.h"
#include "core/file_util.h"
#include "core/flags.h"
#include "core/stopwatch.h"
#include "core/string_util.h"
#include "obs/flight_recorder.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "datagen/io.h"
#include "rewrite/inference.h"
#include "rewrite/trainer.h"
#include "nn/serialize.h"
#include "serving/fault_injection.h"
#include "serving/http_endpoint.h"
#include "serving/rewrite_service.h"
#include "serving/server.h"
#include "text/tokenizer.h"

namespace cyqr {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cyqr <generate-data|train|rewrite|eval|precompute|"
               "serve> [--flags]\n"
               "run with a subcommand and no flags for its options\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Dumps the global metrics registry to the paths given by --metrics-out
/// (JSON snapshot) and --metrics-prom (Prometheus text exposition); empty
/// paths are skipped. Returns 0 or the Fail() exit code.
int DumpMetricsFiles(const std::string& json_path,
                     const std::string& prom_path) {
  if (!json_path.empty()) {
    const Status s = MetricsRegistry::Global().WriteJsonSnapshot(json_path);
    if (!s.ok()) return Fail(s);
    std::printf("metrics snapshot (json) written to %s\n",
                json_path.c_str());
  }
  if (!prom_path.empty()) {
    const Status s =
        MetricsRegistry::Global().WriteExpositionText(prom_path);
    if (!s.ok()) return Fail(s);
    std::printf("metrics exposition (prom) written to %s\n",
                prom_path.c_str());
  }
  return 0;
}

/// The live-introspection stack behind --introspect-port: the page
/// renderer plus the loopback HTTP front end serving it. Holding the
/// struct keeps both alive until the subcommand finishes.
struct IntrospectionStack {
  std::unique_ptr<Introspector> introspector;
  std::unique_ptr<HttpEndpoint> endpoint;
};

/// Starts /metrics, /statusz, /tracez and /flightz on 127.0.0.1:`port`
/// (0 picks a free port) over the process-global registry, trace sampler
/// and flight recorder. Returns null on bind/listen failure (reported).
std::unique_ptr<IntrospectionStack> StartIntrospection(
    int port, const std::string& build_info) {
  auto stack = std::make_unique<IntrospectionStack>();
  Introspector::Options options;
  options.metrics = &MetricsRegistry::Global();
  options.traces = &TraceSampler::Global();
  options.flight = &FlightRecorder::Global();
  options.build_info = build_info;
  stack->introspector = std::make_unique<Introspector>(options);
  HttpEndpoint::Options endpoint_options;
  endpoint_options.port = port;
  stack->endpoint = std::make_unique<HttpEndpoint>(endpoint_options);
  RegisterIntrospectionRoutes(stack->endpoint.get(),
                              stack->introspector.get());
  const Status started = stack->endpoint->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return nullptr;
  }
  std::printf("introspection: http://127.0.0.1:%d/statusz\n",
              stack->endpoint->port());
  std::fflush(stdout);  // A smoke harness reads the port before we finish.
  return stack;
}

/// Keeps the introspection endpoint alive `hold_ms` after the subcommand's
/// work, so an external scraper (the CI smoke) can probe a quiesced
/// process before the endpoint tears down.
void HoldIntrospection(const IntrospectionStack* stack, int64_t hold_ms) {
  if (stack == nullptr || hold_ms <= 0) return;
  std::printf("holding introspection endpoint for %lld ms\n",
              static_cast<long long>(hold_ms));
  std::fflush(stdout);
  std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
}

int GenerateData(const FlagParser& flags) {
  const std::string out_dir = flags.GetString("out");
  if (out_dir.empty()) {
    std::fprintf(stderr,
                 "generate-data flags: --out DIR [--queries N] "
                 "[--sessions N] [--seed S]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  Catalog catalog = Catalog::Generate({});
  ClickLogConfig config;
  config.num_distinct_queries = flags.GetInt("queries", 800);
  config.num_sessions = flags.GetInt("sessions", 40000);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 11));
  ClickLog log = ClickLog::Generate(catalog, config);

  const std::vector<TokenPair> pairs = log.TokenPairs(catalog);
  Status s = SaveTokenPairs(pairs, out_dir + "/pairs.tsv");
  if (!s.ok()) return Fail(s);

  std::ofstream queries(out_dir + "/queries.tsv");
  if (!queries.is_open()) {
    return Fail(Status::IoError("cannot open " + out_dir + "/queries.tsv"));
  }
  for (const QuerySpec& q : log.queries()) {
    queries << JoinStrings(q.tokens) << '\t'
            << (q.is_colloquial ? "colloquial" : "canonical") << '\n';
  }
  queries.flush();
  if (!queries.good()) {
    return Fail(Status::IoError("failed writing " + out_dir +
                                "/queries.tsv"));
  }
  const DatasetStats stats = log.Stats(catalog);
  std::printf("wrote %lld pairs (%lld distinct queries, vocab %lld) to %s\n",
              static_cast<long long>(stats.num_pairs),
              static_cast<long long>(stats.num_distinct_queries),
              static_cast<long long>(stats.vocab_size), out_dir.c_str());
  return 0;
}

Result<Vocabulary> BuildVocabFromPairs(const std::vector<TokenPair>& pairs) {
  std::vector<std::vector<std::string>> corpus;
  for (const TokenPair& p : pairs) {
    corpus.push_back(p.query);
    corpus.push_back(p.title);
  }
  return Vocabulary::Build(corpus);
}

int Train(const FlagParser& flags) {
  const std::string data_path = flags.GetString("data");
  const std::string out_dir = flags.GetString("out");
  if (data_path.empty() || out_dir.empty()) {
    std::fprintf(stderr,
                 "train flags: --data pairs.tsv --out MODEL_DIR "
                 "[--steps N] [--warmup N] [--layers N] [--batch N] "
                 "[--lambda F] [--separate] [--seed S] "
                 "[--workers K (0: one per core, at most S)] "
                 "[--grad-shards S (must divide --batch)] "
                 "[--collective-timeout-ms MS] "
                 "[--eval-every N] [--curve-out curve.tsv] "
                 "[--checkpoint-every N] [--checkpoint-dir DIR] "
                 "[--checkpoint-keep K] [--resume] "
                 "[--crash-at-step N] [--nan-at-step N] "
                 "[--crash-worker-rank R --crash-worker-at-step N] "
                 "[--stall-worker-rank R --stall-worker-at-step N] "
                 "[--metrics-out metrics.json] "
                 "[--metrics-prom metrics.prom] "
                 "[--introspect-port P] [--introspect-hold-ms MS] "
                 "[--flight-out flight.json]\n");
    return 2;
  }
  const std::string metrics_out = flags.GetString("metrics-out");
  const std::string metrics_prom = flags.GetString("metrics-prom");
  const int64_t introspect_port = flags.GetInt("introspect-port", -1);
  const int64_t introspect_hold_ms = flags.GetInt("introspect-hold-ms", 0);
  std::string flight_out = flags.GetString("flight-out");
  if (flight_out.empty()) flight_out = out_dir + "/flight.json";
  // The model dir is created before training (not after, like the model
  // files) so the armed flight dump — and a mid-run kill drill — always
  // has somewhere to land.
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    return Fail(Status::IoError("cannot create directory " + out_dir));
  }
  // Always-on post-mortem: every fault path (simulated crash, collective
  // abort, guardrail rollback, SIGSEGV/SIGABRT) leaves the stitched
  // journal at --flight-out; clean runs write it explicitly below.
  FlightRecorder::Global().EnableCrashDump(flight_out);
  Result<std::vector<TokenPair>> pairs = LoadTokenPairs(data_path);
  if (!pairs.ok()) return Fail(pairs.status());
  Result<Vocabulary> vocab = BuildVocabFromPairs(pairs.value());
  if (!vocab.ok()) return Fail(vocab.status());
  std::printf("data: %zu pairs, vocabulary %lld tokens\n",
              pairs.value().size(),
              static_cast<long long>(vocab.value().size()));

  CycleConfig config = PaperScaledConfig(vocab.value().size());
  config.forward.num_layers = flags.GetInt("layers", 2);
  config.lambda = static_cast<float>(flags.GetDouble("lambda", 0.1));
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1234)));
  CycleModel model(config, rng);

  CycleTrainerOptions options;
  options.max_steps = flags.GetInt("steps", 560);
  options.warmup_steps = flags.GetInt("warmup", 420);
  options.batch_size = flags.GetInt("batch", 8);
  options.joint = !flags.GetBool("separate", false);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1234));
  options.eval_every = flags.GetInt("eval-every", 0);
  // Data-parallel engine: K worker threads over S gradient shards; K = 0
  // picks one per host core, at most S.
  options.workers = flags.GetInt("workers", 0);
  options.grad_shards = flags.GetInt("grad-shards", 4);
  options.collective_timeout_millis =
      flags.GetDouble("collective-timeout-ms", 20000.0);
  options.checkpoint_every = flags.GetInt("checkpoint-every", 0);
  options.checkpoint_keep = flags.GetInt("checkpoint-keep", 3);
  options.checkpoint_dir = flags.GetString("checkpoint-dir");
  const bool resume = flags.GetBool("resume", false);
  if (options.checkpoint_dir.empty() &&
      (options.checkpoint_every > 0 || resume)) {
    options.checkpoint_dir = out_dir + "/checkpoints";
  }
  if (!metrics_out.empty() || !metrics_prom.empty() ||
      introspect_port >= 0) {
    options.metrics = &MetricsRegistry::Global();
  }
  // Fault-drill hooks.
  options.fault_plan.crash_at_step = flags.GetInt("crash-at-step", -1);
  const int64_t nan_at_step = flags.GetInt("nan-at-step", -1);
  if (nan_at_step >= 0) {
    options.fault_plan.nan_loss_steps.push_back(nan_at_step);
  }
  options.fault_plan.crash_worker_rank =
      flags.GetInt("crash-worker-rank", -1);
  options.fault_plan.crash_worker_at_step =
      flags.GetInt("crash-worker-at-step", -1);
  options.fault_plan.stall_worker_rank =
      flags.GetInt("stall-worker-rank", -1);
  options.fault_plan.stall_worker_at_step =
      flags.GetInt("stall-worker-at-step", -1);
  const std::vector<SeqPair> train = EncodePairs(pairs.value(),
                                                 vocab.value());
  std::printf("training %s model: %lld steps (warmup %lld, workers %lld)"
              "...\n",
              options.joint ? "joint" : "separate",
              static_cast<long long>(options.max_steps),
              static_cast<long long>(options.warmup_steps),
              static_cast<long long>(options.workers));
  Stopwatch watch;
  CycleTrainer trainer(&model, train, options);
  if (resume) {
    const Status resumed = trainer.ResumeLatest();
    if (resumed.ok()) {
      std::printf("resumed from checkpoint at step %lld\n",
                  static_cast<long long>(trainer.step()));
    } else if (resumed.code() == StatusCode::kNotFound) {
      std::printf("no checkpoint to resume from; starting fresh\n");
    } else {
      return Fail(resumed);
    }
  }
  std::unique_ptr<IntrospectionStack> introspection;
  if (introspect_port >= 0) {
    introspection = StartIntrospection(static_cast<int>(introspect_port),
                                       "cyqr_cli train");
    if (introspection == nullptr) return 1;
    // Sections must stay thread-safe: renderers run on endpoint threads
    // while the trainer mutates its own (unsynchronized) state, so only
    // immutable or atomic values are exposed here.
    introspection->introspector->AddStatusSection(
        "subcommand", [] { return std::string("train"); });
    introspection->introspector->AddStatusSection(
        "flight_dump_path", [flight_out] { return flight_out; });
  }
  // With --eval-every the training pairs double as the curve's eval set
  // (the trainer samples options.eval_queries of them per point).
  const Status trained =
      trainer.Train(options.eval_every > 0 ? train
                                           : std::vector<SeqPair>{});
  // Dump telemetry even when training fails — the series leading up to a
  // divergence are exactly what a postmortem needs.
  const int metrics_code = DumpMetricsFiles(metrics_out, metrics_prom);
  const std::string curve_out = flags.GetString("curve-out");
  if (!curve_out.empty()) {
    // Full-precision TSV so drill scripts can demand bit-identical curves
    // across worker counts.
    std::string tsv =
        "step\tq2t_ppl\tt2q_ppl\tq2t_acc\tt2q_acc\ttb_logp\ttb_acc\n";
    for (const TrainMetricsPoint& p : trainer.curve()) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%lld\t%.17g\t%.17g\t%.17g\t%.17g\t%.17g\t%.17g\n",
                    static_cast<long long>(p.step), p.q2t_perplexity,
                    p.t2q_perplexity, p.q2t_accuracy, p.t2q_accuracy,
                    p.translate_back_log_prob, p.translate_back_accuracy);
      tsv += line;
    }
    const Status curve_status = WriteStringToFileAtomic(curve_out, tsv);
    if (!curve_status.ok()) return Fail(curve_status);
  }
  // Clean runs leave the same journal a fault path would have dumped, so
  // "what did the last run do?" has one answer regardless of outcome.
  const Status journal = FlightRecorder::Global().WriteJournal(flight_out);
  if (journal.ok()) {
    std::printf("flight journal written to %s\n", flight_out.c_str());
  } else {
    std::fprintf(stderr, "warning: flight journal not written: %s\n",
                 journal.ToString().c_str());
  }
  HoldIntrospection(introspection.get(), introspect_hold_ms);
  if (!trained.ok()) return Fail(trained);
  if (metrics_code != 0) return metrics_code;
  std::printf("trained in %.1fs\n", watch.ElapsedSeconds());
  if (trainer.skipped_batches() > 0) {
    std::printf("guardrails: skipped %lld anomalous batches, "
                "%lld rollbacks\n",
                static_cast<long long>(trainer.skipped_batches()),
                static_cast<long long>(trainer.rollbacks()));
  }

  Status s = SaveCycleConfig(config, out_dir + "/config.txt");
  if (!s.ok()) return Fail(s);
  s = vocab.value().Save(out_dir + "/vocab.txt");
  if (!s.ok()) return Fail(s);
  s = SaveParametersToFile(model.Parameters(), out_dir + "/model.params");
  if (!s.ok()) return Fail(s);
  std::printf("model saved to %s\n", out_dir.c_str());
  return 0;
}

struct LoadedModel {
  CycleConfig config;
  Vocabulary vocab;
  std::unique_ptr<CycleModel> model;
};

Result<LoadedModel> LoadModel(const std::string& model_dir) {
  Result<CycleConfig> config = LoadCycleConfig(model_dir + "/config.txt");
  if (!config.ok()) return config.status();
  Result<Vocabulary> vocab = Vocabulary::Load(model_dir + "/vocab.txt");
  if (!vocab.ok()) return vocab.status();
  LoadedModel loaded;
  loaded.config = config.value();
  loaded.vocab = std::move(vocab).value();
  Rng rng(0);
  loaded.model = std::make_unique<CycleModel>(loaded.config, rng);
  Status s = LoadParametersFromFile(loaded.model->Parameters(),
                                    model_dir + "/model.params");
  if (!s.ok()) return s;
  loaded.model->SetTraining(false);
  return loaded;
}

int Rewrite(const FlagParser& flags) {
  const std::string model_dir = flags.GetString("model");
  const std::string query = flags.GetString("query");
  if (model_dir.empty() || query.empty()) {
    std::fprintf(stderr,
                 "rewrite flags: --model MODEL_DIR --query \"...\" "
                 "[--k 3] [--titles]\n");
    return 2;
  }
  Result<LoadedModel> loaded = LoadModel(model_dir);
  if (!loaded.ok()) return Fail(loaded.status());

  Tokenizer tokenizer;
  CycleRewriter rewriter(loaded.value().model.get(),
                         &loaded.value().vocab);
  RewriteOptions options;
  options.k = flags.GetInt("k", 3);
  Stopwatch watch;
  const CycleRewriter::Result result =
      rewriter.Rewrite(tokenizer.Tokenize(query), options);
  const double millis = watch.ElapsedMillis();

  if (flags.GetBool("titles", false)) {
    for (const DecodedSequence& t : result.synthetic_titles) {
      std::printf("title (%7.2f): %s\n", t.log_prob,
                  loaded.value().vocab.DecodeToString(t.ids).c_str());
    }
  }
  for (const RewriteCandidate& c : result.rewrites) {
    std::printf("rewrite (%7.2f): %s\n", c.log_prob,
                JoinStrings(c.tokens).c_str());
  }
  std::printf("(%.0f ms)\n", millis);
  return 0;
}

int Eval(const FlagParser& flags) {
  const std::string model_dir = flags.GetString("model");
  const std::string data_path = flags.GetString("data");
  if (model_dir.empty() || data_path.empty()) {
    std::fprintf(stderr,
                 "eval flags: --model MODEL_DIR --data pairs.tsv "
                 "[--limit N]\n");
    return 2;
  }
  Result<LoadedModel> loaded = LoadModel(model_dir);
  if (!loaded.ok()) return Fail(loaded.status());
  Result<std::vector<TokenPair>> pairs = LoadTokenPairs(data_path);
  if (!pairs.ok()) return Fail(pairs.status());

  std::vector<SeqPair> encoded =
      EncodePairs(pairs.value(), loaded.value().vocab);
  const int64_t limit = flags.GetInt("limit", 200);
  if (static_cast<int64_t>(encoded.size()) > limit) encoded.resize(limit);

  CycleTrainerOptions options;
  options.eval_queries = 32;
  CycleTrainer evaluator(loaded.value().model.get(), encoded, options);
  const TrainMetricsPoint point = evaluator.Evaluate(encoded);
  std::printf("pairs evaluated:            %zu\n", encoded.size());
  std::printf("query-to-title perplexity:  %.3f\n", point.q2t_perplexity);
  std::printf("title-to-query perplexity:  %.3f\n", point.t2q_perplexity);
  std::printf("query-to-title accuracy:    %.3f\n", point.q2t_accuracy);
  std::printf("title-to-query accuracy:    %.3f\n", point.t2q_accuracy);
  std::printf("translate-back log P(x|x):  %.3f\n",
              point.translate_back_log_prob);
  std::printf("translate-back accuracy:    %.3f\n",
              point.translate_back_accuracy);
  return 0;
}

/// Loads queries.tsv (as written by generate-data: "query\tkind"); only the
/// first tab field is used.
Result<std::vector<std::vector<std::string>>> LoadQueries(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  std::vector<std::vector<std::string>> queries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const size_t tab = line.find('\t');
    const std::string query =
        tab == std::string::npos ? line : line.substr(0, tab);
    std::vector<std::string> tokens = SplitString(query);
    if (!tokens.empty()) queries.push_back(std::move(tokens));
  }
  if (in.bad()) return Status::IoError("read error in " + path);
  return queries;
}

int Precompute(const FlagParser& flags) {
  const std::string model_dir = flags.GetString("model");
  const std::string queries_path = flags.GetString("queries");
  const std::string out_path = flags.GetString("out");
  if (model_dir.empty() || queries_path.empty() || out_path.empty()) {
    std::fprintf(stderr,
                 "precompute flags: --model MODEL_DIR --queries queries.tsv "
                 "--out kv.tsv [--limit N] [--k 3]\n");
    return 2;
  }
  Result<LoadedModel> loaded = LoadModel(model_dir);
  if (!loaded.ok()) return Fail(loaded.status());
  Result<std::vector<std::vector<std::string>>> queries =
      LoadQueries(queries_path);
  if (!queries.ok()) return Fail(queries.status());
  std::vector<std::vector<std::string>> head = std::move(queries).value();
  const int64_t limit = flags.GetInt("limit", 200);
  if (static_cast<int64_t>(head.size()) > limit) head.resize(limit);

  CycleRewriter rewriter(loaded.value().model.get(), &loaded.value().vocab);
  RewriteOptions options;
  options.k = flags.GetInt("k", 3);
  RewriteKvStore store;
  Stopwatch watch;
  RewriteService::PrecomputeHead(rewriter, head, options, &store);
  Status s = store.Save(out_path);
  if (!s.ok()) return Fail(s);
  std::printf("precomputed %zu head queries into %s in %.1fs\n",
              head.size(), out_path.c_str(), watch.ElapsedSeconds());
  return 0;
}

int ServeTraffic(const FlagParser& flags) {
  const std::string kv_path = flags.GetString("kv");
  const std::string queries_path = flags.GetString("queries");
  if (kv_path.empty() || queries_path.empty()) {
    std::fprintf(stderr,
                 "serve flags: --kv kv.tsv --queries queries.tsv "
                 "[--requests N] [--budget-ms 50] [--cache-error-p F] "
                 "[--cache-latency-p F] [--cache-latency-ms F] "
                 "[--fault-seed S] [--threads N] [--queue-depth D] "
                 "[--shed-policy reject|oldest] "
                 "[--metrics-out metrics.json] "
                 "[--metrics-prom metrics.prom] [--print-trace N] "
                 "[--introspect-port P] [--introspect-hold-ms MS] "
                 "[--flight-out flight.json]\n");
    return 2;
  }
  // Read every flag before any I/O, so an early load failure doesn't make
  // the unused-flag warning misreport flags that were never reached.
  FaultSpec cache_faults;
  cache_faults.error_probability = flags.GetDouble("cache-error-p", 0.0);
  cache_faults.error_code = StatusCode::kIoError;
  cache_faults.error_message = "injected cache outage";
  cache_faults.latency_probability =
      flags.GetDouble("cache-latency-p", 0.0);
  cache_faults.latency_millis = flags.GetDouble("cache-latency-ms", 20.0);
  const uint64_t fault_seed =
      static_cast<uint64_t>(flags.GetInt("fault-seed", 42));
  RewriteService::Options options;
  options.default_budget_millis = flags.GetDouble("budget-ms", 50.0);
  const int64_t requests = flags.GetInt("requests", 1000);
  const int64_t threads = flags.GetInt("threads", 0);
  const int64_t queue_depth = flags.GetInt("queue-depth", 64);
  const std::string shed_policy_text =
      flags.GetString("shed-policy", "reject");
  const std::string metrics_out = flags.GetString("metrics-out");
  const std::string metrics_prom = flags.GetString("metrics-prom");
  const int64_t print_trace = flags.GetInt("print-trace", 0);
  const int64_t introspect_port = flags.GetInt("introspect-port", -1);
  const int64_t introspect_hold_ms = flags.GetInt("introspect-hold-ms", 0);
  const std::string flight_out = flags.GetString("flight-out");
  ShedPolicy shed_policy = ShedPolicy::kRejectNewest;
  if (!ParseShedPolicy(shed_policy_text, &shed_policy)) {
    return Fail(Status::InvalidArgument("unknown --shed-policy '" +
                                        shed_policy_text +
                                        "' (use reject|oldest)"));
  }

  RewriteKvStore store;
  Status s = store.Load(kv_path);
  if (!s.ok()) return Fail(s);
  Result<std::vector<std::vector<std::string>>> queries =
      LoadQueries(queries_path);
  if (!queries.ok()) return Fail(queries.status());
  if (queries.value().empty()) {
    return Fail(Status::InvalidArgument("no queries in " + queries_path));
  }
  std::printf("kv snapshot: %zu records (checksum ok)\n", store.size());

  if (!flight_out.empty()) {
    // Arm the post-mortem dump: fault paths (and the server's drain) leave
    // the flight journal here; the clean path writes it explicitly below.
    FlightRecorder::Global().EnableCrashDump(flight_out);
  }
  if (introspect_port >= 0) {
    // Exemplars written to /metrics must resolve on /tracez, so the
    // service samples traces whenever the endpoint is up.
    options.trace_sampler = &TraceSampler::Global();
  }
  KvStoreBackend cache(&store);
  FaultyKvBackend faulty_cache(&cache, cache_faults, fault_seed);
  RewriteService service(&faulty_cache, nullptr, nullptr, options,
                         &MetricsRegistry::Global());

  std::unique_ptr<IntrospectionStack> introspection;
  if (introspect_port >= 0) {
    introspection = StartIntrospection(static_cast<int>(introspect_port),
                                       "cyqr_cli serve");
    if (introspection == nullptr) return 1;
    introspection->introspector->AddStatusSection(
        "subcommand", [] { return std::string("serve"); });
    // Breaker state reads an atomic; safe from endpoint threads.
    introspection->introspector->AddStatusSection(
        "breaker_state", [&service] {
          return std::string(
              CircuitBreaker::StateName(service.breaker().state()));
        });
  }

  if (threads > 0) {
    // Concurrent front end: --threads workers drain a bounded admission
    // queue; the same number of closed-loop client threads drives it.
    if (print_trace > 0) {
      std::fprintf(stderr,
                   "warning: --print-trace is ignored with --threads\n");
    }
    RewriteServer::Options server_options;
    server_options.num_threads = static_cast<int>(threads);
    server_options.queue_depth = static_cast<size_t>(queue_depth);
    server_options.shed_policy = shed_policy;
    server_options.default_budget_millis = options.default_budget_millis;
    RewriteServer server(&service, server_options,
                         &MetricsRegistry::Global());
    if (introspection != nullptr) {
      // Queue sections read relaxed atomics off the live server; the
      // endpoint is stopped before `server` leaves scope below.
      introspection->introspector->AddStatusSection(
          "queue_depth", [&server] {
            return std::to_string(server.QueueDepth());
          });
      introspection->introspector->AddStatusSection(
          "shed_total", [&server] {
            return std::to_string(server.shed_total());
          });
    }

    Histogram latency(Histogram::DefaultLatencyBoundsMillis());
    std::atomic<int64_t> by_source[4] = {};
    std::atomic<int64_t> next_request{0};
    std::vector<std::thread> clients;
    for (int64_t c = 0; c < threads; ++c) {
      clients.emplace_back([&]() {
        for (int64_t i = next_request.fetch_add(1);
             i < requests;
             i = next_request.fetch_add(1)) {
          const auto& query = queries.value()[static_cast<size_t>(i) %
                                              queries.value().size()];
          const Deadline deadline =
              options.default_budget_millis > 0
                  ? Deadline::AfterMillis(options.default_budget_millis)
                  : Deadline::Infinite();
          const auto out = server.ServeBlocking(query, deadline);
          if (out.status.ok()) {
            latency.Observe(out.total_millis);
            ++by_source[static_cast<int>(out.response.source)];
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    server.Drain();

    std::printf(
        "served %lld / shed %lld of %lld requests "
        "(%lld retries) under a %.0f ms budget\n",
        static_cast<long long>(server.served_total()),
        static_cast<long long>(server.shed_total()),
        static_cast<long long>(server.submitted_total()),
        static_cast<long long>(server.retries_total()),
        options.default_budget_millis);
    std::printf("workers %lld, queue depth %lld, shed policy %s\n",
                static_cast<long long>(threads),
                static_cast<long long>(queue_depth),
                ShedPolicyName(shed_policy));
    for (int i = 0; i < 4; ++i) {
      const int64_t answered = by_source[i].load();
      if (answered == 0) continue;
      std::printf("  %-12s %lld\n",
                  RewriteService::SourceName(
                      static_cast<RewriteService::Source>(i)),
                  static_cast<long long>(answered));
    }
    std::printf("latency:       p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
                latency.QuantileEstimate(0.5),
                latency.QuantileEstimate(0.99), latency.Max());
    if (!flight_out.empty()) {
      // Overwrites the drain-time dump with the full post-replay journal.
      const Status journal =
          FlightRecorder::Global().WriteJournal(flight_out);
      if (!journal.ok()) {
        std::fprintf(stderr, "warning: flight journal not written: %s\n",
                     journal.ToString().c_str());
      }
    }
    HoldIntrospection(introspection.get(), introspect_hold_ms);
    // The queue status sections capture `server` by reference; stop the
    // endpoint before it goes out of scope.
    if (introspection != nullptr) introspection->endpoint->Stop();
    return DumpMetricsFiles(metrics_out, metrics_prom);
  }

  Histogram latency(Histogram::DefaultLatencyBoundsMillis());
  int64_t by_source[4] = {0, 0, 0, 0};
  for (int64_t i = 0; i < requests; ++i) {
    const auto& query =
        queries.value()[static_cast<size_t>(i) % queries.value().size()];
    const Deadline deadline =
        options.default_budget_millis > 0
            ? Deadline::AfterMillis(options.default_budget_millis)
            : Deadline::Infinite();
    if (i < print_trace) {
      Trace trace;
      const auto response = service.Serve(query, deadline, &trace);
      latency.Observe(response.latency_millis);
      ++by_source[static_cast<int>(response.source)];
      std::printf("trace[%lld] %s: %s\n", static_cast<long long>(i),
                  JoinStrings(query).c_str(), trace.PathString().c_str());
      continue;
    }
    const auto response = service.Serve(query, deadline, nullptr);
    latency.Observe(response.latency_millis);
    ++by_source[static_cast<int>(response.source)];
  }
  std::printf("served %lld requests under a %.0f ms budget\n",
              static_cast<long long>(requests),
              options.default_budget_millis);
  for (int i = 0; i < 4; ++i) {
    if (by_source[i] == 0) continue;
    std::printf("  %-12s %lld\n",
                RewriteService::SourceName(
                    static_cast<RewriteService::Source>(i)),
                static_cast<long long>(by_source[i]));
  }
  std::printf("degraded:      %lld (%.1f%%)\n",
              static_cast<long long>(service.degraded_requests()),
              100.0 * service.degraded_requests() / requests);
  std::printf("latency:       p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
              latency.QuantileEstimate(0.5), latency.QuantileEstimate(0.99),
              latency.Max());
  if (!flight_out.empty()) {
    const Status journal = FlightRecorder::Global().WriteJournal(flight_out);
    if (!journal.ok()) {
      std::fprintf(stderr, "warning: flight journal not written: %s\n",
                   journal.ToString().c_str());
    }
  }
  HoldIntrospection(introspection.get(), introspect_hold_ms);
  return DumpMetricsFiles(metrics_out, metrics_prom);
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  FlagParser flags(argc - 1, argv + 1);
  int code;
  if (command == "generate-data") {
    code = GenerateData(flags);
  } else if (command == "train") {
    code = Train(flags);
  } else if (command == "rewrite") {
    code = Rewrite(flags);
  } else if (command == "eval") {
    code = Eval(flags);
  } else if (command == "precompute") {
    code = Precompute(flags);
  } else if (command == "serve") {
    code = ServeTraffic(flags);
  } else {
    return Usage();
  }
  for (const std::string& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "warning: unknown flag --%s ignored\n",
                 unused.c_str());
  }
  return code;
}

}  // namespace
}  // namespace cyqr

int main(int argc, char** argv) { return cyqr::Main(argc, argv); }

#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "nn/serialize.h"
#include "obs/metrics.h"

namespace cyqr::bench {

namespace {
constexpr char kCacheDir[] = "cyqr_bench_cache";
}  // namespace

BenchWorld BuildWorld(int64_t num_queries, int64_t num_sessions,
                      uint64_t seed) {
  BenchWorld world;
  world.catalog = Catalog::Generate({});
  ClickLogConfig log_config;
  log_config.num_distinct_queries = num_queries;
  log_config.num_sessions = num_sessions;
  log_config.seed = seed;
  world.click_log = ClickLog::Generate(world.catalog, log_config);
  world.token_pairs = world.click_log.TokenPairs(world.catalog);

  std::vector<std::vector<std::string>> corpus;
  for (const TokenPair& p : world.token_pairs) {
    corpus.push_back(p.query);
    corpus.push_back(p.title);
  }
  world.vocab = Vocabulary::Build(corpus);

  std::vector<SeqPair> all = EncodePairs(world.token_pairs, world.vocab);
  // 90/10 deterministic split.
  for (size_t i = 0; i < all.size(); ++i) {
    if (i % 10 == 9) {
      world.eval.push_back(std::move(all[i]));
    } else {
      world.train.push_back(std::move(all[i]));
    }
  }
  return world;
}

CycleConfig BenchCycleConfig(int64_t vocab_size, ArchType arch,
                             int64_t forward_layers) {
  CycleConfig config = PaperScaledConfig(vocab_size);
  config.arch = arch;
  config.forward.num_layers = forward_layers;
  return config;
}

CycleTrainerOptions BenchTrainerOptions(bool joint) {
  CycleTrainerOptions options;
  options.max_steps = 560;
  options.warmup_steps = joint ? 420 : 560;
  options.joint = joint;
  options.batch_size = 8;
  options.eval_every = 0;
  options.eval_queries = 24;
  return options;
}

std::unique_ptr<CycleModel> GetTrainedCycleModel(
    const BenchWorld& world, const CycleConfig& config, bool joint,
    const std::string& cache_key) {
  Rng rng(1234);
  auto model = std::make_unique<CycleModel>(config, rng);
  const std::string path = std::string(kCacheDir) + "/" + cache_key + "." +
                           kTrainingTrajectoryTag + ".params";
  if (std::filesystem::exists(path) &&
      LoadParametersFromFile(model->Parameters(), path).ok()) {
    std::printf("[bench] loaded cached model '%s'\n", cache_key.c_str());
    model->SetTraining(false);
    return model;
  }
  std::printf("[bench] training model '%s' (this runs once; cached in %s)\n",
              cache_key.c_str(), kCacheDir);
  CycleTrainer trainer(model.get(), world.train, BenchTrainerOptions(joint));
  const Status trained = trainer.Train({});
  if (!trained.ok()) {
    std::fprintf(stderr, "[bench] training '%s' failed: %s\n",
                 cache_key.c_str(), trained.ToString().c_str());
    std::exit(1);
  }
  model->SetTraining(false);
  std::error_code ec;
  std::filesystem::create_directories(kCacheDir, ec);
  if (!ec) {
    const Status saved = SaveParametersToFile(model->Parameters(), path);
    if (!saved.ok()) {
      std::fprintf(stderr, "[bench] model cache write failed: %s\n",
                   saved.ToString().c_str());
    }
  }
  return model;
}

std::vector<std::vector<std::string>> ModelRewrites(
    const CycleRewriter& rewriter, const std::vector<std::string>& query,
    int64_t k) {
  RewriteOptions options;
  options.k = k;
  std::vector<std::vector<std::string>> out;
  for (const RewriteCandidate& c : rewriter.Rewrite(query, options).rewrites) {
    out.push_back(c.tokens);
  }
  return out;
}

std::vector<QuerySpec> HardQueries(const BenchWorld& world, size_t n,
                                   uint64_t seed) {
  std::vector<QuerySpec> out;
  Rng rng(seed);
  const auto& queries = world.click_log.queries();
  std::vector<size_t> order = rng.Permutation(queries.size());
  for (size_t i : order) {
    if (!queries[i].is_colloquial) continue;
    out.push_back(queries[i]);
    if (out.size() >= n) break;
  }
  return out;
}

std::string Row(const std::vector<std::string>& cells, int width) {
  std::string out;
  for (const std::string& cell : cells) {
    std::string padded = cell;
    if (static_cast<int>(padded.size()) < width) {
      padded.append(width - padded.size(), ' ');
    }
    out += padded;
    out += ' ';
  }
  return out;
}

Status DumpMetrics(const std::string& path) {
  return MetricsRegistry::Global().WriteJsonSnapshot(path);
}

}  // namespace cyqr::bench

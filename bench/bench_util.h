#ifndef CYCLEQR_BENCH_BENCH_UTIL_H_
#define CYCLEQR_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "datagen/click_log.h"
#include "datagen/query_pairs.h"
#include "datagen/synonyms.h"
#include "rewrite/inference.h"
#include "rewrite/trainer.h"

namespace cyqr::bench {

/// The shared synthetic world every bench harness runs on. Deterministic:
/// same seeds -> same catalog, click log, vocabulary and train/eval split.
struct BenchWorld {
  Catalog catalog;
  ClickLog click_log;
  Vocabulary vocab;
  std::vector<TokenPair> token_pairs;
  std::vector<SeqPair> train;
  std::vector<SeqPair> eval;
};

/// Builds the default bench world (~800 distinct queries, 40k sessions).
BenchWorld BuildWorld(int64_t num_queries = 800, int64_t num_sessions = 40000,
                      uint64_t seed = 11);

/// The bench-scale cycle configuration: the paper's 4/1-layer shape is kept
/// for the flagship convergence bench; other benches use 2 forward layers.
CycleConfig BenchCycleConfig(int64_t vocab_size,
                             ArchType arch = ArchType::kTransformer,
                             int64_t forward_layers = 2);

/// Default Algorithm 1 schedule used by the benches.
CycleTrainerOptions BenchTrainerOptions(bool joint);

/// Names the training trajectory the cached models were trained on; it is
/// part of every cache file name. Bump it with any change that moves the
/// training bits (the engine, its random streams, an op's arithmetic), so
/// a cache directory from before the change retrains instead of loading a
/// model the current code would not train.
inline constexpr char kTrainingTrajectoryTag[] = "dp-engine-1";

/// Returns a trained cycle model, loading cached parameters from
/// cyqr_bench_cache/<cache_key>.<kTrainingTrajectoryTag>.params when
/// present (training results are deterministic, so the cache is exact).
/// Delete the directory to retrain.
std::unique_ptr<CycleModel> GetTrainedCycleModel(
    const BenchWorld& world, const CycleConfig& config, bool joint,
    const std::string& cache_key);

/// Rewrites for one query through the full Figure 3 pipeline; convenience
/// wrapper returning token vectors.
std::vector<std::vector<std::string>> ModelRewrites(
    const CycleRewriter& rewriter, const std::vector<std::string>& query,
    int64_t k = 3);

/// Picks `n` distinct colloquial ("hard") queries from the world's log.
std::vector<QuerySpec> HardQueries(const BenchWorld& world, size_t n,
                                   uint64_t seed = 17);

/// Renders a row of fixed-width columns.
std::string Row(const std::vector<std::string>& cells, int width = 14);

/// Writes the global metrics registry as a JSON snapshot to `path` (the
/// `BENCH_*.json` artifact emitter; CI validates the file with
/// scripts/check_metrics_json.sh).
[[nodiscard]] Status DumpMetrics(const std::string& path);

}  // namespace cyqr::bench

#endif  // CYCLEQR_BENCH_BENCH_UTIL_H_

#ifndef CYCLEQR_BENCH_E2E_WORLD_H_
#define CYCLEQR_BENCH_E2E_WORLD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "datagen/catalog.h"
#include "datagen/click_log.h"
#include "nmt/scorer.h"
#include "rewrite/cycle_model.h"
#include "rewrite/direct_model.h"
#include "text/vocabulary.h"

namespace cyqr::e2e {

/// Every input the benchmark runs on is built here from the workload seed
/// and fixed constants; nothing is read from disk or shared with
/// the other bench harnesses, so a parent commit's parameters can never
/// leak into a child's run.
///
/// `smoke` shrinks the world and the training schedules so the ctest smoke
/// run finishes in seconds; measured runs never set it.
struct Scale {
  int64_t distinct_queries = 1200;
  int64_t sessions = 60000;
  int64_t direct_steps = 200;  // Supervised steps of the direct model.
  int64_t joint_steps = 200;   // Algorithm 1 steps of the precompute model.
  int64_t joint_warmup = 180;
  int setup_repeats = 5;       // Serving and precompute set-ups per run.
};
Scale ScaleFor(bool smoke);

/// Independent random streams derived from the workload seed; `index`
/// splits a stream further (one sampling seed per precomputed query).
enum class Stream : uint64_t {
  kArrivals = 1,
  kQueries = 2,
  kTrainer = 3,
};
uint64_t StreamSeed(uint64_t seed, Stream stream, uint64_t index = 0);

struct World {
  Catalog catalog;
  ClickLog log;
  Vocabulary vocab;
  std::vector<SeqPair> pairs;  // Query -> clicked title, vocabulary ids.
};

/// The catalog and click log, from fixed seeds. The workload seed picks the
/// traffic, never the world: models trained on different click logs
/// decode titles of different lengths, which moved precompute throughput
/// by a third between seeds and would hide any change to the code.
World BuildWorld(const Scale& scale);

/// The serving fallback: a hybrid (transformer encoder + RNN decoder)
/// direct model trained supervised on synonymous query pairs mined from
/// the click log, from a fixed init seed.
std::unique_ptr<DirectRewriter> TrainDirectModel(const World& world,
                                                 const Scale& scale);

/// A cycle model in the paper's 4-layer / 1-layer transformer shape. Owns
/// the Rng its dropout layers keep drawing from.
struct JointModel {
  std::unique_ptr<Rng> rng;
  std::unique_ptr<CycleModel> model;
};
JointModel NewJointModel(const World& world);

/// NewJointModel trained with Algorithm 1 on `world.pairs` for the
/// precompute workload's fixed schedule (`scale.joint_steps`, of which
/// `scale.joint_warmup` are warm-up steps), then frozen for inference.
[[nodiscard]] Status TrainJointModel(const World& world, const Scale& scale,
                                     JointModel* out);

/// Every parameter value in order, for checking that repeated set-ups
/// built bit-identical models.
std::vector<float> FlatParameters(const std::vector<Tensor>& params);

/// Query indices with distinct surface forms, most popular first.
std::vector<int64_t> QueriesByPopularity(const World& world);

}  // namespace cyqr::e2e

#endif  // CYCLEQR_BENCH_E2E_WORLD_H_

#include "bench/e2e/world.h"

#include <set>

#include "core/string_util.h"
#include "datagen/query_pairs.h"
#include "datagen/traffic.h"
#include "rewrite/config.h"
#include "rewrite/trainer.h"

namespace cyqr::e2e {
namespace {

constexpr uint64_t kClickLogSeed = 11;
constexpr uint64_t kDirectInitSeed = 42;
constexpr uint64_t kJointInitSeed = 1234;
constexpr int64_t kMinSharedClicks = 3;

}  // namespace

Scale ScaleFor(bool smoke) {
  Scale scale;
  if (smoke) {
    scale.distinct_queries = 200;
    scale.sessions = 4000;
    scale.direct_steps = 20;
    scale.joint_steps = 12;
    scale.joint_warmup = 10;
    scale.setup_repeats = 1;
  }
  return scale;
}

uint64_t StreamSeed(uint64_t seed, Stream stream, uint64_t index) {
  return Rng::DeriveStreamSeed(seed, static_cast<uint64_t>(stream), index);
}

World BuildWorld(const Scale& scale) {
  World world;
  world.catalog = Catalog::Generate({});
  ClickLogConfig config;
  config.num_distinct_queries = scale.distinct_queries;
  config.num_sessions = scale.sessions;
  config.seed = kClickLogSeed;
  world.log = ClickLog::Generate(world.catalog, config);
  const std::vector<TokenPair> token_pairs =
      world.log.TokenPairs(world.catalog);
  std::vector<std::vector<std::string>> corpus;
  for (const TokenPair& p : token_pairs) {
    corpus.push_back(p.query);
    corpus.push_back(p.title);
  }
  world.vocab = Vocabulary::Build(corpus);
  world.pairs = EncodePairs(token_pairs, world.vocab);
  return world;
}

std::unique_ptr<DirectRewriter> TrainDirectModel(const World& world,
                                                 const Scale& scale) {
  Seq2SeqConfig config;
  config.vocab_size = world.vocab.size();
  config.d_model = 32;
  config.num_heads = 2;
  config.ff_hidden = 64;
  config.num_layers = 1;
  Rng rng(kDirectInitSeed);
  auto direct = std::make_unique<DirectRewriter>(DirectArch::kHybrid, config,
                                                 &world.vocab, rng);
  const std::vector<SeqPair> pairs = EncodeQueryPairs(
      MineSynonymousQueryPairs(world.log, kMinSharedClicks), world.vocab);
  SupervisedTrainOptions options;
  options.max_steps = scale.direct_steps;
  TrainSupervised(direct->model(), pairs, options);
  direct->model().SetTraining(false);
  return direct;
}

JointModel NewJointModel(const World& world) {
  JointModel joint;
  joint.rng = std::make_unique<Rng>(kJointInitSeed);
  joint.model = std::make_unique<CycleModel>(
      PaperScaledConfig(world.vocab.size()), *joint.rng);
  return joint;
}

Status TrainJointModel(const World& world, const Scale& scale,
                       JointModel* out) {
  *out = NewJointModel(world);
  CycleTrainerOptions options;
  options.max_steps = scale.joint_steps;
  options.warmup_steps = scale.joint_warmup;
  options.batch_size = 8;
  options.eval_every = 0;
  // Parameters do not depend on the worker count, only on grad_shards.
  options.workers = 4;
  options.grad_shards = 4;
  CycleTrainer trainer(out->model.get(), world.pairs, options);
  CYQR_RETURN_IF_ERROR(trainer.Train({}));
  out->model->SetTraining(false);
  return Status::OK();
}

std::vector<float> FlatParameters(const std::vector<Tensor>& params) {
  std::vector<float> flat;
  for (const Tensor& p : params) {
    flat.insert(flat.end(), p.data(), p.data() + p.NumElements());
  }
  return flat;
}

std::vector<int64_t> QueriesByPopularity(const World& world) {
  const TrafficSampler traffic(&world.log);
  std::set<std::string> seen;
  std::vector<int64_t> out;
  // A fraction above 1 walks the whole popularity order.
  for (const int64_t q : traffic.HeadQueries(2.0)) {
    if (seen.insert(JoinStrings(world.log.queries()[q].tokens)).second) {
      out.push_back(q);
    }
  }
  return out;
}

}  // namespace cyqr::e2e

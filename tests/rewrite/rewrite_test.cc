// Core-contribution tests: the cycle model, Algorithm 1, and the Figure 3
// inference pipeline on a miniature synthetic world.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>

#include "rewrite/direct_model.h"
#include "rewrite/inference.h"
#include <sstream>

#include "nn/serialize.h"
#include "rewrite/trainer.h"

namespace cyqr {
namespace {

/// A deliberately tiny world: queries {a b, c d} map to titles in a small
/// shared vocabulary, enough for a 1-layer model to learn in ~100 steps.
struct TinyWorld {
  Vocabulary vocab;
  std::vector<SeqPair> pairs;
};

TinyWorld MakeTinyWorld() {
  TinyWorld world;
  const std::vector<std::vector<std::string>> corpus = {
      {"cheap", "phone"},  {"brandx", "model1", "smartphone", "budget"},
      {"senior", "phone"}, {"brandx", "model2", "smartphone", "elderly"},
      {"gift", "watch"},   {"brandy", "luxury", "wrist", "watch"},
  };
  world.vocab = Vocabulary::Build(corpus);
  for (size_t i = 0; i + 1 < corpus.size(); i += 2) {
    world.pairs.push_back({world.vocab.Encode(corpus[i]),
                           world.vocab.Encode(corpus[i + 1])});
  }
  return world;
}

CycleConfig TinyConfig(int64_t vocab_size) {
  CycleConfig config = PaperScaledConfig(vocab_size);
  config.forward.num_layers = 1;
  config.forward.d_model = 16;
  config.forward.ff_hidden = 32;
  config.backward.num_layers = 1;
  config.backward.d_model = 16;
  config.backward.ff_hidden = 32;
  config.backward.vocab_size = vocab_size;
  config.max_title_len = 8;
  config.max_query_len = 6;
  return config;
}

TEST(ConfigTest, PaperScaledShape) {
  CycleConfig config = PaperScaledConfig(500);
  EXPECT_EQ(config.forward.num_layers, 4);
  EXPECT_EQ(config.backward.num_layers, 1);
  EXPECT_FLOAT_EQ(config.lambda, 0.1f);
  EXPECT_EQ(config.beam_width, 3);
  EXPECT_EQ(config.top_n, 40);
  const std::string table = ConfigTable(config);
  EXPECT_NE(table.find("lambda"), std::string::npos);
  EXPECT_NE(table.find("500"), std::string::npos);
}

TEST(ConfigTest, SaveLoadRoundTrip) {
  CycleConfig config = PaperScaledConfig(321);
  config.forward.num_layers = 3;
  config.lambda = 0.25f;
  config.beam_width = 5;
  config.arch = ArchType::kAttentionRnn;
  const std::string path = testing::TempDir() + "/config.txt";
  ASSERT_TRUE(SaveCycleConfig(config, path).ok());
  Result<CycleConfig> loaded = LoadCycleConfig(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().forward.vocab_size, 321);
  EXPECT_EQ(loaded.value().forward.num_layers, 3);
  EXPECT_EQ(loaded.value().backward.num_layers, 1);
  EXPECT_FLOAT_EQ(loaded.value().lambda, 0.25f);
  EXPECT_EQ(loaded.value().beam_width, 5);
  EXPECT_EQ(loaded.value().arch, ArchType::kAttentionRnn);
}

TEST(ConfigTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadCycleConfig("/nonexistent/config.txt").ok());
}

TEST(ConfigTest, EveryBadLineIsAnInvalidArgumentNamingItsKey) {
  const std::string good = testing::TempDir() + "/good_config.txt";
  ASSERT_TRUE(SaveCycleConfig(PaperScaledConfig(321), good).ok());
  std::ifstream in(good);
  ASSERT_TRUE(in.is_open());
  const std::string saved((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_TRUE(LoadCycleConfig(good).ok());
  // Each line overrides its key in a copy of the good file.
  const std::vector<std::string> bad_lines = {
      "forward.vocab_size=abc",  "forward.vocab_size=1e400",
      "forward.vocab_size=",     "forward.vocab_size=12x",
      "forward.vocab_size=1.5",  "forward.vocab_size=0",
      "forward.vocab_size=-3",   "forward.vocab_size=99999999999999999999",
      "backward.vocab_size=abc", "forward.d_model=1000000",
      "forward.num_heads=0",     "forward.num_heads=3",
      "forward.ff_hidden=0",     "backward.num_layers=65",
      "forward.dropout=1",       "forward.dropout=-0.1",
      "forward.dropout=nan",     "backward.dropout=inf",
      "backward.dropout=1e400",  "lambda=abc",
      "lambda=nan",              "lambda=1e39",
      "arch=bogus",              "arch=",
      "beam_width=0",            "top_n=-1",
      "max_title_len=5000",      "max_query_len=x",
  };
  for (size_t i = 0; i < bad_lines.size(); ++i) {
    const std::string& line = bad_lines[i];
    const std::string path =
        testing::TempDir() + "/bad_config_" + std::to_string(i) + ".txt";
    std::ofstream out(path);
    out << saved << line << '\n';
    out.close();
    ASSERT_TRUE(out.good()) << path;
    const Result<CycleConfig> loaded = LoadCycleConfig(path);
    ASSERT_FALSE(loaded.ok()) << line;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << line;
    const std::string key = line.substr(0, line.find('='));
    EXPECT_NE(loaded.status().message().find(key), std::string::npos)
        << line << ": " << loaded.status().message();
  }
}

TEST(CycleModelTest, ParametersCombineBothModels) {
  TinyWorld world = MakeTinyWorld();
  Rng rng(1);
  CycleModel model(TinyConfig(world.vocab.size()), rng);
  EXPECT_EQ(model.Parameters().size(),
            model.forward().Parameters().size() +
                model.backward().Parameters().size());
}

TEST(CycleTrainerTest, WarmupLossDecreases) {
  TinyWorld world = MakeTinyWorld();
  Rng rng(2);
  CycleModel model(TinyConfig(world.vocab.size()), rng);
  CycleTrainerOptions options;
  options.max_steps = 80;
  options.warmup_steps = 80;
  options.batch_size = 3;
  options.grad_shards = 1;
  options.eval_every = 0;
  CycleTrainer trainer(&model, world.pairs, options);
  double first = 0.0;
  double last = 0.0;
  for (int i = 0; i < 80; ++i) {
    const double loss = trainer.StepOnce();
    if (i == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first * 0.7);
  EXPECT_EQ(trainer.step(), 80);
}

TEST(CycleTrainerTest, CyclicPhaseRunsAndStaysFinite) {
  TinyWorld world = MakeTinyWorld();
  Rng rng(3);
  CycleModel model(TinyConfig(world.vocab.size()), rng);
  CycleTrainerOptions options;
  options.max_steps = 70;
  options.warmup_steps = 50;
  options.batch_size = 3;
  options.grad_shards = 1;
  options.eval_every = 0;
  CycleTrainer trainer(&model, world.pairs, options);
  ASSERT_TRUE(trainer.Train({}).ok());
  // One more joint step directly; it must produce a finite loss.
  const double loss = trainer.StepOnce();
  EXPECT_TRUE(std::isfinite(loss));
}

/// A world where translating back is genuinely ambiguous: two queries
/// share a clicked title, so the backward model cannot be perfect from
/// supervision alone — the regime where the cyclic term matters.
TinyWorld MakeAmbiguousWorld() {
  TinyWorld world;
  const std::vector<std::vector<std::string>> corpus = {
      {"cheap", "phone"},   {"brandx", "model1", "smartphone", "budget"},
      {"budget", "phone"},  {"brandx", "model1", "smartphone", "budget"},
      {"senior", "phone"},  {"brandx", "model2", "smartphone", "elderly"},
      {"elderly", "phone"}, {"brandx", "model2", "smartphone", "elderly"},
      {"gift", "watch"},    {"brandy", "luxury", "wrist", "watch"},
      {"luxury", "watch"},  {"brandy", "luxury", "wrist", "watch"},
  };
  world.vocab = Vocabulary::Build(corpus);
  for (size_t i = 0; i + 1 < corpus.size(); i += 2) {
    world.pairs.push_back({world.vocab.Encode(corpus[i]),
                           world.vocab.Encode(corpus[i + 1])});
  }
  return world;
}

TEST(CycleTrainerTest, JointTrainingBeatsSeparateOnTranslateBack) {
  // The core claim of Figure 7: continuing training WITH the cyclic term
  // yields better translate-back log probability than continuing WITHOUT
  // it from the same warmup checkpoint.
  TinyWorld world = MakeAmbiguousWorld();
  const CycleConfig config = TinyConfig(world.vocab.size());
  Rng rng(4);
  CycleModel warm(config, rng);
  CycleTrainerOptions warmup_options;
  warmup_options.max_steps = 80;
  warmup_options.warmup_steps = 80;
  warmup_options.batch_size = 4;
  warmup_options.eval_every = 0;
  warmup_options.eval_queries = 6;
  CycleTrainer warmup_trainer(&warm, world.pairs, warmup_options);
  ASSERT_TRUE(warmup_trainer.Train({}).ok());

  // Fork the checkpoint into two identical models.
  std::stringstream checkpoint;
  ASSERT_TRUE(SaveParameters(warm.Parameters(), checkpoint).ok());
  Rng rng_a(5);
  Rng rng_b(6);
  CycleModel separate(config, rng_a);
  CycleModel joint(config, rng_b);
  {
    std::stringstream a(checkpoint.str());
    ASSERT_TRUE(LoadParameters(separate.Parameters(), a).ok());
    std::stringstream b(checkpoint.str());
    ASSERT_TRUE(LoadParameters(joint.Parameters(), b).ok());
  }

  CycleTrainerOptions continue_options = warmup_options;
  continue_options.max_steps = 60;
  continue_options.seed = 999;  // Same batches for both arms.
  continue_options.warmup_steps = 80;  // Separate arm: never cyclic.
  continue_options.joint = false;
  CycleTrainer separate_trainer(&separate, world.pairs, continue_options);
  ASSERT_TRUE(separate_trainer.Train({}).ok());

  continue_options.joint = true;
  continue_options.warmup_steps = 0;  // Joint arm: cyclic from step 1.
  CycleTrainer joint_trainer(&joint, world.pairs, continue_options);
  ASSERT_TRUE(joint_trainer.Train({}).ok());

  separate.SetTraining(false);
  joint.SetTraining(false);
  CycleTrainer sep_eval(&separate, world.pairs, continue_options);
  CycleTrainer joint_eval(&joint, world.pairs, continue_options);
  const double sep_lp =
      sep_eval.Evaluate(world.pairs).translate_back_log_prob;
  const double joint_lp =
      joint_eval.Evaluate(world.pairs).translate_back_log_prob;
  EXPECT_GT(joint_lp, sep_lp);
}

TEST(CycleTrainerTest, CurveIsRecordedAtEvalInterval) {
  TinyWorld world = MakeTinyWorld();
  Rng rng(5);
  CycleModel model(TinyConfig(world.vocab.size()), rng);
  CycleTrainerOptions options;
  options.max_steps = 40;
  options.warmup_steps = 40;
  options.batch_size = 3;
  options.grad_shards = 1;
  options.eval_every = 20;
  options.eval_queries = 2;
  CycleTrainer trainer(&model, world.pairs, options);
  ASSERT_TRUE(trainer.Train(world.pairs).ok());
  ASSERT_EQ(trainer.curve().size(), 2u);
  EXPECT_EQ(trainer.curve()[0].step, 20);
  EXPECT_EQ(trainer.curve()[1].step, 40);
  EXPECT_GT(trainer.curve()[0].q2t_perplexity, 1.0);
}

TEST(EncodePairsTest, RoundTripsThroughVocabulary) {
  TinyWorld world = MakeTinyWorld();
  std::vector<TokenPair> token_pairs = {
      {{"cheap", "phone"}, {"brandx", "smartphone"}, 3}};
  const auto encoded = EncodePairs(token_pairs, world.vocab);
  ASSERT_EQ(encoded.size(), 1u);
  EXPECT_EQ(world.vocab.DecodeToString(encoded[0].src), "cheap phone");
  EXPECT_EQ(world.vocab.DecodeToString(encoded[0].tgt),
            "brandx smartphone");
}

TEST(EncodeQueryPairsTest, EmitsBothDirections) {
  TinyWorld world = MakeTinyWorld();
  std::vector<QueryPair> pairs = {
      {{"cheap", "phone"}, {"senior", "phone"}, 5}};
  const auto encoded = EncodeQueryPairs(pairs, world.vocab);
  ASSERT_EQ(encoded.size(), 2u);
  EXPECT_EQ(encoded[0].src, encoded[1].tgt);
  EXPECT_EQ(encoded[0].tgt, encoded[1].src);
}

class TrainedCycleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = std::make_unique<TinyWorld>(MakeTinyWorld());
    Rng rng(6);
    model_ = std::make_unique<CycleModel>(TinyConfig(world_->vocab.size()), rng);
    CycleTrainerOptions options;
    options.max_steps = 220;
    options.warmup_steps = 160;
    options.batch_size = 3;
    options.grad_shards = 1;
    options.eval_every = 0;
    CycleTrainer trainer(model_.get(), world_->pairs, options);
    ASSERT_TRUE(trainer.Train({}).ok());
    model_->SetTraining(false);
  }
  static void TearDownTestSuite() {
    model_.reset();
    world_.reset();
  }
  static std::unique_ptr<TinyWorld> world_;
  static std::unique_ptr<CycleModel> model_;
};

std::unique_ptr<TinyWorld> TrainedCycleTest::world_;
std::unique_ptr<CycleModel> TrainedCycleTest::model_;

TEST_F(TrainedCycleTest, RewriteReturnsAtMostKSortedCandidates) {
  CycleRewriter rewriter(model_.get(), &world_->vocab);
  RewriteOptions options;
  options.k = 3;
  options.max_title_len = 8;
  options.max_query_len = 6;
  const auto result = rewriter.Rewrite({"cheap", "phone"}, options);
  EXPECT_LE(result.rewrites.size(), 3u);
  EXPECT_LE(result.synthetic_titles.size(), 3u);
  for (size_t i = 1; i < result.rewrites.size(); ++i) {
    EXPECT_GE(result.rewrites[i - 1].log_prob,
              result.rewrites[i].log_prob);
  }
}

TEST_F(TrainedCycleTest, OriginalQueryIsFilteredOut) {
  CycleRewriter rewriter(model_.get(), &world_->vocab);
  RewriteOptions options;
  options.k = 3;
  const std::vector<int32_t> query =
      world_->vocab.Encode({"cheap", "phone"});
  const auto result = rewriter.RewriteIds(query, options);
  for (const RewriteCandidate& c : result.rewrites) {
    EXPECT_NE(c.ids, query);
  }
}

TEST_F(TrainedCycleTest, KeepOriginalOptionAllowsIdentity) {
  CycleRewriter rewriter(model_.get(), &world_->vocab);
  RewriteOptions options;
  options.k = 6;
  options.keep_original = true;
  options.seed = 13;
  const std::vector<int32_t> query =
      world_->vocab.Encode({"cheap", "phone"});
  const auto result = rewriter.RewriteIds(query, options);
  // With the trained tiny model, translating back to the original query is
  // likely enough that it appears among candidates when not filtered.
  bool found_original = false;
  for (const RewriteCandidate& c : result.rewrites) {
    if (c.ids == query) found_original = true;
  }
  EXPECT_TRUE(found_original);
}

TEST_F(TrainedCycleTest, RewriteIsDeterministicPerSeed) {
  CycleRewriter rewriter(model_.get(), &world_->vocab);
  RewriteOptions options;
  options.seed = 31;
  const auto a = rewriter.Rewrite({"senior", "phone"}, options);
  const auto b = rewriter.Rewrite({"senior", "phone"}, options);
  ASSERT_EQ(a.rewrites.size(), b.rewrites.size());
  for (size_t i = 0; i < a.rewrites.size(); ++i) {
    EXPECT_EQ(a.rewrites[i].ids, b.rewrites[i].ids);
  }
}

TEST(DirectRewriterTest, TrainsAndRewrites) {
  TinyWorld world = MakeTinyWorld();
  // Synonymous pairs: cheap phone <-> senior phone (toy).
  std::vector<SeqPair> pairs = {
      {world.vocab.Encode({"cheap", "phone"}),
       world.vocab.Encode({"budget", "phone"})},
      {world.vocab.Encode({"budget", "phone"}),
       world.vocab.Encode({"cheap", "phone"})},
  };
  Seq2SeqConfig config;
  config.vocab_size = world.vocab.size();
  config.d_model = 16;
  config.num_heads = 2;
  config.ff_hidden = 32;
  config.num_layers = 1;
  Rng rng(7);
  DirectRewriter rewriter(DirectArch::kHybrid, config, &world.vocab, rng);
  SupervisedTrainOptions options;
  options.max_steps = 200;
  options.batch_size = 2;
  TrainSupervised(rewriter.model(), pairs, options);
  rewriter.model().SetTraining(false);
  const auto rewrites = rewriter.Rewrite({"cheap", "phone"}, 2);
  ASSERT_FALSE(rewrites.empty());
  // Identity is filtered.
  for (const auto& r : rewrites) {
    EXPECT_NE(r.tokens, (std::vector<std::string>{"cheap", "phone"}));
  }
  // The learned synonym should be the top rewrite.
  EXPECT_EQ(rewrites[0].tokens,
            (std::vector<std::string>{"budget", "phone"}));
}

TEST(DirectArchTest, AllArchitecturesConstruct) {
  TinyWorld world = MakeTinyWorld();
  Seq2SeqConfig config;
  config.vocab_size = world.vocab.size();
  config.d_model = 16;
  config.num_heads = 2;
  config.ff_hidden = 32;
  config.num_layers = 1;
  for (DirectArch arch : {DirectArch::kPureRnn, DirectArch::kHybrid,
                          DirectArch::kTransformer}) {
    Rng rng(8);
    DirectRewriter rewriter(arch, config, &world.vocab, rng);
    rewriter.model().SetTraining(false);
    EXPECT_NO_FATAL_FAILURE(rewriter.Rewrite({"cheap", "phone"}, 2));
  }
}

}  // namespace
}  // namespace cyqr

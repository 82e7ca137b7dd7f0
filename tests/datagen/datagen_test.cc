#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "core/checksum.h"
#include "core/string_util.h"
#include "datagen/click_log.h"
#include "datagen/query_pairs.h"
#include "datagen/synonyms.h"
#include "datagen/traffic.h"

namespace cyqr {
namespace {

class DatagenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = std::make_unique<Catalog>(Catalog::Generate({}));
    ClickLogConfig config;
    config.num_distinct_queries = 300;
    config.num_sessions = 8000;
    log_ = std::make_unique<ClickLog>(ClickLog::Generate(*catalog_, config));
  }
  static void TearDownTestSuite() {
    log_.reset();
    catalog_.reset();
  }
  static std::unique_ptr<Catalog> catalog_;
  static std::unique_ptr<ClickLog> log_;
};

std::unique_ptr<Catalog> DatagenTest::catalog_;
std::unique_ptr<ClickLog> DatagenTest::log_;

TEST_F(DatagenTest, CatalogHasProductsInEveryCategory) {
  std::set<std::string> categories;
  for (const Product& p : catalog_->products()) {
    categories.insert(p.category);
    EXPECT_FALSE(p.title_tokens.empty());
    EXPECT_GT(p.price, 0.0);
    EXPECT_GT(p.quality, 0.0);
  }
  EXPECT_EQ(categories.size(), catalog_->categories().size());
}

TEST_F(DatagenTest, TitlesAreMuchLongerThanQueries) {
  // The Table I shape: titles ~8x longer than queries.
  const DatasetStats stats = log_->Stats(*catalog_);
  EXPECT_GT(stats.avg_title_words, 3.0 * stats.avg_query_words);
  EXPECT_GT(stats.avg_query_words, 1.5);
}

TEST_F(DatagenTest, GenerationIsDeterministic) {
  Catalog again = Catalog::Generate({});
  ASSERT_EQ(again.products().size(), catalog_->products().size());
  EXPECT_EQ(again.products()[5].title_tokens,
            catalog_->products()[5].title_tokens);
}

TEST_F(DatagenTest, CanonicalQueryParsesBackToSameIntent) {
  Rng rng(77);
  for (int i = 0; i < 50; ++i) {
    const QuerySpec spec = catalog_->SampleQuery(rng);
    const std::vector<std::string> canonical =
        catalog_->CanonicalQueryTokens(spec.intent);
    const QueryIntent parsed = catalog_->ParseQuery(canonical);
    EXPECT_EQ(parsed.category, spec.intent.category)
        << JoinStrings(canonical);
    EXPECT_EQ(parsed.brand, spec.intent.brand) << JoinStrings(canonical);
  }
}

TEST_F(DatagenTest, ColloquialSurfaceStillParsable) {
  // The ontology-aware parser resolves colloquial phrases, so even hard
  // queries should usually recover their category.
  Rng rng(78);
  int parsed_ok = 0;
  int total = 0;
  for (int i = 0; i < 100; ++i) {
    const QuerySpec spec = catalog_->SampleQuery(rng);
    if (!spec.is_colloquial) continue;
    ++total;
    if (catalog_->ParseQuery(spec.tokens).category == spec.intent.category) {
      ++parsed_ok;
    }
  }
  ASSERT_GT(total, 10);
  EXPECT_GT(static_cast<double>(parsed_ok) / total, 0.8);
}

TEST_F(DatagenTest, MatchScoreRespectsBrandAndCategory) {
  const Product& p = catalog_->products()[0];
  QueryIntent intent;
  intent.category = p.category;
  EXPECT_GT(catalog_->MatchScore(intent, p), 0.0);
  intent.brand = p.brand;
  EXPECT_GT(catalog_->MatchScore(intent, p), 0.0);
  intent.brand = "nonexistent-brand";
  EXPECT_EQ(catalog_->MatchScore(intent, p), 0.0);
  intent.brand.clear();
  intent.category = "nonexistent-category";
  EXPECT_EQ(catalog_->MatchScore(intent, p), 0.0);
}

TEST_F(DatagenTest, MatchScoreRewardsAttributeOverlap) {
  const Product& p = catalog_->products()[0];
  QueryIntent base;
  base.category = p.category;
  QueryIntent with_attr = base;
  ASSERT_FALSE(p.attributes.empty());
  with_attr.attributes.push_back(p.attributes[0]);
  EXPECT_GT(catalog_->MatchScore(with_attr, p),
            catalog_->MatchScore(base, p));
}

TEST_F(DatagenTest, ClickPairsRespectMinClicks) {
  for (const ClickPair& p : log_->pairs()) {
    EXPECT_GE(p.clicks, 2);
  }
  EXPECT_GT(log_->pairs().size(), 100u);
}

TEST_F(DatagenTest, ClickedProductsMatchQueryIntent) {
  for (const ClickPair& p : log_->pairs()) {
    const QuerySpec& q = log_->queries()[p.query_index];
    EXPECT_GT(catalog_->MatchScore(q.intent, catalog_->product(p.product_id)),
              0.0);
  }
}

TEST_F(DatagenTest, PopularityIsNormalized) {
  double total = 0.0;
  for (double p : log_->query_popularity()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(DatagenTest, TokenPairsAlignWithClickPairs) {
  const auto pairs = log_->TokenPairs(*catalog_);
  ASSERT_EQ(pairs.size(), log_->pairs().size());
  EXPECT_EQ(pairs[0].query, log_->queries()[log_->pairs()[0].query_index].tokens);
}

TEST_F(DatagenTest, RuleDictionaryCoversNicknamesAndTrap) {
  Rng rng(5);
  const SynonymDictionary dict = BuildRuleDictionary(*catalog_, 0.7, rng);
  EXPECT_TRUE(dict.Contains("adi"));       // Brand nickname.
  EXPECT_TRUE(dict.Contains("cellphone")); // User head word.
  EXPECT_TRUE(dict.Contains("cherry"));    // Polysemy trap.
  EXPECT_GT(dict.size(), 20u);
}

TEST_F(DatagenTest, SynonymApplyReplacesLongestPhrase) {
  SynonymDictionary dict;
  dict.Add("for grandpa", "senior");
  dict.Add("grandpa", "WRONG");
  std::vector<std::string> out;
  ASSERT_TRUE(dict.Apply({"phone", "for", "grandpa"}, &out));
  EXPECT_EQ(out, (std::vector<std::string>{"phone", "senior"}));
}

TEST_F(DatagenTest, SynonymApplyReturnsFalseWithoutMatch) {
  SynonymDictionary dict;
  dict.Add("foo", "bar");
  std::vector<std::string> out;
  EXPECT_FALSE(dict.Apply({"phone", "case"}, &out));
}

TEST_F(DatagenTest, MinedQueryPairsShareIntentMostly) {
  const auto pairs = MineSynonymousQueryPairs(*log_, 4);
  ASSERT_GT(pairs.size(), 5u);
  int same_category = 0;
  for (const QueryPair& p : pairs) {
    const QueryIntent a = catalog_->ParseQuery(p.a);
    const QueryIntent b = catalog_->ParseQuery(p.b);
    if (a.category == b.category) ++same_category;
    EXPECT_GE(p.shared_clicks, 4);
  }
  EXPECT_GT(static_cast<double>(same_category) / pairs.size(), 0.9);
}

TEST_F(DatagenTest, MinedPairsSortedByEvidence) {
  const auto pairs = MineSynonymousQueryPairs(*log_, 2);
  for (size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_GE(pairs[i - 1].shared_clicks, pairs[i].shared_clicks);
  }
}

TEST_F(DatagenTest, TrafficSamplerFollowsPopularity) {
  TrafficSampler sampler(log_.get());
  Rng rng(9);
  std::vector<int64_t> counts(log_->queries().size(), 0);
  const int64_t n = 20000;
  for (int64_t i = 0; i < n; ++i) {
    ++counts[sampler.SampleQueryIndex(rng)];
  }
  // The most popular query must be sampled far more than a median one.
  const auto head = sampler.HeadQueries(0.01);
  ASSERT_FALSE(head.empty());
  EXPECT_GT(counts[head[0]], n / 200);
}

TEST(ClickLogGoldenTest, BenchWorldLogIsUnchanged) {
  // The benchmark world's click log (bench/e2e/world.cc): its FNV-1a digest
  // over every pair and the popularity weights, as generated before the
  // click weights were cached per query.
  const Catalog catalog = Catalog::Generate({});
  ClickLogConfig config;
  config.num_distinct_queries = 1200;
  config.num_sessions = 60000;
  config.seed = 11;
  const ClickLog log = ClickLog::Generate(catalog, config);
  Fnv1aHasher hasher;
  for (const ClickPair& p : log.pairs()) {
    hasher.Update(&p.query_index, sizeof(p.query_index));
    hasher.Update(&p.product_id, sizeof(p.product_id));
    hasher.Update(&p.clicks, sizeof(p.clicks));
  }
  for (const double w : log.query_popularity()) {
    hasher.Update(&w, sizeof(w));
  }
  EXPECT_EQ(log.pairs().size(), 3935u);
  EXPECT_EQ(hasher.Digest(), 0xfd20604d7dfe77c6ull)
      << std::hex << "actual digest " << hasher.Digest();
}

TEST_F(DatagenTest, HeadQueriesCoverRequestedFraction) {
  TrafficSampler sampler(log_.get());
  const auto head = sampler.HeadQueries(0.5);
  double covered = 0.0;
  for (int64_t q : head) covered += log_->query_popularity()[q];
  EXPECT_GE(covered, 0.5);
  // Zipfian head: half the traffic from far fewer than half the queries.
  EXPECT_LT(head.size(), log_->queries().size() / 2);
  EXPECT_TRUE(sampler.IsHeadQuery(head[0], 0.5));
}

}  // namespace
}  // namespace cyqr

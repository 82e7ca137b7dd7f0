#include "datagen/click_log.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "core/check.h"
#include "core/string_util.h"

namespace cyqr {

ClickLog ClickLog::Generate(const Catalog& catalog,
                            const ClickLogConfig& config) {
  ClickLog log;
  Rng rng(config.seed);

  // Distinct queries (deduplicated on surface form).
  std::set<std::string> seen;
  while (static_cast<int64_t>(log.queries_.size()) <
         config.num_distinct_queries) {
    QuerySpec spec = catalog.SampleQuery(rng);
    const std::string key = JoinStrings(spec.tokens);
    if (!seen.insert(key).second) continue;
    log.queries_.push_back(std::move(spec));
  }

  // Zipfian popularity over a random rank permutation. Canonical queries
  // dominate the head (users mostly type standard queries); colloquial
  // "hard" queries live in the long tail — the paper's motivation for
  // covering the tail with the model rather than curated rules.
  const size_t n = log.queries_.size();
  std::vector<size_t> rank = rng.Permutation(n);
  log.popularity_.resize(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double head_bias = log.queries_[i].is_colloquial ? 1.0 : 3.0;
    log.popularity_[i] =
        head_bias / std::pow(static_cast<double>(rank[i] + 1),
                             config.zipf_exponent);
    total += log.popularity_[i];
  }
  for (double& p : log.popularity_) p /= total;

  // Cache matching products per query, with their click weights (quality x
  // relevance): both depend only on the query.
  std::vector<std::vector<int64_t>> matches(n);
  std::vector<std::vector<float>> weights(n);
  for (size_t i = 0; i < n; ++i) {
    matches[i] = catalog.MatchingProducts(log.queries_[i].intent);
    for (const int64_t id : matches[i]) {
      const Product& p = catalog.product(id);
      weights[i].push_back(static_cast<float>(
          p.quality * catalog.MatchScore(log.queries_[i].intent, p)));
    }
  }

  // Precompute popularity CDF for session sampling.
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += log.popularity_[i];
    cdf[i] = acc;
  }

  std::map<std::pair<int64_t, int64_t>, int64_t> counts;
  log.num_sessions_ = config.num_sessions;
  for (int64_t s = 0; s < config.num_sessions; ++s) {
    const double u = rng.NextDouble();
    const size_t qi = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const size_t q = std::min(qi, n - 1);
    const auto& cand = matches[q];
    if (cand.empty()) continue;  // Unsatisfiable query: no click.
    const int64_t num_clicks = rng.NextBernoulli(0.3) ? 2 : 1;
    for (int64_t c = 0; c < num_clicks; ++c) {
      const size_t pick = rng.SampleCategorical(weights[q]);
      ++counts[{static_cast<int64_t>(q), cand[pick]}];
    }
  }

  for (const auto& [key, clicks] : counts) {
    if (clicks >= config.min_clicks) {
      log.pairs_.push_back({key.first, key.second, clicks});
    }
  }
  return log;
}

std::vector<TokenPair> ClickLog::TokenPairs(const Catalog& catalog) const {
  std::vector<TokenPair> out;
  out.reserve(pairs_.size());
  for (const ClickPair& p : pairs_) {
    out.push_back({queries_[p.query_index].tokens,
                   catalog.product(p.product_id).title_tokens, p.clicks});
  }
  return out;
}

DatasetStats ClickLog::Stats(const Catalog& catalog) const {
  DatasetStats stats;
  stats.num_pairs = static_cast<int64_t>(pairs_.size());
  stats.num_sessions = num_sessions_;
  stats.num_distinct_queries = static_cast<int64_t>(queries_.size());
  stats.num_products = static_cast<int64_t>(catalog.products().size());

  std::set<std::string> vocab;
  double query_words = 0.0;
  double title_words = 0.0;
  for (const ClickPair& p : pairs_) {
    const auto& q = queries_[p.query_index].tokens;
    const auto& t = catalog.product(p.product_id).title_tokens;
    query_words += static_cast<double>(q.size());
    title_words += static_cast<double>(t.size());
    vocab.insert(q.begin(), q.end());
    vocab.insert(t.begin(), t.end());
  }
  stats.vocab_size = static_cast<int64_t>(vocab.size());
  if (!pairs_.empty()) {
    stats.avg_query_words = query_words / pairs_.size();
    stats.avg_title_words = title_words / pairs_.size();
  }
  return stats;
}

}  // namespace cyqr

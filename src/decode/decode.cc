// All five decoders run one step loop. Each step feeds every live
// hypothesis to the model in one StepBatch call (its rows are the same bits
// as stepping each hypothesis alone), asks the policy for the step's
// children, finishes the children that emit EOS and forks the rest. The
// decoders differ only in the Policy they pass:
//
//  * search: beam search is one group, diverse beam search several, and
//    greedy decoding is beam search with k = 1;
//  * sample-from-pool: step 0 is a width-k search step, so the k
//    candidates start with the k most likely distinct tokens (Figure 4);
//    after it each candidate draws one token from its top-n pool (the
//    paper's decoder) or its top-p nucleus.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "core/check.h"
#include "core/math.h"
#include "core/stopwatch.h"
#include "decode/beam.h"
#include "decode/diverse_beam.h"
#include "decode/greedy.h"
#include "decode/nucleus.h"
#include "decode/topn_sampling.h"
#include "obs/metrics.h"
#include "text/vocabulary.h"

namespace cyqr {

namespace {

struct Policy {
  // Search: the beam is split into `groups` groups of beam_size / groups
  // hypotheses. A token that earlier groups chose at the same step costs
  // `diversity_penalty` per choice in the search score.
  int64_t groups = 1;
  float diversity_penalty = 0.0f;
  // GNMT-style length normalization of the final ranking:
  // score = log_prob / ((5 + len) / 6)^alpha; 0 ranks by log_prob.
  float length_penalty = 0.0f;
  // Sample-from-pool when set: after step 0 each candidate samples from
  // its `top_n` most likely tokens or, when top_n is 0, from the smallest
  // most-likely set whose probability reaches `top_p`.
  Rng* rng = nullptr;
  int64_t top_n = 0;
  double top_p = 1.0;
};

struct Hypothesis {
  std::unique_ptr<DecodeState> state;  // Null once finished.
  std::vector<int32_t> ids;
  double log_prob = 0.0;  // True model score (reported).
  double score = 0.0;     // Search key: log_prob less diversity penalties.
  int64_t group = 0;      // Search group, or candidate index when sampling.
  int32_t last_token = kBosId;
};

/// A child of live hypothesis `parent` that appends `token`.
struct Child {
  size_t parent;
  int32_t token;
  double log_prob;
  double score;
  int64_t group;
};

/// Converts raw step logits to log-probabilities with generation-invalid
/// tokens (<pad>, <bos>, <unk>, and optionally <eos>) masked to -inf.
std::vector<float> StepLogProbs(const std::vector<float>& logits,
                                bool allow_eos) {
  std::vector<float> lp(logits.size());
  // Stable log-softmax.
  float max_logit = logits[0];
  for (float v : logits) max_logit = std::max(max_logit, v);
  double sum = 0.0;
  for (float v : logits) sum += std::exp(static_cast<double>(v - max_logit));
  const float lse = max_logit + static_cast<float>(std::log(sum));
  for (size_t i = 0; i < logits.size(); ++i) lp[i] = logits[i] - lse;
  lp[kPadId] = -1e30f;
  lp[kBosId] = -1e30f;
  lp[kUnkId] = -1e30f;
  if (!allow_eos) lp[kEosId] = -1e30f;
  return lp;
}

/// Group by group, keeps each group's `width` best children by score. EOS
/// children are kept too but take no slot: they finish instead of staying
/// live.
std::vector<Child> SearchStep(const std::vector<Hypothesis>& live,
                              const std::vector<std::vector<float>>& lps,
                              int64_t groups, size_t width,
                              float diversity_penalty) {
  std::vector<Child> children;
  // Tokens chosen by earlier groups at this step.
  std::unordered_map<int32_t, int> chosen_counts;
  for (int64_t g = 0; g < groups; ++g) {
    std::vector<Child> expansions;
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i].group != g) continue;
      const std::vector<float>& lp = lps[i];
      for (size_t j : TopKIndices(lp.data(), lp.size(),
                                  width + chosen_counts.size())) {
        const int32_t tok = static_cast<int32_t>(j);
        const auto it = chosen_counts.find(tok);
        const double penalty =
            it == chosen_counts.end() ? 0.0 : diversity_penalty * it->second;
        expansions.push_back({i, tok, live[i].log_prob + lp[j],
                              live[i].score + lp[j] - penalty, g});
      }
    }
    std::sort(expansions.begin(), expansions.end(),
              [](const Child& a, const Child& b) { return a.score > b.score; });
    size_t kept = 0;
    for (const Child& c : expansions) {
      if (kept >= width) break;
      ++chosen_counts[c.token];
      if (c.token != kEosId) ++kept;
      children.push_back(c);
    }
  }
  return children;
}

/// Draws one token from the pool of `lp` that `policy` describes.
int32_t SampleFromPool(const std::vector<float>& lp, const Policy& policy) {
  std::vector<size_t> pool;
  std::vector<float> weights;
  if (policy.top_n > 0) {
    pool = TopKIndices(lp.data(), lp.size(),
                       static_cast<size_t>(policy.top_n));
    for (size_t j : pool) weights.push_back(std::exp(lp[j]));
  } else {
    pool.resize(lp.size());
    std::iota(pool.begin(), pool.end(), 0);
    std::sort(pool.begin(), pool.end(),
              [&lp](size_t a, size_t b) { return lp[a] > lp[b]; });
    double cumulative = 0.0;
    while (cumulative < policy.top_p && weights.size() < pool.size()) {
      const double p = std::exp(static_cast<double>(lp[pool[weights.size()]]));
      weights.push_back(static_cast<float>(p));
      cumulative += p;
    }
    pool.resize(weights.size());
  }
  return static_cast<int32_t>(pool[policy.rng->SampleCategorical(weights)]);
}

/// Decodes that stopped because their deadline expired, whatever the
/// decoder. Resolved once, as TopNInstruments is.
Counter* DeadlineTruncations() {
  static Counter* const counter = MetricsRegistry::Global().GetCounter(
      "cyqr_decode_deadline_truncated_total");
  return counter;
}

std::vector<DecodedSequence> Decode(const Seq2SeqModel& model,
                                    const std::vector<int32_t>& src_ids,
                                    const DecodeOptions& options,
                                    const Policy& policy) {
  NoGradGuard no_grad;
  CYQR_CHECK_GT(options.beam_size, 0);
  const size_t k = static_cast<size_t>(options.beam_size);
  const int64_t groups = std::min(policy.groups, options.beam_size);
  const size_t width =
      static_cast<size_t>(std::max<int64_t>(1, options.beam_size / groups));
  const bool sampling = policy.rng != nullptr;

  // One root per search group; sampling starts from a single root.
  std::vector<Hypothesis> live(sampling ? 1 : groups);
  for (size_t g = 0; g < live.size(); ++g) {
    live[g].state = model.StartDecode(src_ids);
    live[g].group = static_cast<int64_t>(g);
  }
  std::vector<Hypothesis> finished;

  int64_t t = 0;  // Steps taken.
  for (; t < options.max_len && !live.empty(); ++t) {
    // Budget check once per step: an expired deadline stops expansion and
    // falls through to ranking whatever has been decoded so far.
    if (options.deadline != nullptr && options.deadline->Expired()) {
      DeadlineTruncations()->Increment();
      break;
    }
    // Stop early once k hypotheses have finished and no live hypothesis
    // can beat the worst finished score (scores only decrease).
    if (finished.size() >= k) {
      double best_live = -1e300;
      for (const Hypothesis& h : live) {
        best_live = std::max(best_live, h.log_prob);
      }
      double worst_finished = 1e300;
      for (const Hypothesis& h : finished) {
        worst_finished = std::min(worst_finished, h.log_prob);
      }
      if (best_live <= worst_finished) break;
    }
    // Every live hypothesis is at position t: one batched model step.
    std::vector<DecodeState*> states;
    std::vector<int32_t> tokens;
    for (Hypothesis& h : live) {
      states.push_back(h.state.get());
      tokens.push_back(h.last_token);
    }
    std::vector<std::vector<float>> lps = model.StepBatch(states, tokens);
    for (std::vector<float>& lp : lps) {
      lp = StepLogProbs(lp, /*allow_eos=*/t > 0);
    }

    std::vector<Child> children;
    if (!sampling || t == 0) {
      children = SearchStep(live, lps, groups, width,
                            policy.diversity_penalty);
      // Each step-0 child of a sampling decode is its own candidate.
      if (sampling) {
        for (size_t c = 0; c < children.size(); ++c) {
          children[c].group = static_cast<int64_t>(c);
        }
      }
    } else {
      for (size_t i = 0; i < live.size(); ++i) {
        const int32_t tok = SampleFromPool(lps[i], policy);
        // True model probability, not renormalized over the pool.
        const double log_prob = live[i].log_prob + lps[i][tok];
        children.push_back({i, tok, log_prob, log_prob, live[i].group});
      }
    }

    // A parent's last live child takes over its state; earlier ones fork.
    std::vector<size_t> heir(live.size(), children.size());
    for (size_t c = 0; c < children.size(); ++c) {
      if (children[c].token != kEosId) heir[children[c].parent] = c;
    }
    std::vector<Hypothesis> next;
    for (size_t c = 0; c < children.size(); ++c) {
      const Child& child = children[c];
      Hypothesis& parent = live[child.parent];
      Hypothesis h;
      h.ids = parent.ids;
      h.log_prob = child.log_prob;
      h.score = child.score;
      h.group = child.group;
      if (child.token == kEosId) {
        finished.push_back(std::move(h));
        continue;
      }
      h.ids.push_back(child.token);
      h.last_token = child.token;
      h.state = heir[child.parent] == c ? std::move(parent.state)
                                        : parent.state->Clone();
      next.push_back(std::move(h));
    }
    live = std::move(next);
  }
  // Sampled candidates are the children of step 0: a sampling decode
  // stopped before it (by an already-expired deadline) has none.
  if (sampling && t == 0) return {};

  // Unfinished hypotheses fill remaining slots. Collect by group, each
  // group's finished hypotheses first, then rank.
  for (Hypothesis& h : live) finished.push_back(std::move(h));
  std::stable_sort(finished.begin(), finished.end(),
                   [](const Hypothesis& a, const Hypothesis& b) {
                     return a.group < b.group;
                   });
  std::vector<DecodedSequence> out;
  out.reserve(finished.size());
  for (Hypothesis& h : finished) {
    out.push_back({std::move(h.ids), h.log_prob});
  }
  // The reported log_prob stays the raw model score.
  const double alpha = policy.length_penalty;
  auto normalized = [alpha](const DecodedSequence& s) {
    if (alpha == 0.0) return s.log_prob;
    const double denom =
        std::pow((5.0 + static_cast<double>(s.ids.size())) / 6.0, alpha);
    return s.log_prob / denom;
  };
  std::sort(out.begin(), out.end(),
            [&normalized](const DecodedSequence& a, const DecodedSequence& b) {
              return normalized(a) > normalized(b);
            });
  if (out.size() > k) out.resize(k);
  return out;
}

// Process-wide top-n decode telemetry (function-local statics resolve the
// instruments once; recording is lock-free). The cyclic trainer calls
// this decoder in its inner loop, so these series show where a slow
// training step spends its time.
struct DecodeInstruments {
  Counter* calls;
  Counter* sampled_tokens;
  Histogram* time_micros;
};

const DecodeInstruments& TopNInstruments() {
  static const DecodeInstruments instruments = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    DecodeInstruments in;
    in.calls = registry.GetCounter("cyqr_decode_topn_calls_total");
    in.sampled_tokens =
        registry.GetCounter("cyqr_decode_topn_sampled_tokens_total");
    in.time_micros = registry.GetHistogram(
        "cyqr_decode_topn_time_micros", Histogram::DefaultTimeBoundsMicros());
    return in;
  }();
  return instruments;
}

}  // namespace

DecodedSequence GreedyDecode(const Seq2SeqModel& model,
                             const std::vector<int32_t>& src_ids,
                             const DecodeOptions& options) {
  DecodeOptions greedy = options;
  greedy.beam_size = 1;
  return BeamSearchDecode(model, src_ids, greedy).front();
}

std::vector<DecodedSequence> BeamSearchDecode(
    const Seq2SeqModel& model, const std::vector<int32_t>& src_ids,
    const DecodeOptions& options) {
  Policy policy;
  policy.length_penalty = options.length_penalty;
  return Decode(model, src_ids, options, policy);
}

std::vector<DecodedSequence> DiverseBeamSearchDecode(
    const Seq2SeqModel& model, const std::vector<int32_t>& src_ids,
    const DecodeOptions& options) {
  CYQR_CHECK_GT(options.num_groups, 0);
  Policy policy;
  policy.groups = options.num_groups;
  policy.diversity_penalty = options.diversity_penalty;
  return Decode(model, src_ids, options, policy);
}

std::vector<DecodedSequence> TopNSamplingDecode(
    const Seq2SeqModel& model, const std::vector<int32_t>& src_ids,
    const DecodeOptions& options) {
  Rng rng(options.seed);
  return TopNSamplingDecode(model, src_ids, options, rng);
}

std::vector<DecodedSequence> TopNSamplingDecode(
    const Seq2SeqModel& model, const std::vector<int32_t>& src_ids,
    const DecodeOptions& options, Rng& rng) {
  CYQR_CHECK_GT(options.top_n, 0);
  const DecodeInstruments& instruments = TopNInstruments();
  Stopwatch watch;
  Policy policy;
  policy.rng = &rng;
  policy.top_n = options.top_n;
  std::vector<DecodedSequence> out =
      Decode(model, src_ids, options, policy);
  int64_t sampled_tokens = 0;
  for (const DecodedSequence& s : out) {
    sampled_tokens += static_cast<int64_t>(s.ids.size());
  }
  instruments.calls->Increment();
  instruments.sampled_tokens->Increment(sampled_tokens);
  instruments.time_micros->Observe(watch.ElapsedMicros());
  return out;
}

std::vector<DecodedSequence> NucleusSamplingDecode(
    const Seq2SeqModel& model, const std::vector<int32_t>& src_ids,
    const DecodeOptions& options, const NucleusOptions& nucleus) {
  Rng rng(options.seed);
  return NucleusSamplingDecode(model, src_ids, options, nucleus, rng);
}

std::vector<DecodedSequence> NucleusSamplingDecode(
    const Seq2SeqModel& model, const std::vector<int32_t>& src_ids,
    const DecodeOptions& options, const NucleusOptions& nucleus, Rng& rng) {
  CYQR_CHECK(nucleus.top_p > 0.0 && nucleus.top_p <= 1.0);
  Policy policy;
  policy.rng = &rng;
  policy.top_p = nucleus.top_p;
  return Decode(model, src_ids, options, policy);
}

}  // namespace cyqr

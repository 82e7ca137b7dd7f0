// precompute_cyclic: the nightly job of Section III-G. One closed-loop
// client runs CycleRewriter::RewriteIds (k = 3, top-n = 40) over the most
// popular distinct queries in popularity order, then PutManys the rewrites
// into a KV store. Serving is bypassed; the transformer top-n decode and
// the teacher-forced scoring do the work.
//
// The traced run also replays the four Figure-3 steps through
// TopNSamplingDecode / ScoreSequences on decorated models with the same
// seed, and checks that the replay reproduces RewriteIds exactly.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/e2e/timed.h"
#include "bench/e2e/workloads.h"
#include "core/math.h"
#include "core/string_util.h"
#include "decode/topn_sampling.h"
#include "nmt/scorer.h"
#include "rewrite/inference.h"
#include "serving/kv_store.h"

namespace cyqr::e2e {
namespace {

// Queries per --seconds: the timed passes take about 0.75 x --seconds
// on a 4-core x86 KVM guest. Fixed, so parent and child rewrite the same
// queries.
constexpr double kQueriesPerSecond = 16.0;
constexpr int kWarmupQueries = 2;
// Every run times each query in this many passes over identical work, and
// the traced run reports each query's fastest time: the guest's
// single-thread speed drops by up to half for seconds at a time. Replayed
// against a fifteen-minute trace of that speed, the quartile spread of
// p99 over ten runs was 0.32 with two passes and 0.09 with four.
constexpr int kTimedPasses = 4;

/// Span names of the replay, interned once.
struct ReplayNames {
  explicit ReplayNames(SpanRecorder* spans)
      : rewrite(spans->Intern("pipeline.rewrite")),
        title_decode(spans->Intern("pipeline.title_decode")),
        query_decode(spans->Intern("pipeline.query_decode")),
        score(spans->Intern("pipeline.score")),
        rank(spans->Intern("pipeline.rank")),
        topn(spans->Intern("decode.topn")) {}
  int32_t rewrite;
  int32_t title_decode;
  int32_t query_decode;
  int32_t score;
  int32_t rank;
  int32_t topn;
};

/// CycleRewriter::RewriteIds, step by step through public calls, with a
/// span around each Figure-3 step. Must stay in step with
/// src/rewrite/inference.cc: the traced run fails on any difference.
CycleRewriter::Result ReplayRewrite(const Seq2SeqModel& forward,
                                    const Seq2SeqModel& backward,
                                    const Vocabulary& vocab,
                                    const std::vector<int32_t>& query_ids,
                                    const RewriteOptions& options,
                                    SpanRecorder* spans,
                                    const ReplayNames& names,
                                    int64_t* candidates_out) {
  const SpanRecorder::Scope whole(spans, names.rewrite);
  CycleRewriter::Result result;
  Rng rng(options.seed);
  // 1. k synthetic titles from the forward model.
  {
    const SpanRecorder::Scope step(spans, names.title_decode);
    DecodeOptions title_options;
    title_options.beam_size = options.k;
    title_options.top_n = options.top_n;
    title_options.max_len = options.max_title_len;
    const SpanRecorder::Scope decode(spans, names.topn);
    result.synthetic_titles =
        TopNSamplingDecode(forward, query_ids, title_options, rng);
  }
  std::vector<std::vector<int32_t>> titles;
  std::vector<double> title_log_probs;
  for (const DecodedSequence& t : result.synthetic_titles) {
    if (t.ids.empty()) continue;
    titles.push_back(t.ids);
    title_log_probs.push_back(t.log_prob);
  }
  if (titles.empty()) return result;
  // 2. k candidate queries per title, deduplicated.
  std::map<std::vector<int32_t>, bool> candidate_set;
  {
    const SpanRecorder::Scope step(spans, names.query_decode);
    DecodeOptions query_options;
    query_options.beam_size = options.k;
    query_options.top_n = options.top_n;
    query_options.max_len = options.max_query_len;
    for (const std::vector<int32_t>& title : titles) {
      std::vector<DecodedSequence> queries;
      {
        const SpanRecorder::Scope decode(spans, names.topn);
        queries = TopNSamplingDecode(backward, title, query_options, rng);
      }
      for (const DecodedSequence& q : queries) {
        if (q.ids.empty()) continue;
        if (!options.keep_original && q.ids == query_ids) continue;
        candidate_set.emplace(q.ids, true);
      }
    }
  }
  *candidates_out = static_cast<int64_t>(candidate_set.size());
  if (candidate_set.empty()) return result;
  // 3. Score every candidate against every title.
  std::vector<std::vector<int32_t>> candidates;
  std::vector<std::vector<double>> back_scores(titles.size());
  {
    const SpanRecorder::Scope step(spans, names.score);
    for (const auto& [ids, unused] : candidate_set) {
      (void)unused;
      candidates.push_back(ids);
    }
    for (size_t t = 0; t < titles.size(); ++t) {
      back_scores[t] = ScoreSequences(backward, titles[t], candidates);
    }
  }
  // 4. Aggregate in log space and keep the k best.
  const SpanRecorder::Scope step(spans, names.rank);
  for (size_t c = 0; c < candidates.size(); ++c) {
    std::vector<double> joint(titles.size());
    for (size_t t = 0; t < titles.size(); ++t) {
      joint[t] = title_log_probs[t] + back_scores[t][c];
    }
    RewriteCandidate candidate;
    candidate.ids = candidates[c];
    candidate.tokens = vocab.Decode(candidates[c]);
    candidate.log_prob = LogSumExp(joint);
    result.rewrites.push_back(std::move(candidate));
  }
  std::sort(result.rewrites.begin(), result.rewrites.end(),
            [](const RewriteCandidate& a, const RewriteCandidate& b) {
              return a.log_prob > b.log_prob;
            });
  if (static_cast<int64_t>(result.rewrites.size()) > options.k) {
    result.rewrites.resize(static_cast<size_t>(options.k));
  }
  return result;
}

bool SameResult(const CycleRewriter::Result& a,
                const CycleRewriter::Result& b) {
  if (a.rewrites.size() != b.rewrites.size() ||
      a.synthetic_titles.size() != b.synthetic_titles.size()) {
    return false;
  }
  for (size_t i = 0; i < a.rewrites.size(); ++i) {
    if (a.rewrites[i].ids != b.rewrites[i].ids ||
        a.rewrites[i].tokens != b.rewrites[i].tokens ||
        a.rewrites[i].log_prob != b.rewrites[i].log_prob) {
      return false;
    }
  }
  for (size_t i = 0; i < a.synthetic_titles.size(); ++i) {
    if (a.synthetic_titles[i].ids != b.synthetic_titles[i].ids ||
        a.synthetic_titles[i].log_prob != b.synthetic_titles[i].log_prob) {
      return false;
    }
  }
  return true;
}

/// A precompute output is valid when it never returns the input query,
/// is sorted by score, and every rewrite is non-empty with a finite score.
bool ValidOutput(const CycleRewriter::Result& result,
                 const std::vector<int32_t>& query_ids, int64_t k) {
  if (static_cast<int64_t>(result.rewrites.size()) > k) return false;
  for (size_t i = 0; i < result.rewrites.size(); ++i) {
    const RewriteCandidate& c = result.rewrites[i];
    if (c.ids.empty() || c.tokens.empty() || c.ids == query_ids ||
        !std::isfinite(c.log_prob)) {
      return false;
    }
    if (i > 0 && c.log_prob > result.rewrites[i - 1].log_prob) return false;
  }
  return true;
}

double MeanMs(const SpanRecorder::Collected& c, const std::string& name,
              bool self) {
  return Mean(c.Micros(name, self)) / 1e3;
}

double SumUs(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum;
}

void ReportNmtLayer(const SpanRecorder::Collected& c, const std::string& layer,
                    bool buckets, Report* report) {
  std::vector<double> steps;
  for (int b = 0; b < TimedSeq2Seq::kPositionBuckets; ++b) {
    const std::vector<double> bucket =
        c.Micros(TimedSeq2Seq::StepSpanName(layer, b), false);
    steps.insert(steps.end(), bucket.begin(), bucket.end());
    if (buckets) {
      const int first = b * TimedSeq2Seq::kPositionsPerBucket + 1;
      report->Add(layer + ".step_us.pos" + std::to_string(first) + "-" +
                      std::to_string(first +
                                     TimedSeq2Seq::kPositionsPerBucket - 1),
                  Mean(bucket), "us");
    }
  }
  report->Add(layer + ".encode_us", Mean(c.Micros(layer + ".encode", false)),
              "us");
  report->Add(layer + ".step_us", Mean(steps), "us");
  report->Add(layer + ".clone_us", Mean(c.Micros(layer + ".clone", false)),
              "us");
  report->Add(layer + ".steps", static_cast<double>(steps.size()), "count");
}

}  // namespace

void RunPrecompute(const RunOptions& options, Report* report) {
  const Scale& scale = options.scale;

  // Set-up, repeated; every repeat must train bit-identical parameters.
  std::unique_ptr<World> world;
  JointModel joint;
  std::vector<double> setup_s;
  std::vector<float> first_params;
  for (int r = 0; r < scale.setup_repeats; ++r) {
    const int64_t start = NowNs();
    world = std::make_unique<World>(BuildWorld(scale));
    const Status trained = TrainJointModel(*world, scale, &joint);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!trained.ok()) {
      report->Fail("joint model training failed: " + trained.ToString());
      return;
    }
    const std::vector<float> params =
        FlatParameters(joint.model->Parameters());
    if (r == 0) {
      first_params = params;
    } else if (params != first_params) {
      report->Fail("repeated set-up trained different joint models");
    }
  }
  const CycleRewriter rewriter(joint.model.get(), &world->vocab);
  // k = 3, top-n = 40 (Section III-F). Each query samples from its own
  // stream: one seed shared by every query would correlate their title
  // lengths, and the run's cost would swing with the seed.
  RewriteOptions rewrite_options;

  const std::vector<int64_t> order = QueriesByPopularity(*world);
  const size_t n = std::min(
      order.size(),
      static_cast<size_t>(std::max(1.0, kQueriesPerSecond * options.seconds)));
  std::vector<std::vector<int32_t>> query_ids;
  for (size_t i = 0; i < order.size(); ++i) {
    query_ids.push_back(world->vocab.Encode(
        world->log.queries()[static_cast<size_t>(order[i])].tokens));
  }
  // Warm-up on the least popular queries, outside the measured set when
  // the world has more queries than the run measures.
  for (int i = 1; i <= kWarmupQueries; ++i) {
    (void)rewriter.RewriteIds(query_ids[query_ids.size() - i],
                              rewrite_options);
  }

  SpanRecorder* spans = options.spans;
  std::unique_ptr<TimedSeq2Seq> forward;
  std::unique_ptr<TimedSeq2Seq> backward;
  std::unique_ptr<ReplayNames> names;
  if (spans != nullptr) {
    forward = std::make_unique<TimedSeq2Seq>(&joint.model->forward(), spans,
                                             "nmt.fwd");
    backward = std::make_unique<TimedSeq2Seq>(&joint.model->backward(),
                                              spans, "nmt.bwd");
    names = std::make_unique<ReplayNames>(spans);
  }

  std::vector<double> best_ms(n, HUGE_VAL);
  std::vector<RewriteKvStore::Rewrites> outputs(n);
  std::vector<double> candidates;
  int64_t invalid = 0;
  int64_t repeat_mismatches = 0;
  int64_t mismatches = 0;
  const int64_t start = NowNs();
  for (int pass = 0; pass < kTimedPasses; ++pass) {
    for (size_t i = 0; i < n; ++i) {
      rewrite_options.seed = StreamSeed(options.seed, Stream::kQueries, i);
      const int64_t t0 = NowNs();
      const CycleRewriter::Result result =
          rewriter.RewriteIds(query_ids[i], rewrite_options);
      best_ms[i] =
          std::min(best_ms[i], static_cast<double>(NowNs() - t0) / 1e6);
      RewriteKvStore::Rewrites rewrites;
      for (const RewriteCandidate& c : result.rewrites) {
        rewrites.push_back(c.tokens);
      }
      if (pass > 0) {
        if (rewrites != outputs[i]) ++repeat_mismatches;
        continue;
      }
      if (!ValidOutput(result, query_ids[i], rewrite_options.k)) ++invalid;
      outputs[i] = std::move(rewrites);
      if (spans != nullptr) {
        int64_t count = 0;
        const CycleRewriter::Result replayed =
            ReplayRewrite(*forward, *backward, world->vocab, query_ids[i],
                          rewrite_options, spans, *names, &count);
        spans->StampPending(static_cast<int64_t>(i));
        candidates.push_back(static_cast<double>(count));
        if (!SameResult(result, replayed)) ++mismatches;
      }
    }
  }
  std::vector<std::pair<std::string, RewriteKvStore::Rewrites>> entries;
  for (size_t i = 0; i < n; ++i) {
    entries.emplace_back(
        JoinStrings(world->log.queries()[static_cast<size_t>(order[i])].tokens),
        std::move(outputs[i]));
  }
  RewriteKvStore store;
  const int64_t put_start = NowNs();
  store.PutMany(std::move(entries));
  const int64_t end = NowNs();
  if (repeat_mismatches > 0) {
    report->Fail(std::to_string(repeat_mismatches) +
                 " queries rewrote differently on the second pass");
  }
  if (store.size() == 0) report->Fail("the precomputed store is empty");
  if (invalid > 0) {
    report->Fail(std::to_string(invalid) +
                 " precompute outputs equal their query or are unsorted");
  }
  report->AddOperations(static_cast<int64_t>(n), invalid);

  if (spans == nullptr) {
    ReportSetup(setup_s, report);
    report->Add("success_ratio",
                static_cast<double>(static_cast<int64_t>(n) - invalid) /
                    static_cast<double>(n),
                "ratio");
    // The nightly job has no degraded answers.
    report->Add("nondegraded_ratio", 1.0, "ratio");
    return;
  }

  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) +
                 " replays differ from CycleRewriter::RewriteIds");
  }
  const SpanRecorder::Collected c = spans->Collect();
  const double children = SumUs(c.Micros("pipeline.title_decode", false)) +
                          SumUs(c.Micros("pipeline.query_decode", false)) +
                          SumUs(c.Micros("pipeline.score", false)) +
                          SumUs(c.Micros("pipeline.rank", false));
  const double whole = SumUs(c.Micros("pipeline.rewrite", false));
  const double coverage = whole > 0.0 ? children / whole : 0.0;
  if (coverage < 0.9) {
    report->Fail("pipeline spans cover only " + std::to_string(coverage) +
                 " of the replay");
  }
  report->Add("pipeline.title_decode_ms",
              MeanMs(c, "pipeline.title_decode", false), "ms");
  report->Add("pipeline.query_decode_ms",
              MeanMs(c, "pipeline.query_decode", false), "ms");
  report->Add("pipeline.score_ms", MeanMs(c, "pipeline.score", false), "ms");
  report->Add("pipeline.rank_ms", MeanMs(c, "pipeline.rank", false), "ms");
  report->Add("pipeline.candidates", Mean(candidates), "count");
  report->Add("pipeline.coverage_ratio", coverage, "ratio");
  report->Add("pipeline.replay_mismatches", static_cast<double>(mismatches),
              "count");
  double total_ms = static_cast<double>(end - put_start) / 1e6;
  for (const double ms : best_ms) total_ms += ms;
  report->Add("run.throughput_per_s", static_cast<double>(n) / (total_ms / 1e3),
              "1/s");
  report->Add("run.p50_ms", Quantile(best_ms, 0.5), "ms");
  report->Add("run.p99_ms", Quantile(best_ms, 0.99), "ms");
  const double calls = static_cast<double>(c.Count("decode.topn"));
  const double clones = static_cast<double>(c.Count("nmt.fwd.clone") +
                                            c.Count("nmt.bwd.clone"));
  ReportNmtLayer(c, "nmt.fwd", /*buckets=*/true, report);
  ReportNmtLayer(c, "nmt.bwd", /*buckets=*/false, report);
  double steps = 0.0;
  for (int b = 0; b < TimedSeq2Seq::kPositionBuckets; ++b) {
    steps += static_cast<double>(
        c.Count(TimedSeq2Seq::StepSpanName("nmt.fwd", b)) +
        c.Count(TimedSeq2Seq::StepSpanName("nmt.bwd", b)));
  }
  report->Add("decode.topn.calls", calls, "count");
  report->Add("decode.topn.self_ms", MeanMs(c, "decode.topn", true), "ms");
  report->Add("decode.topn.steps_per_call", calls > 0 ? steps / calls : 0.0,
              "count");
  report->Add("decode.topn.clones_per_call", calls > 0 ? clones / calls : 0.0,
              "count");
  report->Add("nmt.bwd.score_forward_ms", MeanMs(c, "nmt.bwd.forward", false),
              "ms");
  report->Add("kv.put_many_calls", 1.0, "count");
  report->Add("kv.put_many_p50_ms", static_cast<double>(end - put_start) / 1e6,
              "ms");
  report->Add("obs.flight_dropped_ratio", FlightDroppedRatio(), "ratio");
  report->Add("trace.overhead_ratio",
              TraceOverheadRatio(spans->size(),
                                 static_cast<double>(end - start) / 1e9),
              "ratio");
}

}  // namespace cyqr::e2e

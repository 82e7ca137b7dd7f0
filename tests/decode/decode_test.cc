// Decoding-algorithm behaviour, run across architectures where relevant.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "core/deadline.h"
#include "decode/beam.h"
#include "decode/diverse_beam.h"
#include "decode/greedy.h"
#include "decode/nucleus.h"
#include "decode/topn_sampling.h"
#include "nmt/scorer.h"
#include "nmt/transformer.h"
#include "obs/metrics.h"
#include "text/vocabulary.h"
#include "tiny_models.h"

namespace cyqr {
namespace {

/// A small trained model so decoding has meaningful structure.
class DecodeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(11);
    model_ = std::make_unique<TransformerSeq2Seq>(TinyDecodeConfig(), rng);
    TrainOnTinyPairs(*model_);
  }
  static void TearDownTestSuite() {
    model_.reset();
    model_ = nullptr;
  }

  static std::unique_ptr<TransformerSeq2Seq> model_;
};

std::unique_ptr<TransformerSeq2Seq> DecodeTest::model_;

TEST_F(DecodeTest, GreedyReproducesTrainingTarget) {
  DecodeOptions options;
  options.max_len = 6;
  EXPECT_EQ(GreedyDecode(*model_, {4, 5}, options).ids,
            (std::vector<int32_t>{10, 11, 12}));
}

TEST_F(DecodeTest, GreedyLogProbMatchesSequenceScore) {
  DecodeOptions options;
  options.max_len = 6;
  const DecodedSequence out = GreedyDecode(*model_, {4, 5}, options);
  // Greedy accumulates log p per chosen token including EOS; scoring the
  // same sequence under teacher forcing must agree.
  EXPECT_NEAR(out.log_prob, ScoreSequence(*model_, {4, 5}, out.ids), 1e-3);
}

TEST_F(DecodeTest, BeamWidthOneEqualsGreedy) {
  DecodeOptions options;
  options.beam_size = 1;
  options.max_len = 6;
  const auto beam = BeamSearchDecode(*model_, {4, 5}, options);
  const DecodedSequence greedy = GreedyDecode(*model_, {4, 5}, options);
  ASSERT_EQ(beam.size(), 1u);
  EXPECT_EQ(beam[0].ids, greedy.ids);
  // Including the EOS term: a finished hypothesis, not its parent prefix.
  EXPECT_DOUBLE_EQ(beam[0].log_prob, greedy.log_prob);
}

TEST_F(DecodeTest, BeamHypothesesAreDistinctAndFullyScored) {
  // Regression: the early stop used to return the step's already-expanded
  // parents as unfinished hypotheses. A parent scores at least as high as
  // its children, so those stale prefixes outranked real completions and
  // repeated sequences the beam had already finished.
  const std::vector<std::vector<int32_t>> sources = {{4, 5}, {6, 7}, {8}};
  for (const std::vector<int32_t>& src : sources) {
    for (int64_t k = 2; k <= 4; ++k) {
      DecodeOptions options;
      options.beam_size = k;
      options.max_len = 6;
      std::set<std::vector<int32_t>> seen;
      const auto beam = BeamSearchDecode(*model_, src, options);
      for (const DecodedSequence& s : beam) {
        EXPECT_TRUE(seen.insert(s.ids).second)
            << "duplicate hypothesis, k=" << k << " src[0]=" << src[0];
        if (static_cast<int64_t>(s.ids.size()) < options.max_len) {
          EXPECT_NEAR(s.log_prob, ScoreSequence(*model_, src, s.ids), 1e-3)
              << "k=" << k << " src[0]=" << src[0];
        }
      }
    }
  }
}

TEST_F(DecodeTest, BeamReturnsSortedScores) {
  DecodeOptions options;
  options.beam_size = 3;
  options.max_len = 6;
  const auto beam = BeamSearchDecode(*model_, {4, 5}, options);
  ASSERT_GE(beam.size(), 2u);
  for (size_t i = 1; i < beam.size(); ++i) {
    EXPECT_GE(beam[i - 1].log_prob, beam[i].log_prob);
  }
}

TEST_F(DecodeTest, BeamTopHypothesisAtLeastAsGoodAsGreedy) {
  DecodeOptions options;
  options.beam_size = 4;
  options.max_len = 6;
  const auto beam = BeamSearchDecode(*model_, {6, 7}, options);
  const DecodedSequence greedy = GreedyDecode(*model_, {6, 7}, options);
  ASSERT_FALSE(beam.empty());
  EXPECT_GE(beam[0].log_prob, greedy.log_prob - 1e-4);
}

TEST_F(DecodeTest, TopNSamplingFirstTokensAreDistinct) {
  // Figure 4: at the first step the k most likely DISTINCT tokens are
  // assigned one per candidate.
  DecodeOptions options;
  options.beam_size = 3;
  options.top_n = 5;
  options.max_len = 6;
  const auto out = TopNSamplingDecode(*model_, {4, 5}, options);
  ASSERT_EQ(out.size(), 3u);
  std::set<int32_t> first_tokens;
  for (const auto& s : out) {
    ASSERT_FALSE(s.ids.empty());
    first_tokens.insert(s.ids[0]);
  }
  EXPECT_EQ(first_tokens.size(), 3u);
}

TEST_F(DecodeTest, TopNSamplingDeterministicPerSeed) {
  DecodeOptions options;
  options.beam_size = 3;
  options.max_len = 6;
  options.seed = 42;
  const auto a = TopNSamplingDecode(*model_, {4, 5}, options);
  const auto b = TopNSamplingDecode(*model_, {4, 5}, options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ids, b[i].ids);
    EXPECT_DOUBLE_EQ(a[i].log_prob, b[i].log_prob);
  }
}

TEST_F(DecodeTest, TopNSamplingRespectsTopNPool) {
  // With top_n = 1 every step after the first is greedy, so candidate 0
  // (seeded with the argmax first token) must equal the greedy sequence.
  DecodeOptions options;
  options.beam_size = 3;
  options.top_n = 1;
  options.max_len = 6;
  const auto out = TopNSamplingDecode(*model_, {4, 5}, options);
  const DecodedSequence greedy = GreedyDecode(*model_, {4, 5}, options);
  bool found = false;
  for (const auto& s : out) {
    if (s.ids == greedy.ids) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(DecodeTest, DiverseBeamReturnsRequestedCount) {
  DecodeOptions options;
  options.beam_size = 3;
  options.num_groups = 3;
  options.max_len = 6;
  const auto out = DiverseBeamSearchDecode(*model_, {4, 5}, options);
  EXPECT_LE(out.size(), 3u);
  EXPECT_GE(out.size(), 1u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i - 1].log_prob, out[i].log_prob);
  }
}

TEST_F(DecodeTest, DiverseBeamFirstTokensMoreDiverseThanPlainBeam) {
  DecodeOptions options;
  options.beam_size = 3;
  options.num_groups = 3;
  options.diversity_penalty = 2.0f;
  options.max_len = 6;
  const auto diverse = DiverseBeamSearchDecode(*model_, {4, 5}, options);
  std::set<int32_t> diverse_first;
  for (const auto& s : diverse) {
    if (!s.ids.empty()) diverse_first.insert(s.ids[0]);
  }
  const auto plain = BeamSearchDecode(*model_, {4, 5}, options);
  std::set<int32_t> plain_first;
  for (const auto& s : plain) {
    if (!s.ids.empty()) plain_first.insert(s.ids[0]);
  }
  EXPECT_GE(diverse_first.size(), plain_first.size());
}

TEST_F(DecodeTest, BeamLengthPenaltyPrefersLongerHypotheses) {
  DecodeOptions plain;
  plain.beam_size = 4;
  plain.max_len = 6;
  DecodeOptions normalized = plain;
  normalized.length_penalty = 2.0f;
  const auto a = BeamSearchDecode(*model_, {4, 5}, plain);
  const auto b = BeamSearchDecode(*model_, {4, 5}, normalized);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  // Normalization divides by a length factor, so the top normalized
  // hypothesis is at least as long as the top raw one, and the average
  // returned length does not shrink.
  EXPECT_GE(b[0].ids.size(), a[0].ids.size());
  double raw_len = 0.0;
  for (const auto& s : a) raw_len += static_cast<double>(s.ids.size());
  double norm_len = 0.0;
  for (const auto& s : b) norm_len += static_cast<double>(s.ids.size());
  EXPECT_GE(norm_len / b.size(), raw_len / a.size());
}

TEST_F(DecodeTest, NucleusFirstTokensDistinct) {
  DecodeOptions options;
  options.beam_size = 3;
  options.max_len = 6;
  const auto out = NucleusSamplingDecode(*model_, {4, 5}, options);
  ASSERT_EQ(out.size(), 3u);
  std::set<int32_t> first;
  for (const auto& s : out) {
    ASSERT_FALSE(s.ids.empty());
    first.insert(s.ids[0]);
  }
  EXPECT_EQ(first.size(), 3u);
}

TEST_F(DecodeTest, NucleusTinyTopPIsGreedyAfterFirstToken) {
  // top_p -> 0 keeps only the argmax token in the nucleus.
  DecodeOptions options;
  options.beam_size = 3;
  options.max_len = 6;
  NucleusOptions nucleus;
  nucleus.top_p = 1e-6;
  const auto out = NucleusSamplingDecode(*model_, {4, 5}, options, nucleus);
  const DecodedSequence greedy = GreedyDecode(*model_, {4, 5}, options);
  bool found = false;
  for (const auto& s : out) {
    if (s.ids == greedy.ids) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(DecodeTest, NucleusDeterministicPerSeed) {
  DecodeOptions options;
  options.beam_size = 3;
  options.max_len = 6;
  options.seed = 77;
  const auto a = NucleusSamplingDecode(*model_, {6, 7}, options);
  const auto b = NucleusSamplingDecode(*model_, {6, 7}, options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ids, b[i].ids);
  }
}

TEST_F(DecodeTest, NoSpecialTokensInOutput) {
  DecodeOptions options;
  options.beam_size = 4;
  options.max_len = 8;
  for (const auto& s : BeamSearchDecode(*model_, {8}, options)) {
    for (int32_t id : s.ids) {
      EXPECT_GE(id, kNumSpecialTokens);
    }
  }
  for (const auto& s : TopNSamplingDecode(*model_, {8}, options)) {
    for (int32_t id : s.ids) {
      EXPECT_GE(id, kNumSpecialTokens);
    }
  }
}

TEST_F(DecodeTest, MaxLenIsRespected) {
  DecodeOptions options;
  options.beam_size = 2;
  options.max_len = 2;
  for (const auto& s : BeamSearchDecode(*model_, {4, 5}, options)) {
    EXPECT_LE(s.ids.size(), 2u);
  }
  for (const auto& s : TopNSamplingDecode(*model_, {4, 5}, options)) {
    EXPECT_LE(s.ids.size(), 2u);
  }
}

TEST_F(DecodeTest, ExpiredDeadlineStopsEveryDecoderBeforeTheFirstStep) {
  // Regression for the serving deadline-propagation fix: a decoder handed
  // an already-expired deadline must not run a single model step. Every
  // surviving hypothesis is therefore the empty root.
  // Each stop books one cyqr_decode_deadline_truncated_total.
  Deadline deadline = Deadline::AfterMillis(0);
  deadline.Charge(1.0);  // Deterministically expired (virtual time).
  ASSERT_TRUE(deadline.Expired());
  DecodeOptions options;
  options.beam_size = 3;
  options.max_len = 8;
  options.deadline = &deadline;
  const Counter* truncated = MetricsRegistry::Global().GetCounter(
      "cyqr_decode_deadline_truncated_total");
  int64_t expected = truncated->Value();

  EXPECT_TRUE(GreedyDecode(*model_, {4, 5}, options).ids.empty());
  EXPECT_EQ(truncated->Value(), ++expected) << "greedy";
  for (const auto& s : BeamSearchDecode(*model_, {4, 5}, options)) {
    EXPECT_TRUE(s.ids.empty());
  }
  EXPECT_EQ(truncated->Value(), ++expected) << "beam";
  for (const auto& s : DiverseBeamSearchDecode(*model_, {4, 5}, options)) {
    EXPECT_TRUE(s.ids.empty());
  }
  EXPECT_EQ(truncated->Value(), ++expected) << "diverse beam";
  for (const auto& s : NucleusSamplingDecode(*model_, {4, 5}, options)) {
    EXPECT_TRUE(s.ids.empty());
  }
  EXPECT_EQ(truncated->Value(), ++expected) << "nucleus";
  for (const auto& s : TopNSamplingDecode(*model_, {4, 5}, options)) {
    EXPECT_TRUE(s.ids.empty());
  }
  EXPECT_EQ(truncated->Value(), ++expected) << "top-n";
}

TEST_F(DecodeTest, MidDecodeExpiryReturnsTruncatedHypotheses) {
  // A deadline that expires after construction but before the decode ends:
  // charge the budget away between steps by observing that the per-step
  // check bounds output length. With a generous budget the decode is
  // unaffected and matches the unbounded result exactly.
  DecodeOptions unbounded;
  unbounded.max_len = 6;
  const DecodedSequence reference = GreedyDecode(*model_, {4, 5}, unbounded);

  Deadline generous = Deadline::AfterMillis(60000);
  DecodeOptions bounded = unbounded;
  bounded.deadline = &generous;
  EXPECT_EQ(GreedyDecode(*model_, {4, 5}, bounded).ids, reference.ids);

  // An infinite deadline never expires regardless of charged time.
  Deadline infinite = Deadline::Infinite();
  infinite.Charge(1e9);
  bounded.deadline = &infinite;
  EXPECT_EQ(GreedyDecode(*model_, {4, 5}, bounded).ids, reference.ids);
}

// Every decoder that takes beam_size rejects a non-positive one with a
// check that names it. Diverse beam search used to divide by zero on 0 and
// throw std::length_error on a negative size.
using DecodeDeathTest = DecodeTest;

TEST_F(DecodeDeathTest, BeamRejectsNonPositiveBeamSize) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (int64_t k : {0, -2}) {
    DecodeOptions options;
    options.beam_size = k;
    EXPECT_DEATH(BeamSearchDecode(*model_, {4, 5}, options), "beam_size");
  }
}

TEST_F(DecodeDeathTest, DiverseBeamRejectsNonPositiveBeamSize) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (int64_t k : {0, -2}) {
    DecodeOptions options;
    options.beam_size = k;
    EXPECT_DEATH(DiverseBeamSearchDecode(*model_, {4, 5}, options),
                 "beam_size");
  }
}

TEST_F(DecodeDeathTest, TopNRejectsNonPositiveBeamSize) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (int64_t k : {0, -2}) {
    DecodeOptions options;
    options.beam_size = k;
    EXPECT_DEATH(TopNSamplingDecode(*model_, {4, 5}, options), "beam_size");
  }
}

TEST_F(DecodeDeathTest, NucleusRejectsNonPositiveBeamSize) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (int64_t k : {0, -2}) {
    DecodeOptions options;
    options.beam_size = k;
    EXPECT_DEATH(NucleusSamplingDecode(*model_, {4, 5}, options),
                 "beam_size");
  }
}

}  // namespace
}  // namespace cyqr

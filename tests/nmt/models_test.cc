// Cross-architecture behaviour tests: every Seq2SeqModel must expose
// consistent teacher-forced and incremental-decoding views of the same
// distribution, and must be able to overfit a tiny dataset.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "decode/greedy.h"
#include "nmt/attention_seq2seq.h"
#include "nmt/hybrid.h"
#include "nmt/rnn.h"
#include "nmt/transformer.h"
#include "rewrite/trainer.h"
#include "text/vocabulary.h"

namespace cyqr {
namespace {

Seq2SeqConfig SmallConfig() {
  Seq2SeqConfig config;
  config.vocab_size = 20;
  config.d_model = 16;
  config.num_heads = 2;
  config.ff_hidden = 32;
  config.num_layers = 1;
  config.dropout = 0.1f;
  return config;
}

std::unique_ptr<Seq2SeqModel> MakeByName(const std::string& name,
                                         const Seq2SeqConfig& config,
                                         Rng& rng) {
  if (name == "transformer") {
    return std::make_unique<TransformerSeq2Seq>(config, rng);
  }
  if (name == "attention-gru") return MakeAttentionSeq2Seq(config, rng);
  if (name == "pure-rnn") return MakePureRnnSeq2Seq(config, rng);
  if (name == "pure-lstm") {
    return std::make_unique<RnnSeq2Seq>(config, CellType::kLstm,
                                        CellType::kLstm,
                                        AttentionKind::kDot, rng);
  }
  if (name == "hybrid") {
    return std::make_unique<HybridSeq2Seq>(config, CellType::kRnn, rng);
  }
  return nullptr;
}

class Seq2SeqArchTest : public ::testing::TestWithParam<std::string> {};

TEST_P(Seq2SeqArchTest, ForwardShape) {
  Rng rng(1);
  auto model = MakeByName(GetParam(), SmallConfig(), rng);
  ASSERT_NE(model, nullptr);
  const EncodedBatch src = PadBatch({{4, 5, 6}, {7, 8}});
  const TeacherForcedBatch tf = MakeTeacherForced({{9, 10}, {11}});
  Tensor logits = model->Forward(src, tf.inputs);
  EXPECT_EQ(logits.shape(), Shape({2, tf.inputs.max_len, 20}));
}

TEST_P(Seq2SeqArchTest, StepMatchesTeacherForcedLogits) {
  // The incremental decoder and the teacher-forced forward pass must give
  // identical next-token distributions for the same prefix.
  Rng rng(2);
  auto model = MakeByName(GetParam(), SmallConfig(), rng);
  model->SetTraining(false);
  NoGradGuard no_grad;
  const std::vector<int32_t> src = {4, 5, 6, 7};
  const std::vector<int32_t> tgt = {9, 10, 11};

  const EncodedBatch src_batch = PadBatch({src});
  const TeacherForcedBatch tf = MakeTeacherForced({tgt});
  Tensor logits = model->Forward(src_batch, tf.inputs);

  auto state = model->StartDecode(src);
  int32_t last = kBosId;
  for (size_t t = 0; t < tgt.size() + 1; ++t) {
    const std::vector<float> step_logits = model->Step(*state, last);
    const float* tf_logits = logits.data() + t * 20;
    for (int v = 0; v < 20; ++v) {
      EXPECT_NEAR(step_logits[v], tf_logits[v], 2e-4f)
          << GetParam() << " step " << t << " vocab " << v;
    }
    if (t < tgt.size()) last = tgt[t];
  }
}

TEST_P(Seq2SeqArchTest, ClonedStatesEvolveIndependently) {
  Rng rng(3);
  auto model = MakeByName(GetParam(), SmallConfig(), rng);
  model->SetTraining(false);
  NoGradGuard no_grad;
  auto a = model->StartDecode({4, 5});
  model->Step(*a, kBosId);
  auto b = a->Clone();
  // Feed different tokens to the two states; their next logits must differ.
  const std::vector<float> la = model->Step(*a, 6);
  const std::vector<float> lb = model->Step(*b, 7);
  double diff = 0.0;
  for (int v = 0; v < 20; ++v) diff += std::fabs(la[v] - lb[v]);
  EXPECT_GT(diff, 1e-4);
  // And feeding the same token to a fresh clone reproduces the original.
  auto c = model->StartDecode({4, 5});
  model->Step(*c, kBosId);
  const std::vector<float> lc = model->Step(*c, 6);
  for (int v = 0; v < 20; ++v) EXPECT_NEAR(la[v], lc[v], 1e-5f);
}

TEST_P(Seq2SeqArchTest, SteppingACloneLeavesItsSourceAlone) {
  Rng rng(3);
  auto model = MakeByName(GetParam(), SmallConfig(), rng);
  model->SetTraining(false);
  NoGradGuard no_grad;
  auto reference = model->StartDecode({4, 5, 6});
  model->Step(*reference, kBosId);
  const std::vector<float> want = model->Step(*reference, 6);

  auto source = model->StartDecode({4, 5, 6});
  model->Step(*source, kBosId);
  auto clone = source->Clone();
  model->Step(*clone, 7);  // The clone steps first, with another token.
  model->Step(*clone, 8);
  const std::vector<float> got = model->Step(*source, 6);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0);
}

TEST_P(Seq2SeqArchTest, OverfitsTinyDataset) {
  Rng rng(4);
  auto model = MakeByName(GetParam(), SmallConfig(), rng);
  const std::vector<SeqPair> data = {
      {{4, 5}, {10, 11, 12}},
      {{6, 7}, {13, 14}},
      {{8}, {15}},
  };
  SupervisedTrainOptions options;
  options.max_steps = 250;
  options.batch_size = 3;
  options.noam_warmup = 50;
  TrainSupervised(*model, data, options);
  model->SetTraining(false);
  for (const SeqPair& p : data) {
    DecodeOptions decode_options;
    decode_options.max_len = 6;
    const DecodedSequence out = GreedyDecode(*model, p.src, decode_options);
    EXPECT_EQ(out.ids, p.tgt) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, Seq2SeqArchTest,
                         ::testing::Values("transformer", "attention-gru",
                                           "pure-rnn", "pure-lstm",
                                           "hybrid"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(TransformerTest, AttentionCaptureProducesDistribution) {
  Rng rng(5);
  TransformerSeq2Seq model(SmallConfig(), rng);
  model.SetTraining(false);
  model.SetCaptureAttention(true);
  NoGradGuard no_grad;
  // A teacher-forced Forward captures one row per target position.
  const TeacherForcedBatch tf = MakeTeacherForced({{9, 10}});
  model.Forward(PadBatch({{4, 5, 6}}), tf.inputs);
  const std::vector<float> forward_attn = model.LastCrossAttention();
  ASSERT_EQ(model.LastAttentionCols(), 3);
  ASSERT_EQ(model.LastAttentionRows(), tf.inputs.max_len);
  ASSERT_EQ(forward_attn.size(), 9u);
  for (int i = 0; i < 3; ++i) {
    float row = 0.0f;
    for (int j = 0; j < 3; ++j) row += forward_attn[i * 3 + j];
    EXPECT_NEAR(row, 1.0f, 1e-4f);
  }
  // A Step captures the one row of the position it fed: here position 1,
  // the same row the Forward captured for input token 9.
  auto state = model.StartDecode({4, 5, 6});
  model.Step(*state, kBosId);
  model.Step(*state, 9);
  ASSERT_EQ(model.LastAttentionRows(), 1);
  ASSERT_EQ(model.LastAttentionCols(), 3);
  const auto& step_attn = model.LastCrossAttention();
  ASSERT_EQ(step_attn.size(), 3u);
  for (int j = 0; j < 3; ++j) EXPECT_EQ(step_attn[j], forward_attn[3 + j]);
}

// The paper-scaled query-to-title shape (Table II, CPU-scaled).
Seq2SeqConfig PaperScaledShape() {
  Seq2SeqConfig config;
  config.vocab_size = 40;
  config.d_model = 32;
  config.num_heads = 2;
  config.ff_hidden = 64;
  config.num_layers = 4;
  config.dropout = 0.1f;
  return config;
}

bool SameBits(const std::vector<float>& a, const float* b) {
  return std::memcmp(a.data(), b, sizeof(float) * a.size()) == 0;
}

// Feeds 20 positions through cached Steps and requires each Step's logits
// to be the bytes of the last row of a teacher-forced Forward over the
// same prefix. At position 6 a Clone() forks off and is fed a different
// token; each branch must keep matching its own prefix.
void ExpectCachedStepsMatchPrefixForward(const TransformerSeq2Seq& model) {
  const std::vector<int32_t> src = {4, 5, 6, 7, 8, 9, 10};
  const EncodedBatch src_batch = PadBatch({src});
  const int64_t v = model.vocab_size();
  struct Branch {
    std::unique_ptr<DecodeState> state;
    std::vector<int32_t> prefix;
  };
  std::vector<Branch> branches;
  branches.push_back({model.StartDecode(src), {}});
  for (int pos = 0; pos < 20; ++pos) {
    if (pos == 6) {
      branches.push_back({branches[0].state->Clone(), branches[0].prefix});
    }
    for (size_t b = 0; b < branches.size(); ++b) {
      Branch& branch = branches[b];
      const int32_t token =
          pos == 0 ? kBosId
                   : static_cast<int32_t>(
                         kNumSpecialTokens +
                         (pos * 7 + b * 13) % (v - kNumSpecialTokens));
      branch.prefix.push_back(token);
      const std::vector<float> step = model.Step(*branch.state, token);
      const Tensor logits =
          model.Forward(src_batch, PadBatch({branch.prefix}));
      ASSERT_EQ(static_cast<int64_t>(step.size()), v);
      ASSERT_TRUE(SameBits(step, logits.data() + pos * v))
          << "branch " << b << " position " << pos;
    }
  }
}

TEST(TransformerTest, CachedStepMatchesPrefixForwardInEvalMode) {
  Rng rng(21);
  TransformerSeq2Seq model(PaperScaledShape(), rng);
  model.SetTraining(false);
  ExpectCachedStepsMatchPrefixForward(model);
}

TEST(TransformerTest, CachedStepMatchesPrefixForwardInTrainingModeNoGrad) {
  // How the cyclic training step decodes: the model stays in training
  // mode and NoGradGuard turns dropout off.
  Rng rng(22);
  TransformerSeq2Seq model(PaperScaledShape(), rng);
  model.SetTraining(true);
  NoGradGuard no_grad;
  ExpectCachedStepsMatchPrefixForward(model);
}

TEST(RnnTest, GruCellKeepsHiddenBounded) {
  Rng rng(6);
  GruCell cell(8, 8, rng);
  Tensor h = Tensor::Zeros(Shape{1, 8});
  Tensor x = Tensor::Randn(Shape{1, 8}, rng, 5.0f);
  for (int t = 0; t < 50; ++t) h = cell.Step(x, h);
  for (int j = 0; j < 8; ++j) {
    EXPECT_LE(std::fabs(h.data()[j]), 1.0f + 1e-5f);
  }
}

TEST(RnnTest, LstmCellKeepsHiddenBounded) {
  Rng rng(8);
  LstmCell cell(8, 8, rng);
  Tensor state = Tensor::Zeros(Shape{1, 16});
  Tensor x = Tensor::Randn(Shape{1, 8}, rng, 5.0f);
  for (int t = 0; t < 50; ++t) state = cell.Step(x, state);
  Tensor h = cell.OutputFromState(state);
  for (int j = 0; j < 8; ++j) {
    EXPECT_LE(std::fabs(h.data()[j]), 1.0f + 1e-5f);
  }
}

TEST(RnnTest, LstmStateRoundTrip) {
  Rng rng(9);
  LstmCell cell(4, 6, rng);
  EXPECT_EQ(cell.state_size(), 12);
  Tensor h = Tensor::Randn(Shape{2, 6}, rng);
  Tensor state = cell.StateFromOutput(h);
  ASSERT_EQ(state.shape(), Shape({2, 12}));
  Tensor back = cell.OutputFromState(state);
  for (int64_t i = 0; i < h.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(back.data()[i], h.data()[i]);
  }
  // Cell memory component starts at zero.
  for (int64_t i = 0; i < 12; ++i) {
    if (i % 12 >= 6) {
      EXPECT_FLOAT_EQ(state.data()[i], 0.0f);
    }
  }
}

TEST(RnnTest, EncoderMaskFreezesHiddenOnPadding) {
  Rng rng(7);
  Seq2SeqConfig config = SmallConfig();
  RnnEncoder encoder(config, CellType::kGru, rng);
  encoder.SetTraining(false);
  NoGradGuard no_grad;
  // Same sequence with and without trailing padding: final hidden equal.
  EncodedBatch padded = PadBatch({{4, 5}, {4, 5, 6}});  // Row 0 padded.
  RnnEncoder::Output out = encoder.Forward(padded);
  EncodedBatch exact = PadBatch({{4, 5}});
  RnnEncoder::Output ref = encoder.Forward(exact);
  for (int j = 0; j < config.d_model; ++j) {
    EXPECT_NEAR(out.final_hidden.data()[j], ref.final_hidden.data()[j],
                1e-5f);
  }
}

}  // namespace
}  // namespace cyqr

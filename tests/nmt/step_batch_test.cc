// StepBatch against its oracle, the one-state Step: for every architecture,
// each row of a batched step must be the same bits as stepping that state
// alone, and the states must stay in lockstep across further steps.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "nmt/attention_seq2seq.h"
#include "nmt/hybrid.h"
#include "nmt/rnn.h"
#include "nmt/transformer.h"
#include "text/vocabulary.h"

namespace cyqr {
namespace {

constexpr int64_t kVocab = 23;

Seq2SeqConfig BatchConfig() {
  Seq2SeqConfig config;
  config.vocab_size = kVocab;
  config.d_model = 16;
  config.num_heads = 2;
  config.ff_hidden = 32;
  config.num_layers = 2;
  config.dropout = 0.1f;
  return config;
}

std::unique_ptr<Seq2SeqModel> MakeModel(const std::string& name, Rng& rng) {
  const Seq2SeqConfig config = BatchConfig();
  if (name == "transformer") {
    return std::make_unique<TransformerSeq2Seq>(config, rng);
  }
  if (name == "pure_rnn") return MakePureRnnSeq2Seq(config, rng);
  if (name == "attention_gru") return MakeAttentionSeq2Seq(config, rng);
  if (name == "pure_lstm") {
    return std::make_unique<RnnSeq2Seq>(config, CellType::kLstm,
                                        CellType::kLstm, AttentionKind::kDot,
                                        rng);
  }
  if (name == "hybrid") {
    return std::make_unique<HybridSeq2Seq>(config, CellType::kRnn, rng);
  }
  if (name == "hybrid_gru") {
    return std::make_unique<HybridSeq2Seq>(config, CellType::kGru, rng);
  }
  return nullptr;
}

/// The token state `j` is fed at position `pos`: different per state and
/// per position, never a special token.
int32_t TokenFor(int64_t j, int64_t pos) {
  return static_cast<int32_t>(kNumSpecialTokens +
                              (j * 7 + pos * 3) % (kVocab - kNumSpecialTokens));
}

using States = std::vector<std::unique_ptr<DecodeState>>;

/// k states at one position, each with its own history. Two sources of one
/// length each grow a lineage; state j is cloned from lineage j % 2 after j
/// steps and is then fed its own tokens up to `position` (> k).
States MakeStates(const Seq2SeqModel& model, int64_t k, int64_t position) {
  const std::vector<std::vector<int32_t>> sources = {{4, 5, 6, 7, 8},
                                                     {9, 5, 11, 12, 6}};
  States lineages;
  for (const auto& src : sources) lineages.push_back(model.StartDecode(src));
  States states(static_cast<size_t>(k));
  std::vector<int64_t> fed(static_cast<size_t>(k), 0);
  for (int64_t pos = 0; pos < position; ++pos) {
    if (pos < k) {
      states[pos] = lineages[pos % 2]->Clone();
      fed[pos] = pos;
    }
    for (size_t s = 0; s < lineages.size(); ++s) {
      model.Step(*lineages[s], TokenFor(100 + s, pos));
    }
    for (int64_t j = 0; j < k && j <= pos; ++j) {
      model.Step(*states[j], TokenFor(j, fed[j]++));
    }
  }
  return states;
}

States CloneAll(const States& states) {
  States out;
  for (const auto& s : states) out.push_back(s->Clone());
  return out;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Steps a copy of `states` one state at a time and another copy as one
/// batch, `steps` times, and requires every row to match bit for bit.
void ExpectBatchMatchesOneStateSteps(const Seq2SeqModel& model,
                                     const States& states, int64_t position,
                                     int64_t steps) {
  States single = CloneAll(states);
  States batched = CloneAll(states);
  const int64_t k = static_cast<int64_t>(states.size());
  for (int64_t step = 0; step < steps; ++step) {
    std::vector<DecodeState*> ptrs;
    std::vector<int32_t> tokens;
    for (int64_t j = 0; j < k; ++j) {
      ptrs.push_back(batched[j].get());
      tokens.push_back(TokenFor(j + 3, position + step));
    }
    const std::vector<std::vector<float>> rows = model.StepBatch(ptrs, tokens);
    ASSERT_EQ(static_cast<int64_t>(rows.size()), k);
    for (int64_t j = 0; j < k; ++j) {
      const std::vector<float> oracle = model.Step(*single[j], tokens[j]);
      ASSERT_EQ(static_cast<int64_t>(oracle.size()), kVocab);
      EXPECT_TRUE(SameBits(rows[j], oracle))
          << model.name() << " k=" << k << " state " << j << " step "
          << step;
    }
  }
}

struct Case {
  std::string arch;
  bool training;  // Training mode under NoGradGuard, or eval mode.
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.arch << (c.training ? " training" : " eval");
}

class StepBatchTest : public ::testing::TestWithParam<Case> {};

TEST_P(StepBatchTest, RowsMatchOneStateStepsBitForBit) {
  Rng rng(17);
  std::unique_ptr<Seq2SeqModel> model = MakeModel(GetParam().arch, rng);
  ASSERT_NE(model, nullptr);
  model->SetTraining(GetParam().training);
  NoGradGuard no_grad;
  for (const int64_t k : {1, 2, 3, 5}) {
    const int64_t position = k + 1;
    const States states = MakeStates(*model, k, position);
    ExpectBatchMatchesOneStateSteps(*model, states, position, /*steps=*/3);
  }
}

TEST_P(StepBatchTest, OneStateBatchIsStep) {
  Rng rng(18);
  std::unique_ptr<Seq2SeqModel> model = MakeModel(GetParam().arch, rng);
  ASSERT_NE(model, nullptr);
  model->SetTraining(GetParam().training);
  NoGradGuard no_grad;
  auto a = model->StartDecode({4, 5, 6});
  auto b = model->StartDecode({4, 5, 6});
  for (int64_t pos = 0; pos < 4; ++pos) {
    const int32_t token = pos == 0 ? kBosId : TokenFor(1, pos);
    const std::vector<float> stepped = model->Step(*a, token);
    const std::vector<std::vector<float>> rows =
        model->StepBatch({b.get()}, {token});
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_TRUE(SameBits(rows[0], stepped)) << "position " << pos;
  }
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return info.param.arch + (info.param.training ? "_training_nograd" : "_eval");
}

INSTANTIATE_TEST_SUITE_P(
    AllDecoders, StepBatchTest,
    ::testing::Values(Case{"transformer", false}, Case{"transformer", true},
                      Case{"pure_rnn", false}, Case{"pure_rnn", true},
                      Case{"attention_gru", false},
                      Case{"attention_gru", true}, Case{"pure_lstm", false},
                      Case{"pure_lstm", true}, Case{"hybrid", false},
                      Case{"hybrid", true}, Case{"hybrid_gru", false},
                      Case{"hybrid_gru", true}),
    CaseName);

TEST(StepBatchTest, TransformerRejectsStatesAtDifferentPositions) {
  Rng rng(19);
  TransformerSeq2Seq model(BatchConfig(), rng);
  model.SetTraining(false);
  NoGradGuard no_grad;
  auto a = model.StartDecode({4, 5, 6});
  auto b = model.StartDecode({4, 5, 6});
  model.Step(*a, kBosId);
  EXPECT_DEATH(model.StepBatch({a.get(), b.get()}, {6, 7}), "position");
}

}  // namespace
}  // namespace cyqr

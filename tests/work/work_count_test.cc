// Exact work counts: tensor ops per decode step, heap allocations per op,
// and the ops and allocations of one taped training step. Under fixed
// inputs these are the same on every host, so they pin the cost of a step
// where a timing could not. This binary replaces the global operator new
// to count allocations, so it links no other test.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "nmt/attention_seq2seq.h"
#include "nmt/batch.h"
#include "nmt/hybrid.h"
#include "nmt/rnn.h"
#include "nmt/transformer.h"
#include "rewrite/config.h"
#include "rewrite/cycle_model.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "text/vocabulary.h"

namespace {
thread_local int64_t g_allocations = 0;
}  // namespace

// The replacements pair malloc with free, which GCC cannot see once it
// inlines them into a new-expression's caller.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace cyqr {
namespace {

constexpr int64_t kVocab = 40;

/// Ops and allocations this thread makes while `fn` runs.
struct Work {
  int64_t ops = 0;
  int64_t allocations = 0;
};
template <typename Fn>
Work Measure(Fn fn) {
  const int64_t ops = ThreadOpCount();
  const int64_t allocations = g_allocations;
  fn();
  return {ThreadOpCount() - ops, g_allocations - allocations};
}

Seq2SeqConfig DirectConfig() {
  Seq2SeqConfig config;  // The serving world's direct model.
  config.vocab_size = kVocab;
  config.d_model = 32;
  config.num_heads = 2;
  config.ff_hidden = 64;
  config.num_layers = 1;
  return config;
}

std::unique_ptr<Seq2SeqModel> MakeModel(const std::string& name, Rng& rng) {
  const CycleConfig paper = PaperScaledConfig(kVocab);
  if (name == "transformer4") {
    return std::make_unique<TransformerSeq2Seq>(paper.forward, rng);
  }
  if (name == "transformer1") {
    return std::make_unique<TransformerSeq2Seq>(paper.backward, rng);
  }
  if (name == "hybrid") {
    return std::make_unique<HybridSeq2Seq>(DirectConfig(), CellType::kRnn, rng);
  }
  if (name == "pure_rnn") return MakePureRnnSeq2Seq(DirectConfig(), rng);
  if (name == "attention_gru") return MakeAttentionSeq2Seq(DirectConfig(), rng);
  if (name == "pure_lstm") {
    return std::make_unique<RnnSeq2Seq>(DirectConfig(), CellType::kLstm,
                                        CellType::kLstm, AttentionKind::kDot,
                                        rng);
  }
  return nullptr;
}

/// Tensor ops of one step of `k` states at decode position 2.
int64_t OpsPerStep(const Seq2SeqModel& model, int64_t k) {
  NoGradGuard no_grad;
  std::vector<std::unique_ptr<DecodeState>> owned;
  std::vector<DecodeState*> states;
  for (int64_t i = 0; i < k; ++i) {
    owned.push_back(model.StartDecode({4, 5, 6, 7}));
    model.Step(*owned.back(), kBosId);
    model.Step(*owned.back(), 5);
    states.push_back(owned.back().get());
  }
  const std::vector<int32_t> tokens(static_cast<size_t>(k), 6);
  return Measure([&] { model.StepBatch(states, tokens); }).ops;
}

struct StepCase {
  std::string arch;
  int64_t ops;  // Tensor ops per step of one state, and of any batch.
};

// The test's name carries the architecture alone, so a change that moves
// a pin renames no test.
void PrintTo(const StepCase& c, std::ostream* os) { *os << c.arch; }

class OpsPerStepTest : public ::testing::TestWithParam<StepCase> {};

TEST_P(OpsPerStepTest, OneStateAndEveryBatchRunTheSameOps) {
  Rng rng(5);
  const std::unique_ptr<Seq2SeqModel> model = MakeModel(GetParam().arch, rng);
  ASSERT_NE(model, nullptr);
  model->SetTraining(false);
  EXPECT_EQ(OpsPerStep(*model, 1), GetParam().ops);
  for (const int64_t k : {2, 3, 5}) {
    EXPECT_EQ(OpsPerStep(*model, k), GetParam().ops) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Decoders, OpsPerStepTest,
    ::testing::Values(StepCase{"transformer4", 121},
                      StepCase{"transformer1", 34}, StepCase{"hybrid", 15},
                      StepCase{"pure_rnn", 15}, StepCase{"attention_gru", 32},
                      StepCase{"pure_lstm", 37}),
    [](const ::testing::TestParamInfo<StepCase>& info) {
      return info.param.arch;
    });

Tensor Row(Rng& rng) { return Tensor::Randn(Shape{1, 32}, rng); }

TEST(AllocationsPerOpTest, NoGradOpAllocatesItsBufferAndImplOnly) {
  Rng rng(6);
  Tensor a = Row(rng);
  a.set_requires_grad(true);
  const Tensor b = Row(rng);
  NoGradGuard no_grad;
  const Work work = Measure([&] { Tensor c = Add(a, b); });
  EXPECT_EQ(work.ops, 1);
  EXPECT_EQ(work.allocations, 2);
}

TEST(AllocationsPerOpTest, TapedOpAddsInputsClosureAndNode) {
  Rng rng(7);
  Tensor a = Row(rng);
  a.set_requires_grad(true);
  const Tensor b = Row(rng);
  const Work work = Measure([&] { Tensor c = Add(a, b); });
  EXPECT_EQ(work.ops, 1);
  EXPECT_EQ(work.allocations, 3);
}

TEST(AllocationsPerOpTest, TapedStackOfManyInputsAddsItsInputVector) {
  Rng rng(10);
  std::vector<Tensor> steps;
  for (int i = 0; i < 4; ++i) steps.push_back(Row(rng));
  steps[0].set_requires_grad(true);
  const Work work = Measure([&] { Tensor c = StackRows(steps); });
  EXPECT_EQ(work.ops, 1);
  // Buffer, impl and node, the node's input vector and the closure's
  // vector of input impls.
  EXPECT_EQ(work.allocations, 5);
}

TEST(AllocationsPerOpTest, InactiveDropoutAllocatesNothing) {
  Rng rng(8);
  const Tensor x = Row(rng);
  const Work work =
      Measure([&] { Tensor y = DropoutOp(x, 0.1f, rng, /*training=*/false); });
  EXPECT_EQ(work.ops, 0);
  EXPECT_EQ(work.allocations, 0);
}

/// The loss of one warm-up (non-cyclic) training shard, as the trainer
/// builds it: L_f + L_b, two teacher-forced cross-entropies.
Tensor WarmUpShardLoss(CycleModel& model) {
  const std::vector<std::vector<int32_t>> queries = {{4, 5, 6}, {7, 8}};
  const std::vector<std::vector<int32_t>> titles = {{9, 10, 11, 12},
                                                    {13, 14, 15}};
  const CycleConfig& config = model.config();
  const EncodedBatch q_batch = PadBatch(queries, config.max_query_len);
  const TeacherForcedBatch t_tf =
      MakeTeacherForced(titles, config.max_title_len);
  const Tensor lf = MaskedCrossEntropy(
      model.forward().Forward(q_batch, t_tf.inputs), t_tf.targets,
      t_tf.target_mask);
  const EncodedBatch t_batch = PadBatch(titles, config.max_title_len);
  const TeacherForcedBatch q_tf =
      MakeTeacherForced(queries, config.max_query_len);
  const Tensor lb = MaskedCrossEntropy(
      model.backward().Forward(t_batch, q_tf.inputs), q_tf.targets,
      q_tf.target_mask);
  return Add(lf, lb);
}

TEST(TrainingStepWorkTest, PaperScaledWarmUpShardStep) {
  Rng rng(9);
  CycleModel model(PaperScaledConfig(kVocab), rng);
  model.SetTraining(true);
  // One step first, so the parameters' gradient buffers and the per-thread
  // tables exist, as they do in every step after a run's first.
  WarmUpShardLoss(model).Backward();
  const Work work = Measure([&] {
    Tensor loss = WarmUpShardLoss(model);
    loss.Backward();
  });
  EXPECT_EQ(work.ops, 325);
  EXPECT_EQ(work.allocations, 1550);
}

}  // namespace
}  // namespace cyqr

// Exact work counts: tensor ops per decode step, heap allocations per op,
// and the ops, allocations and peak live heap bytes of one taped training
// step. Under fixed inputs these are the same on every host, so they pin
// the cost of a step where a timing could not. This binary replaces the
// global operator new to count allocations and bytes, so it links no other
// test.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "decode/topn_sampling.h"
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
// Bytes this thread has allocated less the bytes it has freed, and the
// highest that has been since Measure last reset it.
thread_local int64_t g_live_bytes = 0;
thread_local int64_t g_peak_bytes = 0;

// Each block starts with a header that records its size, padded so the
// caller's bytes keep malloc's alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* CountedAlloc(std::size_t size) {
  ++g_allocations;
  void* base = std::malloc(kHeader + size);
  if (base == nullptr) return nullptr;
  std::memcpy(base, &size, sizeof(size));
  g_live_bytes += static_cast<int64_t>(size);
  if (g_live_bytes > g_peak_bytes) g_peak_bytes = g_live_bytes;
  return static_cast<char*>(base) + kHeader;
}

// Kept out of line: inlined into a delete-expression, the step back to
// the header reads as an index before the deleted object (-Warray-bounds).
[[gnu::noinline]] void CountedFree(void* p) {
  if (p == nullptr) return;
  char* base = static_cast<char*>(p) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, base, sizeof(size));
  g_live_bytes -= static_cast<int64_t>(size);
  std::free(base);
}
}  // namespace

// The replacements pair malloc with free, which GCC cannot see once it
// inlines them into a new-expression's caller. Every unaligned form is
// replaced, so no block reaches CountedFree without its header, even where
// a sanitizer runtime supplies the forms left out (std::stable_sort's
// buffer comes from the nothrow form and goes back through the plain one).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
#pragma GCC diagnostic pop

namespace cyqr {
namespace {

constexpr int64_t kVocab = 40;

/// Ops and allocations this thread makes while `fn` runs, and the most
/// heap bytes it holds at once above what it held when `fn` began.
struct Work {
  int64_t ops = 0;
  int64_t allocations = 0;
  int64_t peak_bytes = 0;
};
template <typename Fn>
Work Measure(Fn fn) {
  const int64_t ops = ThreadOpCount();
  const int64_t allocations = g_allocations;
  const int64_t live = g_live_bytes;
  g_peak_bytes = live;
  fn();
  return {ThreadOpCount() - ops, g_allocations - allocations,
          g_peak_bytes - live};
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

/// The loss of one cyclic training shard, as the trainer builds it:
/// L_f + L_b, then k top-n sampled titles per query (from `decode_rng`)
/// and the cycle term over them, L_f + L_b - lambda * L_c.
Tensor CyclicShardLoss(CycleModel& model, Rng& decode_rng) {
  const std::vector<std::vector<int32_t>> queries = {{4, 5, 6}, {7, 8}};
  const CycleConfig& config = model.config();
  const int64_t k = config.beam_width;
  DecodeOptions options;
  options.beam_size = k;
  options.top_n = config.top_n;
  options.max_len = config.max_title_len;
  std::vector<std::vector<int32_t>> synth_queries;
  std::vector<std::vector<int32_t>> synth_titles;
  for (const std::vector<int32_t>& q : queries) {
    std::vector<DecodedSequence> decoded =
        TopNSamplingDecode(model.forward(), q, options, decode_rng);
    while (static_cast<int64_t>(decoded.size()) < k && !decoded.empty()) {
      decoded.push_back(decoded.back());
    }
    if (decoded.empty()) {
      decoded.assign(static_cast<size_t>(k), DecodedSequence{{kUnkId}, 0.0});
    }
    for (int64_t i = 0; i < k; ++i) {
      synth_queries.push_back(q);
      synth_titles.push_back(decoded[i].ids);
    }
  }
  const EncodedBatch sq_batch = PadBatch(synth_queries, config.max_query_len);
  const TeacherForcedBatch st_tf =
      MakeTeacherForced(synth_titles, config.max_title_len);
  const Tensor lpf =
      SequenceLogProb(model.forward().Forward(sq_batch, st_tf.inputs),
                      st_tf.targets, st_tf.target_mask);
  const EncodedBatch st_batch = PadBatch(synth_titles, config.max_title_len);
  const TeacherForcedBatch sq_tf =
      MakeTeacherForced(synth_queries, config.max_query_len);
  const Tensor lpb =
      SequenceLogProb(model.backward().Forward(st_batch, sq_tf.inputs),
                      sq_tf.targets, sq_tf.target_mask);
  const Tensor lc = MeanAll(GroupLogSumExp(Add(lpf, lpb), k));
  return Sub(WarmUpShardLoss(model), Scale(lc, config.lambda));
}

// The warm-up and cyclic steps are measured after one step of their kind,
// so the parameters' gradient buffers and the per-thread tables exist, as
// they do in every step after a run's first. The peak is the step's tape
// and gradients: Backward frees each op's node, saved buffers and gradient
// as soon as the op has fired.
TEST(TrainingStepWorkTest, PaperScaledWarmUpShardStep) {
  Rng rng(9);
  CycleModel model(PaperScaledConfig(kVocab), rng);
  model.SetTraining(true);
  WarmUpShardLoss(model).Backward();
  const Work work = Measure([&] {
    Tensor loss = WarmUpShardLoss(model);
    loss.Backward();
  });
  EXPECT_EQ(work.ops, 325);
  EXPECT_EQ(work.allocations, 1423);
  EXPECT_EQ(work.peak_bytes, 438204);
}

TEST(TrainingStepWorkTest, PaperScaledCyclicShardStep) {
  Rng rng(9);
  CycleModel model(PaperScaledConfig(kVocab), rng);
  model.SetTraining(true);
  Rng warm_decode_rng(10);
  CyclicShardLoss(model, warm_decode_rng).Backward();
  Rng decode_rng(11);
  const Work work = Measure([&] {
    Tensor loss = CyclicShardLoss(model, decode_rng);
    loss.Backward();
  });
  EXPECT_EQ(work.ops, 5695);
  EXPECT_EQ(work.allocations, 20497);
  EXPECT_EQ(work.peak_bytes, 3722356);
}

}  // namespace
}  // namespace cyqr

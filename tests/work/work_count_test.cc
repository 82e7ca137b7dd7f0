// Exact work counts: tensor ops per decode step, heap allocations per op,
// and the ops, allocations and peak live heap bytes of one taped training
// step. Under fixed inputs these are the same on every host, so they pin
// the cost of a step where a timing could not. WorkLedgerTest renders them
// into the repository's BENCH_work.json and fails on any difference, so a
// change that moves the work shows it as a diff of that file: on a
// mismatch it writes BENCH_work.actual.json to its working directory, to
// be reviewed and copied over the committed file. The other tests check
// what makes the counts exact: a decode step runs the same ops at every
// batch size, an op's allocations are the pieces it builds, and a step's
// work repeats. This binary replaces the global operator new to count
// allocations and bytes, so it links no other test.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <ostream>
#include <sstream>
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

  bool operator==(const Work&) const = default;
};

void PrintTo(const Work& w, std::ostream* os) {
  *os << "{ops " << w.ops << ", allocations " << w.allocations
      << ", peak_bytes " << w.peak_bytes << "}";
}

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

// The decoders the ledger counts: the paper-scaled forward (4 layers) and
// backward (1 layer) transformers, and the direct-model architectures.
const char* const kDecoders[] = {"transformer4", "transformer1", "hybrid",
                                 "pure_rnn",     "attention_gru", "pure_lstm"};

/// Tensor ops of one decode step of one state of `arch`.
int64_t DecodeStepOps(const std::string& arch) {
  Rng rng(5);
  const std::unique_ptr<Seq2SeqModel> model = MakeModel(arch, rng);
  CYQR_CHECK(model != nullptr);
  model->SetTraining(false);
  return OpsPerStep(*model, 1);
}

struct StepCase {
  std::string arch;
};

// The test's name carries the architecture alone.
void PrintTo(const StepCase& c, std::ostream* os) { *os << c.arch; }

class OpsPerStepTest : public ::testing::TestWithParam<StepCase> {};

TEST_P(OpsPerStepTest, OneStateAndEveryBatchRunTheSameOps) {
  Rng rng(5);
  const std::unique_ptr<Seq2SeqModel> model = MakeModel(GetParam().arch, rng);
  ASSERT_NE(model, nullptr);
  model->SetTraining(false);
  const int64_t one_state = OpsPerStep(*model, 1);
  EXPECT_GT(one_state, 0);
  for (const int64_t k : {2, 3, 5}) {
    EXPECT_EQ(OpsPerStep(*model, k), one_state) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Decoders, OpsPerStepTest,
    ::testing::Values(StepCase{kDecoders[0]}, StepCase{kDecoders[1]},
                      StepCase{kDecoders[2]}, StepCase{kDecoders[3]},
                      StepCase{kDecoders[4]}, StepCase{kDecoders[5]}),
    [](const ::testing::TestParamInfo<StepCase>& info) {
      return info.param.arch;
    });

Tensor Row(Rng& rng) { return Tensor::Randn(Shape{1, 32}, rng); }

/// An Add of two 1 x 32 rows, one of them a trainable leaf, recorded on
/// the tape unless `no_grad`.
Work AddOfTwoRows(bool no_grad) {
  Rng rng(6);
  Tensor a = Row(rng);
  a.set_requires_grad(true);
  const Tensor b = Row(rng);
  if (no_grad) {
    NoGradGuard guard;
    return Measure([&] { Tensor c = Add(a, b); });
  }
  return Measure([&] { Tensor c = Add(a, b); });
}

/// A taped StackRows of four 1 x 32 rows.
Work TapedStackOfFourRows() {
  Rng rng(10);
  std::vector<Tensor> steps;
  for (int i = 0; i < 4; ++i) steps.push_back(Row(rng));
  steps[0].set_requires_grad(true);
  return Measure([&] { Tensor c = StackRows(steps); });
}

TEST(AllocationsPerOpTest, NoGradOpAllocatesItsBufferAndImplOnly) {
  const Work op = AddOfTwoRows(/*no_grad=*/true);
  EXPECT_EQ(op.ops, 1);
  const Work buffer_and_impl = Measure([] {
    Tensor t = Tensor::FromData(Shape{1, 32}, std::vector<float>(32));
  });
  EXPECT_EQ(op.allocations, buffer_and_impl.allocations);
}

TEST(AllocationsPerOpTest, TapedOpAddsInputsClosureAndNode) {
  const Work op = AddOfTwoRows(/*no_grad=*/false);
  EXPECT_EQ(op.ops, 1);
  // One allocation holds the inputs and the closure: the node.
  EXPECT_EQ(op.allocations, AddOfTwoRows(/*no_grad=*/true).allocations + 1);
}

TEST(AllocationsPerOpTest, TapedStackOfManyInputsAddsItsInputVector) {
  const Work op = TapedStackOfFourRows();
  EXPECT_EQ(op.ops, 1);
  // Beyond a taped op's three: the node's input vector.
  EXPECT_EQ(op.allocations, AddOfTwoRows(/*no_grad=*/false).allocations + 1);
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

// Steps are measured after one step of their kind, so the parameters'
// gradient buffers and the per-thread tables exist, as they do in every
// step after a run's first. The peak is the step's tape and gradients:
// an op output gives its values back once no handle holds it and no
// recorded backward reads them, and Backward frees each op's node, saved
// buffers and gradient as soon as the op has fired.

/// The work of `steps` paper-scaled warm-up shard steps, one at a time.
std::vector<Work> WarmUpShardSteps(int steps) {
  Rng rng(9);
  CycleModel model(PaperScaledConfig(kVocab), rng);
  model.SetTraining(true);
  WarmUpShardLoss(model).Backward();
  std::vector<Work> work;
  for (int i = 0; i < steps; ++i) {
    work.push_back(Measure([&] {
      Tensor loss = WarmUpShardLoss(model);
      loss.Backward();
    }));
  }
  return work;
}

/// The work of `steps` paper-scaled cyclic shard steps, each decoding from
/// the same stream, so each decodes the same titles.
std::vector<Work> CyclicShardSteps(int steps) {
  Rng rng(9);
  CycleModel model(PaperScaledConfig(kVocab), rng);
  model.SetTraining(true);
  Rng warm_decode_rng(10);
  CyclicShardLoss(model, warm_decode_rng).Backward();
  std::vector<Work> work;
  for (int i = 0; i < steps; ++i) {
    Rng decode_rng(11);
    work.push_back(Measure([&] {
      Tensor loss = CyclicShardLoss(model, decode_rng);
      loss.Backward();
    }));
  }
  return work;
}

TEST(TrainingStepWorkTest, PaperScaledWarmUpShardStep) {
  const std::vector<Work> work = WarmUpShardSteps(2);
  EXPECT_GT(work[0].ops, 0);
  EXPECT_EQ(work[1], work[0]) << "a warm-up step's work does not repeat";
}

TEST(TrainingStepWorkTest, PaperScaledCyclicShardStep) {
  const std::vector<Work> work = CyclicShardSteps(2);
  EXPECT_GT(work[0].ops, 0);
  EXPECT_EQ(work[1], work[0]) << "a cyclic step's work does not repeat";
}

std::string RenderStep(const Work& w) {
  return "{\"ops\": " + std::to_string(w.ops) + ", \"allocations\": " +
         std::to_string(w.allocations) + ", \"peak_bytes\": " +
         std::to_string(w.peak_bytes) + "}";
}

/// BENCH_work.json as this build counts it.
std::string RenderLedger() {
  std::ostringstream out;
  out << "{\n  \"about\": \"Exact work of one unit operation under fixed "
         "inputs, the same on every host; tests/work/work_count_test.cc "
         "recomputes this file and fails on any difference.\",\n";
  out << "  \"decode_step_ops\": {";
  const char* sep = "\n";
  for (const char* arch : kDecoders) {
    out << sep << "    \"" << arch << "\": " << DecodeStepOps(arch);
    sep = ",\n";
  }
  out << "\n  },\n";
  out << "  \"allocations_per_op\": {\n"
      << "    \"no_grad\": " << AddOfTwoRows(/*no_grad=*/true).allocations
      << ",\n    \"taped\": " << AddOfTwoRows(/*no_grad=*/false).allocations
      << ",\n    \"taped_stack_of_4\": " << TapedStackOfFourRows().allocations
      << "\n  },\n";
  out << "  \"warmup_shard_step\": " << RenderStep(WarmUpShardSteps(1)[0])
      << ",\n";
  out << "  \"cyclic_shard_step\": " << RenderStep(CyclicShardSteps(1)[0])
      << "\n}\n";
  return out.str();
}

TEST(WorkLedgerTest, MatchesBenchWorkJson) {
  const std::string actual = RenderLedger();
  std::ifstream committed_file(CYQR_WORK_LEDGER);
  ASSERT_TRUE(committed_file.is_open()) << "cannot open " << CYQR_WORK_LEDGER;
  std::ostringstream committed;
  committed << committed_file.rdbuf();
  if (committed.str() == actual) return;
  std::ofstream out("BENCH_work.actual.json");
  out << actual;
  out.close();
  EXPECT_TRUE(out.good()) << "cannot write BENCH_work.actual.json";
  ADD_FAILURE() << "the work differs from " << CYQR_WORK_LEDGER
                << "; this build's counts are in BENCH_work.actual.json:\n"
                << actual;
}

}  // namespace
}  // namespace cyqr

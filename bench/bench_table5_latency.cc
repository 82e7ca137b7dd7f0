// Regenerates Table V: encoder/decoder latency of RNN / GRU / Transformer
// components under the paper's measurement setup — beam width 3, one layer,
// vocabulary 3,000, maximum 15 decode steps, CPU.
//
// Paper numbers (ms): encoder RNN 6 / GRU 9 / Transformer 3.5;
//                     decoder RNN 30 / GRU 35 / Transformer 67.5.
// Shape to reproduce: the transformer ENCODER is competitive (one parallel
// pass over the tokens) while the transformer DECODER is the bottleneck
// (self-attention over all generated tokens at every step).
//
// Every decoder steps its beam as one batch (Seq2SeqModel::StepBatch), as
// the library's decode loop does. The transformer's step caches each
// layer's keys and values, so BM_DecoderTransformer measures the cached,
// batched engine. The paper's uncached
// cost model is BM_DecoderTransformerNoCache: the same loop, rebuilt from
// the public teacher-forced Forward over the growing prefix (which also
// re-encodes the source every step; BM_EncoderTransformer is that share).

#include <benchmark/benchmark.h>

#include "nmt/hybrid.h"
#include "nmt/rnn.h"
#include "nmt/transformer.h"
#include "text/vocabulary.h"

namespace {

using namespace cyqr;

constexpr int64_t kVocab = 3000;
constexpr int64_t kSeqLen = 15;
constexpr int64_t kBeam = 3;
constexpr int64_t kDecodeSteps = 15;

Seq2SeqConfig TableVConfig() {
  Seq2SeqConfig config;
  config.vocab_size = kVocab;
  config.d_model = 64;
  config.num_heads = 2;
  config.ff_hidden = 128;
  config.num_layers = 1;
  config.dropout = 0.0f;
  return config;
}

std::vector<int32_t> SourceTokens() {
  std::vector<int32_t> src(kSeqLen);
  for (int64_t i = 0; i < kSeqLen; ++i) {
    src[i] = static_cast<int32_t>(kNumSpecialTokens + i);
  }
  return src;
}

// --------------------------- Encoders ------------------------------------

void BM_EncoderRnn(benchmark::State& state) {
  Rng rng(1);
  RnnEncoder encoder(TableVConfig(), CellType::kRnn, rng);
  encoder.SetTraining(false);
  NoGradGuard no_grad;
  const EncodedBatch src = PadBatch({SourceTokens()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Forward(src).outputs.data());
  }
}
BENCHMARK(BM_EncoderRnn)->Unit(benchmark::kMillisecond);

void BM_EncoderGru(benchmark::State& state) {
  Rng rng(2);
  RnnEncoder encoder(TableVConfig(), CellType::kGru, rng);
  encoder.SetTraining(false);
  NoGradGuard no_grad;
  const EncodedBatch src = PadBatch({SourceTokens()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Forward(src).outputs.data());
  }
}
BENCHMARK(BM_EncoderGru)->Unit(benchmark::kMillisecond);

void BM_EncoderLstm(benchmark::State& state) {
  Rng rng(7);
  RnnEncoder encoder(TableVConfig(), CellType::kLstm, rng);
  encoder.SetTraining(false);
  NoGradGuard no_grad;
  const EncodedBatch src = PadBatch({SourceTokens()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Forward(src).outputs.data());
  }
}
BENCHMARK(BM_EncoderLstm)->Unit(benchmark::kMillisecond);

void BM_EncoderTransformer(benchmark::State& state) {
  Rng rng(3);
  TransformerEncoder encoder(TableVConfig(), rng);
  encoder.SetTraining(false);
  NoGradGuard no_grad;
  const EncodedBatch src = PadBatch({SourceTokens()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Forward(src).data());
  }
}
BENCHMARK(BM_EncoderTransformer)->Unit(benchmark::kMillisecond);

// --------------------------- Decoders ------------------------------------
// Each decoder benchmark measures a full beam-3, 15-step decode, excluding
// the encoder (states are prepared per iteration but encoding is the same
// tiny cost for all variants). Each step feeds the whole beam in one
// StepBatch call.

template <typename ModelT>
void RunBeamDecode(const ModelT& model, benchmark::State& state) {
  NoGradGuard no_grad;
  const std::vector<int32_t> src = SourceTokens();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::unique_ptr<DecodeState>> beam;
    std::vector<DecodeState*> states;
    for (int64_t b = 0; b < kBeam; ++b) {
      beam.push_back(model.StartDecode(src));
      states.push_back(beam.back().get());
    }
    state.ResumeTiming();
    int32_t token = kBosId;
    for (int64_t step = 0; step < kDecodeSteps; ++step) {
      const std::vector<std::vector<float>> logits =
          model.StepBatch(states, std::vector<int32_t>(kBeam, token));
      benchmark::DoNotOptimize(logits.data());
      token = static_cast<int32_t>(kNumSpecialTokens + (step % (kVocab / 2)));
    }
  }
}

void BM_DecoderRnn(benchmark::State& state) {
  Rng rng(4);
  RnnSeq2Seq model(TableVConfig(), CellType::kRnn, CellType::kRnn,
                   AttentionKind::kDot, rng);
  model.SetTraining(false);
  RunBeamDecode(model, state);
}
BENCHMARK(BM_DecoderRnn)->Unit(benchmark::kMillisecond);

void BM_DecoderGru(benchmark::State& state) {
  Rng rng(5);
  RnnSeq2Seq model(TableVConfig(), CellType::kGru, CellType::kGru,
                   AttentionKind::kDot, rng);
  model.SetTraining(false);
  RunBeamDecode(model, state);
}
BENCHMARK(BM_DecoderGru)->Unit(benchmark::kMillisecond);

void BM_DecoderLstm(benchmark::State& state) {
  Rng rng(8);
  RnnSeq2Seq model(TableVConfig(), CellType::kLstm, CellType::kLstm,
                   AttentionKind::kDot, rng);
  model.SetTraining(false);
  RunBeamDecode(model, state);
}
BENCHMARK(BM_DecoderLstm)->Unit(benchmark::kMillisecond);

void BM_DecoderTransformer(benchmark::State& state) {
  Rng rng(6);
  TransformerSeq2Seq model(TableVConfig(), rng);
  model.SetTraining(false);
  RunBeamDecode(model, state);
}
BENCHMARK(BM_DecoderTransformer)->Unit(benchmark::kMillisecond);

// Table V's paper-faithful transformer column: no K/V cache, so every step
// runs the decoder over the whole prefix and keeps only the last row.
void BM_DecoderTransformerNoCache(benchmark::State& state) {
  Rng rng(6);
  TransformerSeq2Seq model(TableVConfig(), rng);
  model.SetTraining(false);
  NoGradGuard no_grad;
  const EncodedBatch src = PadBatch({SourceTokens()});
  for (auto _ : state) {
    std::vector<std::vector<int32_t>> beam(kBeam);
    int32_t token = kBosId;
    for (int64_t step = 0; step < kDecodeSteps; ++step) {
      for (int64_t b = 0; b < kBeam; ++b) {
        beam[b].push_back(token);
        const Tensor logits = model.Forward(src, PadBatch({beam[b]}));
        const float* last = logits.data() + step * kVocab;
        const std::vector<float> next(last, last + kVocab);
        benchmark::DoNotOptimize(next.data());
        token = static_cast<int32_t>(kNumSpecialTokens +
                                     (step % (kVocab / 2)));
      }
    }
  }
}
BENCHMARK(BM_DecoderTransformerNoCache)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

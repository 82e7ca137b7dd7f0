// GEMM kernel throughput at every vector width this CPU supports, on the
// shapes that dominate training and decoding the paper-scaled joint model
// (d_model 32, two heads of 16, a 399-token vocabulary, 36 target rows per
// batch). One row per (shape, width); the GFLOP/s counter counts one
// multiply and one add per product.
//
//   ./build/bench/bench_gemm [--benchmark_filter=...]
//
// Shapes are m x n x k: C(m x n) = op(A)(m x k) * op(B)(k x n).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"
#include "tensor/gemm.h"

namespace {

using namespace cyqr;

struct GemmShape {
  const char* what;
  int64_t m;
  int64_t n;
  int64_t k;
  bool trans_a;
  bool trans_b;
};

const GemmShape kShapes[] = {
    {"linear_fwd", 36, 32, 32, false, false},
    {"linear_dA", 36, 32, 32, false, true},
    {"linear_dB", 32, 32, 36, true, false},
    {"vocab_fwd", 36, 399, 32, false, false},
    {"decode_row", 1, 399, 32, false, false},
    {"attn_scores", 18, 18, 16, false, true},
};

std::vector<float> Gaussian(int64_t count, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(count));
  for (float& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

void BM_Gemm(benchmark::State& state, GemmShape shape, int width) {
  Rng rng(5);
  const std::vector<float> a = Gaussian(shape.m * shape.k, rng);
  const std::vector<float> b = Gaussian(shape.k * shape.n, rng);
  std::vector<float> c(static_cast<size_t>(shape.m * shape.n));
  for (auto _ : state) {
    GemmAtWidth(width, shape.trans_a, shape.trans_b, shape.m, shape.n,
                shape.k, a.data(), b.data(), c.data(), /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2e-9 * static_cast<double>(shape.m * shape.n * shape.k),
      benchmark::Counter::kIsIterationInvariantRate);
}

}  // namespace

int main(int argc, char** argv) {
  for (const GemmShape& shape : kShapes) {
    for (const int width : GemmWidths()) {
      const std::string name =
          std::string("BM_Gemm/") + shape.what + "/" +
          std::to_string(shape.m) + "x" + std::to_string(shape.n) + "x" +
          std::to_string(shape.k) + (shape.trans_a ? "/trans_a" : "") +
          (shape.trans_b ? "/trans_b" : "") + "/W" + std::to_string(width);
      benchmark::RegisterBenchmark(name.c_str(), BM_Gemm, shape, width);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

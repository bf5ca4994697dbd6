// Wall-clock micro-benchmarks (google-benchmark) of the functional host
// kernels: detector scan, SRead/SWrite gather/scatter, PIT sparse matmuls and
// the CSR/BSR baselines. These measure the *reference implementation*, not
// simulated GPU time — useful to track regressions in the library itself.
// BM_GemmServingShapes reports GemmF32's GFLOP/s at the serving benchmark's
// GEMM shapes on the detected ISA tier and pinned to AVX2;
// BM_SoftmaxServingRows reports SoftmaxInto's time per row the same way.
#include <benchmark/benchmark.h>

#include <vector>

#include "pit/common/backend.h"
#include "pit/common/gemm_microkernel.h"
#include "pit/common/parallel_for.h"
#include "pit/core/compiler.h"
#include "pit/core/sparse_kernel.h"
#include "pit/core/sread_swrite.h"
#include "pit/sparse/csr.h"
#include "pit/tensor/ops.h"
#include "pit/workloads/attention_masks.h"

namespace pit {
namespace {

void BM_DetectorScan(benchmark::State& state) {
  Rng rng(1);
  Tensor t = Tensor::RandomSparse({512, 512}, 0.95, rng);
  SparsityDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.Detect(t, MicroTileShape{1, 8}));
  }
}
BENCHMARK(BM_DetectorScan);

void BM_SReadRows(benchmark::State& state) {
  Rng rng(2);
  Tensor t = Tensor::Random({1024, 256}, rng);
  std::vector<int64_t> rows;
  for (int64_t i = 0; i < 1024; i += 3) {
    rows.push_back(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SReadRows(t, rows));
  }
}
BENCHMARK(BM_SReadRows);

void BM_DenseMatmulReference(benchmark::State& state) {
  Rng rng(3);
  Tensor a = Tensor::Random({256, 256}, rng);
  Tensor b = Tensor::Random({256, 256}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
}
BENCHMARK(BM_DenseMatmulReference);

void BM_PitRowGatherMatmul(benchmark::State& state) {
  Rng rng(4);
  Tensor a = Tensor::RandomSparse({256, 256}, 0.9, rng);
  Tensor b = Tensor::Random({256, 256}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PitRowGatherMatmul(a, b));
  }
}
BENCHMARK(BM_PitRowGatherMatmul);

void BM_PitKGatherMatmul(benchmark::State& state) {
  Rng rng(5);
  Tensor a = Tensor::RandomSparse({256, 256}, 0.9, rng);
  Tensor b = Tensor::Random({256, 256}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PitKGatherMatmul(a, b, 32));
  }
}
BENCHMARK(BM_PitKGatherMatmul);

void BM_CsrSpMM(benchmark::State& state) {
  Rng rng(6);
  Tensor a = Tensor::RandomSparse({256, 256}, 0.9, rng);
  Tensor b = Tensor::Random({256, 256}, rng);
  CsrMatrix csr = CsrMatrix::FromDense(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(csr.SpMM(b));
  }
}
BENCHMARK(BM_CsrSpMM);

void BM_CsrConversion(benchmark::State& state) {
  Rng rng(7);
  Tensor a = Tensor::RandomSparse({512, 512}, 0.95, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CsrMatrix::FromDense(a));
  }
}
BENCHMARK(BM_CsrConversion);

void BM_KernelSelection(benchmark::State& state) {
  CostModel model(V100());
  TileDatabase db = TileDatabase::BuildDefault(model);
  AnalyticPattern pattern(4096, 4096, 8, 1, 0.95);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectKernel(model, db, {&pattern}, 4096, 4096, 4096));
  }
}
BENCHMARK(BM_KernelSelection);

// Args: m, k, n, pin_avx2 (0: detected tier). One thread, so the number is
// the register tile's, not the pool's.
void BM_GemmServingShapes(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t k = state.range(1);
  const int64_t n = state.range(2);
  const bool pin_avx2 = state.range(3) != 0;
  if (pin_avx2 && DetectedIsa() == IsaTier::kScalar) {
    state.SkipWithError("no AVX2+FMA on this machine");
    return;
  }
  ScopedBackend backend(ComputeBackend::kBlocked);
  ScopedIsa isa(pin_avx2 ? IsaTier::kAvx2 : DetectedIsa());
  ScopedNumThreads one(1);
  Rng rng(9);
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  for (float& v : a) {
    v = rng.NextFloat(-1.0f, 1.0f);
  }
  for (float& v : b) {
    v = rng.NextFloat(-1.0f, 1.0f);
  }
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  for (auto _ : state) {
    GemmF32(m, n, k, a.data(), k, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(IsaName(ActiveIsa()));
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m * n * k) * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
// (m, k, n): the serving benchmark's projection and FFN GEMMs at m = 512
// (hidden 128, FFN 512) and at a ragged m = 97, then the score (t, 32, t) and
// context (t, t, 32) GEMMs of one attention head at t = 200, 39 and 97 — the
// ragged rows and columns a request length leaves at the register tile's
// edge.
BENCHMARK(BM_GemmServingShapes)
    ->ArgNames({"m", "k", "n", "avx2"})
    ->ArgsProduct({{512, 97}, {128}, {128, 512}, {0, 1}})
    ->ArgsProduct({{512, 97}, {512}, {128}, {0, 1}})
    ->ArgsProduct({{200}, {32}, {200}, {0, 1}})
    ->ArgsProduct({{200}, {200}, {32}, {0, 1}})
    ->ArgsProduct({{39}, {32}, {39}, {0, 1}})
    ->ArgsProduct({{97}, {32}, {97}, {0, 1}})
    ->ArgsProduct({{97}, {97}, {32}, {0, 1}});

// Args: n, masked, pin_avx2 (0: detected tier). SoftmaxInto over a [32, n]
// score block, as segment attention calls it on one 32-row block of a
// request of length n; masked rows are 32 rows spread over the request's
// Longformer mask (16-wide window, 2 global tokens: pitbench's
// xf_short_masked_packed masks). One thread; time/row is per softmax row.
void BM_SoftmaxServingRows(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool masked = state.range(1) != 0;
  const bool pin_avx2 = state.range(2) != 0;
  if (pin_avx2 && DetectedIsa() == IsaTier::kScalar) {
    state.SkipWithError("no AVX2+FMA on this machine");
    return;
  }
  ScopedBackend backend(ComputeBackend::kBlocked);
  ScopedIsa isa(pin_avx2 ? IsaTier::kAvx2 : DetectedIsa());
  ScopedNumThreads one(1);
  constexpr int64_t kRows = 32;
  Rng rng(10);
  const Tensor scores = Tensor::Random({kRows, n}, rng, -4.0f, 4.0f);
  const Tensor longformer = LongformerMask({n, 16, 2}, rng);
  Tensor mask({kRows, n});
  for (int64_t i = 0; i < kRows; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      mask.At(i, j) = longformer.At(i * n / kRows, j);
    }
  }
  const ConstTensorView mask_view(mask);
  Tensor out({kRows, n});
  for (auto _ : state) {
    SoftmaxInto(scores, masked ? &mask_view : nullptr, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(IsaName(ActiveIsa()));
  state.counters["time/row"] =
      benchmark::Counter(static_cast<double>(kRows) * static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
// n: mnli's mean length (39) and its 8-aligned neighbour (40), a short and a
// ragged row, the 128-token bucket, and a long alpaca-style row.
BENCHMARK(BM_SoftmaxServingRows)
    ->ArgNames({"n", "masked", "avx2"})
    ->ArgsProduct({{16, 39, 40, 100, 128, 512}, {0, 1}, {0, 1}});

}  // namespace
}  // namespace pit

BENCHMARK_MAIN();

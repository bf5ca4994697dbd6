// Backend equivalence tests: every blocked/parallel kernel is differential-
// tested against the scalar ReferenceBackend, across the shapes that stress
// the tiling (1xN, Nx1, non-multiples of the register tile, empty and
// full-dense micro-tile indexes), plus bitwise determinism across thread
// counts.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "pit/common/backend.h"
#include "pit/common/check.h"
#include "pit/common/gemm_microkernel.h"
#include "pit/common/parallel_for.h"
#include "pit/core/batched_kernel.h"
#include "pit/core/sparse_kernel.h"
#include "pit/core/sread_swrite.h"
#include "pit/runtime/models.h"
#include "pit/runtime/serving.h"
#include "pit/runtime/serving_engine.h"
#include "pit/tensor/ops.h"
#include "pit/workloads/attention_masks.h"

namespace pit {
namespace {

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.bytes())) == 0;
}

struct MatmulShape {
  int64_t m, k, n;
};

const std::vector<MatmulShape>& OddShapes() {
  // 1xN, Nx1, scalar-ish, non-multiples of the 4x16 register tile, exact
  // multiples, and a k=0 degenerate.
  static const std::vector<MatmulShape> shapes = {
      {1, 37, 53},  {41, 29, 1}, {1, 1, 1},   {17, 33, 29}, {64, 64, 64},
      {5, 300, 2},  {3, 1, 19},  {128, 7, 31}, {65, 128, 47}, {4, 0, 9},
  };
  return shapes;
}

TEST(BackendTest, MatMulMatchesReferenceOnOddShapes) {
  for (const auto& s : OddShapes()) {
    Rng rng(100 + s.m + s.k + s.n);
    Tensor a = Tensor::Random({s.m, s.k}, rng);
    Tensor b = Tensor::Random({s.k, s.n}, rng);
    Tensor blocked, reference;
    {
      ScopedBackend guard(ComputeBackend::kBlocked);
      blocked = MatMul(a, b);
    }
    {
      ScopedBackend guard(ComputeBackend::kReference);
      reference = MatMul(a, b);
    }
    EXPECT_TRUE(AllClose(blocked, reference))
        << "shape " << s.m << "x" << s.k << "x" << s.n
        << " maxdiff " << MaxAbsDiff(blocked, reference);
  }
}

TEST(BackendTest, GemmFusedReluEpilogueIsBitwiseExact) {
  // The fused relu epilogue must equal the separate matmul(+bias) -> relu
  // composition bit for bit, under both backends and across thread counts.
  Rng rng(400);
  Tensor a = Tensor::Random({37, 29}, rng);
  Tensor b = Tensor::Random({29, 41}, rng);
  Tensor bias = Tensor::Random({41}, rng);
  for (const ComputeBackend backend : {ComputeBackend::kBlocked, ComputeBackend::kReference}) {
    ScopedBackend guard(backend);
    for (int threads : {1, 4}) {
      ScopedNumThreads t(threads);
      Tensor fused({37, 41});
      MatMulBiasReluInto(a, b, bias, fused);
      Tensor expect = Relu(MatMulBias(a, b, bias));
      ASSERT_EQ(std::memcmp(fused.data(), expect.data(),
                            static_cast<size_t>(fused.size()) * sizeof(float)),
                0);
      Tensor fused_nobias({37, 41});
      MatMulReluInto(a, b, fused_nobias);
      Tensor expect_nobias = Relu(MatMul(a, b));
      ASSERT_EQ(std::memcmp(fused_nobias.data(), expect_nobias.data(),
                            static_cast<size_t>(fused_nobias.size()) * sizeof(float)),
                0);
    }
  }
}

TEST(BackendTest, MatMulBiasFusedEpilogueMatchesReference) {
  for (const auto& s : OddShapes()) {
    Rng rng(200 + s.m + s.k + s.n);
    Tensor a = Tensor::Random({s.m, s.k}, rng);
    Tensor b = Tensor::Random({s.k, s.n}, rng);
    Tensor bias = Tensor::Random({s.n}, rng);
    Tensor blocked, reference;
    {
      ScopedBackend guard(ComputeBackend::kBlocked);
      blocked = MatMulBias(a, b, bias);
    }
    {
      ScopedBackend guard(ComputeBackend::kReference);
      reference = MatMulBias(a, b, bias);
    }
    EXPECT_TRUE(AllClose(blocked, reference))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(BackendTest, BatchMatMulMatchesReference) {
  Rng rng(7);
  Tensor a = Tensor::Random({5, 33, 29}, rng);
  Tensor b = Tensor::Random({5, 29, 17}, rng);
  Tensor blocked, reference;
  {
    ScopedBackend guard(ComputeBackend::kBlocked);
    blocked = BatchMatMul(a, b);
  }
  {
    ScopedBackend guard(ComputeBackend::kReference);
    reference = BatchMatMul(a, b);
  }
  EXPECT_TRUE(AllClose(blocked, reference));
}

TEST(BackendTest, MatMulBitwiseIdenticalAcrossThreadCounts) {
  ScopedBackend guard(ComputeBackend::kBlocked);
  Rng rng(11);
  Tensor a = Tensor::Random({130, 70}, rng);
  Tensor b = Tensor::Random({70, 90}, rng);
  Tensor baseline;
  {
    ScopedNumThreads one(1);
    baseline = MatMul(a, b);
  }
  for (int threads : {2, 3, 5, 8}) {
    ScopedNumThreads t(threads);
    Tensor got = MatMul(a, b);
    EXPECT_TRUE(BitwiseEqual(got, baseline)) << "threads=" << threads;
    Tensor repeat = MatMul(a, b);
    EXPECT_TRUE(BitwiseEqual(repeat, baseline)) << "repeat, threads=" << threads;
  }
}

TEST(BackendTest, DetectorBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(13);
  Tensor t = Tensor::RandomSparse({97, 61}, 0.85, rng);
  SparsityDetector detector(/*shuffle_seed=*/5);
  std::vector<int64_t> baseline;
  {
    ScopedNumThreads one(1);
    baseline = detector.Detect(t, MicroTileShape{4, 4}).offsets;
  }
  for (int threads : {2, 4, 9}) {
    ScopedNumThreads tc(threads);
    EXPECT_EQ(detector.Detect(t, MicroTileShape{4, 4}).offsets, baseline)
        << "threads=" << threads;
  }
}

TEST(BackendTest, SReadSWriteMicroTilesEmptyIndex) {
  Tensor zeros = Tensor::Zeros({24, 18});
  SparsityDetector detector;
  MicroTileIndex index = detector.Detect(zeros, MicroTileShape{4, 6});
  EXPECT_EQ(index.NumNonZero(), 0);
  Tensor packed = SReadMicroTiles(zeros, index);
  EXPECT_EQ(packed.dim(0), 0);
  Tensor dst = Tensor::Zeros({24, 18});
  SWriteMicroTiles(packed, index, &dst);  // no-op, must not crash
  EXPECT_EQ(dst.CountNonZero(), 0);
}

TEST(BackendTest, SReadSWriteMicroTilesFullDenseIndex) {
  Rng rng(17);
  Tensor t = Tensor::Random({20, 30}, rng, 0.5f, 1.5f);  // strictly nonzero
  SparsityDetector detector;
  for (const MicroTileShape micro :
       {MicroTileShape{4, 6}, MicroTileShape{3, 7}, MicroTileShape{1, 30}, MicroTileShape{20, 1}}) {
    MicroTileIndex index = detector.Detect(t, micro);
    EXPECT_EQ(index.NumNonZero(), index.TotalMicroTiles()) << micro.ToString();
    Tensor dst = Tensor::Zeros({20, 30});
    SWriteMicroTiles(SReadMicroTiles(t, index), index, &dst);
    EXPECT_TRUE(BitwiseEqual(dst, t)) << micro.ToString();
  }
}

TEST(BackendTest, SReadMicroTilesBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(19);
  Tensor t = Tensor::RandomSparse({50, 46}, 0.5, rng);
  SparsityDetector detector(/*shuffle_seed=*/3);
  MicroTileIndex index = detector.Detect(t, MicroTileShape{4, 4});
  Tensor baseline;
  {
    ScopedNumThreads one(1);
    baseline = SReadMicroTiles(t, index);
  }
  for (int threads : {2, 6}) {
    ScopedNumThreads tc(threads);
    EXPECT_TRUE(BitwiseEqual(SReadMicroTiles(t, index), baseline)) << "threads=" << threads;
  }
}

TEST(BackendTest, PitMatmulsMatchReferenceBackend) {
  Rng rng(23);
  // 25% row density: rows are nonzero with probability 0.25.
  Tensor a = Tensor::RandomBlockSparse(96, 64, 1, 64, 0.75, rng);
  Tensor b = Tensor::Random({64, 48}, rng);
  SparsityDetector detector;
  Tensor blocked_row, blocked_k, blocked_micro, ref_row, ref_k, ref_micro;
  {
    ScopedBackend guard(ComputeBackend::kBlocked);
    blocked_row = PitRowGatherMatmul(a, b, detector);
    blocked_k = PitKGatherMatmul(a, b, 32, detector);
    blocked_micro = PitMicroTileMatmul(a, b, MicroTileShape{8, 8}, detector);
  }
  {
    ScopedBackend guard(ComputeBackend::kReference);
    ref_row = PitRowGatherMatmul(a, b, detector);
    ref_k = PitKGatherMatmul(a, b, 32, detector);
    ref_micro = PitMicroTileMatmul(a, b, MicroTileShape{8, 8}, detector);
  }
  EXPECT_TRUE(AllClose(blocked_row, ref_row));
  EXPECT_TRUE(AllClose(blocked_k, ref_k));
  EXPECT_TRUE(AllClose(blocked_micro, ref_micro));
}

TEST(BackendTest, BatchRowGatherMatchesReferenceAndIsDeterministic) {
  Rng rng(29);
  Tensor a = Tensor::Random({4, 22, 18}, rng);
  // Zero out some rows to create gather opportunities.
  for (int64_t s = 0; s < 4; ++s) {
    for (int64_t i = 0; i < 22; i += 3) {
      for (int64_t p = 0; p < 18; ++p) {
        a.At(s, i, p) = 0.0f;
      }
    }
  }
  Tensor b = Tensor::Random({4, 18, 26}, rng);
  SparsityDetector detector;
  Tensor blocked, reference;
  {
    ScopedBackend guard(ComputeBackend::kBlocked);
    blocked = PitBatchRowGatherMatmul(a, b, detector);
    ScopedNumThreads one(1);
    Tensor single = PitBatchRowGatherMatmul(a, b, detector);
    EXPECT_TRUE(BitwiseEqual(blocked, single));
  }
  {
    ScopedBackend guard(ComputeBackend::kReference);
    reference = PitBatchRowGatherMatmul(a, b, detector);
  }
  EXPECT_TRUE(AllClose(blocked, reference));
}

TEST(BackendTest, ElementwiseOpsBitwiseStableAcrossThreadCounts) {
  Rng rng(31);
  Tensor a = Tensor::Random({333, 77}, rng);
  Tensor b = Tensor::Random({333, 77}, rng);
  Tensor add1, mul1, gelu1;
  {
    ScopedNumThreads one(1);
    add1 = Add(a, b);
    mul1 = Mul(a, b);
    gelu1 = Gelu(a);
  }
  {
    ScopedNumThreads many(7);
    EXPECT_TRUE(BitwiseEqual(Add(a, b), add1));
    EXPECT_TRUE(BitwiseEqual(Mul(a, b), mul1));
    EXPECT_TRUE(BitwiseEqual(Gelu(a), gelu1));
  }
}

// ---- ISA tier differentials -------------------------------------------------
//
// Every vectorized kernel against the scalar blocked tier (the oracle), split
// by contract: kernels that contract with FMA or re-associate a reduction
// (GEMM epilogue paths, softmax's polynomial exp, layernorm's vector sums)
// are tolerance- and ULP-bounded; order-preserving kernels (relu/add/scale,
// the detector's exact predicate scan, row gathers) must match bit for bit.
// Each comparison sweeps worker counts — within a fixed tier results must
// also be bitwise thread-invariant.

// Monotonic-integer ULP distance; large sentinel when signs differ and the
// values are not both (near-)zero.
int64_t UlpDiff(float a, float b) {
  int32_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  // Map the sign-magnitude float bits onto a monotonic integer line (+0 and
  // -0 coincide), then the ULP distance is a plain difference.
  const int64_t ma = ia >= 0 ? ia : (int64_t{-1} << 31) - ia;
  const int64_t mb = ib >= 0 ? ib : (int64_t{-1} << 31) - ib;
  return ma > mb ? ma - mb : mb - ma;
}

int64_t MaxUlpDiff(const Tensor& a, const Tensor& b) {
  int64_t max_ulp = 0;
  for (int64_t i = 0; i < a.size(); ++i) {
    max_ulp = std::max(max_ulp, UlpDiff(a[i], b[i]));
  }
  return max_ulp;
}

// Max ULP distance over elements where both magnitudes clear `floor`: near
// zero a tiny absolute difference spans enormous ULP counts (the exponent
// ladder compresses), so reduction-reassociating kernels bound ULPs away
// from zero and absolute error near it.
int64_t MaxUlpDiffAbove(const Tensor& a, const Tensor& b, float floor) {
  int64_t max_ulp = 0;
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i]) >= floor && std::abs(b[i]) >= floor) {
      max_ulp = std::max(max_ulp, UlpDiff(a[i], b[i]));
    }
  }
  return max_ulp;
}

bool SimdTierAvailable() { return DetectedIsa() != IsaTier::kScalar; }

// Cross-tier ULP distance is NOT bounded for GEMM: the SIMD tier always
// contracts a*b+c into fma, while the scalar tier only does when the compiler
// emits it (-march=native builds; portable -DPIT_NATIVE_ARCH=OFF builds
// round the product first), and cancellation can stretch that half-ULP gap
// across the whole exponent ladder. The build-invariant contract is the
// classic forward-error envelope instead: every tier's output must sit
// within ~k*eps * sum_p |a_ip * b_pj| of a float64-accumulated oracle
// (relu is 1-Lipschitz, so the same tolerance survives the epilogue).
struct GemmOracle {
  std::vector<double> value;  // row-major [m, n], float64 accumulation
  std::vector<double> tol;    // per-element error envelope
  int64_t m = 0, n = 0;
};

GemmOracle MakeGemmOracle(const Tensor& a, const Tensor& b, const Tensor* bias, bool relu) {
  GemmOracle o;
  o.m = a.shape()[0];
  o.n = b.shape()[1];
  const int64_t k = a.shape()[1];
  constexpr double kEps = 1.19209290e-07;  // float32 machine epsilon
  o.value.resize(o.m * o.n);
  o.tol.resize(o.m * o.n);
  for (int64_t i = 0; i < o.m; ++i) {
    for (int64_t j = 0; j < o.n; ++j) {
      double acc = 0.0;
      double abs_acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const double prod = static_cast<double>(a.At(i, p)) * static_cast<double>(b.At(p, j));
        acc += prod;
        abs_acc += std::abs(prod);
      }
      if (bias != nullptr) {
        acc += static_cast<double>((*bias)[j]);
        abs_acc += std::abs(static_cast<double>((*bias)[j]));
      }
      if (relu && acc < 0.0) {
        acc = 0.0;
      }
      o.value[i * o.n + j] = acc;
      o.tol[i * o.n + j] = 2.0 * static_cast<double>(k + 2) * kEps * abs_acc + 1e-12;
    }
  }
  return o;
}

void ExpectWithinGemmEnvelope(const Tensor& got, const GemmOracle& o, const char* what) {
  int64_t worst = -1;
  double worst_ratio = 0.0;
  for (int64_t i = 0; i < o.m * o.n; ++i) {
    const double err = std::abs(static_cast<double>(got[i]) - o.value[i]);
    const double ratio = err / o.tol[i];
    if (ratio > worst_ratio) {
      worst_ratio = ratio;
      worst = i;
    }
  }
  EXPECT_LE(worst_ratio, 1.0) << what << ": element " << worst << " error "
                              << std::abs(static_cast<double>(got[worst]) - o.value[worst])
                              << " exceeds envelope " << o.tol[worst];
}

// Runs `fn` under the scalar tier and under the detected SIMD tier (blocked
// backend both times) and hands both results to `check`. Also asserts the
// SIMD result is bitwise identical across worker counts: within a fixed tier
// the kernels must be deterministic, only *across* tiers may values move.
template <typename Fn, typename Check>
void CompareTiers(Fn&& fn, Check&& check) {
  ScopedBackend guard(ComputeBackend::kBlocked);
  Tensor scalar_result;
  {
    ScopedIsa tier(IsaTier::kScalar);
    ScopedNumThreads one(1);
    scalar_result = fn();
  }
  Tensor simd_result;
  {
    ScopedIsa tier(DetectedIsa());
    {
      ScopedNumThreads one(1);
      simd_result = fn();
    }
    for (int threads : {4, 7}) {
      ScopedNumThreads t(threads);
      Tensor repeat = fn();
      ASSERT_TRUE(BitwiseEqual(repeat, simd_result))
          << "SIMD tier result not thread-invariant at threads=" << threads;
    }
  }
  check(scalar_result, simd_result);
}

TEST(IsaTierTest, GemmMatchesScalarTierWithinEnvelope) {
  if (!SimdTierAvailable()) {
    GTEST_SKIP() << "no SIMD tier on this machine";
  }
  // Odd shapes stress the ragged n tail (the scalar edge kernel) and ragged
  // m; both tiers run the same ascending-p fma chain per element, so the
  // only differences are scalar-vs-vector contraction artifacts.
  for (const auto& s : OddShapes()) {
    Rng rng(500 + s.m + s.k + s.n);
    Tensor a = Tensor::Random({s.m, s.k}, rng);
    Tensor b = Tensor::Random({s.k, s.n}, rng);
    const GemmOracle oracle = MakeGemmOracle(a, b, nullptr, false);
    CompareTiers([&] { return MatMul(a, b); }, [&](const Tensor& sc, const Tensor& sd) {
      EXPECT_TRUE(AllClose(sc, sd)) << "shape " << s.m << "x" << s.k << "x" << s.n;
      ExpectWithinGemmEnvelope(sc, oracle, "scalar tier");
      ExpectWithinGemmEnvelope(sd, oracle, "simd tier");
    });
  }
}

TEST(IsaTierTest, GemmFusedEpiloguesMatchScalarTierWithinEnvelope) {
  if (!SimdTierAvailable()) {
    GTEST_SKIP() << "no SIMD tier on this machine";
  }
  Rng rng(510);
  Tensor a = Tensor::Random({65, 100}, rng);
  Tensor b = Tensor::Random({100, 47}, rng);
  Tensor bias = Tensor::Random({47}, rng);
  const GemmOracle bias_oracle = MakeGemmOracle(a, b, &bias, false);
  CompareTiers([&] { return MatMulBias(a, b, bias); },
               [&](const Tensor& sc, const Tensor& sd) {
                 EXPECT_TRUE(AllClose(sc, sd));
                 ExpectWithinGemmEnvelope(sc, bias_oracle, "scalar tier bias");
                 ExpectWithinGemmEnvelope(sd, bias_oracle, "simd tier bias");
               });
  const GemmOracle relu_oracle = MakeGemmOracle(a, b, &bias, true);
  CompareTiers(
      [&] {
        Tensor fused({65, 47});
        MatMulBiasReluInto(a, b, bias, fused);
        return fused;
      },
      [&](const Tensor& sc, const Tensor& sd) {
        EXPECT_TRUE(AllClose(sc, sd));
        ExpectWithinGemmEnvelope(sc, relu_oracle, "scalar tier bias-relu");
        ExpectWithinGemmEnvelope(sd, relu_oracle, "simd tier bias-relu");
      });
  // Deep-k tall shape whose 2048x256 B (2 MiB) reaches GemmF32's pack
  // threshold, so both tiers stream packed B tiles.
  Rng rng2(511);
  Tensor ta = Tensor::Random({1027, 2048}, rng2);
  Tensor tb = Tensor::Random({2048, 256}, rng2);
  const GemmOracle tall_oracle = MakeGemmOracle(ta, tb, nullptr, false);
  CompareTiers([&] { return MatMul(ta, tb); }, [&](const Tensor& sc, const Tensor& sd) {
    // k=2048 accumulates enough contraction drift in portable builds that
    // the default AllClose tolerance is too tight; the oracle envelope
    // below is the rigorous per-element bound.
    EXPECT_TRUE(AllClose(sc, sd, 1e-3f, 1e-4f));
    ExpectWithinGemmEnvelope(sc, tall_oracle, "scalar tier packed-B");
    ExpectWithinGemmEnvelope(sd, tall_oracle, "simd tier packed-B");
  });
}

TEST(IsaTierTest, SoftmaxMatchesScalarTierWithinUlps) {
  if (!SimdTierAvailable()) {
    GTEST_SKIP() << "no SIMD tier on this machine";
  }
  // Ragged row lengths (not multiples of 8/16) plus a masked case whose rows
  // mix unmasked spans, fully-masked rows, and span tails.
  for (const int64_t n : {int64_t{7}, int64_t{37}, int64_t{129}, int64_t{256}}) {
    Rng rng(520 + n);
    Tensor t = Tensor::Random({33, n}, rng, -8.0f, 8.0f);
    CompareTiers([&] { return Softmax(t); }, [&](const Tensor& sc, const Tensor& sd) {
      EXPECT_TRUE(AllClose(sc, sd, 1e-5f, 1e-7f)) << "n=" << n;
      EXPECT_LE(MaxUlpDiff(sc, sd), 64) << "n=" << n;
    });
    Tensor mask = Tensor::RandomSparse({33, n}, 0.5, rng);
    for (int64_t i = 0; i < mask.size(); ++i) {
      mask[i] = mask[i] != 0.0f ? 1.0f : 0.0f;
    }
    for (int64_t j = 0; j < n; ++j) {
      mask.At(4, j) = 0.0f;  // one fully-masked row: zeros under every tier
    }
    CompareTiers([&] { return Softmax(t, &mask); }, [&](const Tensor& sc, const Tensor& sd) {
      EXPECT_TRUE(AllClose(sc, sd, 1e-5f, 1e-7f)) << "masked n=" << n;
      EXPECT_LE(MaxUlpDiff(sc, sd), 64) << "masked n=" << n;
      for (int64_t j = 0; j < n; ++j) {
        EXPECT_EQ(sd.At(4, j), 0.0f);
      }
    });
  }
}

TEST(IsaTierTest, LayerNormMatchesScalarTierWithinTolerance) {
  if (!SimdTierAvailable()) {
    GTEST_SKIP() << "no SIMD tier on this machine";
  }
  // The SIMD tier re-associates the mean/variance reductions (8-lane partial
  // sums), so this is the one kernel family where the scalar chain genuinely
  // differs — tolerance-checked, with a loose ULP ceiling to catch gross
  // divergence.
  for (const int64_t n : {int64_t{13}, int64_t{100}, int64_t{768}}) {
    Rng rng(530 + n);
    Tensor t = Tensor::Random({21, n}, rng);
    Tensor gamma = Tensor::Random({n}, rng);
    Tensor beta = Tensor::Random({n}, rng);
    CompareTiers([&] { return LayerNorm(t, gamma, beta); },
                 [&](const Tensor& sc, const Tensor& sd) {
                   EXPECT_TRUE(AllClose(sc, sd, 1e-4f, 1e-5f)) << "n=" << n;
                   EXPECT_LE(MaxUlpDiffAbove(sc, sd, 1e-3f), 4096) << "n=" << n;
                 });
  }
}

TEST(IsaTierTest, OrderPreservingKernelsBitwiseEqualScalarTier) {
  if (!SimdTierAvailable()) {
    GTEST_SKIP() << "no SIMD tier on this machine";
  }
  // relu/add/scale vectorize element-for-element with no contraction or
  // reordering: the SIMD tier must be bit-exact against scalar, including the
  // ragged vector tails.
  Rng rng(540);
  Tensor a = Tensor::Random({37, 101}, rng, -2.0f, 2.0f);
  Tensor b = Tensor::Random({37, 101}, rng);
  CompareTiers([&] { return Relu(a); }, [&](const Tensor& sc, const Tensor& sd) {
    EXPECT_TRUE(BitwiseEqual(sc, sd));
  });
  CompareTiers([&] { return Add(a, b); }, [&](const Tensor& sc, const Tensor& sd) {
    EXPECT_TRUE(BitwiseEqual(sc, sd));
  });
  CompareTiers([&] { return Scale(a, 0.37f); }, [&](const Tensor& sc, const Tensor& sd) {
    EXPECT_TRUE(BitwiseEqual(sc, sd));
  });
}

TEST(IsaTierTest, DetectorAndRowGathersBitwiseEqualScalarTier) {
  if (!SimdTierAvailable()) {
    GTEST_SKIP() << "no SIMD tier on this machine";
  }
  ScopedBackend guard(ComputeBackend::kBlocked);
  Rng rng(550);
  // Span widths >= 16 engage the SIMD scan; the predicate is exact either
  // way, so the detected offsets (including the deterministic shuffle) must
  // be identical. 201 columns leaves a ragged 9-wide final span.
  Tensor t = Tensor::RandomSparse({64, 201}, 0.9, rng);
  SparsityDetector detector(/*shuffle_seed=*/11);
  std::vector<int64_t> scalar_offsets, simd_offsets;
  {
    ScopedIsa tier(IsaTier::kScalar);
    scalar_offsets = detector.Detect(t, MicroTileShape{1, 32}).offsets;
  }
  {
    ScopedIsa tier(DetectedIsa());
    simd_offsets = detector.Detect(t, MicroTileShape{1, 32}).offsets;
  }
  EXPECT_EQ(simd_offsets, scalar_offsets);

  // Row gather/scatter round trip: pure copies, bitwise across tiers.
  std::vector<int64_t> row_ids{0, 3, 17, 18, 40, 63};
  CompareTiers([&] { return SReadRows(t, row_ids); },
               [&](const Tensor& sc, const Tensor& sd) {
                 EXPECT_TRUE(BitwiseEqual(sc, sd));
               });
  Tensor packed = SReadRows(t, row_ids);
  CompareTiers(
      [&] {
        Tensor dst = Tensor::Zeros({64, 201});
        SWriteRows(packed, row_ids, &dst);
        return dst;
      },
      [&](const Tensor& sc, const Tensor& sd) { EXPECT_TRUE(BitwiseEqual(sc, sd)); });
}

TEST(IsaTierTest, SoftmaxMaskSkipDifferential) {
  // Span skipping must be invisible in the results at any tier: exactly so at
  // the scalar tier (a masked column contributes the identity to both the max
  // and the sum), tolerance/ULP at a SIMD tier (the skip path runs the
  // span-relative vector kernels, the reference backend runs the unskipped
  // scalar row loop).
  Rng rng(560);
  const int64_t tokens = 96;
  Tensor t = Tensor::Random({tokens, tokens}, rng, -6.0f, 6.0f);
  // Block-diagonal ragged-serving mask: spans of 31 + 33 + 32 tokens.
  Tensor mask = Tensor::Zeros({tokens, tokens});
  const int64_t lens[] = {31, 33, 32};
  int64_t base = 0;
  for (const int64_t len : lens) {
    for (int64_t i = base; i < base + len; ++i) {
      for (int64_t j = base; j < base + len; ++j) {
        mask.At(i, j) = 1.0f;
      }
    }
    base += len;
  }
  for (const IsaTier tier : {IsaTier::kScalar, DetectedIsa()}) {
    ScopedIsa isa(tier);
    Tensor skip_on, skip_off;
    {
      ScopedBackend blocked(ComputeBackend::kBlocked);
      skip_on = Softmax(t, &mask);
    }
    {
      ScopedBackend reference(ComputeBackend::kReference);
      skip_off = Softmax(t, &mask);
    }
    if (tier == IsaTier::kScalar) {
      EXPECT_TRUE(BitwiseEqual(skip_on, skip_off));
    } else {
      EXPECT_TRUE(AllClose(skip_on, skip_off, 1e-5f, 1e-7f));
      EXPECT_LE(MaxUlpDiff(skip_on, skip_off), 64);
    }
    // Off-diagonal (masked) entries are exact zeros under every path.
    EXPECT_EQ(skip_on.At(0, 40), 0.0f);
    EXPECT_EQ(skip_on.At(80, 0), 0.0f);
  }
}

TEST(IsaTierTest, PlannedStackBitwiseInvariantAcrossThreadsWithinTier) {
  // Within a fixed ISA tier, a planned transformer forward must be bitwise
  // identical across worker counts x serving streams — the
  // PR 5/6 determinism contracts may not depend on which tier computed the
  // kernels.
  Rng wr(570);
  PlannedTransformerStack stack(/*layers=*/2, /*hidden=*/64, /*heads=*/4, /*ffn_hidden=*/128,
                                wr);
  Rng rr(571);
  Tensor x = Tensor::Random({48, 64}, rr);
  for (const IsaTier tier : {IsaTier::kScalar, DetectedIsa()}) {
    ScopedIsa isa(tier);
    Tensor baseline;
    {
      ScopedNumThreads one(1);
      baseline = stack.Forward(x);
    }
    for (int threads : {1, 4, 7}) {
      ScopedNumThreads tc(threads);
      EXPECT_TRUE(BitwiseEqual(stack.Forward(x), baseline))
          << "tier=" << IsaName(tier) << " threads=" << threads;
    }
    // Multi-stream serving of identical requests reproduces the same bits.
    std::vector<ServeRequest> requests(6);
    for (auto& req : requests) {
      req.x = x;
    }
    std::vector<Tensor> single_stream;
    {
      ServingEngineOptions options;
      options.num_streams = 1;
      ServingEngine engine(stack, options);
      single_stream = engine.Serve(requests);
      EXPECT_TRUE(BitwiseEqual(single_stream[0], baseline)) << "tier=" << IsaName(tier);
    }
    {
      ServingEngineOptions options;
      options.num_streams = 3;
      ServingEngine engine(stack, options);
      std::vector<Tensor> multi = engine.Serve(requests);
      for (size_t i = 0; i < multi.size(); ++i) {
        EXPECT_TRUE(BitwiseEqual(multi[i], single_stream[i]))
            << "tier=" << IsaName(tier) << " request " << i;
      }
    }
  }
}

// The AVX-512 tier covers C in 8x32 tiles and masks every ragged tile; the
// AVX2 tier runs only 4x16 and scalar edge tiles. Both run the same
// ascending-p fma chain and epilogue per element, so every GemmF32 must match
// bit for bit: ragged m/n/k, k across the 256-deep panel edge, +-0 /
// denormal / all-zero-block A, every epilogue, 1 and 4 threads, packed B, and
// strided operands whose padding must stay untouched.
TEST(IsaTierTest, Avx512GemmBitwiseEqualsAvx2Tier) {
  if (DetectedIsa() != IsaTier::kAvx512) {
    GTEST_SKIP() << "no AVX-512 tier on this machine";
  }
  ScopedBackend guard(ComputeBackend::kBlocked);
  // A NaN payload no GEMM produces: A's and B's padding columns hold it, so a
  // kernel that reads padding into a live lane poisons C; C's padding holds
  // it, so a store past column n shows up as changed bits.
  constexpr uint32_t kSentinelBits = 0x7fc0dead;
  float sentinel;
  std::memcpy(&sentinel, &kSentinelBits, sizeof(sentinel));
  auto gemm = [](IsaTier tier, int threads, int64_t m, int64_t n, int64_t k, int64_t lda,
                 int64_t ldb, int64_t ldc, const std::vector<float>& a,
                 const std::vector<float>& b, const std::vector<float>& c0, const float* bias,
                 bool relu) {
    ScopedIsa isa(tier);
    ScopedNumThreads t(threads);
    std::vector<float> c = c0;
    GemmF32(m, n, k, a.data(), lda, b.data(), ldb, c.data(), ldc, bias, relu);
    return c;
  };
  // `pad` extra columns on every operand: lda = k + pad, ldb = n + pad,
  // ldc = n + pad.
  auto check = [&](int64_t m, int64_t n, int64_t k, uint64_t seed, int64_t pad = 0) {
    const int64_t lda = k + pad;
    const int64_t ldb = n + pad;
    const int64_t ldc = n + pad;
    Rng rng(seed);
    std::vector<float> a(static_cast<size_t>(m * lda));
    std::vector<float> b(static_cast<size_t>(k * ldb));
    std::vector<float> c0(static_cast<size_t>(m * ldc));
    std::vector<float> bias(static_cast<size_t>(n));
    for (std::vector<float>* v : {&a, &b, &c0, &bias}) {
      for (float& x : *v) {
        x = rng.NextFloat(-1.0f, 1.0f);
      }
    }
    // Signed zeros and denormals scattered through A, and rows 8..15 (a
    // whole 8-row unit) zeroed: products of -0 and denormal inputs and
    // all-zero fma chains must round identically in every tile.
    for (size_t i = 0; i < a.size(); i += 7) {
      a[i] = (i / 7) % 3 == 0 ? -0.0f : (i / 7) % 3 == 1 ? 0.0f : 1.5e-39f;
    }
    for (int64_t i = 8; i < std::min<int64_t>(m, 16); ++i) {
      std::fill(a.begin() + i * lda, a.begin() + i * lda + k, 0.0f);
    }
    auto fill_padding = [&](std::vector<float>& v, int64_t rows, int64_t cols, int64_t ld) {
      for (int64_t i = 0; i < rows; ++i) {
        std::fill(v.begin() + i * ld + cols, v.begin() + (i + 1) * ld, sentinel);
      }
    };
    fill_padding(a, m, k, lda);
    fill_padding(b, k, n, ldb);
    fill_padding(c0, m, n, ldc);
    for (int epilogue = 0; epilogue < 3; ++epilogue) {
      const float* bp = epilogue > 0 ? bias.data() : nullptr;
      const bool relu = epilogue == 2;
      const std::vector<float> want =
          gemm(IsaTier::kAvx2, 1, m, n, k, lda, ldb, ldc, a, b, c0, bp, relu);
      for (int64_t i = 0; i < m; ++i) {
        ASSERT_EQ(std::memcmp(want.data() + i * ldc + n, c0.data() + i * ldc + n,
                              static_cast<size_t>(pad) * sizeof(float)),
                  0)
            << "AVX2 tier wrote C padding: m=" << m << " n=" << n << " k=" << k;
      }
      for (int threads : {1, 4}) {
        // Equal to the AVX2 result over the whole buffer, so C's padding
        // survives bit for bit on this tier too.
        const std::vector<float> got =
            gemm(IsaTier::kAvx512, threads, m, n, k, lda, ldb, ldc, a, b, c0, bp, relu);
        ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
            << "m=" << m << " n=" << n << " k=" << k << " pad=" << pad
            << " epilogue=" << epilogue << " threads=" << threads;
      }
    }
  };
  uint64_t seed = 580;
  // At 4 threads the AVX2 tier's chunks hold 3 (m=33) and 33 (m=513) 4-row
  // blocks once n*k is large, so its chunk boundaries land inside 8-row
  // units that the AVX-512 tier covers with one tile.
  for (const int64_t m : {1, 3, 4, 7, 8, 9, 12, 15, 16, 17, 33, 513}) {
    for (const int64_t n : {1, 15, 16, 17, 31, 32, 33, 48, 64, 100, 128, 512}) {
      for (const int64_t k : {1, 7, 32, 128, 255, 256, 257, 512}) {
        check(m, n, k, seed++);
      }
    }
  }
  // B of 1024x528 floats (2.06 MiB) crosses the 2 MiB pack threshold: packed
  // 16-wide tiles feed the wide tile, with a leftover 16-column strip, four
  // k-panels and a ragged last row block.
  check(131, 528, 1024, seed++);
  // Strided operands: masked edges on the first strip, the second strip and
  // a strip past a full one, ragged and full units, and k across the panel
  // edge.
  for (const int64_t m : {1, 7, 8, 9, 17}) {
    for (const int64_t n : {1, 15, 16, 17, 31, 32, 33}) {
      for (const int64_t k : {1, 32, 257}) {
        check(m, n, k, seed++, /*pad=*/5);
      }
    }
  }
  // One attention head's score (t, 32, t) and context (t, t, 32) GEMMs,
  // strided as in a packed [T, hidden] operand.
  for (const int64_t t : {39, 97, 200, 513}) {
    check(t, t, 32, seed++, /*pad=*/7);
    check(t, 32, t, seed++, /*pad=*/7);
  }
}

// `count` floats that end exactly where a PROT_NONE guard page begins.
class GuardedFloats {
 public:
  explicit GuardedFloats(int64_t count) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    bytes_ = (static_cast<size_t>(count) * sizeof(float) + page - 1) / page * page + page;
    void* base = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                      -1, 0);
    PIT_CHECK(base != MAP_FAILED) << "mmap of " << bytes_ << " bytes failed";
    base_ = static_cast<char*>(base);
    PIT_CHECK(mprotect(base_ + bytes_ - page, page, PROT_NONE) == 0) << "mprotect failed";
    data_ = reinterpret_cast<float*>(base_ + bytes_ - page) - count;
  }
  GuardedFloats(const GuardedFloats&) = delete;
  GuardedFloats& operator=(const GuardedFloats&) = delete;
  ~GuardedFloats() { munmap(base_, bytes_); }
  float* data() const { return data_; }

 private:
  size_t bytes_ = 0;
  char* base_ = nullptr;
  float* data_ = nullptr;
};

// Every masked tile keeps its loads and stores inside its rows and columns.
// A, B, C and bias each end exactly at a PROT_NONE page, so a lane that
// reaches one element past any operand faults; every result must also equal
// the AVX2 tier bit for bit.
TEST(IsaTierTest, MaskedTilesStayInsideOperands) {
  if (DetectedIsa() != IsaTier::kAvx512) {
    GTEST_SKIP() << "no AVX-512 tier on this machine";
  }
  ScopedBackend guard(ComputeBackend::kBlocked);
  ScopedNumThreads one(1);
  Rng rng(600);
  for (int64_t m = 1; m <= 17; ++m) {
    for (int64_t n = 1; n <= 40; ++n) {
      for (const int64_t k : {1, 5, 32}) {
        GuardedFloats a(m * k);
        GuardedFloats b(k * n);
        GuardedFloats bias(n);
        GuardedFloats c(m * n);
        for (auto [p, count] : {std::pair{a.data(), m * k}, std::pair{b.data(), k * n},
                                std::pair{bias.data(), n}}) {
          for (int64_t i = 0; i < count; ++i) {
            p[i] = rng.NextFloat(-1.0f, 1.0f);
          }
        }
        std::vector<float> want(static_cast<size_t>(m * n), 0.0f);
        {
          ScopedIsa isa(IsaTier::kAvx2);
          GemmF32(m, n, k, a.data(), k, b.data(), n, want.data(), n, bias.data(), true);
        }
        std::fill(c.data(), c.data() + m * n, 0.0f);
        {
          ScopedIsa isa(IsaTier::kAvx512);
          GemmF32(m, n, k, a.data(), k, b.data(), n, c.data(), n, bias.data(), true);
        }
        ASSERT_EQ(std::memcmp(c.data(), want.data(), want.size() * sizeof(float)), 0)
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

// Both planned stacks at the serving benchmark's shapes (2 layers, hidden
// 128, 4 heads, FFN 512), replayed from a capacity-512 stream at 100, 101 and
// 512 rows: bitwise equal across the AVX-512 and AVX2 tiers, dense and PIT.
TEST(IsaTierTest, Avx512PlannedStacksBitwiseEqualAvx2Tier) {
  if (DetectedIsa() != IsaTier::kAvx512) {
    GTEST_SKIP() << "no AVX-512 tier on this machine";
  }
  ScopedBackend guard(ComputeBackend::kBlocked);
  Rng wr(590);
  PlannedTransformerStack xf(/*layers=*/2, /*hidden=*/128, /*heads=*/4, /*ffn_hidden=*/512, wr);
  PlannedFfnStack ffn(/*layers=*/2, /*hidden=*/128, /*ffn_hidden=*/512, wr);
  Rng rr(591);
  const Tensor x = Tensor::Random({512, 128}, rr);
  // rows=100: two packed requests of 37 and 63 rows. rows=101: 37 + 64
  // rows, so every row-wise GEMM has a ragged last 8-row unit, and the
  // 37-row request carries a Longformer mask so the masked softmax runs too.
  // rows=512: whole-tile attention.
  const Tensor longformer = LongformerMask({37, 16, 2}, rr);
  const std::vector<AttentionSegment> segments100 = {{0, 37, ConstTensorView()},
                                                     {37, 63, ConstTensorView()}};
  const std::vector<AttentionSegment> segments101 = {{0, 37, longformer},
                                                     {37, 64, ConstTensorView()}};
  auto run = [&](IsaTier tier, int64_t rows, bool pit) {
    ScopedIsa isa(tier);
    PitCompiler compiler(V100());
    PitCompiler* cp = pit ? &compiler : nullptr;
    std::vector<Tensor> outs;
    PlannedTransformerStack::Stream xs = xf.MakeStream(512, /*masked=*/false, pit);
    if (rows == 100) {
      xs.SetAttentionSegments(segments100);
    } else if (rows == 101) {
      xs.SetAttentionSegments(segments101);
    }
    outs.emplace_back(Shape{512, 128});
    xf.ForwardWith(xs, x, nullptr, cp, &outs.back(), rows);
    PlannedFfnStack::Stream fs = ffn.MakeStream(512, pit);
    outs.emplace_back(Shape{512, 128});
    ffn.ForwardWith(fs, x, cp, &outs.back(), rows);
    return outs;
  };
  for (const int64_t rows : {100, 101, 512}) {
    for (const bool pit : {false, true}) {
      const std::vector<Tensor> want = run(IsaTier::kAvx2, rows, pit);
      const std::vector<Tensor> got = run(IsaTier::kAvx512, rows, pit);
      for (size_t s = 0; s < want.size(); ++s) {
        EXPECT_EQ(std::memcmp(got[s].data(), want[s].data(),
                              static_cast<size_t>(rows * 128) * sizeof(float)),
                  0)
            << (s == 0 ? "transformer" : "ffn") << " rows=" << rows << " pit=" << pit;
      }
    }
  }
}

TEST(BackendTest, ServingGridMatchesIndividualRuns) {
  CostModel model(V100());
  std::vector<ServingScenario> grid;
  for (Engine e : {Engine::kPyTorch, Engine::kPit}) {
    ServingScenario sc;
    sc.engine = e;
    sc.config.num_requests = 120;
    sc.config.arrival_rate_rps = 200.0;
    sc.seed = 42;
    grid.push_back(sc);
  }
  const auto dist = DatasetSeqLens("mnli");
  std::vector<ServingStats> parallel = SimulateServingGrid(model, BertBase(), dist, grid);
  ASSERT_EQ(parallel.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    Rng rng(grid[i].seed);
    ServingStats expected =
        SimulateServing(model, grid[i].engine, BertBase(), dist, grid[i].config, rng);
    EXPECT_DOUBLE_EQ(parallel[i].p99_latency_us, expected.p99_latency_us);
    EXPECT_DOUBLE_EQ(parallel[i].mean_latency_us, expected.mean_latency_us);
    EXPECT_EQ(parallel[i].batches, expected.batches);
  }
}

}  // namespace
}  // namespace pit

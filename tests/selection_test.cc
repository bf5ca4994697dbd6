#include <gtest/gtest.h>

#include <cstring>

#include "pit/core/compiler.h"
#include "pit/core/kernel_selection.h"
#include "pit/tensor/ops.h"

namespace pit {
namespace {

TEST(TileDatabaseTest, DefaultGridIsPopulated) {
  CostModel model(V100());
  TileDatabase db = TileDatabase::BuildDefault(model);
  EXPECT_EQ(db.size(), 5u * 3u * 2u);  // m x n x k grid
  for (const auto& e : db.entries()) {
    EXPECT_GT(e.tile_cost_us, 0.0);
  }
}

TEST(TileDatabaseTest, WmmaVariantsOnlyInFp16) {
  CostModel fp16(V100(), Precision::kFp16);
  CostModel fp32(V100(), Precision::kFp32);
  EXPECT_GT(TileDatabase::BuildDefault(fp16, /*include_wmma=*/true).size(),
            TileDatabase::BuildDefault(fp16, /*include_wmma=*/false).size());
  EXPECT_EQ(TileDatabase::BuildDefault(fp32, /*include_wmma=*/true).size(),
            TileDatabase::BuildDefault(fp32, /*include_wmma=*/false).size());
}

TEST(TileDatabaseTest, BestDenseTilePrefersLargeTiles) {
  CostModel model(V100());
  TileDatabase db = TileDatabase::BuildDefault(model);
  const TileEntry& best = db.BestDenseTile(model, 4096, 4096, 4096);
  EXPECT_GE(best.shape.m * best.shape.n, 64 * 64);
}

TEST(SelectionTest, FineGranularityPicksKAxisMicroColumn) {
  // Table 3 behaviour: (32,1)-granularity sparsity selects a (m,1) micro-tile
  // on the k axis, covering without waste.
  CostModel model(V100());
  TileDatabase db = TileDatabase::BuildDefault(model);
  AnalyticPattern p(4096, 4096, 32, 1, 0.95);
  SelectionResult r = SelectKernel(model, db, {&p}, 4096, 4096, 4096);
  EXPECT_FALSE(r.best.fallback_dense);
  EXPECT_EQ(r.best.rule.axis, MatmulAxis::kK);
  EXPECT_EQ(r.best.rule.micro_tile.cols, 1);
  EXPECT_NEAR(r.best.sparsity_after_cover, 0.95, 0.02);
}

TEST(SelectionTest, RowGranularityPicksRowRule) {
  // Whole rows dead (sequence padding): the m-axis row-gather rule must win.
  CostModel model(V100());
  TileDatabase db = TileDatabase::BuildDefault(model);
  AnalyticPattern p(4096, 1024, 1, 1024, 0.6);
  SelectionResult r = SelectKernel(model, db, {&p}, 4096, 1024, 1024);
  EXPECT_FALSE(r.best.fallback_dense);
  EXPECT_EQ(r.best.rule.axis, MatmulAxis::kM);
}

TEST(SelectionTest, DenseInputFallsBack) {
  CostModel model(V100());
  TileDatabase db = TileDatabase::BuildDefault(model);
  AnalyticPattern p(2048, 2048, 1, 1, 0.0);
  SelectionResult r = SelectKernel(model, db, {&p}, 2048, 2048, 2048);
  EXPECT_TRUE(r.best.fallback_dense);
  EXPECT_DOUBLE_EQ(r.best.covered_fraction, 1.0);
}

TEST(SelectionTest, CostDecreasesMonotonicallyWithSparsity) {
  CostModel model(V100());
  TileDatabase db = TileDatabase::BuildDefault(model);
  double prev = 1e300;
  for (double s : {0.5, 0.8, 0.95, 0.99}) {
    AnalyticPattern p(4096, 4096, 32, 1, s);
    SelectionResult r = SelectKernel(model, db, {&p}, 4096, 4096, 4096);
    EXPECT_LE(r.best.cost.Total(), prev) << s;
    prev = r.best.cost.Total();
  }
}

TEST(SelectionTest, EvaluatesFullCandidateGrid) {
  CostModel model(V100());
  TileDatabase db = TileDatabase::BuildDefault(model);
  AnalyticPattern p(1024, 1024, 8, 1, 0.9);
  SelectionResult r = SelectKernel(model, db, {&p}, 1024, 1024, 1024);
  EXPECT_EQ(r.candidates_evaluated, static_cast<int>(db.size()) * 2);  // axes m,k
}

TEST(SelectionTest, SearchIsFastOnAnalyticPatterns) {
  // §5.5: micro-tile search takes 30–100 us online. Analytic search here
  // must be comfortably sub-millisecond.
  CostModel model(V100());
  TileDatabase db = TileDatabase::BuildDefault(model);
  AnalyticPattern p(4096, 4096, 8, 1, 0.99);
  SelectionResult r = SelectKernel(model, db, {&p}, 4096, 4096, 4096);
  EXPECT_LT(r.search_wall_us, 20000.0);
}

TEST(SelectionTest, MultipleSamplesAggregate) {
  CostModel model(V100());
  TileDatabase db = TileDatabase::BuildDefault(model);
  AnalyticPattern p1(4096, 4096, 32, 1, 0.95);
  AnalyticPattern p2(4096, 4096, 32, 1, 0.99);
  SelectionResult r = SelectKernel(model, db, {&p1, &p2}, 4096, 4096, 4096);
  EXPECT_FALSE(r.best.fallback_dense);
  EXPECT_EQ(r.best.rule.micro_tile.cols, 1);
}

// ---- Compiler facade --------------------------------------------------------

TEST(CompilerTest, SparseMatmulMatchesDense) {
  PitCompiler compiler(V100());
  Rng rng(5);
  Tensor a = Tensor::RandomSparse({64, 64}, 0.9, rng);
  Tensor b = Tensor::Random({64, 32}, rng);
  PitExecution exec = compiler.SparseMatmul(a, b);
  EXPECT_TRUE(AllClose(exec.output, MatMul(a, b), 1e-3f, 1e-4f));
  EXPECT_GT(exec.plan.cost.Total(), 0.0);
}

TEST(CompilerTest, JitCacheHitsOnRepeatedShape) {
  PitCompiler compiler(V100());
  Rng rng(6);
  Tensor b = Tensor::Random({64, 32}, rng);
  for (int i = 0; i < 3; ++i) {
    Tensor a = Tensor::RandomSparse({64, 64}, 0.9, rng);
    compiler.SparseMatmul(a, b);
  }
  EXPECT_EQ(compiler.kernels_compiled(), 1);
  EXPECT_GE(compiler.cache_hits(), 2);
}

TEST(CompilerTest, DifferentSparsityBucketsRecompile) {
  PitCompiler compiler(V100());
  Rng rng(7);
  Tensor b = Tensor::Random({64, 32}, rng);
  Tensor a1 = Tensor::RandomSparse({64, 64}, 0.5, rng);
  Tensor a2 = Tensor::RandomSparse({64, 64}, 0.95, rng);
  compiler.SparseMatmul(a1, b);
  compiler.SparseMatmul(a2, b);
  EXPECT_EQ(compiler.kernels_compiled(), 2);
}

TEST(CompilerTest, SelectionCachedPerRowBucket) {
  // m is a PIT-axis: selection happens once per power-of-two row-count
  // bucket and the chosen kernel runs at the exact m. Every row keeps the
  // same columns (7 of 64) live, so all m share one sparsity bucket.
  PitCompiler compiler(V100());
  Rng rng(9);
  Tensor b = Tensor::Random({64, 32}, rng);
  for (int64_t m = 17; m <= 33; ++m) {
    Tensor a({m, 64});
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < 64; j += 10) {
        a.At(i, j) = rng.NextFloat(0.5f, 1.0f);
      }
    }
    PitExecution exec = compiler.SparseMatmul(a, b);
    EXPECT_EQ(compiler.kernels_compiled(), m <= 32 ? 1 : 2) << "m " << m;
    const Tensor dense = MatMul(a, b);
    if (exec.plan.fallback_dense) {
      EXPECT_EQ(std::memcmp(exec.output.data(), dense.data(),
                            static_cast<size_t>(dense.size()) * sizeof(float)),
                0)
          << "m " << m;
    } else {
      EXPECT_TRUE(AllClose(exec.output, dense, 1e-3f, 1e-4f)) << "m " << m;
    }
  }
  EXPECT_EQ(compiler.cache_hits(), 15);  // m = 18..32
}

TEST(CompilerTest, DenseFallbackProducesExactResult) {
  PitCompiler compiler(V100());
  Rng rng(8);
  Tensor a = Tensor::Random({32, 32}, rng, 0.5f, 1.0f);  // fully dense
  Tensor b = Tensor::Random({32, 16}, rng);
  PitExecution exec = compiler.SparseMatmul(a, b);
  EXPECT_TRUE(exec.plan.fallback_dense);
  EXPECT_TRUE(AllClose(exec.output, MatMul(a, b), 1e-4f, 1e-5f));
}

}  // namespace
}  // namespace pit

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <thread>
#include <vector>

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

// Counts NonZeroProb calls — one coverage pass each on a MaskPattern.
class CountingPattern final : public SparsityPattern {
 public:
  explicit CountingPattern(const SparsityPattern& inner) : inner_(inner) {}
  int64_t rows() const override { return inner_.rows(); }
  int64_t cols() const override { return inner_.cols(); }
  double ElementSparsity() const override { return inner_.ElementSparsity(); }
  double NonZeroProb(const MicroTileShape& micro) const override {
    ++calls_;
    return inner_.NonZeroProb(micro);
  }
  int64_t calls() const { return calls_; }

 private:
  const SparsityPattern& inner_;
  mutable int64_t calls_ = 0;
};

// Algorithm 1 written out without sharing anything between candidates: every
// (tile, axis) candidate prices every sample through a fresh MaskPattern.
SelectionResult ReferenceSelect(const CostModel& model, const TileDatabase& db,
                                const std::vector<const Tensor*>& masks, int64_t m, int64_t k,
                                int64_t n) {
  SelectionResult result;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const TileEntry& entry : db.entries()) {
    for (MatmulAxis axis : {MatmulAxis::kM, MatmulAxis::kK}) {
      const PitRule rule =
          MakeRuleForSparseA(entry.shape, axis, Layout::kRowMajor, entry.tensor_core);
      double total = 0.0;
      PitMatmulPlan last_plan;
      for (const Tensor* mask : masks) {
        const MaskPattern fresh(mask);
        last_plan = PlanSparseMatmul(model, rule, m, k, n, fresh);
        total += last_plan.cost.Total();
      }
      ++result.candidates_evaluated;
      if (total < best_cost) {
        best_cost = total;
        result.best = last_plan;
      }
    }
  }
  const TileEntry& dense = db.BestDenseTile(model, m, k, n);
  result.dense_cost_us = model.DenseMatmul(m, k, n, dense.shape, dense.tensor_core).Total() *
                         static_cast<double>(masks.size());
  if (result.dense_cost_us <= best_cost) {
    result.best.fallback_dense = true;
    result.best.rule.dense_tile = dense.shape;
    result.best.rule.tensor_core = dense.tensor_core;
    result.best.cost = model.DenseMatmul(m, k, n, dense.shape, dense.tensor_core);
    result.best.num_exec_tiles = ((m + dense.shape.m - 1) / dense.shape.m) *
                                 ((k + dense.shape.k - 1) / dense.shape.k) *
                                 ((n + dense.shape.n - 1) / dense.shape.n);
    result.best.covered_fraction = 1.0;
    result.best.sparsity_after_cover = 0.0;
  }
  return result;
}

// Every field but the search's own wall time, compared exactly.
void ExpectSameSelection(const SelectionResult& got, const SelectionResult& want) {
  EXPECT_EQ(got.best.rule.axis, want.best.rule.axis);
  EXPECT_EQ(got.best.rule.micro_tile, want.best.rule.micro_tile);
  EXPECT_EQ(got.best.rule.dense_tile, want.best.rule.dense_tile);
  EXPECT_EQ(got.best.rule.tensor_core, want.best.rule.tensor_core);
  EXPECT_EQ(got.best.rule.needs_layout_flip, want.best.rule.needs_layout_flip);
  EXPECT_EQ(got.best.m, want.best.m);
  EXPECT_EQ(got.best.k, want.best.k);
  EXPECT_EQ(got.best.n, want.best.n);
  EXPECT_EQ(got.best.num_exec_tiles, want.best.num_exec_tiles);
  EXPECT_EQ(got.best.num_micro_tiles, want.best.num_micro_tiles);
  EXPECT_EQ(got.best.covered_fraction, want.best.covered_fraction);
  EXPECT_EQ(got.best.sparsity_after_cover, want.best.sparsity_after_cover);
  EXPECT_EQ(got.best.cost.compute_us, want.best.cost.compute_us);
  EXPECT_EQ(got.best.cost.memory_us, want.best.cost.memory_us);
  EXPECT_EQ(got.best.cost.launch_us, want.best.cost.launch_us);
  EXPECT_EQ(got.best.cost.convert_us, want.best.cost.convert_us);
  EXPECT_EQ(got.best.cost.index_us, want.best.cost.index_us);
  EXPECT_EQ(got.best.fallback_dense, want.best.fallback_dense);
  EXPECT_EQ(got.dense_cost_us, want.dense_cost_us);
  EXPECT_EQ(got.candidates_evaluated, want.candidates_evaluated);
}

TEST(SelectionTest, OneCoveragePassPerMicroTileShape) {
  // The default database's 30 tiles x 2 axes derive only 7 micro-tiles:
  // (1,32), (1,64) on m and (8,1) .. (128,1) on k. A 512x512 ReLU mask is
  // scanned once per micro-tile, not once per candidate, and the selection
  // equals the candidate-by-candidate reference in every field.
  CostModel model(V100());
  TileDatabase db = TileDatabase::BuildDefault(model);
  Rng rng(31);
  const Tensor act = Relu(Tensor::Random({512, 512}, rng));
  const MaskPattern mask(&act);
  CountingPattern counted(mask);
  const SelectionResult r = SelectKernel(model, db, {&counted}, 512, 512, 512);
  EXPECT_EQ(r.candidates_evaluated, 60);
  EXPECT_EQ(counted.calls(), 7);
  ExpectSameSelection(r, ReferenceSelect(model, db, {&act}, 512, 512, 512));
}

TEST(SelectionTest, OneCoveragePassPerMicroTilePerSample) {
  CostModel model(V100());
  TileDatabase db = TileDatabase::BuildDefault(model);
  Rng rng(37);
  const Tensor act1 = Relu(Tensor::Random({512, 512}, rng));
  const Tensor act2 = Tensor::RandomBlockSparse(512, 512, 32, 1, 0.9, rng);
  const MaskPattern mask1(&act1);
  const MaskPattern mask2(&act2);
  CountingPattern counted1(mask1);
  CountingPattern counted2(mask2);
  const SelectionResult r = SelectKernel(model, db, {&counted1, &counted2}, 512, 512, 512);
  EXPECT_EQ(counted1.calls() + counted2.calls(), 14);
  ExpectSameSelection(r, ReferenceSelect(model, db, {&act1, &act2}, 512, 512, 512));
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

TEST(CompilerTest, ConcurrentCallersShareOneSelectionPerKey) {
  // 4 threads drive one compiler over interleaved keys, each key always fed
  // the same operands: every output is bitwise equal to a serial compiler's,
  // and each key is selected once. The keys cover all three kernels.
  Rng rng(41);
  const Tensor b_wide = Tensor::Random({256, 1024}, rng);
  const Tensor b_small = Tensor::Random({64, 32}, rng);
  struct Key {
    Tensor a;
    const Tensor* b;
  };
  std::vector<Key> keys;
  keys.push_back({Tensor::RandomBlockSparse(256, 256, 32, 1, 0.98, rng), &b_wide});
  keys.push_back({Tensor::RandomBlockSparse(512, 256, 32, 1, 0.98, rng), &b_wide});
  keys.push_back({Tensor::RandomBlockSparse(256, 256, 1, 256, 0.9, rng), &b_wide});
  keys.push_back({Tensor::Random({24, 64}, rng), &b_small});
  keys.push_back({Tensor::RandomSparse({24, 64}, 0.5, rng), &b_small});
  PitCompiler serial(V100());
  std::vector<Tensor> expected;
  int k_gather = 0, row_gather = 0, dense = 0;
  for (const Key& key : keys) {
    PitExecution exec = serial.SparseMatmul(key.a, *key.b);
    expected.push_back(std::move(exec.output));
    dense += exec.plan.fallback_dense ? 1 : 0;
    k_gather += !exec.plan.fallback_dense && exec.plan.rule.axis == MatmulAxis::kK ? 1 : 0;
    row_gather += !exec.plan.fallback_dense && exec.plan.rule.axis == MatmulAxis::kM ? 1 : 0;
  }
  ASSERT_EQ(serial.kernels_compiled(), static_cast<int64_t>(keys.size()));
  ASSERT_GT(k_gather, 0);
  ASSERT_GT(row_gather, 0);
  ASSERT_GT(dense, 0);

  PitCompiler shared(V100());
  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < keys.size(); ++i) {
          const size_t key = (i + static_cast<size_t>(t)) % keys.size();
          const Tensor& a = keys[key].a;
          Tensor out({a.dim(0), keys[key].b->dim(1)});
          shared.SparseMatmulInto(a, *keys[key].b, out);
          if (std::memcmp(out.data(), expected[key].data(),
                          static_cast<size_t>(out.size()) * sizeof(float)) != 0) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
  const int64_t calls = kThreads * kRounds * static_cast<int64_t>(keys.size());
  EXPECT_EQ(shared.kernels_compiled(), static_cast<int64_t>(keys.size()));
  EXPECT_EQ(shared.kernels_compiled() + shared.cache_hits(), calls);
  EXPECT_EQ(shared.reselections(), 0);
}

}  // namespace
}  // namespace pit

#include "pit/baselines/engines.h"

#include <algorithm>
#include <cmath>

#include "pit/common/check.h"
#include "pit/core/sparse_kernel.h"
#include "pit/core/sparsity_detector.h"
#include "pit/tensor/ops.h"

namespace pit {

namespace {

// Expected nonzero elements of A under the pattern.
int64_t ExpectedNnz(const SparsityPattern& pattern) {
  return static_cast<int64_t>(std::llround((1.0 - pattern.ElementSparsity()) *
                                           static_cast<double>(pattern.rows() * pattern.cols())));
}

// CSR build cost shared by cuSPARSE/Sputnik: a dense scan per pass (nnz
// count, prefix sum, compaction), per-element predicate/position bookkeeping
// (dense2csr runs ~10 G elem/s), plus scattered writes of (col_idx, value).
double CsrConvertCost(const CostModel& model, int64_t elems, int64_t nnz) {
  const double passes = 3.0 * model.MemoryTime(elems * model.ElemBytes());
  const double per_elem = static_cast<double>(elems) * 0.0001;
  const double prefix = 2.0 * model.MemoryTime(elems / 8);
  const double scatter = model.ScatteredMemoryTime(nnz * 12, 12);
  return passes + per_elem + prefix + scatter + 4.0 * model.device().launch_overhead_us;
}

}  // namespace

// ---------------------------------------------------------------- Dense
EnginePrice DenseEngine::Price(const CostModel& model, const SparsityPattern& pattern, int64_t m,
                               int64_t k, int64_t n, bool /*include_convert*/) const {
  // Dense execution consumes the operands as they are: no format conversion.
  EnginePrice price;
  const TileShape tile{64, 64, 64};
  price.cost = model.DenseMatmul(m, k, n, tile);
  price.wasted_fraction = pattern.ElementSparsity();
  return price;
}

Tensor DenseEngine::Execute(const Tensor& a, const Tensor& b) const { return MatMul(a, b); }

// ---------------------------------------------------------------- cuSPARSE
EnginePrice CusparseEngine::Price(const CostModel& model, const SparsityPattern& pattern,
                                  int64_t m, int64_t k, int64_t n, bool include_convert) const {
  EnginePrice price;
  const int64_t nnz = ExpectedNnz(pattern);
  if (include_convert) {
    price.cost.convert_us = CsrConvertCost(model, m * k, nnz);
  }
  // Fine-grained SpMM: every nonzero touches a full row of B with poor reuse.
  const double flop_us = model.FineGrainedFlopCost(2 * nnz * n);
  const double b_traffic_us =
      model.MemoryTime(static_cast<int64_t>(0.25 * static_cast<double>(nnz) *
                                            static_cast<double>(n) *
                                            static_cast<double>(model.ElemBytes())));
  price.cost.compute_us = std::max(flop_us, b_traffic_us);
  price.cost.launch_us = model.device().launch_overhead_us;
  price.wasted_fraction = 0.0;  // computes exactly the nonzeros
  return price;
}

Tensor CusparseEngine::Execute(const Tensor& a, const Tensor& b) const {
  return CsrMatrix::FromDense(a).SpMM(b);
}

// ---------------------------------------------------------------- Sputnik
EnginePrice SputnikEngine::Price(const CostModel& model, const SparsityPattern& pattern,
                                 int64_t m, int64_t k, int64_t n, bool include_convert) const {
  EnginePrice price;
  const int64_t nnz = ExpectedNnz(pattern);
  if (include_convert) {
    price.cost.convert_us = CsrConvertCost(model, m * k, nnz);
  }
  // Vector-row kernel (SC'20): subwarp per row, vectorized loads of B keep
  // reuse much higher than scalar CSR. ~10% of peak on unstructured patterns.
  double peak = model.device().fp32_flops_per_sm_us * model.device().num_sms;
  if (model.precision() == Precision::kFp16) {
    peak *= model.device().fp16_multiplier;
  }
  const double flop_us = static_cast<double>(2 * nnz * n) / (peak * 0.10);
  const double b_traffic_us =
      model.MemoryTime(static_cast<int64_t>(0.05 * static_cast<double>(nnz) *
                                            static_cast<double>(n) *
                                            static_cast<double>(model.ElemBytes())));
  price.cost.compute_us = std::max(flop_us, b_traffic_us);
  price.cost.launch_us = model.device().launch_overhead_us;
  price.wasted_fraction = 0.0;
  return price;
}

Tensor SputnikEngine::Execute(const Tensor& a, const Tensor& b) const {
  return CsrMatrix::FromDense(a).SpMM(b);
}

// ---------------------------------------------------------------- Triton
EnginePrice TritonBlockEngine::Price(const CostModel& model, const SparsityPattern& pattern,
                                     int64_t m, int64_t k, int64_t n,
                                     bool include_convert) const {
  EnginePrice price;
  // Covered 32x32 blocks of A; each contributes a [block, block] x [block, n
  // tile] dense MAC. Anything finer than 32x32 is padded up — the waste the
  // paper calls out for OPT's 1x32 activation sparsity.
  const MicroTileShape block{block_, block_};
  const double p = pattern.NonZeroProb(block);
  const int64_t grid_m = (m + block_ - 1) / block_;
  const int64_t grid_k = (k + block_ - 1) / block_;
  const int64_t nnz_blocks = static_cast<int64_t>(std::llround(
      p * static_cast<double>(grid_m * grid_k)));
  const TileShape tile{block_, block_, 64};
  const int64_t n_tiles = (n + tile.n - 1) / tile.n;
  price.cost.compute_us = model.WaveLatency(nnz_blocks * n_tiles, model.MatmulTileCost(tile));
  price.cost.launch_us = model.device().launch_overhead_us;
  if (include_convert) {
    // Triton's block index is built ordered on host/device (Fig. 18).
    price.cost.index_us = SparsityDetector::OrderedDetectCostUs(
        model, m * k, std::max<int64_t>(nnz_blocks, 1));
  }
  const double covered = p;  // fraction of A area executed
  const double nz = 1.0 - pattern.ElementSparsity();
  price.wasted_fraction = covered > 0.0 ? std::clamp(1.0 - nz / covered, 0.0, 1.0) : 0.0;
  return price;
}

Tensor TritonBlockEngine::Execute(const Tensor& a, const Tensor& b) const {
  return BsrMatrix::FromDense(a, block_, block_).SpMM(b);
}

// ---------------------------------------------------------------- SparTA
EnginePrice SpartaEngine::Price(const CostModel& model, const SparsityPattern& pattern, int64_t m,
                                int64_t k, int64_t n, bool include_convert) const {
  EnginePrice price;
  // SparTA specializes a kernel per (static) pattern: condensed execution
  // close to PIT's coverage, but with a fixed 32x32x32 tile, extra per-tile
  // data-rearrangement (no SRead piggyback), and a minutes-scale AOT compile,
  // which is what disqualifies it for dynamic sparsity (Fig. 3b).
  const TileShape tile{32, 32, 32};
  const PitRule rule = MakeRuleForSparseA(tile, MatmulAxis::kK, Layout::kRowMajor);
  PlanOptions opts;
  opts.sread_overhead = 0.25;
  opts.include_index_build = false;  // index baked into the specialized kernel
  const PitMatmulPlan plan = PlanSparseMatmul(model, rule, m, k, n, pattern, opts);
  price.cost = plan.cost;
  price.wasted_fraction = WastedComputationFraction(pattern, rule.micro_tile);
  price.aot_compile_us = 500.0 * 1e6;  // 400–600 s compile (§2.2, Fig. 3b)
  if (include_convert) {
    // Under dynamic sparsity the compile lands on the critical path.
    price.cost.convert_us = price.aot_compile_us;
  }
  return price;
}

Tensor SpartaEngine::Execute(const Tensor& a, const Tensor& b) const {
  // Functionally the specialized kernel computes the exact masked product.
  return PitKGatherMatmul(a, b, /*block_m=*/32);
}

// ---------------------------------------------------------------- PIT
EnginePrice PitEngine::Price(const CostModel& model, const SparsityPattern& pattern, int64_t m,
                             int64_t k, int64_t n, bool include_convert) const {
  EnginePrice price;
  TileDatabase db = TileDatabase::BuildDefault(model);
  SelectionOptions opts;
  opts.plan.include_index_build = include_convert;
  const SelectionResult sel = SelectKernel(model, db, {&pattern}, m, k, n, opts);
  price.cost = sel.best.cost;
  price.wasted_fraction = sel.best.fallback_dense
                              ? pattern.ElementSparsity()
                              : WastedComputationFraction(pattern, sel.best.rule.micro_tile);
  return price;
}

Tensor PitEngine::Execute(const Tensor& a, const Tensor& b) const {
  PitCompiler compiler(V100());
  return compiler.SparseMatmul(a, b).output;
}

std::vector<std::unique_ptr<SparseMatmulEngine>> MakeAllEngines() {
  std::vector<std::unique_ptr<SparseMatmulEngine>> engines;
  engines.push_back(std::make_unique<CusparseEngine>());
  engines.push_back(std::make_unique<SputnikEngine>());
  engines.push_back(std::make_unique<TritonBlockEngine>());
  engines.push_back(std::make_unique<SpartaEngine>());
  engines.push_back(std::make_unique<PitEngine>());
  return engines;
}

}  // namespace pit

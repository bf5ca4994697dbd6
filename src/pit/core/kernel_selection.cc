#include "pit/core/kernel_selection.h"

#include <array>
#include <chrono>
#include <limits>

#include "pit/common/check.h"

namespace pit {

namespace {

// One sample's coverage, memoized per micro-tile shape. The (tile, axis)
// candidates derive their micro-tiles from the tile database's m and k
// extents only (the default grid yields 7 shapes for 60 candidates), and a
// sample's coverage of a shape never changes, so Algorithm 1 pays one
// coverage pass — a full detector scan on a MaskPattern — per distinct shape
// instead of one per candidate. The values are the wrapped pattern's own
// doubles, so the selection is unchanged. Fixed storage, no allocation; a
// shape beyond capacity is forwarded uncached.
class CoverageMemo final : public SparsityPattern {
 public:
  explicit CoverageMemo(const SparsityPattern* inner) : inner_(inner) {}

  int64_t rows() const override { return inner_->rows(); }
  int64_t cols() const override { return inner_->cols(); }
  double ElementSparsity() const override { return inner_->ElementSparsity(); }
  double NonZeroProb(const MicroTileShape& micro) const override {
    for (size_t i = 0; i < size_; ++i) {
      if (shapes_[i] == micro) {
        return probs_[i];
      }
    }
    const double p = inner_->NonZeroProb(micro);
    if (size_ < kCapacity) {
      shapes_[size_] = micro;
      probs_[size_] = p;
      ++size_;
    }
    return p;
  }

 private:
  static constexpr size_t kCapacity = 16;
  const SparsityPattern* inner_;
  mutable std::array<MicroTileShape, kCapacity> shapes_{};
  mutable std::array<double, kCapacity> probs_{};
  mutable size_t size_ = 0;
};

}  // namespace

SelectionResult SelectKernel(const CostModel& model, const TileDatabase& db,
                             const std::vector<const SparsityPattern*>& samples, int64_t m,
                             int64_t k, int64_t n, const SelectionOptions& opts) {
  PIT_CHECK(!samples.empty());
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<CoverageMemo> memos;
  memos.reserve(samples.size());
  for (const SparsityPattern* sample : samples) {
    memos.emplace_back(sample);
  }

  SelectionResult result;
  double best_cost = std::numeric_limits<double>::infinity();

  for (const TileEntry& entry : db.entries()) {
    for (MatmulAxis axis : opts.axes) {
      const PitRule rule = MakeRuleForSparseA(entry.shape, axis, opts.a_layout, entry.tensor_core);
      double total = 0.0;
      PitMatmulPlan last_plan;
      for (const CoverageMemo& sample : memos) {
        last_plan = PlanSparseMatmul(model, rule, m, k, n, sample, opts.plan);
        total += last_plan.cost.Total();
      }
      ++result.candidates_evaluated;
      if (total < best_cost) {
        best_cost = total;
        result.best = last_plan;  // plan of the final sample under best rule
      }
    }
  }

  // Dense fallback (Algorithm 1's low-sparsity path): if the best dense
  // kernel beats every sparse plan, run dense.
  const TileEntry& dense = db.BestDenseTile(model, m, k, n);
  result.dense_cost_us =
      model.DenseMatmul(m, k, n, dense.shape, dense.tensor_core).Total() *
      static_cast<double>(samples.size());
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

  const auto t1 = std::chrono::steady_clock::now();
  result.search_wall_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  return result;
}

}  // namespace pit

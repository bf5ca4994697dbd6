// Algorithm 1: kernel selection for a dynamically sparse operator.
//
// Iterates over every dense computation tile in the tile database and every
// PIT-axis of the operator, derives the micro-tile, counts covering
// micro-tiles with CoverAlgo over the sparsity samples, and estimates cost as
// num_tiles * tile_cost. Candidates share micro-tiles, so each sample's
// coverage is computed once per distinct micro-tile shape. Falls back to
// dense execution when no sparse plan beats the best dense kernel (low
// sparsity). The search itself is priced so the §5.5 claim (30–100 us online
// search) can be checked.
#ifndef PIT_CORE_KERNEL_SELECTION_H_
#define PIT_CORE_KERNEL_SELECTION_H_

#include <cstdint>
#include <vector>

#include "pit/core/sparse_kernel.h"
#include "pit/core/tile_database.h"
#include "pit/sparse/coverage.h"

namespace pit {

struct SelectionResult {
  PitMatmulPlan best;              // plan under the winning rule (or dense)
  double dense_cost_us = 0.0;      // best dense alternative
  int candidates_evaluated = 0;    // (tile, axis) pairs scored
  double search_wall_us = 0.0;     // measured host time of the search itself
};

struct SelectionOptions {
  // PIT-axes to consider for the sparse-A matmul family.
  std::vector<MatmulAxis> axes = {MatmulAxis::kM, MatmulAxis::kK};
  Layout a_layout = Layout::kRowMajor;
  PlanOptions plan;
};

// Selects the best kernel for C[m,n] = A[m,k] * B[k,n] with sparse A.
// `samples` are sparsity samples of A (the paper feeds n samples; costs are
// summed across them, Algorithm 1 line 7).
SelectionResult SelectKernel(const CostModel& model, const TileDatabase& db,
                             const std::vector<const SparsityPattern*>& samples, int64_t m,
                             int64_t k, int64_t n, const SelectionOptions& opts = {});

}  // namespace pit

#endif  // PIT_CORE_KERNEL_SELECTION_H_

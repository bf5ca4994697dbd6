// PitCompiler: the user-facing facade (Fig. 5).
//
// Owns the device cost model, the offline-profiled tile database, and a JIT
// cache of selected kernels keyed by (row-count bucket, k, n, sparsity
// signature). Given a sparse operand it runs online detection, selects (or
// re-uses) a kernel via Algorithm 1, and executes the corresponding
// functional path.
#ifndef PIT_CORE_COMPILER_H_
#define PIT_CORE_COMPILER_H_

#include <cstdint>
#include <map>
#include <tuple>

#include "pit/core/kernel_selection.h"
#include "pit/core/sparse_kernel.h"
#include "pit/gpusim/cost_model.h"
#include "pit/tensor/tensor.h"

namespace pit {

// Result of one compiled+executed sparse matmul.
struct PitExecution {
  Tensor output;
  PitMatmulPlan plan;       // simulated cost of the chosen kernel
  bool cache_hit = false;   // kernel came from the JIT cache
};

// As PitExecution but for the view form, which writes into caller storage
// instead of materializing an output tensor.
struct PitDispatch {
  PitMatmulPlan plan;
  bool cache_hit = false;
};

// Per-call-site kernel slot for planned execution. An ExecutionPlan owns one
// handle per PIT dispatch step; when the step's cache key (row-count bucket,
// k, n, sparsity bucket) matches the handle and no periodic resample is due,
// the dispatch reuses the kernel selected at the same site without touching
// the JIT cache map — the compiler is hooked into the plan rather than
// consulted per call.
struct PitKernelHandle {
  bool valid = false;
  const void* compiler = nullptr;  // the PitCompiler that filled the handle
  int64_t m = 0, k = 0, n = 0;     // m is the row-count bucket, as in the cache key
  int sparsity_bucket = -1;  // 5%-step bucket, same granularity as the cache key
  int64_t generation = -1;   // compiler's reselection generation at fill time
  SelectionResult selection;
};

class PitCompiler {
 public:
  explicit PitCompiler(DeviceSpec device, Precision precision = Precision::kFp32);

  // C = A * B with dynamically sparse A: detect -> select -> execute.
  // Selection uses the actual sparsity of `a` as its (single) online sample.
  PitExecution SparseMatmul(const Tensor& a, const Tensor& b);

  // View form behind SparseMatmul and the planned executor's PIT steps:
  // writes C into `out` (typically an arena slice). `handle`, when given, is
  // the call site's cached kernel: a matching handle skips the cache map, a
  // stale or empty one falls through to the exact SparseMatmul selection path
  // (shared map, shared counters, periodic resampling included) and is
  // refreshed. Outputs are bitwise identical with or without a handle.
  PitDispatch SparseMatmulInto(ConstTensorView a, ConstTensorView b, TensorView out,
                               PitKernelHandle* handle = nullptr);

  // Pure planning entry for analytic patterns (benchmarks).
  SelectionResult Plan(const SparsityPattern& pattern, int64_t m, int64_t k, int64_t n,
                       const SelectionOptions& opts = {});

  const CostModel& cost_model() const { return model_; }
  const TileDatabase& tile_database() const { return db_; }

  // Fig. 5's "sparse tensor samples, periodically": every `every` executions
  // the compiler re-runs Algorithm 1 on the current input even on a cache
  // hit, so a drifting pattern (e.g. granularity change at the same sparsity
  // ratio) migrates to a better kernel. 0 disables re-sampling.
  void EnablePeriodicResample(int64_t every) { resample_every_ = every; }
  int64_t reselections() const { return reselections_; }

  int64_t kernels_compiled() const { return kernels_compiled_; }
  int64_t cache_hits() const { return cache_hits_; }

 private:
  // Sparsity signature: (row-count bucket, k, n, sparsity bucket), the
  // granularity at which a selected kernel stays optimal. m is bucketed on the
  // power-of-two grid (floor 16) because it is a PIT-axis: selection happens
  // once per bucket and the chosen kernel runs (and is re-priced) at the exact
  // m, so packed batches of every distinct row count share one selection.
  using CacheKey = std::tuple<int64_t, int64_t, int64_t, int>;
  CacheKey MakeKey(int64_t m, int64_t k, int64_t n, double sparsity) const;

  CostModel model_;
  TileDatabase db_;
  std::map<CacheKey, SelectionResult> cache_;
  // Bumped whenever a resample replaces a cached selection; handles filled
  // under an older generation fall back to the map, so a plan site always
  // dispatches exactly what the eager (map-only) path would.
  int64_t selection_generation_ = 0;
  int64_t kernels_compiled_ = 0;
  int64_t cache_hits_ = 0;
  int64_t resample_every_ = 0;
  int64_t exec_count_ = 0;
  int64_t reselections_ = 0;
};

}  // namespace pit

#endif  // PIT_CORE_COMPILER_H_

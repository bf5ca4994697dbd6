// PitCompiler: the user-facing facade (Fig. 5).
//
// Owns the device cost model, the offline-profiled tile database, and the JIT
// cache of selected kernels keyed by (row-count bucket, k, n, sparsity
// signature). Given a sparse operand it runs online detection, selects (or
// re-uses) a kernel via Algorithm 1, and executes the corresponding
// functional path. The cache is the only kernel cache: eager calls and the
// planned executor's PIT steps look their kernel up in the same map.
//
// One compiler serves any number of threads: SparseMatmulInto may run
// concurrently (the serving engine shares one compiler across all its
// streams). A hit copies the cached rule out under a shared lock. The first
// miss of a key marks it in flight and runs Algorithm 1 under no lock, then
// publishes under the exclusive lock; concurrent misses of the same key wait
// for that result and count a hit, so Algorithm 1 runs once per key and
// every caller runs one kernel per key. No lock is held across the GEMM.
#ifndef PIT_CORE_COMPILER_H_
#define PIT_CORE_COMPILER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <set>
#include <shared_mutex>
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

class PitCompiler {
 public:
  explicit PitCompiler(DeviceSpec device, Precision precision = Precision::kFp32);

  // C = A * B with dynamically sparse A: detect -> select -> execute.
  // Selection uses the actual sparsity of `a` as its (single) online sample.
  PitExecution SparseMatmul(const Tensor& a, const Tensor& b);

  // View form behind SparseMatmul and the planned executor's PIT steps:
  // writes C into `out` (typically an arena slice). Every call, eager or
  // planned, selects through the one JIT cache map (shared counters,
  // periodic resampling included). Safe to call concurrently.
  PitDispatch SparseMatmulInto(ConstTensorView a, ConstTensorView b, TensorView out);

  // Pure planning entry for analytic patterns (benchmarks).
  SelectionResult Plan(const SparsityPattern& pattern, int64_t m, int64_t k, int64_t n,
                       const SelectionOptions& opts = {});

  const CostModel& cost_model() const { return model_; }
  const TileDatabase& tile_database() const { return db_; }

  // Fig. 5's "sparse tensor samples, periodically": every `every` executions
  // the compiler re-runs Algorithm 1 on the current input even on a cache
  // hit, so a drifting pattern (e.g. granularity change at the same sparsity
  // ratio) migrates to a better kernel; the replacement happens under the
  // exclusive lock. 0 disables re-sampling. Configure before concurrent use.
  void EnablePeriodicResample(int64_t every) { resample_every_ = every; }
  int64_t reselections() const { return reselections_.load(std::memory_order_relaxed); }

  // Algorithm 1 runs on a cache miss, each publishing one kernel: one per
  // distinct key, however many callers miss it at once.
  int64_t kernels_compiled() const { return kernels_compiled_.load(std::memory_order_relaxed); }
  int64_t cache_hits() const { return cache_hits_.load(std::memory_order_relaxed); }

 private:
  // Sparsity signature: (row-count bucket, k, n, sparsity bucket), the
  // granularity at which a selected kernel stays optimal. m is bucketed on the
  // power-of-two grid (floor 16) because it is a PIT-axis: selection happens
  // once per bucket and the chosen kernel runs (and is re-priced) at the exact
  // m, so packed batches of every distinct row count share one selection.
  using CacheKey = std::tuple<int64_t, int64_t, int64_t, int>;
  CacheKey MakeKey(int64_t m, int64_t k, int64_t n, double sparsity) const;

  // Immutable after construction: read by every caller without a lock.
  const CostModel model_;
  const TileDatabase db_;
  std::shared_mutex mu_;  // guards cache_ and in_flight_
  std::map<CacheKey, SelectionResult> cache_;
  std::set<CacheKey> in_flight_;           // keys whose selection is running
  std::condition_variable_any selected_;  // signalled when one is published
  std::atomic<int64_t> kernels_compiled_{0};
  std::atomic<int64_t> cache_hits_{0};
  int64_t resample_every_ = 0;
  std::atomic<int64_t> exec_count_{0};
  std::atomic<int64_t> reselections_{0};
};

}  // namespace pit

#endif  // PIT_CORE_COMPILER_H_

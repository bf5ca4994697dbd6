// Shared types of pitbench, the closed-loop ServingEngine benchmark: the
// workload table, the seeded request pool, the stack under test, and the
// traced shadow re-execution (shadow.cc) that attributes time to layers.
#ifndef PITBENCH_PITBENCH_H_
#define PITBENCH_PITBENCH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pit/runtime/models.h"
#include "pit/runtime/serving_engine.h"
#include "pit/tensor/tensor.h"

namespace pitbench {

// Stack shapes of the existing serving benches.
constexpr int64_t kLayers = 2;
constexpr int64_t kHidden = 128;
constexpr int64_t kHeads = 4;
constexpr int64_t kFfn = 512;

// Load shape: a pool of kPoolSize seeded requests served kCallSize per
// ServeWithStatus call, cycling through the pool in a fixed order.
constexpr int kPoolSize = 512;
constexpr int kCallSize = 64;
constexpr int64_t kMaxBatchTokens = 512;

// Engine constants the shadow mirrors (runtime/serving_engine.cc): the floor
// of the power-of-two bucket grid and the flush-all bound of a stream's
// plan+context pool.
constexpr int64_t kMinBatchBucket = 16;
constexpr size_t kMaxPooledShapes = 16;

// One workload: a stack type, an admission policy and a request mix.
struct Workload {
  const char* name;
  bool ffn;          // PlannedFfnStack, else PlannedTransformerStack
  bool use_pit;      // PIT sparse down-projections
  int batch_window;  // 1 = unbatched 1:1 serving
  bool mnli_only;    // else alpaca and mnli lengths alternate
  bool masked;       // each request carries its own LongformerMask
};

// The seeded request pool, already split into its fixed call order.
struct RequestPool {
  std::vector<pit::Tensor> masks;  // one per request when masked; never resized
  std::vector<std::vector<pit::ServeRequest>> calls;
  const pit::ServeRequest& request(int index) const {
    return calls[static_cast<size_t>(index / kCallSize)][static_cast<size_t>(index % kCallSize)];
  }
};

// The stack under test: exactly one of the two is set.
struct Stack {
  std::unique_ptr<pit::PlannedTransformerStack> xf;
  std::unique_ptr<pit::PlannedFfnStack> ffn;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Per-layer numbers of the traced shadow run.
struct TraceResult {
  std::vector<Metric> metrics;  // in print order
  int64_t mismatches = 0;       // shadow vs engine outputs, bitwise
  int64_t dropped_spans = 0;    // span buffer overflow (must stay 0)
};

// Re-executes the pool's calls on one stream through the layers' public
// functions (SReadRowsInto, BlockDiagonalMaskInto, MakeStream, per-layer
// ExecutionPlan::RunWith with a StepObserver, SWriteRowsFrom) and attributes
// the wall time to layers. `engine_outputs` holds the engine's kOk outputs
// of one pool pass (empty tensors elsewhere); `engine_pass_s` is the
// engine's median wall time per pool pass. When `trace_out` is non-empty the
// traced spans are written there as Chrome trace-event JSON.
TraceResult RunShadow(const Workload& workload, const Stack& stack, const RequestPool& pool,
                      const std::vector<pit::Tensor>& engine_outputs, double engine_pass_s,
                      int width, const std::string& trace_out);

}  // namespace pitbench

#endif  // PITBENCH_PITBENCH_H_

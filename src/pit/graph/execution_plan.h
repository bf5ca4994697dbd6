// ExecutionPlan: the compile-once / execute-many layer under the graph IR.
//
// The paper's Fig. 5 workflow selects PIT rules and kernels offline and has
// the runtime merely replay them per batch. The previous executor re-walked
// the IR on every call and materialized every intermediate as a fresh
// value-semantics Tensor; this layer does the walking once:
//
//   * shape inference re-derives and validates every node's shape,
//   * liveness analysis finds each intermediate's last consumer,
//   * an arena planner assigns every intermediate an offset in one reusable
//     buffer (best-fit free-list reuse for non-overlapping lifetimes, plus
//     in-place aliasing for elementwise ops consuming a dying input); the
//     arena base and every block offset are 64-byte aligned,
//   * a matmul(+bias) whose only consumer is a ReLU fuses into one
//     fused-epilogue GEMM step (dense steps only — PIT steps keep their
//     separate ReLU so the sparse path is untouched),
//   * the result is a flat list of OpCall dispatch steps over which the
//     dense-reference kernels and the PIT sparse path are interchangeable.
//
// Plan vs. execution state. A compiled plan is immutable: steps, shapes,
// and stats never change after the constructor returns. All
// mutable replay state — the arena and the per-replay bindings — lives in a
// caller-owned ExecutionContext, and RunWith is the one replay entry. One
// plan therefore replays concurrently from N request streams, each stream
// holding its own context; a one-shot caller replays through a context of
// its own for the call.
//
// Token-row replay. The token axis is a PIT-axis of every row-wise op
// (§3.2): GEMM rows, layernorm, residuals, ReLU and the fused epilogues each
// compute an output row from the same input row alone, and kAttention reads
// across rows only inside the segments bound on the context. A plan built
// only from such steps is *token-polymorphic*: compiled once at a token
// extent (its capacity), it replays at any row count T <= capacity bound on
// the context (ExecutionContext::set_token_rows). Every token-major value
// then occupies the first T rows of its capacity-sized arena block, which
// is a prefix of that block, so the compiled offsets and liveness stay valid
// and rows [T, capacity) are never read. Polymorphism is derived at compile
// from provenance: which values descend from a feed, and whether every step
// on that path keeps the token axis leading and reads within rows.
//
// Replay runs the steps strictly in order; parallelism lives inside the
// kernels (each one splits its work across the ParallelFor pool). Replay is
// bitwise identical to the eager executor for any thread count: the steps
// call the exact kernels the eager ops wrap and every kernel is internally
// order-deterministic. Replaying through a warmed context performs zero heap
// allocations on the dense path (the arena and bindings are sized when the
// context is built; only a genuine multi-thread fan-out pays a few
// std::function wraps) — tests/zero_alloc_test.cc holds the contract.
#ifndef PIT_GRAPH_EXECUTION_PLAN_H_
#define PIT_GRAPH_EXECUTION_PLAN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "pit/common/cancellation.h"
#include "pit/core/compiler.h"
#include "pit/graph/graph.h"
#include "pit/tensor/ops.h"
#include "pit/tensor/tensor.h"

namespace pit {

class ExecutionPlan;

// Where a node's value lives during plan execution.
enum class ValueLoc : uint8_t {
  kFeed,    // caller-provided input tensor, bound per replay
  kWeight,  // graph-owned (or referenced) constant, bound at compile
  kArena,   // slice of the execution context's arena at `offset`
};

struct ValueRef {
  ValueLoc loc = ValueLoc::kArena;
  int node_id = -1;    // storage node (where the bytes live / are bound)
  int shape_id = -1;   // shape node (differs from node_id across kReshape)
  int64_t offset = 0;  // element offset; meaningful for kArena only
};

// Most operands any step reads (kAttention: q, k, v and an optional mask).
constexpr int kMaxOpInputs = 4;

// One kernel-dispatch step. This is the unified seam between the two
// execution paths: `use_pit` false runs the dense reference kernel for
// `kind`; true routes the matmul through the replay's PitCompiler, whose JIT
// cache holds the kernel selected for the step's shape and sparsity.
struct OpCall {
  OpKind kind = OpKind::kInput;
  int node_id = -1;
  bool use_pit = false;
  bool inplace = false;    // output aliases a dying input's arena block
  bool fuse_relu = false;  // matmul(+bias) step with a fused ReLU epilogue;
                           // node_id is the elided ReLU's node
  ValueRef out;
  ValueRef in[kMaxOpInputs];
  int num_in = 0;
  float fattr = 0.0f;       // kScale factor / kLayerNorm epsilon
  int iattr0 = 0;           // kTranspose axes / kAttention heads
  int iattr1 = 1;
};

// Memory-planning summary of one compiled plan: what one execution context
// pins, against what eager execution would allocate.
struct PlanStats {
  int64_t arena_bytes = 0;           // peak bytes of one execution context's arena
  int64_t sum_temporary_bytes = 0;   // what eager execution would allocate
  int num_steps = 0;
  int num_inplace = 0;
  int num_pit_steps = 0;
  int num_fused = 0;  // matmul+relu pairs collapsed at compile
};

// How the last replay through a context ended. Kernels are uninterruptible,
// so kCancelled means the replay stopped at a step boundary (or
// never started) after its cancel token fired: the context's arena holds a
// partial, meaningless intermediate state and the returned view must be
// discarded. The next RunWith resets the status.
enum class ReplayStatus : uint8_t {
  kOk = 0,
  kCancelled = 1,
};

// Per-stream execution state over one shared, immutable ExecutionPlan: the
// 64-byte-aligned arena and the per-replay binding tables. Contexts are
// independent — two streams replaying the same plan through distinct
// contexts share zero mutable state — and reusable: a context pooled across
// requests keeps its arena.
// A context is bound to the plan it was created from; using it with another
// plan is a checked error.
class ExecutionContext {
 public:
  explicit ExecutionContext(const ExecutionPlan& plan);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  // 64-byte-aligned base of this context's arena (same alignment contract as
  // the plan's block offsets).
  const float* arena_base() const { return arena_; }
  // Bytes this context's arena pins (the plan's arena_bytes stat) — the unit
  // the serving engine's pool high-water accounting sums.
  int64_t arena_bytes() const { return arena_bytes_; }

  // Installs (or clears, with nullptr) the cancel token replay polls at step
  // boundaries through this context.
  // The token is borrowed, not owned: the caller keeps it alive across every
  // RunWith. Installing the same pointer again is a no-op, so pooled contexts
  // can re-install their stream's token on every acquisition for free.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }
  const CancelToken* cancel_token() const { return cancel_; }

  // Outcome of the most recent RunWith through this context. kCancelled
  // replays return a dead view; callers that installed a token check this
  // (or the token itself) before trusting the result.
  ReplayStatus replay_status() const { return replay_status_; }

  // Binds the attention segments every kAttention step of later replays
  // runs over: one per packed request, each attending only within itself
  // (AttentionSegment, tensor/ops.h). Borrowed like the cancel token: the
  // segments and their masks must outlive every replay that sees them.
  // Empty (the default) means one segment [0, T) carrying the plan's mask
  // feed, i.e. plain attention over the whole tile. Segments carry their own
  // masks, so binding them on a plan with a mask feed is a checked error.
  void set_attention_segments(std::span<const AttentionSegment> segments) {
    segments_ = segments;
  }

  // Binds the row count T later replays run at: every token-major value
  // (ExecutionPlan::token_major) is viewed with T leading rows, and token
  // feeds may carry more rows than T (only the first T are read). 0 (the
  // default) means the plan's compiled token extent. T above the extent, or
  // T != extent on a plan that is not token-polymorphic, is a checked error
  // at replay.
  void set_token_rows(int64_t rows) { token_rows_ = rows; }
  int64_t token_rows() const { return token_rows_; }

 private:
  friend class ExecutionPlan;

  const ExecutionPlan* plan_ = nullptr;  // identity check only, never deref'd for state
  // Arena storage plus its 64-byte-aligned base pointer (the vector's own
  // allocation is only 16-byte aligned; the base is rounded up inside it).
  std::vector<float> arena_storage_;
  float* arena_ = nullptr;
  int64_t arena_bytes_ = 0;
  // Per-node data pointer for kFeed/kWeight nodes (weights copied from the
  // plan's compile-time bindings, feeds re-bound each replay); indexed by
  // node id.
  std::vector<const float*> bound_;
  // Borrowed cancellation token (null = never cancelled) and the last
  // replay's outcome. Written by RunImpl/RunSequential, read by the owner
  // after each replay.
  const CancelToken* cancel_ = nullptr;
  ReplayStatus replay_status_ = ReplayStatus::kOk;
  std::span<const AttentionSegment> segments_;  // borrowed; empty = whole tile
  // Bound row count (0 = token extent), and the context's copy of the plan's
  // node shapes with every token-major leading dim set to `shaped_rows_`:
  // the views replay hands to kernels borrow these, so rebinding T rewrites
  // one dim per token-major node and allocates nothing.
  int64_t token_rows_ = 0;
  int64_t shaped_rows_ = 0;
  std::vector<Shape> shapes_;
};

// Called after each compute step with the node id and a view of its value
// (valid until the arena slot is reused by a later replay or step).
using StepObserver = std::function<void(int node_id, ConstTensorView value)>;

class ExecutionPlan {
 public:
  // Compiles the plan. `decisions` (nullable) marks which matmul steps run
  // through PIT. The plan snapshots every node shape and attribute it needs
  // at compile time, so replay never touches the graph's node storage again —
  // an executor holding a Graph::PlanShared handle stays safe even while the
  // graph is concurrently mutated (which invalidates the cache, not this
  // plan). Only the graph's weight tensors must stay alive and in place.
  ExecutionPlan(const Graph& graph, const std::vector<MatmulDecision>* decisions);

  ExecutionPlan(const ExecutionPlan&) = delete;
  ExecutionPlan& operator=(const ExecutionPlan&) = delete;

  // Executes every step over `feeds` through a caller-owned execution
  // context and returns a view of the final node's value, borrowing the
  // context's arena (valid until its next RunWith). `compiler` is required
  // iff the plan contains PIT steps. `observer`, when set, sees each compute
  // step's output right after the step runs. The plan itself is immutable
  // during replay, so concurrent RunWith calls over *distinct* contexts are
  // safe from any number of threads and bitwise identical to single-stream
  // replay. A single context must not be run concurrently with itself. PIT
  // steps drive the passed PitCompiler, which is thread-safe: concurrent
  // PIT streams may share one compiler, and then run one kernel per key.
  ConstTensorView RunWith(ExecutionContext& ctx, const std::map<std::string, Tensor>& feeds,
                          PitCompiler* compiler = nullptr,
                          const StepObserver* observer = nullptr) const;
  // Pointer-feed form for callers that rebind the same feeds every call (the
  // nn/runtime streams): no tensor copies, no per-call map construction.
  ConstTensorView RunWith(ExecutionContext& ctx,
                          const std::map<std::string, const Tensor*>& feeds,
                          PitCompiler* compiler = nullptr,
                          const StepObserver* observer = nullptr) const;

  const PlanStats& stats() const { return stats_; }
  const std::vector<OpCall>& steps() const { return steps_; }
  // Token-row replay (see the header comment). The token extent is the
  // leading dim of the plan's first feed (0 without feeds): the row count an
  // unbound replay runs at, and a token-polymorphic plan's capacity.
  bool token_polymorphic() const { return token_polymorphic_; }
  int64_t token_extent() const { return token_extent_; }
  // Whether node `node_id`'s leading axis is the token axis in a
  // token-polymorphic plan (always false in any other plan).
  bool token_major(int node_id) const {
    return node_id >= 0 && node_id < static_cast<int>(token_major_.size()) &&
           token_major_[static_cast<size_t>(node_id)] != 0;
  }
  // ---- Verifier-facing views of the compile products ----------------------
  // Read-only windows onto the immutable plan for the independent static
  // verifier (plan_verifier.{h,cc}), which re-derives every replay invariant
  // from these raw artifacts. Replay itself never goes through them.
  const std::vector<Shape>& shapes() const { return shapes_; }
  int64_t arena_elems() const { return arena_elems_; }
  const ValueRef& result() const { return result_; }
  struct FeedBinding {
    int node_id;
    std::string name;
  };
  const std::vector<FeedBinding>& feed_bindings() const { return feed_bindings_; }
  // Compile-time pointer bound for a kWeight node; null for any other id.
  const float* compile_binding(int node_id) const {
    return node_id >= 0 && node_id < static_cast<int>(compile_bound_.size())
               ? compile_bound_[static_cast<size_t>(node_id)]
               : nullptr;
  }

 private:
  friend class ExecutionContext;
  // Test-only mutation seam (plan_verifier.h): lets the corrupted-plan
  // negative suite violate one invariant at a time and prove the verifier
  // reports exactly that class.
  friend struct PlanCorruptor;

  template <typename FeedMap>
  ConstTensorView RunImpl(ExecutionContext& ctx, const FeedMap& feeds, PitCompiler* compiler,
                          const StepObserver* observer) const;
  void RunSequential(ExecutionContext& ctx, PitCompiler* compiler,
                     const StepObserver* observer) const;
  void BindTokenRows(ExecutionContext& ctx) const;
  const float* ResolveConst(const ValueRef& ref, const ExecutionContext& ctx) const;
  float* ResolveArena(const ValueRef& ref, ExecutionContext& ctx) const;
  void Dispatch(int step_index, ExecutionContext& ctx, PitCompiler* compiler) const;

  // ---- Immutable compile products (shared, read-only during replay) --------
  // Compile-time snapshot of every node's shape, indexed by node id. Views
  // handed to kernels borrow these (stable — the plan owns them), never the
  // live graph's nodes.
  std::vector<Shape> shapes_;
  std::vector<OpCall> steps_;
  int64_t arena_elems_ = 0;  // context arena extent, elements (pre-alignment pad)
  // Compile-time kFeed/kWeight binding template: weights resolved at compile,
  // feed slots null. Every ExecutionContext starts as a copy of this.
  std::vector<const float*> compile_bound_;
  std::vector<FeedBinding> feed_bindings_;
  ValueRef result_;
  PlanStats stats_;
  bool token_polymorphic_ = false;
  int64_t token_extent_ = 0;
  std::vector<char> token_major_;  // per node id; all zero unless polymorphic
};

}  // namespace pit

#endif  // PIT_GRAPH_EXECUTION_PLAN_H_

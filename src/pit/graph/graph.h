// Model-level operator graph and the PIT compilation pass (Fig. 5).
//
// The paper's workflow: given a model, PIT finds feasible PIT rules for all
// its operators offline, then at runtime detects sparsity and executes the
// pre-selected sparse kernels. This module provides the small dataflow IR
// that carries that workflow:
//   * Graph construction (inputs, weights, matmul/relu/add/mask/softmax ops)
//   * Sparsity propagation: which tensors can be dynamically sparse and why
//     (ReLU outputs, masked tensors, externally sparse inputs)
//   * The PIT pass: for every matmul with a potentially-sparse operand,
//     derive the candidate PIT rules, pick the axis whose micro-tile layout
//     the producer can provide, and record the piggybacked layout flip
//     (§3.2: flipping row<->column major at the producer's output is free)
//   * Two executors over the same graph: dense reference and PIT-sparse.
#ifndef PIT_GRAPH_GRAPH_H_
#define PIT_GRAPH_GRAPH_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pit/core/compiler.h"
#include "pit/tensor/tensor.h"

namespace pit {

class ExecutionPlan;

enum class OpKind {
  kInput,       // runtime-fed tensor
  kWeight,      // constant
  kMatmul,      // C = A * B
  kMatmulBias,  // C = A * B + bias (row-broadcast; bias is third input)
  kRelu,
  kAdd,
  kMask,     // C = A where mask != 0 else 0 (mask is second input)
  kSoftmax,  // row-wise over the last axis; optional 0/1 mask second input
             // (rank-2 mask broadcasts over a rank-3 input's leading axis)
  // Transformer-block ops (planned attention + layernorm):
  kLayerNorm,    // last-axis layernorm; inputs: x, gamma, beta (fattr = eps)
  kScale,        // C = A * fattr (element-wise constant scale)
  kTranspose,    // axis-swap copy; swaps axes (iattr0, iattr1)
  kReshape,      // zero-cost shape reinterpretation (aliases its input)
  kBatchMatmul,  // C[b,m,n] = A[b,m,k] * B[b,k,n] (per-head batched GEMM)
  kAttention,    // multi-head attention ctx over [T, hidden] q (scaled), k, v
                 // and an optional [T, T] mask; iattr0 = heads. Replays per
                 // segment bound on the execution context (SegmentAttentionInto)
};
const char* OpKindName(OpKind kind);

// Why a tensor may be dynamically sparse (the paper's Fig. 2 taxonomy).
enum class SparsitySource {
  kNone,
  kExternal,    // declared sparse input (padding, routing, pruning mask)
  kActivation,  // ReLU output
  kMasked,      // dynamic mask applied
  kPropagated,  // inherited through a sparsity-preserving op
};
const char* SparsitySourceName(SparsitySource source);

struct GraphNode {
  int id = -1;
  OpKind kind = OpKind::kInput;
  std::string name;
  std::vector<int> inputs;
  Shape shape;

  // Small op attributes: fattr is kScale's factor / kLayerNorm's epsilon;
  // iattr0/iattr1 are kTranspose's swapped axes; iattr0 is kAttention's heads.
  float fattr = 0.0f;
  int iattr0 = 0;
  int iattr1 = 1;

  // Sparsity annotation (filled by PropagateSparsity).
  SparsitySource sparsity = SparsitySource::kNone;
  double expected_sparsity = 0.0;

  bool MaybeSparse() const { return sparsity != SparsitySource::kNone; }
};

// Per-matmul decision recorded by the PIT pass.
struct MatmulDecision {
  int node_id = -1;
  bool use_pit = false;
  int sparse_operand = -1;      // 0 = A, 1 = B (only A supported today)
  MatmulAxis axis = MatmulAxis::kM;
  // The producer must emit the operand in this layout so the micro-tile is
  // non-contiguous on the PIT-axis; the flip is piggybacked there (≈ free).
  bool piggyback_layout_flip = false;
  std::string reason;
};

class Graph {
 public:
  Graph();
  ~Graph();
  // Moving a graph drops its cached plans (they hold pointers into the old
  // object); they recompile lazily on the next Execute/Run. Copying is
  // disabled — graphs are built once and shared by const reference.
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  int AddInput(std::string name, Shape shape, double expected_sparsity = 0.0);
  int AddWeight(std::string name, Tensor value);
  // Non-owning weight: the caller guarantees `value` outlives the graph.
  // Lets modules plan over their existing parameters without copying them.
  int AddWeightRef(std::string name, const Tensor* value);
  int AddMatmul(std::string name, int a, int b);
  int AddMatmulBias(std::string name, int a, int b, int bias);
  int AddRelu(std::string name, int x);
  int AddAdd(std::string name, int a, int b);
  int AddMask(std::string name, int x, int mask);
  // Row-wise softmax; `mask` >= 0 adds a 0/1 mask input excluded from the
  // softmax (a rank-2 [t, t] mask under a rank-3 [heads, t, t] input is
  // broadcast over the head axis).
  int AddSoftmax(std::string name, int x, int mask = -1);
  // LayerNorm over the last axis; gamma/beta are rank-1 weights of that axis.
  int AddLayerNorm(std::string name, int x, int gamma, int beta, float eps = 1e-5f);
  int AddScale(std::string name, int x, float factor);
  // Axis-swap copy: rank-2 swaps (0, 1); rank-3 swaps (0, 1) or (1, 2).
  int AddTranspose(std::string name, int x, int axis0, int axis1);
  // Zero-cost reinterpretation to `shape` (same element count). The planned
  // executor aliases the input's storage — no copy, no arena block.
  int AddReshape(std::string name, int x, Shape shape);
  int AddBatchMatmul(std::string name, int a, int b);
  // Multi-head attention context [tokens, hidden] from [tokens, hidden]
  // projections `q` (already scaled), `k`, `v`, split into `heads` column
  // blocks; `mask` >= 0 adds a [tokens, tokens] 0/1 mask input. Replay
  // attends within each segment bound on the execution context, or over the
  // whole tile (with the mask) when none are bound.
  int AddAttention(std::string name, int q, int k, int v, int64_t heads, int mask = -1);

  const GraphNode& node(int id) const { return nodes_.at(static_cast<size_t>(id)); }
  int size() const { return static_cast<int>(nodes_.size()); }
  const Tensor& weight(int id) const;

  // Annotates every node's sparsity source/ratio (forward dataflow).
  void PropagateSparsity();

  // The PIT pass: one decision per matmul node. `min_sparsity` is the
  // fall-back threshold below which the pass keeps the dense kernel.
  std::vector<MatmulDecision> PitPass(double min_sparsity = 0.3) const;

  // Compiles — or returns the cached — execution plan for `decisions`
  // (nullptr = dense). The plan persists on the graph (the cache keeps the
  // most recent 8 decision sets), so repeated Execute/Run calls replay
  // kernel dispatches with no per-call IR walk. The returned handle co-owns
  // the compiled plan: it stays valid — and its replays keep producing the
  // plan's compiled-time semantics — even if a concurrent AddX mutation or
  // cache eviction drops the plan from this graph's cache. Callers replay it
  // through their own ExecutionContext (ExecutionPlan::RunWith).
  std::shared_ptr<ExecutionPlan> PlanShared(
      const std::vector<MatmulDecision>* decisions = nullptr) const;

  // Executes the graph on `feeds` (name -> tensor for every kInput) through
  // the cached plan, replayed over an execution context private to the call
  // (so concurrent calls never serialize on the graph). decisions == nullptr
  // runs the dense reference; otherwise
  // matmuls flagged use_pit run through `compiler`'s sparse path. Returns
  // every node's value (inputs and weights included), like the old eager
  // executor — intermediates are copied out of the arena as the plan runs.
  // Exception: a dense matmul whose only consumer is a ReLU is collapsed into
  // one fused-epilogue step at plan compile, so the elided matmul node has no
  // materialized value and is absent from the returned map (the ReLU's value
  // is present and bitwise equal to the unfused composition).
  std::map<int, Tensor> Execute(const std::map<std::string, Tensor>& feeds,
                                const std::vector<MatmulDecision>* decisions = nullptr,
                                PitCompiler* compiler = nullptr) const;

  // Convenience: output of the last node (no per-node copies).
  Tensor Run(const std::map<std::string, Tensor>& feeds,
             const std::vector<MatmulDecision>* decisions = nullptr,
             PitCompiler* compiler = nullptr) const;

 private:
  struct PlanCache;
  struct PlanCacheEntry;

  int Add(GraphNode node);
  std::shared_ptr<PlanCacheEntry> EntryFor(const std::vector<MatmulDecision>* decisions) const;

  std::vector<GraphNode> nodes_;
  std::map<int, Tensor> weights_;
  std::map<int, const Tensor*> weight_refs_;
  std::unique_ptr<PlanCache> plans_;  // lazily compiled, guarded internally
};

// Builds the FFN block of the paper's OPT experiment: x -> matmul(W_up) ->
// relu -> matmul(W_down). The ReLU output is the dynamic-sparsity source.
Graph BuildFfnGraph(int64_t tokens, int64_t hidden, int64_t ffn_hidden, Rng& rng);

}  // namespace pit

#endif  // PIT_GRAPH_GRAPH_H_

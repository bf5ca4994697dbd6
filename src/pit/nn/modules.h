// Functional neural-network substrate.
//
// Small but real modules (the paper's PyTorch role): deterministic-init
// weights, numerically exact forwards. Sparse-aware modules take a PitCompiler
// (or use the PIT kernels directly) so integration tests can check that a
// whole transformer layer produces identical outputs under dense execution
// and under PIT's sparse execution of its dynamic-sparsity components.
#ifndef PIT_NN_MODULES_H_
#define PIT_NN_MODULES_H_

#include <atomic>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "pit/common/rng.h"
#include "pit/core/compiler.h"
#include "pit/graph/execution_plan.h"
#include "pit/graph/graph.h"
#include "pit/graph/shape_plan_cache.h"
#include "pit/tensor/ops.h"
#include "pit/tensor/tensor.h"

namespace pit {

// y = x W + b, weights initialized Xavier-uniform.
class Linear {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng);

  Tensor Forward(const Tensor& x) const;  // x: [tokens, in]
  // Forward with dynamically sparse input executed through PIT.
  Tensor ForwardSparse(const Tensor& x, PitCompiler& compiler) const;

  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }
  int64_t in_features() const { return weight_.dim(0); }
  int64_t out_features() const { return weight_.dim(1); }

 private:
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [out]
};

// Post-norm residual feed-forward block with ReLU (the OPT-style FFN whose
// activation sparsity PIT exploits).
//
// The forward passes run through cached ExecutionPlans: the block's graph is
// built once per distinct token count in the module's ShapePlanCache, and
// each call replays the compiled kernel-dispatch steps over an execution
// context of its own instead of re-walking ops, so concurrent forwards never
// serialize. The graphs reference the module's weights in place, which is
// why the module is pinned (non-copyable, non-movable).
class FeedForward {
 public:
  FeedForward(int64_t hidden, int64_t ffn_hidden, Rng& rng);
  FeedForward(const FeedForward&) = delete;
  FeedForward& operator=(const FeedForward&) = delete;

  Tensor Forward(const Tensor& x) const;
  // The second matmul consumes the (sparse) ReLU output through PIT.
  Tensor ForwardSparse(const Tensor& x, PitCompiler& compiler) const;
  // Fraction of zeros in the ReLU activation of the last Forward call.
  double last_activation_sparsity() const { return last_activation_sparsity_.load(); }

  // Appends the block's ops (MatmulBias -> Relu -> MatmulBias over this
  // module's referenced weights) to a caller-owned graph — the seam larger
  // planned blocks (TransformerEncoderLayer, PlannedFfnStack) compose from.
  struct GraphNodes {
    int out = -1;
    int relu = -1;
  };
  GraphNodes AppendToGraph(Graph& g, int x) const;

  const Linear& up() const { return up_; }
  const Linear& down() const { return down_; }

 private:
  Tensor ForwardOnce(const Tensor& x, PitCompiler* compiler) const;

  Linear up_;
  Linear down_;
  ShapePlanCache<int64_t> plans_;  // keyed by token count
  mutable std::atomic<double> last_activation_sparsity_{0.0};
};

// Multi-head attention with an optional 0/1 mask over scores; mask == nullptr
// means full attention.
//
// Forward runs through cached ExecutionPlans (one graph per distinct
// (token count, masked?) shape in the module's ShapePlanCache): per-part
// q/k/v projections, scaled q, one kAttention step (ForwardEager's per-head
// score GEMM, masked softmax and context GEMM over each attention segment
// the replay binds — one [0, T) segment by default), and the output
// projection, all over referenced weights and an execution context private
// to the call. The result is
// bitwise identical to ForwardEager — the original per-head slicing loop,
// kept as the oracle.
// Plans reference the module's weights in place: the module is pinned.
class MultiHeadAttention {
 public:
  MultiHeadAttention(int64_t hidden, int64_t heads, Rng& rng);
  MultiHeadAttention(const MultiHeadAttention&) = delete;
  MultiHeadAttention& operator=(const MultiHeadAttention&) = delete;

  // x: [tokens, hidden]; mask: [tokens, tokens] or nullptr.
  Tensor Forward(const Tensor& x, const Tensor* mask = nullptr) const;
  // The pre-planning implementation (fresh tensor per intermediate), kept
  // verbatim as the differential oracle and the eager bench baseline.
  Tensor ForwardEager(const Tensor& x, const Tensor* mask = nullptr) const;

  // Appends the attention block (q/k/v projections -> q scale -> attention
  // -> output projection) to a caller-owned graph; `x` is a [tokens, hidden]
  // node, `mask` a [tokens, tokens] node or -1. Returns the output node.
  int AppendToGraph(Graph& g, int x, int mask = -1) const;

  int64_t heads() const { return heads_; }

 private:
  int64_t heads_;
  Linear qkv_;
  Linear out_;
  // Column-block splits of the fused qkv projection ([hidden, hidden] +
  // [hidden] each). A matmul against a column block is bitwise identical to
  // the same columns of the fused matmul (each output element accumulates
  // over k independently of its neighbors), which is what lets the planned
  // per-part projections reproduce the eager fused qkv exactly.
  Tensor wq_, wk_, wv_;
  Tensor bq_, bk_, bv_;
  ShapePlanCache<std::pair<int64_t, bool>> plans_;  // keyed by (tokens, masked?)
};

// Top-1 routed mixture-of-experts FFN (Switch-Transformer style).
class MoELayer {
 public:
  MoELayer(int64_t hidden, int64_t ffn_hidden, int num_experts, Rng& rng);

  // Dense reference: every expert computes every token, gated by a 0/1 mask.
  Tensor ForwardDense(const Tensor& x) const;
  // PIT execution: SRead-gather each expert's tokens, dense compute, SWrite.
  Tensor ForwardPit(const Tensor& x) const;
  // Capacity-padded BatchMatmul execution (Tutel/DeepSpeed strategy);
  // numerically identical, wastes compute on padding.
  Tensor ForwardPadded(const Tensor& x) const;

  std::vector<int> Route(const Tensor& x) const;  // expert id per token
  int num_experts() const { return static_cast<int>(up_.size()); }

 private:
  Tensor router_;                 // [hidden, experts]
  std::vector<Tensor> up_;        // per-expert [hidden, ffn]
  std::vector<Tensor> down_;      // per-expert [ffn, hidden]
};

// Pre-norm transformer encoder layer: x + Attn(LN(x)); x + FFN(LN(x)).
//
// The whole block is one Graph compiled to one ExecutionPlan per distinct
// (token count, masked?) shape (the layer's ShapePlanCache), 12 steps: ln1,
// q/k/v projections, q scale, attention, output projection, residual add,
// ln2, the FFN's fused up-projection+ReLU and down-projection, residual add. A steady-state dense
// ForwardWith replays them over its stream's arena with zero heap
// allocations, bitwise identical to ForwardEager; Forward and ForwardSparse
// are one-shot MakeStream + ForwardWith. The attention step runs per
// segment bound on the stream's context (ExecutionContext::
// set_attention_segments), so a packed tile of several requests costs
// sum(t_i^2) score entries and no [T, T] mask. ForwardSparse runs the same
// plan with the PIT pass decisions (the FFN down-projection consumes its ReLU
// activation through the compiler's JIT-cached sparse kernel). The unmasked
// plan is token-polymorphic (execution_plan.h): compiled at a capacity, it
// replays any row count up to it. Plans reference the module's weights in
// place: the module is pinned.
class TransformerEncoderLayer {
 public:
  TransformerEncoderLayer(int64_t hidden, int64_t heads, int64_t ffn_hidden, Rng& rng);
  TransformerEncoderLayer(const TransformerEncoderLayer&) = delete;
  TransformerEncoderLayer& operator=(const TransformerEncoderLayer&) = delete;

  Tensor Forward(const Tensor& x, const Tensor* attn_mask = nullptr) const;
  Tensor ForwardSparse(const Tensor& x, PitCompiler& compiler,
                       const Tensor* attn_mask = nullptr) const;

  // Per-stream replay state over the layer's shared compiled plan for one
  // (tokens, masked?) shape: a co-owning plan handle, a private
  // ExecutionContext, and a private feed map. Distinct streams replay the
  // same immutable plan concurrently with zero shared mutable state — the
  // multi-stream serving seam. Movable so callers can pool streams.
  struct Stream {
    std::shared_ptr<ExecutionPlan> plan;
    std::unique_ptr<ExecutionContext> ctx;
    std::map<std::string, const Tensor*> feeds;
    int64_t tokens = 0;
    bool masked = false;
  };
  // Builds a stream for (tokens, masked?), compiling and caching the shared
  // plan if needed (the only part that takes the plan cache's lock). `pit`
  // compiles the plan with this layer's PIT-pass decisions; its replay then
  // needs a compiler, which concurrent streams may share.
  Stream MakeStream(int64_t tokens, bool masked, bool pit = false) const;
  // Lock-free forward over a stream's private context: safe to call
  // concurrently with any other stream's ForwardWith on this layer, bitwise
  // identical to ForwardEager. Writes into the preallocated `out`;
  // `compiler` nullptr runs dense. Steady-state dense calls allocate nothing.
  // Replays the first `rows` rows of `x` (0: all of them) into the first
  // `rows` rows of `out`; x and out may carry more. An unmasked stream
  // replays any rows <= stream.tokens (its plan is token-polymorphic); a
  // masked one only its exact token count.
  void ForwardWith(Stream& stream, const Tensor& x, const Tensor* attn_mask,
                   PitCompiler* compiler, Tensor* out, int64_t rows = 0) const;
  // The pre-planning composition (eager attention + explicit FFN ops), kept
  // as the differential oracle and the eager bench baseline.
  Tensor ForwardEager(const Tensor& x, const Tensor* attn_mask = nullptr) const;

  // Memory-planning stats of the block's dense plan at this shape (compiles
  // it if needed).
  PlanStats PlanStatsFor(int64_t tokens, bool masked = false) const;

 private:
  MultiHeadAttention attn_;
  FeedForward ffn_;
  Tensor ln1_gamma_, ln1_beta_, ln2_gamma_, ln2_beta_;
  ShapePlanCache<std::pair<int64_t, bool>> plans_;  // keyed by (tokens, masked?)
};

}  // namespace pit

#endif  // PIT_NN_MODULES_H_

// End-to-end model cost functions for the paper's evaluation figures.
//
// Each function prices one model's forward (or forward+backward) pass under a
// chosen engine strategy on a concrete dynamic-sparsity workload, returning
// simulated latency and a memory footprint. These are the generators behind
// Figs. 8–15 and 19; each figure's bench (bench/figNN_*.cc, README
// "Benchmarks") shows which function it calls.
#ifndef PIT_RUNTIME_MODELS_H_
#define PIT_RUNTIME_MODELS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pit/core/compiler.h"
#include "pit/gpusim/cost_model.h"
#include "pit/graph/execution_plan.h"
#include "pit/nn/modules.h"
#include "pit/runtime/engine.h"
#include "pit/tensor/tensor.h"

namespace pit {

struct TransformerDims {
  std::string name;
  int64_t layers = 12;
  int64_t hidden = 768;
  int64_t heads = 12;
  int64_t ffn_hidden = 3072;
  int64_t vocab = 32000;
  // Decoder-only models: PyTorch-S cannot exploit sequence-length sparsity
  // there (no 32-block row structure in causal attention), so it keeps the
  // padded batch (§5.1 OPT: only PIT removes the padding).
  bool decoder = false;
};

TransformerDims BertBase();
TransformerDims BertLarge();
TransformerDims LongformerBase();
TransformerDims LongformerLarge();
TransformerDims MuseformerDims();
// OPT family: "125M", "350M", "1.3B", "13B", "30B".
TransformerDims OptDims(const std::string& size);
// Switch Transformer (encoder-decoder backbone priced as 2x encoder stack).
TransformerDims SwitchDims();
TransformerDims SwinMoeDims();

struct ModelRunCost {
  CostBreakdown cost;
  int64_t memory_bytes = 0;
  bool oom = false;  // exceeded device memory (Tutel/DeepSpeed at 256 experts)
  double LatencyMs() const { return cost.Total() / 1000.0; }
  double MemoryGb() const { return static_cast<double>(memory_bytes) / (1024.0 * 1024.0 * 1024.0); }
};

// ---- Dense-backbone transformer with varying sequence lengths (BERT, Fig.11;
//      also the backbone part of every other model).
ModelRunCost TransformerRun(const CostModel& model, Engine engine, const TransformerDims& dims,
                            const std::vector<int64_t>& lens, bool training = false);

// ---- MoE models -----------------------------------------------------------
struct MoeRunConfig {
  int num_experts = 64;
  // Tokens per expert for each MoE layer (outer: layer; inner: expert).
  std::vector<std::vector<int64_t>> layer_loads;
  int64_t device_memory_bytes = 80ll << 30;  // A100-80GB
};

// Switch Transformer (Fig. 8): backbone with every-other-layer MoE FFN.
ModelRunCost SwitchTransformerRun(const CostModel& model, Engine engine,
                                  const TransformerDims& dims, const std::vector<int64_t>& lens,
                                  const MoeRunConfig& moe);

// Swin-MoE (Fig. 9): vision backbone, fixed sequence length per image.
ModelRunCost SwinMoeRun(const CostModel& model, Engine engine, const TransformerDims& dims,
                        int64_t batch, int64_t tokens_per_image, const MoeRunConfig& moe);

// ---- OPT (Fig. 10 inference, Fig. 14 training) -----------------------------
struct OptRunConfig {
  double activation_sparsity = 0.99;  // ReLU output sparsity in the FFN
  bool training = false;
  int64_t device_memory_bytes = 8ll * (32ll << 30);  // 8x V100-32GB
};
ModelRunCost OptRun(const CostModel& model, Engine engine, const TransformerDims& dims,
                    const std::vector<int64_t>& lens, const OptRunConfig& config);

// ---- Sparse attention models (Longformer Fig. 12, Museformer Fig. 13) ------
struct SparseAttentionRunConfig {
  int64_t seq_len = 2048;
  int64_t batch = 1;
  double mask_density = 0.1;      // nonzero fraction of the attention mask
  double block32_density = 0.2;   // fraction covered at 32x32 blocks (PyTorch-S)
  int64_t device_memory_bytes = 32ll << 30;  // V100-32GB
};
ModelRunCost SparseAttentionRun(const CostModel& model, Engine engine,
                                const TransformerDims& dims,
                                const SparseAttentionRunConfig& config);

// ---- Sparse training by iterative pruning (Fig. 15) ------------------------
struct SparseTrainingRunConfig {
  int64_t batch = 32;
  int64_t seq_len = 128;
  int64_t block_rows = 32;  // pruning granularity
  int64_t block_cols = 64;
  double sparsity = 0.9;    // weight sparsity ratio
};
ModelRunCost SparseTrainingRun(const CostModel& model, Engine engine,
                               const TransformerDims& dims,
                               const SparseTrainingRunConfig& config);

// ---- Planned real-tensor execution ----------------------------------------
//
// Unlike the cost functions above (which price simulated latency), this is a
// functional model trunk — an OPT-style stack of residual FFN blocks
// (x + FeedForward(x)) on real tensors — whose per-layer forwards replay
// cached ExecutionPlans: each layer's graph is compiled once per token count
// in the layer's ShapePlanCache, weights are the FeedForward blocks'
// (referenced in place), intermediates live in each stream's arena, and the
// PIT variant dispatches each layer's sparse down-projection through the
// compiler's JIT-cached kernels. A stream's layers replay one after another
// in one shared arena. ForwardWith over a Stream is the serving-side
// execution seam; Forward and ForwardPit are one-shot MakeStream +
// ForwardWith.
class PlannedFfnStack {
 public:
  PlannedFfnStack(int64_t layers, int64_t hidden, int64_t ffn_hidden, Rng& rng);
  ~PlannedFfnStack();
  // Plans reference the stack's weights in place: the object is pinned.
  PlannedFfnStack(const PlannedFfnStack&) = delete;
  PlannedFfnStack& operator=(const PlannedFfnStack&) = delete;

  // Planned dense forward; x: [tokens, hidden].
  Tensor Forward(const Tensor& x) const;
  // Planned PIT forward: each layer's down-projection consumes its ReLU
  // activation through `compiler`'s sparse path.
  Tensor ForwardPit(const Tensor& x, PitCompiler& compiler) const;
  // Eager reference: direct ops, one fresh tensor per intermediate — the
  // differential oracle and the bench baseline for the planned path.
  Tensor ForwardEager(const Tensor& x) const;

  // Per-stream replay state over the stack's shared compiled plans for one
  // token count: a co-owning plan handle + ExecutionContext per layer, one
  // feed map, one arena every layer context replays in (the layers run one
  // after another, so it is sized to the largest layer plan), plus private
  // staging buffers. Distinct streams forward concurrently over the same
  // plans with zero shared mutable state. The plans are token-polymorphic,
  // so `tokens` is a capacity: ForwardWith replays any row count up to it.
  struct Stream {
    std::vector<std::shared_ptr<ExecutionPlan>> plans;          // one per layer
    std::vector<std::unique_ptr<ExecutionContext>> contexts;    // one per layer
    std::shared_ptr<ArenaBuffer> arena;  // shared by every layer context
    std::map<std::string, const Tensor*> feeds;
    std::vector<Tensor> staging;  // per-layer output staging, allocated once
    int64_t tokens = 0;
    // Arena bytes the stream pins (for serving-pool accounting): the one
    // shared arena, counted once.
    int64_t ArenaBytes() const;
    int64_t NumContexts() const { return static_cast<int64_t>(contexts.size()); }
    // Installs one shared cancel token on every layer context, so a token
    // fired mid-forward stops the remaining layers' replays at their next
    // step boundary (cancellation.h). Borrowed: the token must outlive every
    // ForwardWith. Re-installing the same pointer is free (pooled streams).
    void SetCancelToken(const CancelToken* token) {
      for (std::unique_ptr<ExecutionContext>& ctx : contexts) {
        ctx->set_cancel_token(token);
      }
    }
  };
  // Builds a stream for `tokens`, compiling/caching the shared plans if
  // needed (locks each layer's plan cache once), and allocates its one
  // arena. `pit` plans the layers
  // with their PIT-pass decisions; replay then needs a compiler, which any
  // number of concurrent streams may share.
  Stream MakeStream(int64_t tokens, bool pit = false) const;
  // Lock-free forward over a stream's private contexts: safe concurrently
  // with other streams' ForwardWith (never with itself: the layers share
  // the stream's arena), bitwise identical to Forward. Replays
  // the first `rows` rows of `x` (0: all of them; at most stream.tokens)
  // into the first `rows` rows of `out`; x and out may carry more rows.
  void ForwardWith(Stream& stream, const Tensor& x, PitCompiler* compiler, Tensor* out,
                   int64_t rows = 0) const;

  // Aggregate memory-planning stats over the dense plans for this token
  // count (compiles them if needed): counts sum over the layers, and
  // arena_bytes is what one dense stream pins, the largest layer arena.
  PlanStats StatsFor(int64_t tokens) const;
  int64_t layers() const { return static_cast<int64_t>(layers_.size()); }
  int64_t hidden() const { return hidden_; }

 private:
  // One residual block: its FeedForward and the plans of x + FeedForward(x),
  // keyed by token count. Pinned: the plans reference the block's weights.
  struct Layer {
    Layer(int64_t hidden, int64_t ffn_hidden, Rng& rng);
    FeedForward ffn;
    ShapePlanCache<int64_t> plans;
  };
  Tensor ForwardOnce(const Tensor& x, PitCompiler* compiler) const;

  int64_t hidden_ = 0;
  std::vector<std::unique_ptr<Layer>> layers_;
};

// ---- Planned full-transformer execution ------------------------------------
//
// The PlannedFfnStack's seam extended to whole encoder blocks: a stack of
// TransformerEncoderLayers (pre-norm attention + FFN) whose per-layer
// forwards replay cached whole-block ExecutionPlans — layernorms, q/k/v
// projections, segment-aware attention, residuals, and the FFN all dispatch
// as compiled arena steps. Steady-state dense ForwardWith calls perform zero
// heap allocations: layer outputs stage into the stream's buffers, and each
// layer replays over its own context in the stream's one arena. Forward and
// ForwardPit are one-shot MakeStream + ForwardWith.
class PlannedTransformerStack {
 public:
  PlannedTransformerStack(int64_t layers, int64_t hidden, int64_t heads, int64_t ffn_hidden,
                          Rng& rng);
  ~PlannedTransformerStack();
  // Plans reference the layers' weights in place: the object is pinned.
  PlannedTransformerStack(const PlannedTransformerStack&) = delete;
  PlannedTransformerStack& operator=(const PlannedTransformerStack&) = delete;

  // Planned dense forward; x: [tokens, hidden], mask: [tokens, tokens] or
  // nullptr (shared by every layer).
  Tensor Forward(const Tensor& x, const Tensor* attn_mask = nullptr) const;
  // Planned PIT forward: each layer's FFN down-projection consumes its ReLU
  // activation through `compiler`'s sparse path.
  Tensor ForwardPit(const Tensor& x, PitCompiler& compiler,
                    const Tensor* attn_mask = nullptr) const;
  // Eager reference: direct ops, one fresh tensor per intermediate — the
  // differential oracle and the bench baseline for the planned path.
  Tensor ForwardEager(const Tensor& x, const Tensor* attn_mask = nullptr) const;

  // Per-stream replay state over the stack's shared compiled plans for one
  // (tokens, masked?) shape: a layer stream per encoder block, one arena
  // every layer context replays in (the blocks run one after another, so it
  // is sized to the largest block plan), plus private staging buffers.
  // ForwardWith over distinct streams is concurrency-safe and bitwise
  // identical to single-stream Forward — the ServingEngine's execution seam.
  // Unmasked plans are token-polymorphic, so an unmasked stream's `tokens`
  // is a capacity: it replays any row count up to it.
  struct Stream {
    std::vector<TransformerEncoderLayer::Stream> layers;
    std::shared_ptr<ArenaBuffer> arena;  // shared by every layer context
    std::vector<Tensor> staging;  // layers-1 buffers; last layer writes `out`
    int64_t tokens = 0;
    bool masked = false;
    // Arena bytes the stream pins (for serving-pool accounting): the one
    // shared arena, counted once.
    int64_t ArenaBytes() const;
    int64_t NumContexts() const { return static_cast<int64_t>(layers.size()); }
    // Installs one shared cancel token on every layer's context (see the
    // PlannedFfnStack::Stream overload for the lifetime contract).
    void SetCancelToken(const CancelToken* token) {
      for (TransformerEncoderLayer::Stream& layer : layers) {
        layer.ctx->set_cancel_token(token);
      }
    }
    // Binds one set of attention segments on every layer's context
    // (ExecutionContext::set_attention_segments: borrowed, unmasked streams
    // only; empty restores whole-tile attention).
    void SetAttentionSegments(std::span<const AttentionSegment> segments) {
      for (TransformerEncoderLayer::Stream& layer : layers) {
        layer.ctx->set_attention_segments(segments);
      }
    }
  };
  // Builds a stream for (tokens, masked?), compiling/caching the layers'
  // shared plans if needed (locks each layer's plan cache once), and
  // allocates its one arena. `pit` plans
  // the blocks with their PIT decisions; replay then needs a compiler, which
  // any number of concurrent streams may share.
  Stream MakeStream(int64_t tokens, bool masked, bool pit = false) const;
  // Lock-free forward over a stream's private contexts: safe concurrently
  // with other streams' ForwardWith (never with itself: the layers share
  // the stream's arena), bitwise identical to Forward. The final
  // layer writes straight into the preallocated `out`; `compiler` nullptr
  // runs dense. Replays the first `rows` rows of `x` (0: all of them) into
  // the first `rows` rows of `out`; x and out may carry more rows. An
  // unmasked stream takes any rows <= stream.tokens, a masked one exactly
  // stream.tokens.
  void ForwardWith(Stream& stream, const Tensor& x, const Tensor* attn_mask,
                   PitCompiler* compiler, Tensor* out, int64_t rows = 0) const;

  // Aggregate memory-planning stats over the layers' dense plans for this
  // shape (compiles them if needed): counts sum over the layers, and
  // arena_bytes is what one dense stream pins, the largest layer arena.
  PlanStats StatsFor(int64_t tokens, bool masked = false) const;
  int64_t layers() const { return static_cast<int64_t>(layers_.size()); }
  int64_t hidden() const { return hidden_; }

 private:
  Tensor ForwardOnce(const Tensor& x, const Tensor* attn_mask, PitCompiler* compiler) const;

  int64_t hidden_ = 0;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
};

}  // namespace pit

#endif  // PIT_RUNTIME_MODELS_H_

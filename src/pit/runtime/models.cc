#include "pit/runtime/models.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "pit/common/check.h"
#include "pit/core/sparsity_detector.h"
#include "pit/sparse/coverage.h"
#include "pit/tensor/ops.h"
#include "pit/workloads/moe_routing.h"
#include "pit/workloads/seq_len.h"

namespace pit {

TransformerDims BertBase() { return {"BERT-base", 12, 768, 12, 3072, 30522}; }
TransformerDims BertLarge() { return {"BERT-large", 24, 1024, 16, 4096, 30522}; }
TransformerDims LongformerBase() { return {"Longformer-base", 12, 768, 12, 3072, 50265}; }
TransformerDims LongformerLarge() { return {"Longformer-large", 24, 1024, 16, 4096, 50265}; }
TransformerDims MuseformerDims() { return {"Museformer", 6, 512, 8, 2048, 1253, true}; }

TransformerDims OptDims(const std::string& size) {
  if (size == "125M") {
    return {"OPT-125M", 12, 768, 12, 3072, 50272, true};
  }
  if (size == "350M") {
    return {"OPT-350M", 24, 1024, 16, 4096, 50272, true};
  }
  if (size == "1.3B") {
    return {"OPT-1.3B", 24, 2048, 32, 8192, 50272, true};
  }
  if (size == "13B") {
    return {"OPT-13B", 40, 5120, 40, 20480, 50272, true};
  }
  if (size == "30B") {
    return {"OPT-30B", 48, 7168, 56, 28672, 50272, true};
  }
  PIT_CHECK(false) << "unknown OPT size: " << size;
  return {};
}

TransformerDims SwitchDims() { return {"SwitchTransformer", 12, 768, 12, 3072, 32128}; }
TransformerDims SwinMoeDims() { return {"Swin-MoE", 12, 1024, 32, 4096, 0}; }

namespace {

// ---- shared pricing helpers -------------------------------------------------

// Dense matmul; returns latency without launch overhead (callers batch
// launches). `tile` defaults to the well-tuned cuBLAS-like tile; engines with
// weaker kernels (Triton block sparse, framework fallbacks) pass smaller ones.
double MatmulUs(const CostModel& model, int64_t m, int64_t k, int64_t n, double overhead = 0.0,
                TileShape tile = TileShape{64, 64, 64}) {
  if (m <= 0 || k <= 0 || n <= 0) {
    return 0.0;
  }
  CostBreakdown c = model.DenseMatmul(m, k, n, tile);
  return c.compute_us * (1.0 + overhead);
}

// Triton's block-sparse GEMM tile (32x32 blocks) — measurably less efficient
// than the tuned dense tile, which is why PyTorch-S can lose to PyTorch even
// when it skips padding (§5.1 OPT discussion).
constexpr TileShape kTritonTile{32, 32, 64};

double LaunchUs(const CostModel& model, double count) {
  return model.device().launch_overhead_us * count;
}

// Memory-bound elementwise/softmax op over `elems` elements (read + write).
double ElementwiseUs(const CostModel& model, int64_t elems) {
  return model.MemoryTime(2 * elems * model.ElemBytes());
}

// PyTorch-S per-operator conversion: build the ordered sparse index of an
// activation of `elems` elements and materialize the sparse copy.
double ConvertUs(const CostModel& model, int64_t elems, int64_t nnz) {
  return SparsityDetector::OrderedDetectCostUs(model, elems, std::max<int64_t>(nnz / 32, 1)) +
         model.ScatteredMemoryTime(nnz * model.ElemBytes(), 16);
}

struct TokenCounts {
  int64_t padded = 0;   // batch * max_len
  int64_t block32 = 0;  // per-sequence lengths padded to multiples of 32
  int64_t effective = 0;
};

TokenCounts CountTokens(const std::vector<int64_t>& lens) {
  TokenCounts t;
  const int64_t max_len = MaxLen(lens);
  t.padded = static_cast<int64_t>(lens.size()) * max_len;
  for (int64_t l : lens) {
    t.block32 += (l + 31) / 32 * 32;
    t.effective += l;
  }
  return t;
}

// Sum over sequences of L^2 (attention score area), with optional padding.
int64_t ScoreArea(const std::vector<int64_t>& lens, bool padded) {
  const int64_t max_len = MaxLen(lens);
  int64_t area = 0;
  for (int64_t l : lens) {
    const int64_t ll = padded ? max_len : l;
    area += ll * ll;
  }
  return area;
}

int64_t WeightBytes(const TransformerDims& d, int64_t elem_bytes) {
  const int64_t per_layer = 4 * d.hidden * d.hidden + 2 * d.hidden * d.ffn_hidden;
  return (d.layers * per_layer + d.vocab * d.hidden) * elem_bytes;
}

}  // namespace

ModelRunCost TransformerRun(const CostModel& model, Engine engine, const TransformerDims& dims,
                            const std::vector<int64_t>& lens, bool training) {
  const TokenCounts tc = CountTokens(lens);
  const int64_t h = dims.hidden, f = dims.ffn_hidden;
  const int64_t eb = model.ElemBytes();

  // Engine-dependent processed-token count and per-matmul overhead.
  int64_t tokens = tc.padded;
  double overhead = 0.0;
  bool padded_scores = true;
  switch (engine) {
    case Engine::kPyTorch:
    case Engine::kDeepSpeed:
    case Engine::kTvm:
      tokens = tc.padded;
      break;
    case Engine::kTutel:
    case Engine::kMegaBlocks:
      tokens = tc.padded;  // non-MoE backbone is dense in these systems
      break;
    case Engine::kPyTorchS:
      // Triton's 32-token block granularity on encoders; decoder-only models
      // keep the padded batch (the sparse backend only sees the activations).
      tokens = dims.decoder ? tc.padded : tc.block32;
      padded_scores = dims.decoder;
      break;
    case Engine::kTurboTransformer:
      // Length-sorted sub-batches: compute close to effective with slack.
      tokens = tc.effective + (tc.padded - tc.effective) / 8;
      padded_scores = false;
      break;
    case Engine::kPit:
    case Engine::kPitNoSparseMoe:
    case Engine::kPitNoActivation:
      tokens = tc.effective;
      overhead = 0.05;  // SRead/SWrite
      padded_scores = false;
      break;
    case Engine::kLongformerS:
      tokens = tc.padded;
      break;
  }
  // TVM's Ansor-tuned kernels are a bit faster than the stock dense ones.
  const double tvm_gain = engine == Engine::kTvm ? 0.9 : 1.0;

  ModelRunCost run;
  // PyTorch-S runs its matmuls through Triton block-sparse kernels.
  TileShape mm_tile{64, 64, 64};
  if (engine == Engine::kPyTorchS) {
    mm_tile = kTritonTile;
    overhead = 0.15;  // block-index lookups inside the kernel
  }
  // Per layer: QKV + output projection (4 h->h), FFN up + down.
  double matmul_us = MatmulUs(model, tokens, h, 3 * h, overhead, mm_tile) +
                     MatmulUs(model, tokens, h, h, overhead, mm_tile) +
                     MatmulUs(model, tokens, h, f, overhead, mm_tile) +
                     MatmulUs(model, tokens, f, h, overhead, mm_tile);
  // Attention scores + weighted values: 4*L^2*h FLOPs per sequence.
  const int64_t score_area = ScoreArea(lens, padded_scores);
  const TileShape score_tile{32, 64, 32};
  const double score_flops = 4.0 * static_cast<double>(score_area) * static_cast<double>(h);
  const double score_eff = model.TileEfficiency(score_tile);
  double peak = model.device().fp32_flops_per_sm_us * model.device().num_sms;
  if (model.precision() == Precision::kFp16) {
    peak *= model.device().fp16_multiplier;
  }
  double attn_us = score_flops / (peak * score_eff) * (1.0 + overhead);
  // Softmax + layernorms + residuals (memory-bound).
  double elem_us = ElementwiseUs(model, score_area * dims.heads) +
                   ElementwiseUs(model, 6 * tokens * h);

  double launches_per_layer = 12.0;
  double convert_us = 0.0;
  double index_us = 0.0;
  switch (engine) {
    case Engine::kDeepSpeed:
      launches_per_layer = 4.0;  // fused attention + fused FFN
      elem_us *= 0.6;
      break;
    case Engine::kPyTorchS:
      // Six sparse ops per layer, each converting its activation input.
      convert_us = 6.0 * ConvertUs(model, tc.padded * h, tc.effective * h);
      launches_per_layer = 16.0;
      break;
    case Engine::kTurboTransformer:
      launches_per_layer = 12.0 * 3.0;  // one pass per length bucket
      elem_us *= 0.7;                   // fused kernels
      break;
    case Engine::kPit:
    case Engine::kPitNoSparseMoe:
    case Engine::kPitNoActivation:
      // Unordered micro-tile index over the token mask, once per layer input.
      index_us = SparsityDetector::DetectCostUs(model, tc.padded, std::max<int64_t>(tc.effective / 32, 1));
      launches_per_layer = 13.0;
      break;
    default:
      break;
  }

  double layer_us = (matmul_us + attn_us) * tvm_gain + elem_us +
                    LaunchUs(model, launches_per_layer) + convert_us + index_us;
  double total_us = layer_us * static_cast<double>(dims.layers);
  if (training) {
    // Backward: dgrad + wgrad double the matmul work; elementwise ~2x.
    total_us *= 3.0;
  }

  run.cost.compute_us = (matmul_us + attn_us) * tvm_gain * static_cast<double>(dims.layers) *
                        (training ? 3.0 : 1.0);
  run.cost.memory_us = elem_us * static_cast<double>(dims.layers) * (training ? 3.0 : 1.0);
  run.cost.launch_us = LaunchUs(model, launches_per_layer) * static_cast<double>(dims.layers) *
                       (training ? 2.0 : 1.0);
  run.cost.convert_us = convert_us * static_cast<double>(dims.layers);
  run.cost.index_us = index_us * static_cast<double>(dims.layers);

  // Memory: weights (+grads/optimizer for training) + activations + scores.
  const int64_t weights = WeightBytes(dims, eb);
  int64_t act_tokens = tokens;
  double act_factor = 8.0;
  if (engine == Engine::kDeepSpeed || engine == Engine::kTurboTransformer) {
    act_factor = training ? 8.0 : 3.0;  // fused layers avoid intermediates
  }
  if (engine == Engine::kPyTorchS) {
    act_factor = 10.0;  // dense + sparse copies coexist
  }
  int64_t scores = score_area * dims.heads * eb;
  int64_t act = static_cast<int64_t>(static_cast<double>(act_tokens * h * eb) * act_factor) +
                scores;
  if (training) {
    act *= dims.layers;                      // stored for backward
    run.memory_bytes = weights * 4 + act;    // grads + Adam moments
  } else {
    run.memory_bytes = weights + act;
  }
  return run;
}

// ---- MoE ------------------------------------------------------------------

namespace {

// Cost of one MoE FFN layer (two expert matmuls per token) under an engine.
ModelRunCost MoeLayerCost(const CostModel& model, Engine engine, int64_t h, int64_t f,
                          const std::vector<int64_t>& loads) {
  ModelRunCost run;
  const int64_t eb = model.ElemBytes();
  const int num_experts = static_cast<int>(loads.size());
  int64_t total_tokens = 0;
  for (int64_t l : loads) {
    total_tokens += l;
  }

  switch (engine) {
    case Engine::kPyTorch: {
      // Sequential expert execution: two matmuls + dispatch per expert. Small
      // per-expert batches fall back to the framework's generic (small-tile)
      // kernels and pay index_select/cat traffic on both sides.
      double us = 0.0;
      for (int64_t l : loads) {
        if (l == 0) {
          continue;
        }
        us += MatmulUs(model, l, h, f, 0.0, TileShape{32, 32, 64}) +
              MatmulUs(model, l, f, h, 0.0, TileShape{32, 32, 64});
        us += model.MemoryTime(4 * l * h * eb);  // gather + scatter, in + out
      }
      run.cost.compute_us = us;
      int active = 0;
      for (int64_t l : loads) {
        active += l > 0 ? 1 : 0;
      }
      // Eager-mode per-expert dispatch (index_select/cat/kernel picks) costs
      // ~100 us of host time per expert — the scaling wall of Fig. 8.
      run.cost.launch_us = LaunchUs(model, 4.0 * num_experts) + 100.0 * active;
      run.memory_bytes = total_tokens * (h + f) * eb;
      break;
    }
    case Engine::kPyTorchS: {
      // Masked block-sparse expert compute at 32-token granularity.
      int64_t t32 = 0;
      for (int64_t l : loads) {
        t32 += (l + 31) / 32 * 32;
      }
      run.cost.compute_us = MatmulUs(model, t32, h, f) + MatmulUs(model, t32, f, h);
      run.cost.convert_us =
          ConvertUs(model, static_cast<int64_t>(num_experts) * total_tokens, total_tokens);
      run.cost.launch_us = LaunchUs(model, 8.0);
      run.memory_bytes = (t32 + total_tokens) * (h + f) * eb;
      break;
    }
    case Engine::kTutel:
    case Engine::kDeepSpeed: {
      // Capacity-padded BatchMatmul: every expert padded to a common
      // capacity. Tutel additionally aligns the capacity up to its dispatch
      // granularity (128 tokens) and enforces a minimum capacity factor,
      // which is why it degrades far faster than DeepSpeed at high expert
      // counts (Fig. 8). Memory holds dispatch buffers + intermediates.
      int64_t cap = MaxLoad(loads);
      if (engine == Engine::kTutel) {
        cap = std::max<int64_t>(cap, 2 * total_tokens / std::max(num_experts, 1));
        cap = (cap + 127) / 128 * 128;
      }
      const int64_t padded = cap * num_experts;
      const double dispatch_scale = engine == Engine::kDeepSpeed ? 0.8 : 1.0;
      run.cost.compute_us = MatmulUs(model, padded, h, f) + MatmulUs(model, padded, f, h);
      run.cost.memory_us = model.MemoryTime(2 * padded * h * eb) * dispatch_scale;
      run.cost.launch_us = LaunchUs(model, engine == Engine::kDeepSpeed ? 3.0 : 6.0);
      run.memory_bytes = padded * 2 * (h + f) * eb;
      break;
    }
    case Engine::kMegaBlocks: {
      // Grouped block-sparse GEMM: loads rounded to 128-row blocks, plus the
      // token reorganization traffic PIT's SRead/SWrite avoids.
      int64_t t128 = 0;
      for (int64_t l : loads) {
        t128 += (l + 63) / 64 * 64;  // grouped-GEMM block granularity
      }
      run.cost.compute_us = MatmulUs(model, t128, h, f, 0.06) + MatmulUs(model, t128, f, h, 0.06);
      run.cost.memory_us = model.MemoryTime(4 * total_tokens * h * eb);  // regroup in+out
      run.cost.index_us = SparsityDetector::OrderedDetectCostUs(
          model, total_tokens, std::max<int64_t>(t128 / 128, 1));
      run.cost.launch_us = LaunchUs(model, 6.0);
      run.memory_bytes = (t128 + total_tokens) * (h + f) * eb;
      break;
    }
    case Engine::kPit: {
      // Sparse expert computation: exact loads, SRead/SWrite piggybacked.
      run.cost.compute_us =
          MatmulUs(model, total_tokens, h, f, 0.05) + MatmulUs(model, total_tokens, f, h, 0.05);
      run.cost.index_us = SparsityDetector::DetectCostUs(
          model, total_tokens, std::max<int64_t>(total_tokens / 32, 1));
      run.cost.launch_us = LaunchUs(model, 3.0);
      run.memory_bytes = total_tokens * (h + f) * eb;
      break;
    }
    case Engine::kPitNoSparseMoe: {
      // Ablation: PIT handles the backbone but the MoE layer runs like the
      // capacity-padded BatchMatmul systems.
      const int64_t cap = MaxLoad(loads);
      const int64_t padded = cap * num_experts;
      run.cost.compute_us = MatmulUs(model, padded, h, f) + MatmulUs(model, padded, f, h);
      run.cost.memory_us = model.MemoryTime(2 * padded * h * eb);
      run.cost.launch_us = LaunchUs(model, 6.0);
      run.memory_bytes = padded * 2 * (h + f) * eb;
      break;
    }
    default:
      PIT_CHECK(false) << "engine not applicable to MoE layer";
  }
  return run;
}

}  // namespace

ModelRunCost SwitchTransformerRun(const CostModel& model, Engine engine,
                                  const TransformerDims& dims, const std::vector<int64_t>& lens,
                                  const MoeRunConfig& moe) {
  // Backbone (attention + non-MoE FFN halves). MoE replaces the FFN in every
  // other layer; price the backbone with FFN in all layers then subtract the
  // dense FFN of the MoE layers and add the MoE cost.
  Engine backbone_engine = engine;
  if (engine == Engine::kTutel || engine == Engine::kDeepSpeed ||
      engine == Engine::kMegaBlocks) {
    backbone_engine = Engine::kPyTorch;  // these systems keep the dense backbone
  }
  if (engine == Engine::kPitNoSparseMoe) {
    backbone_engine = Engine::kPit;
  }
  ModelRunCost run = TransformerRun(model, backbone_engine, dims, lens, /*training=*/false);

  const TokenCounts tc = CountTokens(lens);
  const int64_t num_moe_layers = static_cast<int64_t>(moe.layer_loads.size());
  // Remove the dense FFN cost of the MoE layers from the backbone figure.
  int64_t backbone_tokens = tc.padded;
  if (backbone_engine == Engine::kPit) {
    backbone_tokens = tc.effective;
  } else if (backbone_engine == Engine::kPyTorchS) {
    backbone_tokens = tc.block32;
  }
  const double dense_ffn_us = MatmulUs(model, backbone_tokens, dims.hidden, dims.ffn_hidden) +
                              MatmulUs(model, backbone_tokens, dims.ffn_hidden, dims.hidden);
  run.cost.compute_us -= dense_ffn_us * static_cast<double>(num_moe_layers);

  // Dispatch/intermediate buffers are held per MoE layer for the whole pass
  // (the framework graph keeps them alive), so they accumulate across layers
  // — this is what drives Tutel/DeepSpeed into OOM at high expert counts.
  int64_t moe_memory = 0;
  for (const auto& loads : moe.layer_loads) {
    ModelRunCost layer = MoeLayerCost(model, engine, dims.hidden, dims.ffn_hidden, loads);
    run.cost += layer.cost;
    moe_memory += layer.memory_bytes;
  }
  // Expert weights for all MoE layers resident.
  const int64_t expert_weights = num_moe_layers * static_cast<int64_t>(moe.num_experts) * 2 *
                                 dims.hidden * dims.ffn_hidden * model.ElemBytes();
  run.memory_bytes += expert_weights + moe_memory;
  run.oom = run.memory_bytes > moe.device_memory_bytes;
  return run;
}

ModelRunCost SwinMoeRun(const CostModel& model, Engine engine, const TransformerDims& dims,
                        int64_t batch, int64_t tokens_per_image, const MoeRunConfig& moe) {
  // Vision batches have a fixed sequence length: no padding sparsity, so the
  // backbone is identical across engines and only the MoE layers differ.
  std::vector<int64_t> lens(static_cast<size_t>(batch), tokens_per_image);
  return SwitchTransformerRun(model, engine, dims, lens, moe);
}

ModelRunCost OptRun(const CostModel& model, Engine engine, const TransformerDims& dims,
                    const std::vector<int64_t>& lens, const OptRunConfig& config) {
  ModelRunCost run = TransformerRun(model, engine, dims, lens, config.training);
  const TokenCounts tc = CountTokens(lens);

  // ReLU-activation sparsity in the FFN second matmul [T, f] x [f, h]:
  // replace the dense FFN-down cost priced by TransformerRun with the
  // engine's sparse execution of it.
  int64_t tokens = tc.padded;
  if (engine == Engine::kPit || engine == Engine::kPitNoActivation) {
    tokens = tc.effective;
  } else if (engine == Engine::kPyTorchS) {
    tokens = tc.block32;
  }
  const double dense_down_us = MatmulUs(
      model, tokens, dims.ffn_hidden, dims.hidden,
      engine == Engine::kPit || engine == Engine::kPitNoActivation ? 0.05 : 0.0);
  const double scale = config.training ? 3.0 : 1.0;

  const AnalyticPattern act(tokens > 0 ? tokens : 1, dims.ffn_hidden, 1, 1,
                            config.activation_sparsity);
  double sparse_down_us = dense_down_us;
  double extra_index_us = 0.0;
  if (engine == Engine::kPit) {
    // Micro-tile [32,1] along k: compute only covered column slices.
    const double covered = act.NonZeroProb(MicroTileShape{32, 1});
    sparse_down_us = dense_down_us * covered;
    extra_index_us = SparsityDetector::DetectCostUs(
        model, tokens * dims.ffn_hidden,
        std::max<int64_t>(static_cast<int64_t>(covered * static_cast<double>(
                                                    tokens * dims.ffn_hidden / 32)),
                          1));
  } else if (engine == Engine::kPyTorchS) {
    // Triton 32x32 blocks: nearly everything is covered at 99% element
    // sparsity, plus the per-batch conversion of the activation tensor.
    const double covered = act.NonZeroProb(MicroTileShape{32, 32});
    sparse_down_us = dense_down_us * covered;
    extra_index_us = ConvertUs(model, tokens * dims.ffn_hidden,
                               static_cast<int64_t>((1.0 - config.activation_sparsity) *
                                                    static_cast<double>(tokens) *
                                                    static_cast<double>(dims.ffn_hidden)));
  }
  run.cost.compute_us += (sparse_down_us - dense_down_us) * static_cast<double>(dims.layers) * scale;
  run.cost.index_us += extra_index_us * static_cast<double>(dims.layers) * scale;

  run.oom = run.memory_bytes > config.device_memory_bytes;
  return run;
}

ModelRunCost SparseAttentionRun(const CostModel& model, Engine engine,
                                const TransformerDims& dims,
                                const SparseAttentionRunConfig& config) {
  const int64_t L = config.seq_len, h = dims.hidden, f = dims.ffn_hidden;
  const int64_t tokens = config.batch * L;
  const int64_t eb = model.ElemBytes();

  // Dense backbone (projections + FFN) is shared; attention differs.
  double matmul_us = MatmulUs(model, tokens, h, 3 * h) + MatmulUs(model, tokens, h, h) +
                     MatmulUs(model, tokens, h, f) + MatmulUs(model, tokens, f, h);

  const double full_area = static_cast<double>(config.batch) * static_cast<double>(L) *
                           static_cast<double>(L);
  double density = 1.0;
  double overhead = 0.0;
  double convert_us = 0.0;
  double index_us = 0.0;
  double temporaries = 0.0;  // extra memory factor on the score buffers
  switch (engine) {
    case Engine::kPyTorch:
      density = 1.0;
      break;
    case Engine::kPyTorchS:
    case Engine::kDeepSpeed:
      density = config.block32_density;
      if (engine == Engine::kPyTorchS) {
        convert_us = ConvertUs(model, static_cast<int64_t>(full_area),
                               static_cast<int64_t>(full_area * config.mask_density));
      }
      temporaries = 0.3;
      break;
    case Engine::kLongformerS:
      // Pattern decomposition covers the window+global structure with a small
      // over-approximation; its banded kernels pay for the input rearrangement
      // (a scattered copy into temporaries — the "large data rearrangement
      // overheads") and run below the dense tile's efficiency.
      density = config.mask_density * 1.15;
      overhead = 0.35;
      convert_us = model.ScatteredMemoryTime(
          static_cast<int64_t>(4.0 * full_area * density * static_cast<double>(eb)), 8);
      temporaries = 1.0;
      break;
    case Engine::kPit:
      density = config.mask_density;
      overhead = 0.05;
      index_us = SparsityDetector::DetectCostUs(
          model, static_cast<int64_t>(full_area),
          std::max<int64_t>(static_cast<int64_t>(full_area * density / 32.0), 1));
      break;
    default:
      density = 1.0;
      break;
  }

  const double score_flops = 4.0 * full_area * static_cast<double>(h) * density;
  const TileShape score_tile{32, 64, 32};
  double peak = model.device().fp32_flops_per_sm_us * model.device().num_sms;
  if (model.precision() == Precision::kFp16) {
    peak *= model.device().fp16_multiplier;
  }
  const double attn_us = score_flops / (peak * model.TileEfficiency(score_tile)) *
                         (1.0 + overhead);
  const double softmax_us = model.MemoryTime(static_cast<int64_t>(
      2.0 * full_area * density * static_cast<double>(dims.heads * eb)));

  ModelRunCost run;
  const double layers = static_cast<double>(dims.layers);
  run.cost.compute_us = (matmul_us + attn_us) * layers;
  run.cost.memory_us = (softmax_us + ElementwiseUs(model, 6 * tokens * h)) * layers;
  run.cost.launch_us = LaunchUs(model, 12.0) * layers;
  run.cost.convert_us = convert_us * layers;
  run.cost.index_us = index_us * layers;

  const int64_t scores = static_cast<int64_t>(
      full_area * density * static_cast<double>(dims.heads * eb) * (1.0 + temporaries));
  run.memory_bytes = WeightBytes(dims, eb) + tokens * h * eb * 8 + scores;
  run.oom = run.memory_bytes > config.device_memory_bytes;
  return run;
}

ModelRunCost SparseTrainingRun(const CostModel& model, Engine engine,
                               const TransformerDims& dims,
                               const SparseTrainingRunConfig& config) {
  const int64_t tokens = config.batch * config.seq_len;
  const int64_t h = dims.hidden, f = dims.ffn_hidden;
  const int64_t eb = model.ElemBytes();

  // Weight-sparse matmul fraction executed per engine. `kernel_eff` scales
  // the masked matmuls for engines whose sparse kernels run below the tuned
  // dense tile's efficiency (Triton block sparse).
  const AnalyticPattern weights(h, f, config.block_rows, config.block_cols, config.sparsity);
  double frac = 1.0;
  double kernel_eff = 1.0;
  double per_layer_convert = 0.0;
  double per_layer_index = 0.0;
  switch (engine) {
    case Engine::kPyTorch:
      frac = 1.0;  // dense compute, mask applied elementwise
      break;
    case Engine::kPyTorchS: {
      // Triton 32x32 block kernels: fine granularities (32x1) are padded up,
      // and the mask changes every step -> per-batch ordered index rebuild
      // for every sparse weight of every layer.
      frac = weights.NonZeroProb(MicroTileShape{32, 32});
      kernel_eff = 1.5;
      const int64_t weight_elems = 4 * h * h + 2 * h * f;
      per_layer_convert = ConvertUs(model, weight_elems,
                                    static_cast<int64_t>((1.0 - config.sparsity) *
                                                         static_cast<double>(weight_elems)));
      break;
    }
    case Engine::kPit: {
      // Micro-tile [32,1] covers any granularity >= 32x1 exactly; unordered
      // index rebuild per step is nearly free.
      frac = weights.NonZeroProb(MicroTileShape{32, 1});
      const int64_t weight_elems = 4 * h * h + 2 * h * f;
      per_layer_index = SparsityDetector::DetectCostUs(
          model, weight_elems,
          std::max<int64_t>(static_cast<int64_t>(frac * static_cast<double>(weight_elems / 32)),
                            1));
      break;
    }
    default:
      PIT_CHECK(false) << "engine not applicable to sparse training";
  }

  // Per layer: 6 weight matmuls (QKV, out, FFN up/down), x3 for fwd+bwd.
  const double dense_matmuls_us =
      MatmulUs(model, tokens, h, 3 * h) + MatmulUs(model, tokens, h, h) +
      MatmulUs(model, tokens, h, f) + MatmulUs(model, tokens, f, h);
  const double attn_area = static_cast<double>(config.batch) *
                           static_cast<double>(config.seq_len) *
                           static_cast<double>(config.seq_len);
  const double attn_flops = 4.0 * attn_area * static_cast<double>(h);
  double peak = model.device().fp32_flops_per_sm_us * model.device().num_sms;
  const double attn_us = attn_flops / (peak * model.TileEfficiency(TileShape{32, 64, 32}));

  ModelRunCost run;
  const double layers = static_cast<double>(dims.layers);
  run.cost.compute_us = (dense_matmuls_us * frac * kernel_eff + attn_us) * 3.0 * layers;
  run.cost.memory_us = ElementwiseUs(model, 8 * tokens * h) * 3.0 * layers;
  run.cost.launch_us = LaunchUs(model, 24.0) * layers;
  run.cost.convert_us = per_layer_convert * layers;  // rebuilt once per step
  run.cost.index_us = per_layer_index * layers;

  // Memory: PyTorch* hold dense weights/grads/moments; PIT holds the covered
  // fraction of weight state. Activations dominate and are engine-equal.
  const int64_t weight_state = WeightBytes(dims, eb) * 4;  // w + g + 2 moments
  const int64_t acts = tokens * h * eb * 12 * dims.layers;
  if (engine == Engine::kPit) {
    const double covered = weights.NonZeroProb(MicroTileShape{32, 1});
    run.memory_bytes = static_cast<int64_t>(static_cast<double>(weight_state) *
                                            (0.15 + 0.85 * covered)) + acts;
  } else if (engine == Engine::kPyTorchS) {
    run.memory_bytes = weight_state + acts + WeightBytes(dims, eb) / 2;  // sparse copies
  } else {
    run.memory_bytes = weight_state + acts;
  }
  return run;
}

// ---- PlannedFfnStack -------------------------------------------------------

namespace {

// A stack's layers replay one after another in one shared arena, so the
// stack pins its largest layer arena; every other count sums.
void AccumulateStats(const PlanStats& s, PlanStats* total) {
  total->arena_bytes = std::max(total->arena_bytes, s.arena_bytes);
  total->sum_temporary_bytes += s.sum_temporary_bytes;
  total->num_steps += s.num_steps;
  total->num_inplace += s.num_inplace;
  total->num_pit_steps += s.num_pit_steps;
  total->num_fused += s.num_fused;
}

// One arena for plans that replay one after another: sized to the largest.
std::shared_ptr<ArenaBuffer> SharedArenaFor(
    const std::vector<std::shared_ptr<ExecutionPlan>>& plans) {
  int64_t elems = 0;
  for (const auto& plan : plans) {
    elems = std::max(elems, plan->arena_elems());
  }
  return std::make_shared<ArenaBuffer>(elems);
}

}  // namespace

PlannedFfnStack::Layer::Layer(int64_t hidden, int64_t ffn_hidden, Rng& rng)
    : ffn(hidden, ffn_hidden, rng), plans([this, hidden](Graph& g, const int64_t& tokens) {
        const int x = g.AddInput("x", {tokens, hidden});
        const int down = ffn.AppendToGraph(g, x).out;
        g.AddAdd("residual", x, down);
      }) {}

PlannedFfnStack::PlannedFfnStack(int64_t layers, int64_t hidden, int64_t ffn_hidden, Rng& rng)
    : hidden_(hidden) {
  PIT_CHECK_GT(layers, 0);
  layers_.reserve(static_cast<size_t>(layers));
  for (int64_t l = 0; l < layers; ++l) {
    layers_.push_back(std::make_unique<Layer>(hidden, ffn_hidden, rng));
  }
}

PlannedFfnStack::~PlannedFfnStack() = default;

int64_t PlannedFfnStack::Stream::ArenaBytes() const {
  return arena != nullptr ? arena->bytes() : 0;
}

PlannedFfnStack::Stream PlannedFfnStack::MakeStream(int64_t tokens, bool pit) const {
  Stream stream;
  stream.plans.reserve(layers_.size());
  for (const auto& layer : layers_) {
    stream.plans.push_back(layer->plans.Plan(tokens, pit));
  }
  // Contexts, the arena, feeds, and staging are private to the stream; the
  // co-owning plan handles keep the compiled plans alive across cache
  // eviction. The layers replay in turn, so every context shares one arena.
  stream.arena = SharedArenaFor(stream.plans);
  stream.contexts.reserve(stream.plans.size());
  for (const auto& plan : stream.plans) {
    stream.contexts.push_back(std::make_unique<ExecutionContext>(*plan, stream.arena));
  }
  // One staging slot per layer but the last, which writes straight into the
  // caller's output.
  for (size_t l = 0; l + 1 < stream.plans.size(); ++l) {
    stream.staging.emplace_back(Shape{tokens, hidden_});
  }
  stream.feeds = {{"x", nullptr}};
  stream.tokens = tokens;
  return stream;
}

void PlannedFfnStack::ForwardWith(Stream& stream, const Tensor& x, PitCompiler* compiler,
                                  Tensor* out, int64_t rows) const {
  PIT_CHECK(!stream.plans.empty()) << "stream not initialized";
  PIT_CHECK_EQ(x.rank(), 2);
  if (rows == 0) {
    rows = x.dim(0);
  }
  PIT_CHECK(rows <= x.dim(0) && x.dim(1) == hidden_)
      << "input shape does not match the stream's plans";
  PIT_CHECK(out != nullptr);
  PIT_CHECK(out->dim(0) >= rows && out->dim(1) == x.dim(1));
  const Tensor* cur = &x;
  for (size_t l = 0; l < stream.plans.size(); ++l) {
    stream.feeds["x"] = cur;
    stream.contexts[l]->set_token_rows(rows);
    ConstTensorView res = stream.plans[l]->RunWith(*stream.contexts[l], stream.feeds, compiler);
    // Stage into the stream-private buffer (the caller's `out` for the last
    // layer): the next layer binds it as its feed while this layer's arena
    // is reused. Steady-state forwards allocate nothing.
    Tensor* dst = l + 1 < stream.plans.size() ? &stream.staging[l] : out;
    std::copy(res.data(), res.data() + res.size(), dst->data());
    cur = dst;
  }
}

Tensor PlannedFfnStack::ForwardOnce(const Tensor& x, PitCompiler* compiler) const {
  PIT_CHECK_EQ(x.rank(), 2);
  Stream stream = MakeStream(x.dim(0), /*pit=*/compiler != nullptr);
  Tensor out(Shape{x.dim(0), hidden_});
  ForwardWith(stream, x, compiler, &out);
  return out;
}

Tensor PlannedFfnStack::Forward(const Tensor& x) const { return ForwardOnce(x, nullptr); }

Tensor PlannedFfnStack::ForwardPit(const Tensor& x, PitCompiler& compiler) const {
  return ForwardOnce(x, &compiler);
}

Tensor PlannedFfnStack::ForwardEager(const Tensor& x) const {
  Tensor cur = x;
  for (const auto& layer : layers_) {
    const Linear& up = layer->ffn.up();
    const Linear& down = layer->ffn.down();
    cur = Add(cur, MatMulBias(Relu(MatMulBias(cur, up.weight(), up.bias())), down.weight(),
                              down.bias()));
  }
  return cur;
}

PlanStats PlannedFfnStack::StatsFor(int64_t tokens) const {
  PlanStats total;
  for (const auto& layer : layers_) {
    AccumulateStats(layer->plans.Plan(tokens)->stats(), &total);
  }
  return total;
}

// ---- PlannedTransformerStack -----------------------------------------------

PlannedTransformerStack::PlannedTransformerStack(int64_t layers, int64_t hidden, int64_t heads,
                                                 int64_t ffn_hidden, Rng& rng)
    : hidden_(hidden) {
  PIT_CHECK_GT(layers, 0);
  layers_.reserve(static_cast<size_t>(layers));
  for (int64_t l = 0; l < layers; ++l) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(hidden, heads, ffn_hidden, rng));
  }
}

PlannedTransformerStack::~PlannedTransformerStack() = default;

int64_t PlannedTransformerStack::Stream::ArenaBytes() const {
  return arena != nullptr ? arena->bytes() : 0;
}

PlannedTransformerStack::Stream PlannedTransformerStack::MakeStream(int64_t tokens, bool masked,
                                                                    bool pit) const {
  Stream stream;
  // The blocks replay in turn, so every layer context shares one arena sized
  // to the largest block plan; no per-layer arena is ever allocated.
  std::vector<std::shared_ptr<ExecutionPlan>> plans;
  plans.reserve(layers_.size());
  for (const auto& layer : layers_) {
    plans.push_back(layer->Plan(tokens, masked, pit));
  }
  stream.arena = SharedArenaFor(plans);
  stream.layers.reserve(layers_.size());
  for (const auto& layer : layers_) {
    stream.layers.push_back(layer->MakeStream(tokens, masked, pit, stream.arena));
  }
  // One staging slot per layer but the last, which writes straight into the
  // caller's output. Private to the stream — no stack lock anywhere on this
  // path (each layer's MakeStream took its own plan-cache lock above).
  for (size_t l = 0; l + 1 < layers_.size(); ++l) {
    stream.staging.emplace_back(Shape{tokens, hidden_});
  }
  stream.tokens = tokens;
  stream.masked = masked;
  return stream;
}

void PlannedTransformerStack::ForwardWith(Stream& stream, const Tensor& x,
                                          const Tensor* attn_mask, PitCompiler* compiler,
                                          Tensor* out, int64_t rows) const {
  PIT_CHECK_EQ(stream.layers.size(), layers_.size()) << "stream not initialized for this stack";
  PIT_CHECK_EQ(x.rank(), 2);
  if (rows == 0) {
    rows = x.dim(0);
  }
  PIT_CHECK(rows <= x.dim(0) && x.dim(1) == hidden_)
      << "input shape does not match the stream's plans";
  PIT_CHECK((attn_mask != nullptr) == stream.masked)
      << "mask presence does not match the stream's plans";
  PIT_CHECK(out != nullptr);
  PIT_CHECK(out->dim(0) >= rows && out->dim(1) == x.dim(1));
  const Tensor* cur = &x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    Tensor* dst = l + 1 < layers_.size() ? &stream.staging[l] : out;
    layers_[l]->ForwardWith(stream.layers[l], *cur, attn_mask, compiler, dst, rows);
    cur = dst;
  }
}

Tensor PlannedTransformerStack::ForwardOnce(const Tensor& x, const Tensor* attn_mask,
                                            PitCompiler* compiler) const {
  PIT_CHECK_EQ(x.rank(), 2);
  Stream stream = MakeStream(x.dim(0), attn_mask != nullptr, /*pit=*/compiler != nullptr);
  Tensor out(Shape{x.dim(0), hidden_});
  ForwardWith(stream, x, attn_mask, compiler, &out);
  return out;
}

Tensor PlannedTransformerStack::Forward(const Tensor& x, const Tensor* attn_mask) const {
  return ForwardOnce(x, attn_mask, nullptr);
}

Tensor PlannedTransformerStack::ForwardPit(const Tensor& x, PitCompiler& compiler,
                                           const Tensor* attn_mask) const {
  return ForwardOnce(x, attn_mask, &compiler);
}

Tensor PlannedTransformerStack::ForwardEager(const Tensor& x, const Tensor* attn_mask) const {
  Tensor cur = x;
  for (const auto& layer : layers_) {
    cur = layer->ForwardEager(cur, attn_mask);
  }
  return cur;
}

PlanStats PlannedTransformerStack::StatsFor(int64_t tokens, bool masked) const {
  PlanStats total;
  for (const auto& layer : layers_) {
    AccumulateStats(layer->PlanStatsFor(tokens, masked), &total);
  }
  return total;
}

}  // namespace pit

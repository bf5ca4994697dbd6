// Differential suite for the planned graph executor: plan execution must be
// bitwise identical to eager (pre-refactor) execution for every OpKind, under
// arena/in-place buffer reuse, across plan reuse with changing input values,
// and for any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pit/common/backend.h"
#include "pit/common/cancellation.h"
#include "pit/common/parallel_for.h"
#include "pit/graph/execution_plan.h"
#include "pit/graph/graph.h"
#include "pit/nn/modules.h"
#include "pit/runtime/models.h"
#include "pit/tensor/ops.h"
#include "pit/workloads/attention_masks.h"

namespace pit {
namespace {

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(std::memcmp(a.data(), b.data(), static_cast<size_t>(a.size()) * sizeof(float)), 0)
      << "max abs diff " << MaxAbsDiff(a, b);
}

// MultiHeadAttention::ForwardEager's per-head loop over rows
// [offset, offset + length) of already-projected, already-scaled [T, hidden]
// q/k/v: the oracle of one attention segment. Returns [length, hidden].
Tensor EagerAttention(const Tensor& q, const Tensor& k, const Tensor& v, int64_t heads,
                      int64_t offset, int64_t length, const Tensor* mask) {
  const int64_t hidden = q.dim(1);
  const int64_t dh = hidden / heads;
  Tensor ctx({length, hidden});
  for (int64_t head = 0; head < heads; ++head) {
    Tensor qh({length, dh}), kt({dh, length}), vh({length, dh});
    for (int64_t t = 0; t < length; ++t) {
      for (int64_t d = 0; d < dh; ++d) {
        qh.At(t, d) = q.At(offset + t, head * dh + d);
        kt.At(d, t) = k.At(offset + t, head * dh + d);
        vh.At(t, d) = v.At(offset + t, head * dh + d);
      }
    }
    Tensor head_ctx = MatMul(Softmax(MatMul(qh, kt), mask), vh);
    for (int64_t t = 0; t < length; ++t) {
      for (int64_t d = 0; d < dh; ++d) {
        ctx.At(t, head * dh + d) = head_ctx.At(t, d);
      }
    }
  }
  return ctx;
}

// The pre-refactor eager executor, kept verbatim here as the oracle: one
// fresh Tensor per node, direct op calls.
std::map<int, Tensor> EagerExecute(const Graph& g, const std::map<std::string, Tensor>& feeds,
                                   const std::vector<MatmulDecision>* decisions = nullptr,
                                   PitCompiler* compiler = nullptr) {
  auto decision_for = [&](int id) -> const MatmulDecision* {
    if (decisions == nullptr) {
      return nullptr;
    }
    for (const auto& d : *decisions) {
      if (d.node_id == id) {
        return &d;
      }
    }
    return nullptr;
  };
  std::map<int, Tensor> values;
  for (int id = 0; id < g.size(); ++id) {
    const GraphNode& n = g.node(id);
    switch (n.kind) {
      case OpKind::kInput:
        values.emplace(id, feeds.at(n.name));
        break;
      case OpKind::kWeight:
        values.emplace(id, g.weight(id));
        break;
      case OpKind::kMatmul: {
        const MatmulDecision* d = decision_for(id);
        if (d != nullptr && d->use_pit) {
          values.emplace(id,
                         compiler->SparseMatmul(values.at(n.inputs[0]), values.at(n.inputs[1]))
                             .output);
        } else {
          values.emplace(id, MatMul(values.at(n.inputs[0]), values.at(n.inputs[1])));
        }
        break;
      }
      case OpKind::kMatmulBias: {
        const MatmulDecision* d = decision_for(id);
        if (d != nullptr && d->use_pit) {
          Tensor y = compiler->SparseMatmul(values.at(n.inputs[0]), values.at(n.inputs[1]))
                         .output;
          const Tensor& bias = values.at(n.inputs[2]);
          for (int64_t i = 0; i < y.dim(0); ++i) {
            for (int64_t j = 0; j < y.dim(1); ++j) {
              y.At(i, j) += bias[j];
            }
          }
          values.emplace(id, std::move(y));
        } else {
          values.emplace(id, MatMulBias(values.at(n.inputs[0]), values.at(n.inputs[1]),
                                        values.at(n.inputs[2])));
        }
        break;
      }
      case OpKind::kRelu:
        values.emplace(id, Relu(values.at(n.inputs[0])));
        break;
      case OpKind::kAdd:
        values.emplace(id, Add(values.at(n.inputs[0]), values.at(n.inputs[1])));
        break;
      case OpKind::kMask:
        values.emplace(id, ApplyMask(values.at(n.inputs[0]), values.at(n.inputs[1])));
        break;
      case OpKind::kSoftmax: {
        Tensor out(n.shape);
        if (n.inputs.size() == 2) {
          const ConstTensorView mask(values.at(n.inputs[1]));
          SoftmaxInto(values.at(n.inputs[0]), &mask, out);
        } else {
          SoftmaxInto(values.at(n.inputs[0]), nullptr, out);  // rank 2 or 3
        }
        values.emplace(id, std::move(out));
        break;
      }
      case OpKind::kLayerNorm:
        values.emplace(id, LayerNorm(values.at(n.inputs[0]), values.at(n.inputs[1]),
                                     values.at(n.inputs[2]), n.fattr));
        break;
      case OpKind::kScale:
        values.emplace(id, Scale(values.at(n.inputs[0]), n.fattr));
        break;
      case OpKind::kTranspose: {
        Tensor out(n.shape);
        TransposeInto(values.at(n.inputs[0]), n.iattr0, n.iattr1, out);
        values.emplace(id, std::move(out));
        break;
      }
      case OpKind::kReshape:
        values.emplace(id, values.at(n.inputs[0]).Reshape(n.shape));
        break;
      case OpKind::kBatchMatmul:
        values.emplace(id, BatchMatMul(values.at(n.inputs[0]), values.at(n.inputs[1])));
        break;
      case OpKind::kAttention: {
        const Tensor& q = values.at(n.inputs[0]);
        values.emplace(id, EagerAttention(q, values.at(n.inputs[1]), values.at(n.inputs[2]),
                                          n.iattr0, 0, q.dim(0),
                                          n.inputs.size() == 4 ? &values.at(n.inputs[3]) : nullptr));
        break;
      }
    }
  }
  return values;
}

// A graph touching every OpKind: two inputs, two weights, matmul,
// matmul_bias, mask, softmax, add, relu.
Graph BuildAllOpsGraph(int64_t tokens, int64_t hidden, Rng& rng) {
  Graph g;
  const int x = g.AddInput("x", {tokens, hidden});
  const int m = g.AddInput("m", {tokens, tokens}, /*expected_sparsity=*/0.8);
  const int w = g.AddWeight("w", Tensor::Random({hidden, tokens}, rng));
  const int bias = g.AddWeight("bias", Tensor::Random({tokens}, rng));
  const int mm = g.AddMatmul("mm", x, w);           // [tokens, tokens]
  const int mb = g.AddMatmulBias("mb", x, w, bias);  // [tokens, tokens]
  const int masked = g.AddMask("masked", mm, m);
  const int soft = g.AddSoftmax("soft", masked);
  const int sum = g.AddAdd("sum", mb, soft);
  g.AddRelu("out", sum);
  g.PropagateSparsity();
  return g;
}

std::map<std::string, Tensor> AllOpsFeeds(int64_t tokens, int64_t hidden, uint64_t seed) {
  Rng rng(seed);
  Tensor x = Tensor::Random({tokens, hidden}, rng);
  Tensor m = Tensor::RandomSparse({tokens, tokens}, 0.8, rng);
  for (int64_t i = 0; i < m.size(); ++i) {
    m[i] = m[i] != 0.0f ? 1.0f : 0.0f;
  }
  return {{"x", x}, {"m", m}};
}

// Bitwise-determinism sweep across PIT_NUM_THREADS: the single-thread replay
// must equal eager execution, and every wider pool must reproduce it exactly.
void ExpectThreadSweepMatchesEager(Graph& g, const std::map<std::string, Tensor>& feeds) {
  Tensor base;
  {
    ScopedNumThreads threads(1);
    base = g.Run(feeds);
  }
  ExpectBitwiseEqual(EagerExecute(g, feeds).at(g.size() - 1), base);
  for (int t : {4, 7}) {
    ScopedNumThreads threads(t);
    ExpectBitwiseEqual(g.Run(feeds), base);
  }
}

TEST(PlanExecutorTest, EveryOpKindBitwiseMatchesEager) {
  Rng rng(1);
  Graph g = BuildAllOpsGraph(24, 16, rng);
  auto feeds = AllOpsFeeds(24, 16, 2);
  auto eager = EagerExecute(g, feeds);
  auto planned = g.Execute(feeds);
  ASSERT_EQ(eager.size(), planned.size());
  for (const auto& [id, value] : eager) {
    ExpectBitwiseEqual(planned.at(id), value);
  }
}

TEST(PlanExecutorTest, ReferenceBackendAlsoBitwiseMatches) {
  ScopedBackend guard(ComputeBackend::kReference);
  Rng rng(3);
  Graph g = BuildAllOpsGraph(16, 8, rng);
  auto feeds = AllOpsFeeds(16, 8, 4);
  ExpectBitwiseEqual(g.Run(feeds), EagerExecute(g, feeds).at(g.size() - 1));
}

TEST(PlanExecutorTest, InPlaceAliasingIsExactAndActuallyHappens) {
  // relu(relu(mask(matmul))) — three elementwise steps, each consuming a
  // dying arena value: all should alias in place.
  Rng rng(5);
  Graph g;
  const int x = g.AddInput("x", {32, 32});
  const int m = g.AddInput("m", {32, 32}, 0.5);
  const int w = g.AddWeight("w", Tensor::Random({32, 32}, rng));
  const int mm = g.AddMatmul("mm", x, w);
  const int masked = g.AddMask("masked", mm, m);
  const int r1 = g.AddRelu("r1", masked);
  g.AddAdd("r2", r1, r1);  // duplicate operand: Add(x, x) aliasing
  g.PropagateSparsity();

  const PlanStats stats = g.PlanShared()->stats();
  EXPECT_GE(stats.num_inplace, 2);
  // In-place steps share the matmul's block: peak arena < sum of temporaries.
  EXPECT_LT(stats.arena_bytes, stats.sum_temporary_bytes);

  auto feeds = AllOpsFeeds(32, 32, 6);
  feeds["x"] = Tensor::Random({32, 32}, rng);
  ExpectBitwiseEqual(g.Run(feeds), EagerExecute(g, feeds).at(g.size() - 1));
}

TEST(PlanExecutorTest, PlanReuseAcrossChangingInputValues) {
  Rng rng(7);
  Graph g = BuildAllOpsGraph(20, 12, rng);
  const ExecutionPlan* first = g.PlanShared().get();
  for (uint64_t seed = 10; seed < 14; ++seed) {
    auto feeds = AllOpsFeeds(20, 12, seed);
    ExpectBitwiseEqual(g.Run(feeds), EagerExecute(g, feeds).at(g.size() - 1));
    // Same compiled plan object every iteration (no recompilation).
    EXPECT_EQ(g.PlanShared().get(), first);
  }
}

TEST(PlanExecutorTest, PitPathBitwiseMatchesEagerPit) {
  // FFN down-projection fed by ReLU (k-axis gather) plus an externally
  // row-sparse input (m-axis gather) — both PIT kernels under plan dispatch.
  Rng rng(8);
  Graph g;
  const int x = g.AddInput("x", {48, 16}, /*expected_sparsity=*/0.5);
  const int w1 = g.AddWeight("w1", Tensor::Random({16, 64}, rng));
  const int w2 = g.AddWeight("w2", Tensor::Random({64, 16}, rng));
  const int proj = g.AddMatmul("proj", x, w1);  // m-axis candidate
  const int act = g.AddRelu("act", proj);
  g.AddMatmul("down", act, w2);  // k-axis candidate
  g.PropagateSparsity();
  auto decisions = g.PitPass();
  ASSERT_TRUE(decisions[0].use_pit);
  ASSERT_TRUE(decisions[1].use_pit);

  Rng xr(9);
  Tensor xv = Tensor::RandomBlockSparse(48, 16, 1, 16, 0.5, xr);
  std::map<std::string, Tensor> feeds{{"x", xv}};

  PitCompiler eager_compiler(V100());
  auto eager = EagerExecute(g, feeds, &decisions, &eager_compiler);
  PitCompiler planned_compiler(V100());
  auto planned = g.Execute(feeds, &decisions, &planned_compiler);
  for (const auto& [id, value] : eager) {
    ExpectBitwiseEqual(planned.at(id), value);
  }
  EXPECT_EQ(planned_compiler.kernels_compiled(), eager_compiler.kernels_compiled());
}

TEST(PlanExecutorTest, PitStepsHitCompilerCacheOnRepeatExecutions) {
  Rng rng(11);
  Graph g = BuildFfnGraph(32, 16, 64, rng);
  auto decisions = g.PitPass();
  PitCompiler compiler(V100());
  Rng xr(12);
  std::map<std::string, Tensor> feeds{{"x", Tensor::Random({32, 16}, xr)}};
  g.Run(feeds, &decisions, &compiler);
  const int64_t compiled_once = compiler.kernels_compiled();
  for (int i = 0; i < 3; ++i) {
    g.Run(feeds, &decisions, &compiler);
  }
  EXPECT_EQ(compiler.kernels_compiled(), compiled_once);  // no re-selection
  EXPECT_GE(compiler.cache_hits(), 3);
}

TEST(PlanExecutorTest, DeterministicAcrossThreadCounts) {
  Rng rng(13);
  Graph g = BuildAllOpsGraph(40, 24, rng);
  auto feeds = AllOpsFeeds(40, 24, 14);
  ExpectThreadSweepMatchesEager(g, feeds);
}

TEST(PlanExecutorTest, PitDeterministicAcrossThreadCounts) {
  Rng rng(15);
  Graph g = BuildFfnGraph(32, 16, 64, rng);
  auto decisions = g.PitPass();
  Rng xr(16);
  std::map<std::string, Tensor> feeds{{"x", Tensor::Random({32, 16}, xr)}};
  Tensor base;
  {
    ScopedNumThreads threads(1);
    PitCompiler compiler(V100());
    base = g.Run(feeds, &decisions, &compiler);
  }
  for (int t : {4, 7}) {
    ScopedNumThreads threads(t);
    PitCompiler compiler(V100());
    ExpectBitwiseEqual(g.Run(feeds, &decisions, &compiler), base);
  }

  // The planned FFN stack's PIT forward (PIT steps interleaved with dense
  // ones across layers) is equally thread-count invariant.
  Rng sr(71);
  PlannedFfnStack stack(2, 16, 64, sr);
  Tensor sx = Tensor::Random({24, 16}, xr);
  Tensor stack_base;
  {
    ScopedNumThreads threads(1);
    PitCompiler compiler(V100());
    stack_base = stack.ForwardPit(sx, compiler);
  }
  for (int t : {4, 7}) {
    ScopedNumThreads threads(t);
    PitCompiler compiler(V100());
    ExpectBitwiseEqual(stack.ForwardPit(sx, compiler), stack_base);
  }
}

// Masked-attention core: mask -> softmax -> matmul(V).
Graph BuildMaskSoftmaxGraph(int64_t tokens, int64_t dv, Rng& rng) {
  Graph g;
  const int scores = g.AddInput("scores", {tokens, tokens});
  const int mask = g.AddInput("mask", {tokens, tokens}, 0.85);
  const int v = g.AddWeight("v", Tensor::Random({tokens, dv}, rng));
  g.AddMatmul("ctx", g.AddSoftmax("probs", g.AddMask("masked", scores, mask)), v);
  g.PropagateSparsity();
  return g;
}

TEST(PlanExecutorTest, ArenaSmallerThanSumOfTemporaries) {
  Rng rng(17);
  std::vector<Graph> graphs;
  graphs.push_back(BuildFfnGraph(64, 32, 128, rng));
  graphs.push_back(BuildFfnGraph(256, 256, 1024, rng));
  graphs.push_back(BuildMaskSoftmaxGraph(256, 64, rng));
  for (const Graph& g : graphs) {
    const PlanStats stats = g.PlanShared()->stats();
    EXPECT_GT(stats.num_steps, 1);
    EXPECT_LT(stats.arena_bytes, stats.sum_temporary_bytes);
  }
}

TEST(PlanExecutorTest, FeedForwardPlannedMatchesManualEager) {
  Rng rng(19);
  FeedForward ffn(16, 64, rng);
  // Twin Linears drawn from the identical Rng stream: bitwise-equal weights.
  Rng twin(19);
  Linear up(16, 64, twin);
  Linear down(64, 16, twin);

  Rng xr(20);
  Tensor x = Tensor::Random({24, 16}, xr);
  Tensor act = Relu(up.Forward(x));
  ExpectBitwiseEqual(ffn.Forward(x), down.Forward(act));
  EXPECT_DOUBLE_EQ(ffn.last_activation_sparsity(), act.SparsityRatio());

  // Sparse path: planned PIT dispatch vs the eager sparse Linear.
  PitCompiler planned_compiler(V100());
  PitCompiler eager_compiler(V100());
  ExpectBitwiseEqual(ffn.ForwardSparse(x, planned_compiler),
                     down.ForwardSparse(act, eager_compiler));

  // A different token count compiles a second plan over the same weights.
  Tensor x2 = Tensor::Random({7, 16}, xr);
  ExpectBitwiseEqual(ffn.Forward(x2), down.Forward(Relu(up.Forward(x2))));
}

TEST(PlanExecutorTest, PlannedFfnStackMatchesEagerReference) {
  Rng rng(21);
  PlannedFfnStack stack(3, 16, 48, rng);
  Rng xr(22);
  Tensor x = Tensor::Random({20, 16}, xr);
  ExpectBitwiseEqual(stack.Forward(x), stack.ForwardEager(x));
  // Re-run with different values through the same cached plans.
  Tensor y = Tensor::Random({20, 16}, xr);
  ExpectBitwiseEqual(stack.Forward(y), stack.ForwardEager(y));
  // And at a second token count (fresh plans, same weights).
  Tensor z = Tensor::Random({9, 16}, xr);
  ExpectBitwiseEqual(stack.Forward(z), stack.ForwardEager(z));

  const PlanStats stats = stack.StatsFor(20);
  // 4 compute nodes per layer, minus the up-projection+ReLU pair fused into
  // one GEMM step at plan compile.
  EXPECT_EQ(stats.num_steps, 3 * 3);
  EXPECT_EQ(stats.num_fused, 3);
  EXPECT_GE(stats.num_inplace, 3);  // residual add aliases per layer
  EXPECT_LT(stats.arena_bytes, stats.sum_temporary_bytes);

  // A serving-sized trunk: 4 layers, hidden 256, ffn 1024, 128 tokens.
  PlannedFfnStack wide(4, 256, 1024, rng);
  Tensor w = Tensor::Random({128, 256}, xr);
  ExpectBitwiseEqual(wide.Forward(w), wide.ForwardEager(w));
  const PlanStats wide_stats = wide.StatsFor(128);
  EXPECT_LT(wide_stats.arena_bytes, wide_stats.sum_temporary_bytes);
}

TEST(PlanExecutorTest, PlannedFfnStackWeightsPinnedByDigest) {
  // pitbench's ffn_mixed_pit stack (2 layers, hidden 128, ffn 512, weight
  // seed 7): a bitwise digest of its eager forward pins the weights the stack
  // draws from the seed (each layer draws up weight, up bias, down weight,
  // down bias). The AVX2 tier computes the same bits on every AVX2 host; the
  // AVX-512 tier is bitwise equal to it. Rng::NextFloat rounds once (an
  // explicit fma), so native and portable builds draw the same weights.
  if (DetectedIsa() == IsaTier::kScalar) {
    GTEST_SKIP() << "needs the AVX2 tier";
  }
  ScopedIsa tier(IsaTier::kAvx2);
  Rng wr(7);
  PlannedFfnStack stack(2, 128, 512, wr);
  Rng xr(8);
  const Tensor y = stack.ForwardEager(Tensor::Random({64, 128}, xr));
  uint64_t digest = 1469598103934665603ull;  // FNV-1a over the output bytes
  const auto* bytes = reinterpret_cast<const unsigned char*>(y.data());
  for (size_t i = 0; i < static_cast<size_t>(y.size()) * sizeof(float); ++i) {
    digest = (digest ^ bytes[i]) * 1099511628211ull;
  }
  EXPECT_EQ(digest, 0x66f49626bc50c287ull);
}

TEST(PlanExecutorTest, PlannedFfnStackPitMatchesEagerPit) {
  Rng rng(23);
  PlannedFfnStack stack(2, 16, 64, rng);
  Rng xr(24);
  Tensor x = Tensor::Random({24, 16}, xr);
  PitCompiler compiler(V100());
  Tensor pit = stack.ForwardPit(x, compiler);
  // The PIT kernels are exact, so against the dense reference only float
  // ordering differs: compare with a tolerance.
  EXPECT_TRUE(AllClose(pit, stack.ForwardEager(x), 1e-3f, 1e-4f));
  EXPECT_GT(compiler.kernels_compiled(), 0);
}

// ---- Transformer-block OpKinds (PR 3) --------------------------------------

// Exercises every new OpKind in one graph: layernorm, scale, reshape (alias),
// rank-3 transposes on both axis pairs, batched matmuls, and a broadcast
// masked softmax.
Graph BuildTransformerOpsGraph(int64_t tokens, int64_t heads, int64_t dk, Rng& rng) {
  const int64_t hidden = heads * dk;
  Graph g;
  const int x = g.AddInput("x", {tokens, hidden});
  const int mask = g.AddInput("mask", {tokens, tokens}, /*expected_sparsity=*/0.5);
  const int gamma = g.AddWeight("gamma", Tensor::Random({hidden}, rng, 0.5f, 1.5f));
  const int beta = g.AddWeight("beta", Tensor::Random({hidden}, rng, -0.1f, 0.1f));
  const int ln = g.AddLayerNorm("ln", x, gamma, beta);
  const int sc = g.AddScale("scale", ln, 0.125f);
  const int rs = g.AddReshape("split", sc, {tokens, heads, dk});
  const int q = g.AddTranspose("q", rs, 0, 1);    // [heads, T, dk]
  const int kt = g.AddTranspose("kt", q, 1, 2);   // [heads, dk, T]
  const int scores = g.AddBatchMatmul("scores", q, kt);  // [heads, T, T]
  const int probs = g.AddSoftmax("probs", scores, mask);  // broadcast mask
  const int ctx = g.AddBatchMatmul("ctx", probs, q);      // [heads, T, dk]
  const int merged = g.AddTranspose("merge", ctx, 0, 1);  // [T, heads, dk]
  const int flat = g.AddReshape("flat", merged, {tokens, hidden});
  g.AddAdd("out", flat, x);
  g.PropagateSparsity();
  return g;
}

std::map<std::string, Tensor> TransformerOpsFeeds(int64_t tokens, int64_t hidden,
                                                  uint64_t seed) {
  Rng rng(seed);
  Tensor x = Tensor::Random({tokens, hidden}, rng);
  Tensor m = Tensor::RandomSparse({tokens, tokens}, 0.4, rng);
  for (int64_t i = 0; i < m.size(); ++i) {
    m[i] = m[i] != 0.0f ? 1.0f : 0.0f;
  }
  // One fully-masked row: the planned masked softmax must write its zeros
  // even into a dirty arena slice.
  for (int64_t j = 0; j < tokens; ++j) {
    m.At(tokens / 2, j) = 0.0f;
  }
  return {{"x", x}, {"m", m}, {"mask", m}};
}

TEST(PlanExecutorTest, TransformerOpKindsBitwiseMatchEager) {
  Rng rng(41);
  Graph g = BuildTransformerOpsGraph(12, 4, 8, rng);
  auto feeds = TransformerOpsFeeds(12, 32, 42);
  auto eager = EagerExecute(g, feeds);
  auto planned = g.Execute(feeds);
  ASSERT_EQ(eager.size(), planned.size());
  for (const auto& [id, value] : eager) {
    ExpectBitwiseEqual(planned.at(id), value);
  }
}

TEST(PlanExecutorTest, TransformerOpKindsReferenceBackendBitwiseMatches) {
  ScopedBackend guard(ComputeBackend::kReference);
  Rng rng(43);
  Graph g = BuildTransformerOpsGraph(10, 2, 8, rng);
  auto feeds = TransformerOpsFeeds(10, 16, 44);
  ExpectBitwiseEqual(g.Run(feeds), EagerExecute(g, feeds).at(g.size() - 1));
}

TEST(PlanExecutorTest, TransformerOpKindsDeterministicAcrossThreadCounts) {
  Rng rng(45);
  Graph g = BuildTransformerOpsGraph(16, 4, 8, rng);
  auto feeds = TransformerOpsFeeds(16, 32, 46);
  ExpectThreadSweepMatchesEager(g, feeds);
  // The eager composition itself is thread-count invariant too.
  for (int t : {4, 7}) {
    ScopedNumThreads threads(t);
    ExpectBitwiseEqual(EagerExecute(g, feeds).at(g.size() - 1), g.Run(feeds));
  }
}

TEST(PlanExecutorTest, Rank2TransposeAndMaskedSoftmaxMatchEager) {
  Rng rng(47);
  Graph g;
  const int x = g.AddInput("x", {9, 7});
  const int mask = g.AddInput("mask", {9, 9}, 0.3);
  const int w = g.AddWeight("w", Tensor::Random({7, 9}, rng));
  const int mm = g.AddMatmul("mm", x, w);           // [9, 9]
  const int sm = g.AddSoftmax("sm", mm, mask);      // rank-2 masked softmax
  const int tr = g.AddTranspose("tr", sm, 0, 1);    // rank-2 transpose
  g.AddAdd("out", tr, sm);
  g.PropagateSparsity();

  Rng fr(48);
  Tensor xv = Tensor::Random({9, 7}, fr);
  Tensor mv = Tensor::RandomSparse({9, 9}, 0.3, fr);
  for (int64_t i = 0; i < mv.size(); ++i) {
    mv[i] = mv[i] != 0.0f ? 1.0f : 0.0f;
  }
  std::map<std::string, Tensor> feeds{{"x", xv}, {"mask", mv}};
  auto eager = EagerExecute(g, feeds);
  auto planned = g.Execute(feeds);
  for (const auto& [id, value] : eager) {
    ExpectBitwiseEqual(planned.at(id), value);
  }
}

TEST(PlanExecutorTest, ReshapeIsZeroCostAndScaleAliasesInPlace) {
  Rng rng(49);
  Graph g;
  const int x = g.AddInput("x", {8, 6});
  const int w = g.AddWeight("w", Tensor::Random({6, 8}, rng));
  const int mm = g.AddMatmul("mm", x, w);          // arena block A
  const int sc = g.AddScale("sc", mm, 2.0f);       // mm dies here: in-place
  const int rs = g.AddReshape("rs", sc, {4, 2, 8});  // alias of A, no block
  g.AddTranspose("tr", rs, 0, 1);
  const PlanStats stats = g.PlanShared()->stats();
  EXPECT_GE(stats.num_inplace, 1);
  // Arena holds only the matmul/scale block plus the transpose output: the
  // reshape contributed nothing.
  const int64_t block = ((8 * 8 + 15) / 16) * 16 * static_cast<int64_t>(sizeof(float));
  EXPECT_EQ(stats.arena_bytes, 2 * block);

  Rng fr(50);
  std::map<std::string, Tensor> feeds{{"x", Tensor::Random({8, 6}, fr)}};
  auto eager = EagerExecute(g, feeds);
  auto planned = g.Execute(feeds);
  for (const auto& [id, value] : eager) {
    ExpectBitwiseEqual(planned.at(id), value);
  }
}

// ---- Planned attention / encoder blocks ------------------------------------

TEST(PlanExecutorTest, AttentionPlannedBitwiseMatchesEager) {
  Rng rng(51);
  MultiHeadAttention attn(32, 4, rng);
  Rng xr(52);
  Tensor x = Tensor::Random({24, 32}, xr);
  Tensor mask = Tensor::RandomSparse({24, 24}, 0.4, xr);
  for (int64_t i = 0; i < mask.size(); ++i) {
    mask[i] = mask[i] != 0.0f ? 1.0f : 0.0f;
  }
  ExpectBitwiseEqual(attn.Forward(x), attn.ForwardEager(x));
  ExpectBitwiseEqual(attn.Forward(x, &mask), attn.ForwardEager(x, &mask));
  // Changed values through the same cached plans.
  Tensor y = Tensor::Random({24, 32}, xr);
  ExpectBitwiseEqual(attn.Forward(y, &mask), attn.ForwardEager(y, &mask));
  // A different token count compiles a second plan over the same weights.
  Tensor z = Tensor::Random({7, 32}, xr);
  ExpectBitwiseEqual(attn.Forward(z), attn.ForwardEager(z));
}

TEST(PlanExecutorTest, AttentionPlannedDeterministicAcrossThreadCounts) {
  Rng rng(53);
  MultiHeadAttention attn(16, 2, rng);
  Rng xr(54);
  Tensor x = Tensor::Random({20, 16}, xr);
  Tensor base;
  {
    ScopedNumThreads threads(1);
    base = attn.Forward(x);
    ExpectBitwiseEqual(base, attn.ForwardEager(x));
  }
  for (int t : {4, 7}) {
    ScopedNumThreads threads(t);
    ExpectBitwiseEqual(attn.Forward(x), base);
    ExpectBitwiseEqual(attn.ForwardEager(x), base);
  }
}

TEST(PlanExecutorTest, EncoderLayerPlannedBitwiseMatchesEager) {
  Rng rng(55);
  TransformerEncoderLayer layer(32, 4, 96, rng);
  Rng xr(56);
  Tensor x = Tensor::Random({18, 32}, xr);
  Tensor mask = Tensor::RandomSparse({18, 18}, 0.4, xr);
  for (int64_t i = 0; i < mask.size(); ++i) {
    mask[i] = mask[i] != 0.0f ? 1.0f : 0.0f;
  }
  for (int t : {1, 4, 7}) {
    ScopedNumThreads threads(t);
    ExpectBitwiseEqual(layer.Forward(x), layer.ForwardEager(x));
    ExpectBitwiseEqual(layer.Forward(x, &mask), layer.ForwardEager(x, &mask));
  }
  // Plan reuse across changing token counts, same weights.
  for (int64_t tokens : {5, 18, 11}) {
    Tensor v = Tensor::Random({tokens, 32}, xr);
    ExpectBitwiseEqual(layer.Forward(v), layer.ForwardEager(v));
  }

  // The whole block is one plan: residual adds, relu, and the q-scale alias
  // in place, and the arena undercuts eager temporaries.
  const PlanStats stats = layer.PlanStatsFor(18);
  EXPECT_GE(stats.num_inplace, 3);
  EXPECT_GE(stats.num_fused, 1);  // FFN up-projection + ReLU
  EXPECT_LT(stats.arena_bytes, stats.sum_temporary_bytes);

  // A serving-sized block (hidden 256, 8 heads, ffn 1024) at 128 tokens,
  // unmasked and masked.
  TransformerEncoderLayer wide(256, 8, 1024, rng);
  Tensor w = Tensor::Random({128, 256}, xr);
  Tensor wide_mask = Tensor::RandomSparse({128, 128}, 0.5, xr);
  for (int64_t i = 0; i < wide_mask.size(); ++i) {
    wide_mask[i] = wide_mask[i] != 0.0f ? 1.0f : 0.0f;
  }
  const Tensor* wide_masks[] = {nullptr, &wide_mask};
  for (const Tensor* m : wide_masks) {
    ExpectBitwiseEqual(wide.Forward(w, m), wide.ForwardEager(w, m));
    const PlanStats wide_stats = wide.PlanStatsFor(128, m != nullptr);
    EXPECT_LT(wide_stats.arena_bytes, wide_stats.sum_temporary_bytes);
  }
}

TEST(PlanExecutorTest, EncoderLayerSparsePlannedMatchesEagerSparseComposition) {
  // Twin modules drawn from the identical Rng stream reproduce the layer's
  // weights exactly; the hand-composed pre-change sparse path (eager
  // attention + FFN-planned sparse) is the bitwise oracle.
  Rng rng(57);
  TransformerEncoderLayer layer(16, 4, 48, rng);
  Rng twin(57);
  MultiHeadAttention attn(16, 4, twin);
  FeedForward ffn(16, 48, twin);
  Tensor ones = Tensor::Full({16}, 1.0f);
  Tensor zeros = Tensor::Zeros({16});

  Rng xr(58);
  Tensor x = Tensor::Random({14, 16}, xr);
  PitCompiler layer_compiler(V100());
  Tensor planned = layer.ForwardSparse(x, layer_compiler);

  PitCompiler eager_compiler(V100());
  Tensor h = Add(x, attn.ForwardEager(LayerNorm(x, ones, zeros)));
  Tensor eager = Add(h, ffn.ForwardSparse(LayerNorm(h, ones, zeros), eager_compiler));
  ExpectBitwiseEqual(planned, eager);
  EXPECT_GT(layer_compiler.kernels_compiled(), 0);
}

TEST(PlanExecutorTest, PlannedTransformerStackMatchesEager) {
  Rng rng(59);
  PlannedTransformerStack stack(2, 16, 2, 48, rng);
  Rng xr(60);
  Tensor x = Tensor::Random({12, 16}, xr);
  Tensor mask = Tensor::RandomSparse({12, 12}, 0.3, xr);
  for (int64_t i = 0; i < mask.size(); ++i) {
    mask[i] = mask[i] != 0.0f ? 1.0f : 0.0f;
  }
  ExpectBitwiseEqual(stack.Forward(x), stack.ForwardEager(x));
  ExpectBitwiseEqual(stack.Forward(x, &mask), stack.ForwardEager(x, &mask));
  // Re-run with different values through the same cached plans, then at a
  // second token count.
  Tensor y = Tensor::Random({12, 16}, xr);
  ExpectBitwiseEqual(stack.Forward(y), stack.ForwardEager(y));
  Tensor z = Tensor::Random({5, 16}, xr);
  ExpectBitwiseEqual(stack.Forward(z), stack.ForwardEager(z));

  const PlanStats stats = stack.StatsFor(12);
  EXPECT_LT(stats.arena_bytes, stats.sum_temporary_bytes);
  EXPECT_GE(stats.num_inplace, 2 * 3);

  // A serving-sized stack: 2 layers, hidden 256, 8 heads, ffn 1024, 128 tokens.
  PlannedTransformerStack wide(2, 256, 8, 1024, rng);
  Tensor w = Tensor::Random({128, 256}, xr);
  ExpectBitwiseEqual(wide.Forward(w), wide.ForwardEager(w));
  const PlanStats wide_stats = wide.StatsFor(128);
  EXPECT_LT(wide_stats.arena_bytes, wide_stats.sum_temporary_bytes);

  // PIT forward: exact kernels, different float summation order than dense.
  PitCompiler compiler(V100());
  EXPECT_TRUE(AllClose(stack.ForwardPit(x, compiler), stack.ForwardEager(x), 1e-3f, 1e-4f));
}

// ---- Arena block reuse -----------------------------------------------------

TEST(PlanExecutorTest, InPlaceAliasedBranchesMatchEagerAcrossThreadCounts) {
  // In-place chains (scale/relu/add aliasing dying blocks) plus independent
  // branches reusing freed arena offsets: every recycled block must only be
  // handed to a step that runs after its last reader.
  Rng rng(67);
  Graph g;
  const int x = g.AddInput("x", {24, 24});
  const int m = g.AddInput("m", {24, 24}, 0.5);
  const int w1 = g.AddWeight("w1", Tensor::Random({24, 24}, rng));
  const int w2 = g.AddWeight("w2", Tensor::Random({24, 24}, rng));
  const int mm1 = g.AddMatmul("mm1", x, w1);     // branch 1
  const int mm2 = g.AddMatmul("mm2", x, w2);     // branch 2 (independent)
  const int sc = g.AddScale("sc", mm1, 0.5f);    // aliases mm1 in place
  const int masked = g.AddMask("masked", mm2, m);  // aliases mm2 in place
  const int soft = g.AddSoftmax("soft", sc);
  const int sum = g.AddAdd("sum", soft, masked);
  const int rs = g.AddReshape("rs", sum, {12, 2, 24});
  const int tr = g.AddTranspose("tr", rs, 0, 1);
  const int back = g.AddReshape("back", tr, {24, 24});
  g.AddRelu("out", back);
  g.PropagateSparsity();

  auto feeds = AllOpsFeeds(24, 24, 68);
  ExpectThreadSweepMatchesEager(g, feeds);
}

TEST(PlanExecutorTest, RandomizedGraphFuzzMatchesEagerAcrossThreadCounts) {
  // Randomized-graph differential fuzz: arbitrary legal op chains (with
  // shared subexpressions, aliasing reshapes, and block-reuse pressure) must
  // replay bitwise equal to eager execution at every thread count.
  Rng rng(73);
  for (int trial = 0; trial < 12; ++trial) {
    const int64_t rows = 8 + static_cast<int64_t>(rng.NextBelow(3)) * 4;   // 8/12/16
    const int64_t cols = 8 + static_cast<int64_t>(rng.NextBelow(2)) * 8;   // 8/16
    Graph g;
    g.AddInput("x", {rows, cols});
    std::vector<int> pool{0};  // rank-2 value nodes usable as op inputs
    const int ops = 8 + static_cast<int>(rng.NextBelow(8));
    for (int i = 0; i < ops; ++i) {
      const int src = pool[rng.NextBelow(pool.size())];
      const Shape s = g.node(src).shape;
      const std::string name = "n" + std::to_string(i);
      switch (rng.NextBelow(8)) {
        case 0: {  // matmul by a fresh weight (keeps values bounded)
          Tensor w = Tensor::Random({s[1], cols}, rng, -0.3f, 0.3f);
          const int wid = g.AddWeight(name + "_w", std::move(w));
          pool.push_back(g.AddMatmul(name, src, wid));
          break;
        }
        case 1:
          pool.push_back(g.AddRelu(name, src));
          break;
        case 2: {  // add of two same-shape nodes (shared-subexpression fan-in)
          int other = src;
          for (int probe = 0; probe < 4; ++probe) {
            const int cand = pool[rng.NextBelow(pool.size())];
            if (g.node(cand).shape == s) {
              other = cand;
              break;
            }
          }
          pool.push_back(g.AddAdd(name, src, other));
          break;
        }
        case 3:
          pool.push_back(g.AddScale(name, src, 0.75f));
          break;
        case 4:
          pool.push_back(g.AddSoftmax(name, src));
          break;
        case 5:
          pool.push_back(g.AddTranspose(name, src, 0, 1));
          break;
        case 6: {  // reshape round-trip: pure aliases feeding later ops
          const int rs = g.AddReshape(name + "_a", src, {s[0] * s[1]});
          pool.push_back(g.AddReshape(name, rs, s));
          break;
        }
        case 7: {
          int other = src;
          for (int probe = 0; probe < 4; ++probe) {
            const int cand = pool[rng.NextBelow(pool.size())];
            if (g.node(cand).shape == s) {
              other = cand;
              break;
            }
          }
          pool.push_back(g.AddMask(name, src, other));
          break;
        }
      }
    }
    g.PropagateSparsity();
    Rng fr(100 + static_cast<uint64_t>(trial));
    std::map<std::string, Tensor> feeds{{"x", Tensor::Random({rows, cols}, fr)}};
    const Tensor eager = EagerExecute(g, feeds).at(g.size() - 1);
    for (int t : {1, 4, 7}) {
      ScopedNumThreads threads(t);
      ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(g.Run(feeds), eager))
          << "fuzz trial " << trial << " at " << t << " threads";
    }
  }
}

// ---- 64-byte arena alignment (PR 4 satellite) ------------------------------

TEST(PlanExecutorTest, ArenaBaseAndBlockOffsetsAre64ByteAligned) {
  Rng rng(75);
  TransformerEncoderLayer layer(32, 4, 96, rng);
  Rng xr(76);
  Tensor x = Tensor::Random({18, 32}, xr);
  layer.Forward(x);  // compile the plan

  Graph g = BuildTransformerOpsGraph(12, 4, 8, rng);
  std::shared_ptr<ExecutionPlan> plan = g.PlanShared();
  ExecutionContext ctx(*plan);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(ctx.arena_base()) % 64, 0u)
      << "arena base must start on a cache line";
  for (const OpCall& step : plan->steps()) {
    ASSERT_EQ(step.out.loc, ValueLoc::kArena);
    EXPECT_EQ((step.out.offset * static_cast<int64_t>(sizeof(float))) % 64, 0)
        << "block offset of step node " << step.node_id << " not 64-byte aligned";
    EXPECT_EQ(reinterpret_cast<uintptr_t>(ctx.arena_base() + step.out.offset) % 64, 0u);
  }
}

// ---- Fused matmul+relu epilogue (PR 4) -------------------------------------

TEST(PlanExecutorTest, FusedMatmulReluBitwiseMatchesUnfusedComposition) {
  Rng rng(77);
  Graph g = BuildFfnGraph(32, 16, 64, rng);  // matmul -> relu -> matmul
  const PlanStats stats = g.PlanShared()->stats();
  EXPECT_EQ(stats.num_fused, 1);
  EXPECT_EQ(stats.num_steps, 2);  // fused up+relu, down

  Rng xr(78);
  std::map<std::string, Tensor> feeds{{"x", Tensor::Random({32, 16}, xr)}};
  for (const ComputeBackend backend : {ComputeBackend::kBlocked, ComputeBackend::kReference}) {
    ScopedBackend guard(backend);
    ExpectBitwiseEqual(g.Run(feeds), EagerExecute(g, feeds).at(g.size() - 1));
  }

  // Execute elides the fused matmul's value but keeps the ReLU's (bitwise).
  auto eager = EagerExecute(g, feeds);
  auto planned = g.Execute(feeds);
  const int up_id = 3, relu_id = 4;
  ASSERT_EQ(g.node(up_id).kind, OpKind::kMatmul);
  ASSERT_EQ(g.node(relu_id).kind, OpKind::kRelu);
  EXPECT_EQ(planned.count(up_id), 0u);
  ExpectBitwiseEqual(planned.at(relu_id), eager.at(relu_id));
  ExpectBitwiseEqual(planned.at(g.size() - 1), eager.at(g.size() - 1));
}

TEST(PlanExecutorTest, FusionKeepsOperandsLiveUntilTheRelusPosition) {
  // The fused GEMM reads its operands at the ReLU's position. Here z is the
  // nominal last consumer of t and sits BETWEEN the matmul and its ReLU:
  // without lifetime extension z would alias t's block in place (or free it
  // for reuse) and the fused step would read clobbered data — a silent
  // miscompilation.
  Rng rng(81);
  Graph g;
  const int x = g.AddInput("x", {8, 8});
  const int w = g.AddWeight("w", Tensor::Random({8, 8}, rng));
  const int t = g.AddRelu("t", x);
  const int mm = g.AddMatmul("mm", t, w);
  const int z = g.AddScale("z", t, 2.0f);  // last consumer of t by node order
  const int soft = g.AddSoftmax("soft", z);
  const int r = g.AddRelu("r", mm);  // fuses with mm
  g.AddAdd("out", r, soft);
  g.PropagateSparsity();
  ASSERT_EQ(g.PlanShared()->stats().num_fused, 1);  // fusion still engages — safely

  Rng xr(82);
  std::map<std::string, Tensor> feeds{{"x", Tensor::Random({8, 8}, xr)}};
  for (const ComputeBackend backend : {ComputeBackend::kBlocked, ComputeBackend::kReference}) {
    ScopedBackend guard(backend);
    for (int threads : {1, 4}) {
      ScopedNumThreads tguard(threads);
      ExpectBitwiseEqual(g.Run(feeds), EagerExecute(g, feeds).at(g.size() - 1));
    }
  }
}

TEST(PlanExecutorTest, MatmulWithSecondConsumerIsNotFused) {
  Rng rng(79);
  Graph g;
  const int x = g.AddInput("x", {8, 8});
  const int w = g.AddWeight("w", Tensor::Random({8, 8}, rng));
  const int mm = g.AddMatmul("mm", x, w);
  const int r = g.AddRelu("r", mm);
  g.AddAdd("out", r, mm);  // second consumer: fusing would lose mm's value
  g.PropagateSparsity();
  EXPECT_EQ(g.PlanShared()->stats().num_fused, 0);

  Rng xr(80);
  std::map<std::string, Tensor> feeds{{"x", Tensor::Random({8, 8}, xr)}};
  auto eager = EagerExecute(g, feeds);
  auto planned = g.Execute(feeds);
  ASSERT_EQ(eager.size(), planned.size());
  for (const auto& [id, value] : eager) {
    ExpectBitwiseEqual(planned.at(id), value);
  }
}

// ---- Plan-cache invalidation race (PR 3 satellite) -------------------------

TEST(PlanExecutorTest, PlanHandleSurvivesConcurrentGraphMutation) {
  // An executor mid-Run must keep its plan (and the plan's compile-time
  // semantics) after AddX invalidates the graph's cache from another thread.
  Rng rng(61);
  Graph g = BuildFfnGraph(16, 8, 32, rng);
  Rng xr(62);
  Tensor x = Tensor::Random({16, 8}, xr);
  std::map<std::string, const Tensor*> feeds{{"x", &x}};

  std::shared_ptr<ExecutionPlan> plan = g.PlanShared();
  ExecutionContext ctx(*plan);
  Tensor base(Shape{16, 8});
  {
    ConstTensorView out = plan->RunWith(ctx, feeds);
    std::copy(out.data(), out.data() + out.size(), base.data());
  }

  std::atomic<bool> go{false};
  std::thread mutator([&] {
    while (!go.load(std::memory_order_acquire)) {
    }
    for (int i = 0; i < 64; ++i) {
      // Every Add clears the plan cache (liveness/offsets assume the old
      // node list) and reallocates the node vector.
      g.AddRelu("noise_" + std::to_string(i), g.size() - 1);
    }
  });

  go.store(true, std::memory_order_release);
  for (int i = 0; i < 64; ++i) {
    ConstTensorView out = plan->RunWith(ctx, feeds);
    ASSERT_EQ(std::memcmp(out.data(), base.data(),
                          static_cast<size_t>(base.size()) * sizeof(float)),
              0)
        << "stale plan diverged mid-mutation at iteration " << i;
  }
  mutator.join();

  // A fresh plan over the mutated graph compiles and runs the longer chain.
  std::shared_ptr<ExecutionPlan> fresh = g.PlanShared();
  ExecutionContext fresh_ctx(*fresh);
  ConstTensorView out = fresh->RunWith(fresh_ctx, feeds);
  EXPECT_EQ(out.size(), 16 * 8);
}

// ---- Shared-plan / per-context multi-stream replay (PR 5) ------------------

TEST(PlanExecutorTest, ExecutionContextArenaAlignedAndSized) {
  Rng rng(83);
  Graph g = BuildTransformerOpsGraph(12, 4, 8, rng);
  std::shared_ptr<ExecutionPlan> plan = g.PlanShared();
  ExecutionContext ctx(*plan);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(ctx.arena_base()) % 64, 0u)
      << "every context arena must start on a cache line";
  EXPECT_EQ(ctx.arena_bytes(), plan->stats().arena_bytes);
  ExecutionContext other(*plan);
  EXPECT_NE(ctx.arena_base(), other.arena_base()) << "contexts must not share an arena";
}

TEST(PlanExecutorTest, ReusedContextMatchesFreshContextAndEager) {
  Rng rng(84);
  Graph g = BuildAllOpsGraph(24, 16, rng);
  std::shared_ptr<ExecutionPlan> plan = g.PlanShared();
  ExecutionContext reused(*plan);
  // Context reuse across changing feed values replays over the same arena:
  // every replay must equal a replay through a fresh context, and eager.
  for (uint64_t seed : {85, 86}) {
    auto feeds = AllOpsFeeds(24, 16, seed);
    ConstTensorView out = plan->RunWith(reused, feeds);
    ExecutionContext fresh(*plan);
    ConstTensorView want = plan->RunWith(fresh, feeds);
    ASSERT_EQ(std::memcmp(out.data(), want.data(), static_cast<size_t>(want.size()) * sizeof(float)),
              0);
    ExpectBitwiseEqual(
        Tensor(g.node(g.size() - 1).shape, std::vector<float>(out.data(), out.data() + out.size())),
        EagerExecute(g, feeds).at(g.size() - 1));
  }
}

TEST(PlanExecutorTest, ConcurrentStreamsOverOneSharedPlanAreBitwiseIdentical) {
  // The tentpole contract: one immutable plan, N private contexts, N OS
  // threads replaying concurrently with distinct inputs — every stream's
  // result must be bitwise identical to a single-stream replay of its own
  // input through a fresh context. Run at several pool widths (the pool is
  // shared infrastructure the streams' nested kernels contend on).
  Rng rng(87);
  Graph g = BuildAllOpsGraph(20, 12, rng);
  std::shared_ptr<ExecutionPlan> plan = g.PlanShared();

  constexpr int kStreams = 4;
  constexpr int kRepeats = 8;
  std::vector<std::map<std::string, Tensor>> feeds;
  std::vector<Tensor> expected;
  for (int s = 0; s < kStreams; ++s) {
    feeds.push_back(AllOpsFeeds(20, 12, 90 + static_cast<uint64_t>(s)));
    ExecutionContext fresh(*plan);
    ConstTensorView out = plan->RunWith(fresh, feeds.back());
    expected.emplace_back(g.node(g.size() - 1).shape,
                          std::vector<float>(out.data(), out.data() + out.size()));
  }

  for (int t : {1, 4}) {
    ScopedNumThreads threads(t);
    std::vector<std::unique_ptr<ExecutionContext>> contexts;
    for (int s = 0; s < kStreams; ++s) {
      contexts.push_back(std::make_unique<ExecutionContext>(*plan));
    }
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int s = 0; s < kStreams; ++s) {
      workers.emplace_back([&, s] {
        for (int r = 0; r < kRepeats; ++r) {
          ConstTensorView out =
              plan->RunWith(*contexts[static_cast<size_t>(s)], feeds[static_cast<size_t>(s)]);
          if (std::memcmp(out.data(), expected[static_cast<size_t>(s)].data(),
                          static_cast<size_t>(out.size()) * sizeof(float)) != 0) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& w : workers) {
      w.join();
    }
    EXPECT_EQ(failures.load(), 0)
        << "stream diverged from single-stream replay (threads=" << t << ")";
  }
}

TEST(PlanExecutorTest, ContextFromAnotherPlanIsRejected) {
  Rng rng(88);
  Graph g1 = BuildFfnGraph(8, 8, 16, rng);
  Graph g2 = BuildFfnGraph(8, 8, 16, rng);
  std::shared_ptr<ExecutionPlan> p1 = g1.PlanShared();
  std::shared_ptr<ExecutionPlan> p2 = g2.PlanShared();
  ExecutionContext ctx(*p2);
  Rng xr(89);
  Tensor x = Tensor::Random({8, 8}, xr);
  std::map<std::string, const Tensor*> feeds{{"x", &x}};
  EXPECT_DEATH(p1->RunWith(ctx, feeds), "different plan");
}

TEST(PlanExecutorTest, EncoderLayerStreamsForwardConcurrently) {
  // The nn seam: MakeStream hands out per-stream state over the layer's
  // cached plan; concurrent ForwardWith calls (distinct streams, shared
  // immutable plan) must match Forward bitwise.
  Rng rng(91);
  TransformerEncoderLayer layer(32, 4, 96, rng);
  constexpr int kStreams = 3;
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  Rng xr(92);
  for (int s = 0; s < kStreams; ++s) {
    inputs.push_back(Tensor::Random({16, 32}, xr));
    expected.push_back(layer.Forward(inputs.back()));
  }
  ScopedNumThreads threads(4);
  std::vector<TransformerEncoderLayer::Stream> streams;
  for (int s = 0; s < kStreams; ++s) {
    streams.push_back(layer.MakeStream(16, /*masked=*/false));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int s = 0; s < kStreams; ++s) {
    workers.emplace_back([&, s] {
      Tensor out(Shape{16, 32});
      for (int r = 0; r < 6; ++r) {
        layer.ForwardWith(streams[static_cast<size_t>(s)], inputs[static_cast<size_t>(s)],
                          nullptr, nullptr, &out);
        if (std::memcmp(out.data(), expected[static_cast<size_t>(s)].data(),
                        static_cast<size_t>(out.size()) * sizeof(float)) != 0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(PlanExecutorTest, ConvenienceForwardsRunConcurrently) {
  // Forward, ForwardPit and Graph::Run replay through an execution context
  // private to the call, so threads sharing one stack or graph never
  // serialize or race. Dense results must be bitwise equal to the eager
  // oracles. PIT selection state lives in the compiler, so each thread's PIT
  // results must be bitwise equal to its own request sequence replayed
  // serially through a fresh compiler. The requests span more token counts
  // than a shape plan cache holds, so the shared caches flush while other
  // threads hold plans and replay them.
  constexpr int kThreads = 4;
  constexpr int kRequests = 6;
  constexpr int kRounds = 2;
  constexpr int64_t kHidden = 16;
  constexpr int64_t kGraphTokens = 24;
  Rng wr(401);
  PlannedTransformerStack xf(2, kHidden, 2, 48, wr);
  PlannedFfnStack ffn(2, kHidden, 64, wr);
  Graph g = BuildFfnGraph(kGraphTokens, kHidden, 64, wr);
  const std::vector<MatmulDecision> decisions = g.PitPass();

  struct Request {
    Tensor x;
    Tensor mask;  // [t, t] 0/1, or empty for an unmasked request
    std::map<std::string, Tensor> feeds;  // Graph::Run input
    const Tensor* attn_mask() const { return mask.size() > 0 ? &mask : nullptr; }
  };
  struct Outputs {
    Tensor xf, xf_pit, ffn, ffn_pit, graph, graph_pit;
  };
  const auto run = [&](const Request& r, PitCompiler& compiler) {
    Outputs o;
    o.xf = xf.Forward(r.x, r.attn_mask());
    o.xf_pit = xf.ForwardPit(r.x, compiler, r.attn_mask());
    o.ffn = ffn.Forward(r.x);
    o.ffn_pit = ffn.ForwardPit(r.x, compiler);
    o.graph = g.Run(r.feeds);
    o.graph_pit = g.Run(r.feeds, &decisions, &compiler);
    return o;
  };

  // 20 distinct token counts over the 24 requests, alternating masked and
  // unmasked requests.
  constexpr int kNumTokens = 20;
  Rng xr(402);
  std::vector<std::vector<Request>> requests(kThreads);
  std::vector<std::vector<Outputs>> expected(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    PitCompiler serial(V100());
    for (int i = 0; i < kRequests; ++i) {
      Request r;
      const int64_t tokens = 3 + (t * kRequests + i) % kNumTokens;
      r.x = Tensor::Random({tokens, kHidden}, xr);
      if ((t + i) % 2 == 1) {
        r.mask = Tensor::RandomSparse({tokens, tokens}, 0.4, xr);
        for (int64_t e = 0; e < r.mask.size(); ++e) {
          r.mask[e] = r.mask[e] != 0.0f ? 1.0f : 0.0f;
        }
      }
      r.feeds = {{"x", Tensor::Random({kGraphTokens, kHidden}, xr)}};
      Outputs want = run(r, serial);
      ExpectBitwiseEqual(want.xf, xf.ForwardEager(r.x, r.attn_mask()));
      ExpectBitwiseEqual(want.ffn, ffn.ForwardEager(r.x));
      ExpectBitwiseEqual(want.graph, EagerExecute(g, r.feeds).at(g.size() - 1));
      PitCompiler eager_compiler(V100());
      ExpectBitwiseEqual(want.graph_pit,
                         EagerExecute(g, r.feeds, &decisions, &eager_compiler).at(g.size() - 1));
      requests[static_cast<size_t>(t)].push_back(std::move(r));
      expected[static_cast<size_t>(t)].push_back(std::move(want));
    }
  }

  ScopedNumThreads threads(4);
  std::atomic<int> failures{0};
  const auto same = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), static_cast<size_t>(a.size()) * sizeof(float)) == 0;
  };
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      PitCompiler compiler(V100());
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kRequests; ++i) {
          const Outputs got = run(requests[static_cast<size_t>(t)][static_cast<size_t>(i)], compiler);
          const Outputs& want = expected[static_cast<size_t>(t)][static_cast<size_t>(i)];
          if (!same(got.xf, want.xf) || !same(got.xf_pit, want.xf_pit) ||
              !same(got.ffn, want.ffn) || !same(got.ffn_pit, want.ffn_pit) ||
              !same(got.graph, want.graph) || !same(got.graph_pit, want.graph_pit)) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

// ---- Cooperative cancellation (PR 10) --------------------------------------

TEST(PlanExecutorTest, PreCancelledTokenStopsReplayBeforeAnyStep) {
  Rng rng(96);
  Graph g = BuildAllOpsGraph(24, 16, rng);
  auto feeds = AllOpsFeeds(24, 16, 97);
  std::shared_ptr<ExecutionPlan> plan = g.PlanShared();
  ExecutionContext ctx(*plan);
  CancelToken token;
  token.Cancel();
  ctx.set_cancel_token(&token);
  (void)plan->RunWith(ctx, feeds);
  EXPECT_EQ(ctx.replay_status(), ReplayStatus::kCancelled);
}

TEST(PlanExecutorTest, MidReplayCancelStopsAtStepBoundaryAndResetRecovers) {
  Rng rng(98);
  Graph g = BuildAllOpsGraph(24, 16, rng);
  auto feeds = AllOpsFeeds(24, 16, 99);
  std::shared_ptr<ExecutionPlan> plan = g.PlanShared();
  ASSERT_GE(plan->stats().num_steps, 3) << "need at least three steps to cancel between";
  ExecutionContext ctx(*plan);

  Tensor base(g.node(g.size() - 1).shape);
  {
    ConstTensorView out = plan->RunWith(ctx, feeds);
    ASSERT_EQ(ctx.replay_status(), ReplayStatus::kOk);
    std::copy(out.data(), out.data() + out.size(), base.data());
  }

  // Observer-driven deterministic mid-replay cancel: firing the token after
  // the first compute step must stop the replay at the very next step
  // boundary.
  CancelToken token;
  ctx.set_cancel_token(&token);
  int steps_seen = 0;
  const StepObserver observer = [&](int /*node_id*/, ConstTensorView /*value*/) {
    if (++steps_seen == 1) {
      token.Cancel();
    }
  };
  (void)plan->RunWith(ctx, feeds, nullptr, &observer);
  EXPECT_EQ(ctx.replay_status(), ReplayStatus::kCancelled);
  EXPECT_EQ(steps_seen, 1) << "replay must not dispatch past the cancelled boundary";

  // Reset + rerun through the same context: bitwise identical to the
  // uncancelled replay (the abandoned partial arena state is fully dead).
  token.Reset();
  ConstTensorView out = plan->RunWith(ctx, feeds);
  EXPECT_EQ(ctx.replay_status(), ReplayStatus::kOk);
  ExpectBitwiseEqual(
      Tensor(base.shape(), std::vector<float>(out.data(), out.data() + out.size())), base);
}

TEST(PlanExecutorTest, LapsedDeadlineCancelsReplay) {
  Rng rng(100);
  Graph g = BuildAllOpsGraph(24, 16, rng);
  auto feeds = AllOpsFeeds(24, 16, 101);
  std::shared_ptr<ExecutionPlan> plan = g.PlanShared();
  ExecutionContext ctx(*plan);
  CancelToken token;
  ctx.set_cancel_token(&token);
  for (int t : {1, 4}) {
    ScopedNumThreads threads(t);
    token.ArmDeadline(SteadyNowUs() - 1);  // already lapsed
    (void)plan->RunWith(ctx, feeds);
    EXPECT_EQ(ctx.replay_status(), ReplayStatus::kCancelled);
    EXPECT_TRUE(token.deadline_lapsed());
    EXPECT_FALSE(token.cancelled_manual());
    token.ClearDeadline();
    ConstTensorView out = plan->RunWith(ctx, feeds);
    EXPECT_EQ(ctx.replay_status(), ReplayStatus::kOk);
    EXPECT_GT(out.size(), 0);
  }
}

TEST(PlanExecutorTest, CancelTokenStateMachine) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.deadline_armed());
  token.ArmDeadline(SteadyNowUs() + 60'000'000);  // a minute out: not lapsed
  EXPECT_TRUE(token.deadline_armed());
  EXPECT_FALSE(token.cancelled());
  token.ArmDeadline(SteadyNowUs() - 1);
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.deadline_lapsed());
  EXPECT_FALSE(token.cancelled_manual());
  token.ClearDeadline();
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cancelled_manual());
  token.ClearDeadline();  // clearing the deadline must not clear a manual cancel
  EXPECT_TRUE(token.cancelled());
  token.Reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.deadline_armed());
}

// ---- Segment-aware packed attention ----------------------------------------
//
// kAttention replays over the segments bound on the execution context: each
// segment's rows must equal its request attended alone, bit for bit, whatever
// shares the packed tile with it.

// A random partition of [0, tokens) into attention segments, with occasional
// gaps and trailing rows that no segment covers. Each segment draws one of
// four masks: none, a Longformer window with a global token, random entries
// with values other than 0/1, or random 0/1 entries with one row that has no
// live column.
struct Partition {
  std::vector<AttentionSegment> segments;
  std::vector<const Tensor*> masks;  // parallel to segments
  std::vector<std::unique_ptr<Tensor>> owned;
};

Partition RandomPartition(int64_t tokens, Rng& rng) {
  Partition p;
  int64_t off = 0;
  while (off < tokens) {
    if (!p.segments.empty() && rng.NextBool(0.15)) {
      off += 1 + static_cast<int64_t>(rng.NextBelow(2));  // a gap
      continue;
    }
    const int64_t len = 1 + static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(tokens - off)));
    const Tensor* mask = nullptr;
    switch (rng.NextBelow(4)) {
      case 0:
        break;
      case 1: {
        LongformerMaskConfig config;
        config.seq_len = len;
        config.window = 4;
        config.num_global = 1;
        p.owned.push_back(std::make_unique<Tensor>(LongformerMask(config, rng)));
        mask = p.owned.back().get();
        break;
      }
      case 2: {
        constexpr float kValues[] = {0.0f, 0.5f, -2.0f, 3.0f};
        auto m = std::make_unique<Tensor>(Shape{len, len});
        for (int64_t i = 0; i < m->size(); ++i) {
          (*m)[i] = kValues[rng.NextBelow(4)];
        }
        p.owned.push_back(std::move(m));
        mask = p.owned.back().get();
        break;
      }
      default: {
        auto m = std::make_unique<Tensor>(Shape{len, len});
        for (int64_t i = 0; i < m->size(); ++i) {
          (*m)[i] = rng.NextBool(0.6) ? 1.0f : 0.0f;
        }
        const int64_t dead = static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(len)));
        for (int64_t j = 0; j < len; ++j) {
          m->At(dead, j) = 0.0f;
        }
        p.owned.push_back(std::move(m));
        mask = p.owned.back().get();
        break;
      }
    }
    p.masks.push_back(mask);
    p.segments.push_back({off, len, mask != nullptr ? ConstTensorView(*mask) : ConstTensorView()});
    off += len;
    if (rng.NextBool(0.25)) {
      break;  // trailing rows in no segment
    }
  }
  return p;
}

Tensor Rows(const Tensor& x, int64_t offset, int64_t length) {
  Tensor rows({length, x.dim(1)});
  std::copy(x.data() + offset * x.dim(1), x.data() + (offset + length) * x.dim(1), rows.data());
  return rows;
}

bool RowsBitwiseEqual(ConstTensorView packed, int64_t offset, const Tensor& rows) {
  return std::memcmp(packed.data() + offset * packed.dim(1), rows.data(),
                     static_cast<size_t>(rows.size()) * sizeof(float)) == 0;
}

TEST(SegmentAttentionTest, RandomPartitionsMatchEachRequestsEagerLayer) {
  Rng wr(201);
  TransformerEncoderLayer layer(32, 4, 96, wr);
  Rng rng(202);
  for (int trial = 0; trial < 6; ++trial) {
    const int64_t tokens = 6 + static_cast<int64_t>(rng.NextBelow(40));
    const Partition part = RandomPartition(tokens, rng);
    Tensor x = Tensor::Random({tokens, 32}, rng);
    // Rows in no segment hold NaN: no segment may ever read them.
    std::vector<char> covered(static_cast<size_t>(tokens), 0);
    for (const AttentionSegment& s : part.segments) {
      std::fill(covered.begin() + s.offset, covered.begin() + s.offset + s.length, 1);
    }
    for (int64_t r = 0; r < tokens; ++r) {
      if (covered[static_cast<size_t>(r)] == 0) {
        std::fill(x.data() + r * 32, x.data() + (r + 1) * 32, std::nanf(""));
      }
    }
    TransformerEncoderLayer::Stream stream = layer.MakeStream(tokens, /*masked=*/false);
    EXPECT_EQ(stream.plan->stats().num_steps, 12);
    stream.ctx->set_attention_segments(part.segments);
    for (const IsaTier isa : {ActiveIsa(), IsaTier::kScalar}) {
      ScopedIsa tier(isa);
      std::vector<Tensor> expected;
      for (size_t s = 0; s < part.segments.size(); ++s) {
        const AttentionSegment& seg = part.segments[s];
        expected.push_back(layer.ForwardEager(Rows(x, seg.offset, seg.length), part.masks[s]));
      }
      for (int threads : {1, 4, 7}) {
        ScopedNumThreads scoped(threads);
        Tensor out({tokens, 32});
        layer.ForwardWith(stream, x, nullptr, nullptr, &out);
        for (size_t s = 0; s < part.segments.size(); ++s) {
          ASSERT_TRUE(RowsBitwiseEqual(out, part.segments[s].offset, expected[s]))
              << "trial " << trial << " segment " << s << " (offset "
              << part.segments[s].offset << ", length " << part.segments[s].length
              << ") isa " << IsaName(isa) << " threads " << threads;
        }
      }
    }
  }
}

TEST(SegmentAttentionTest, SkewedPartitionSplitsByWorkBitwise) {
  // One 200-row segment among fifteen 4-row ones: the (segment, head) pairs
  // are split by t^2 work, so the long segment's heads land in chunks of
  // their own. The split must not change a bit.
  constexpr int64_t kHidden = 32;
  Rng wr(221);
  TransformerEncoderLayer layer(kHidden, 4, 96, wr);
  std::vector<AttentionSegment> segments;
  int64_t tokens = 0;
  for (int s = 0; s < 16; ++s) {
    const int64_t len = s == 7 ? 200 : 4;
    segments.push_back({tokens, len, ConstTensorView()});
    tokens += len;
  }
  Rng rng(222);
  const Tensor x = Tensor::Random({tokens, kHidden}, rng);
  TransformerEncoderLayer::Stream stream = layer.MakeStream(tokens, /*masked=*/false);
  stream.ctx->set_attention_segments(segments);
  for (const IsaTier isa : {ActiveIsa(), IsaTier::kScalar}) {
    ScopedIsa tier(isa);
    std::vector<Tensor> expected;
    for (const AttentionSegment& seg : segments) {
      expected.push_back(layer.ForwardEager(Rows(x, seg.offset, seg.length), nullptr));
    }
    for (int threads : {1, 4, 7}) {
      ScopedNumThreads scoped(threads);
      Tensor out({tokens, kHidden});
      layer.ForwardWith(stream, x, nullptr, nullptr, &out);
      for (size_t s = 0; s < segments.size(); ++s) {
        ASSERT_TRUE(RowsBitwiseEqual(out, segments[s].offset, expected[s]))
            << "segment " << s << " isa " << IsaName(isa) << " threads " << threads;
      }
    }
  }
}

TEST(SegmentAttentionTest, UncoveredRowsAreZeroAndSegmentsMatchEagerHeads) {
  constexpr int64_t kTokens = 37;
  constexpr int64_t kHidden = 24;
  constexpr int64_t kHeads = 3;
  Graph g;
  const int q = g.AddInput("q", {kTokens, kHidden});
  const int k = g.AddInput("k", {kTokens, kHidden});
  const int v = g.AddInput("v", {kTokens, kHidden});
  g.AddAttention("attention", q, k, v, kHeads);
  std::shared_ptr<ExecutionPlan> plan = g.PlanShared();
  ExecutionContext ctx(*plan);
  Rng rng(211);
  const std::map<std::string, Tensor> feeds{{"q", Tensor::Random({kTokens, kHidden}, rng)},
                                            {"k", Tensor::Random({kTokens, kHidden}, rng)},
                                            {"v", Tensor::Random({kTokens, kHidden}, rng)}};
  const Tensor zero_row({1, kHidden});
  for (int trial = 0; trial < 8; ++trial) {
    const Partition part = RandomPartition(kTokens, rng);
    ctx.set_attention_segments(part.segments);
    for (int threads : {1, 4, 7}) {
      ScopedNumThreads scoped(threads);
      const ConstTensorView out = plan->RunWith(ctx, feeds);
      int64_t next = 0;
      for (size_t s = 0; s <= part.segments.size(); ++s) {
        const int64_t start = s < part.segments.size() ? part.segments[s].offset : kTokens;
        for (int64_t r = next; r < start; ++r) {
          ASSERT_TRUE(RowsBitwiseEqual(out, r, zero_row)) << "trial " << trial << " row " << r;
        }
        if (s == part.segments.size()) {
          break;
        }
        const AttentionSegment& seg = part.segments[s];
        ASSERT_TRUE(RowsBitwiseEqual(out, seg.offset,
                                     EagerAttention(feeds.at("q"), feeds.at("k"), feeds.at("v"),
                                                    kHeads, seg.offset, seg.length,
                                                    part.masks[s])))
            << "trial " << trial << " segment " << s << " threads " << threads;
        next = seg.offset + seg.length;
      }
    }
  }
}

TEST(SegmentAttentionTest, SingleSegmentDefaultMatchesTheBatchMatmulChain) {
  // With no segments bound, kAttention must be bitwise the 12-step chain it
  // replaced in the encoder plan: head split/merge transposes, kBatchMatmul
  // scores and context, broadcast-masked softmax.
  constexpr int64_t kTokens = 20;
  constexpr int64_t kHeads = 4;
  constexpr int64_t kDk = 8;
  constexpr int64_t kHidden = kHeads * kDk;
  Rng rng(221);
  std::map<std::string, Tensor> feeds = TransformerOpsFeeds(kTokens, kHidden, 222);
  for (const char* name : {"q", "k", "v"}) {
    feeds[name] = Tensor::Random({kTokens, kHidden}, rng);
  }
  for (const bool masked : {false, true}) {
    Graph fused;
    Graph chain;
    for (Graph* g : {&fused, &chain}) {
      g->AddInput("q", {kTokens, kHidden});
      g->AddInput("k", {kTokens, kHidden});
      g->AddInput("v", {kTokens, kHidden});
      if (masked) {
        g->AddInput("mask", {kTokens, kTokens});
      }
    }
    const int mask = masked ? 3 : -1;
    fused.AddAttention("attention", 0, 1, 2, kHeads, mask);
    const auto heads = [&](const char* name, int from) {
      const int split = chain.AddReshape(std::string(name) + "_split", from, {kTokens, kHeads, kDk});
      return chain.AddTranspose(std::string(name) + "_heads", split, 0, 1);
    };
    const int qh = heads("q", 0);
    const int kt = chain.AddTranspose("k_t", heads("k", 1), 1, 2);
    const int vh = heads("v", 2);
    const int scores = chain.AddBatchMatmul("scores", qh, kt);
    const int probs = chain.AddSoftmax("probs", scores, mask);
    const int ctx = chain.AddBatchMatmul("ctx_heads", probs, vh);
    chain.AddReshape("ctx", chain.AddTranspose("ctx_merge", ctx, 0, 1), {kTokens, kHidden});

    const Tensor eager = EagerExecute(chain, feeds).at(chain.size() - 1);
    for (int threads : {1, 4, 7}) {
      ScopedNumThreads scoped(threads);
      const Tensor out = fused.Run(feeds);
      ExpectBitwiseEqual(out, chain.Run(feeds));
      ExpectBitwiseEqual(out, eager);
    }
  }
}

// Every ISA tier this CPU runs, scalar first.
std::vector<IsaTier> SupportedIsaTiers() {
  std::vector<IsaTier> tiers{IsaTier::kScalar};
  for (const IsaTier isa : {IsaTier::kAvx2, IsaTier::kAvx512}) {
    if (static_cast<int>(isa) <= static_cast<int>(DetectedIsa())) {
      tiers.push_back(isa);
    }
  }
  return tiers;
}

TEST(SegmentAttentionTest, RowBlockEdgesMatchEagerOnEveryTierAndBackend) {
  // Query rows run in blocks of 32: lengths on both sides of each block edge
  // (and a lone row, and one row past 512), packed with gaps and alternately
  // masked, and then each alone, where a single segment has fewer (segment,
  // head) pairs than the 4- and 7-thread pools have workers and its row
  // blocks are split across chunks.
  constexpr int64_t kHidden = 16;
  constexpr int64_t kHeads = 2;
  const std::vector<int64_t> lengths = {1, 31, 32, 33, 64, 65, 200, 513};
  Rng wr(241);
  TransformerEncoderLayer layer(kHidden, kHeads, 32, wr);
  Rng rng(242);
  std::vector<Tensor> masks;
  masks.reserve(lengths.size());
  for (const int64_t len : lengths) {
    // Random 0/1 entries with one row that has no live column.
    Tensor m({len, len});
    for (int64_t i = 0; i < m.size(); ++i) {
      m[i] = rng.NextBool(0.6) ? 1.0f : 0.0f;
    }
    const int64_t dead = static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(len)));
    std::fill(m.data() + dead * len, m.data() + (dead + 1) * len, 0.0f);
    masks.push_back(std::move(m));
  }
  struct Layout {
    std::vector<AttentionSegment> segments;
    std::vector<const Tensor*> masks;  // parallel to segments
    int64_t tokens = 0;
  };
  std::vector<Layout> layouts;
  for (const int parity : {0, 1}) {
    Layout packed;
    for (size_t i = 0; i < lengths.size(); ++i) {
      const Tensor* mask = (i + parity) % 2 == 1 ? &masks[i] : nullptr;
      packed.segments.push_back({packed.tokens, lengths[i],
                                 mask != nullptr ? ConstTensorView(*mask) : ConstTensorView()});
      packed.masks.push_back(mask);
      packed.tokens += lengths[i] + 1 + static_cast<int64_t>(i % 2);  // a gap after each
    }
    layouts.push_back(std::move(packed));
  }
  for (size_t i = 0; i < lengths.size(); ++i) {
    const Tensor* mask = i % 2 == 0 ? &masks[i] : nullptr;
    Layout single;
    single.segments.push_back(
        {0, lengths[i], mask != nullptr ? ConstTensorView(*mask) : ConstTensorView()});
    single.masks.push_back(mask);
    single.tokens = lengths[i];
    layouts.push_back(std::move(single));
  }
  const auto check = [&](const char* what) {
    for (size_t l = 0; l < layouts.size(); ++l) {
      const Layout& layout = layouts[l];
      const Tensor x = Tensor::Random({layout.tokens, kHidden}, rng);
      std::vector<Tensor> expected;
      for (size_t s = 0; s < layout.segments.size(); ++s) {
        const AttentionSegment& seg = layout.segments[s];
        expected.push_back(layer.ForwardEager(Rows(x, seg.offset, seg.length), layout.masks[s]));
      }
      TransformerEncoderLayer::Stream stream = layer.MakeStream(layout.tokens, /*masked=*/false);
      stream.ctx->set_attention_segments(layout.segments);
      for (int threads : {1, 4, 7}) {
        ScopedNumThreads scoped(threads);
        Tensor out({layout.tokens, kHidden});
        layer.ForwardWith(stream, x, nullptr, nullptr, &out);
        for (size_t s = 0; s < layout.segments.size(); ++s) {
          ASSERT_TRUE(RowsBitwiseEqual(out, layout.segments[s].offset, expected[s]))
              << what << " layout " << l << " segment " << s << " (length "
              << layout.segments[s].length << (layout.masks[s] != nullptr ? ", masked" : "")
              << ") threads " << threads;
        }
      }
    }
  };
  for (const IsaTier isa : SupportedIsaTiers()) {
    ScopedIsa tier(isa);
    check(IsaName(isa));
  }
  ScopedBackend reference(ComputeBackend::kReference);
  check("reference backend");
}

TEST(SegmentAttentionTest, WidthGrowingMidCallMatchesEager) {
  // Inside a task the intra-op width starts below the pool size and grows as
  // sibling tasks finish, so attention runs its units in several rounds. Two
  // long requests replay concurrently through their own streams at half the
  // pool each, and the longer one widens once the other is done. Bits must
  // not move.
  constexpr int64_t kHidden = 16;
  Rng wr(251);
  TransformerEncoderLayer layer(kHidden, 2, 32, wr);
  Rng rng(252);
  const std::vector<int64_t> lengths = {513, 300};
  std::vector<Tensor> xs;
  std::vector<Tensor> expected;
  std::vector<TransformerEncoderLayer::Stream> streams;
  for (const int64_t len : lengths) {
    xs.push_back(Tensor::Random({len, kHidden}, rng));
    expected.push_back(layer.ForwardEager(xs.back()));
    streams.push_back(layer.MakeStream(len, /*masked=*/false));
  }
  ScopedNumThreads threads(4);
  for (int round = 0; round < 3; ++round) {
    std::vector<Tensor> outs;
    for (const int64_t len : lengths) {
      outs.emplace_back(Shape{len, kHidden});
    }
    ParallelTasks(2, 1, [&](int64_t task) {
      const size_t i = static_cast<size_t>(task);
      layer.ForwardWith(streams[i], xs[i], nullptr, nullptr, &outs[i]);
    });
    for (size_t i = 0; i < lengths.size(); ++i) {
      ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outs[i], expected[i]))
          << "length " << lengths[i] << " round " << round;
    }
  }
}

TEST(SegmentAttentionTest, MalformedSegmentsAbort) {
  // Forks while the worker pool may be live: use the re-executing style.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  constexpr int64_t kTokens = 16;
  Graph plain;
  Graph masked;
  for (Graph* g : {&plain, &masked}) {
    const int q = g->AddInput("q", {kTokens, 8});
    const int k = g->AddInput("k", {kTokens, 8});
    const int v = g->AddInput("v", {kTokens, 8});
    g->AddAttention("attention", q, k, v, 2,
                    g == &masked ? g->AddInput("mask", {kTokens, kTokens}) : -1);
  }
  Rng rng(231);
  const std::map<std::string, Tensor> feeds{{"q", Tensor::Random({kTokens, 8}, rng)},
                                            {"k", Tensor::Random({kTokens, 8}, rng)},
                                            {"v", Tensor::Random({kTokens, 8}, rng)},
                                            {"mask", Tensor::Full({kTokens, kTokens}, 1.0f)}};
  const Tensor small_mask = Tensor::Full({3, 3}, 1.0f);
  const auto run = [&](const Graph& g, const std::vector<AttentionSegment>& segments) {
    std::shared_ptr<ExecutionPlan> plan = g.PlanShared();
    ExecutionContext ctx(*plan);
    ctx.set_attention_segments(segments);
    (void)plan->RunWith(ctx, feeds);
  };
  EXPECT_DEATH(run(plain, {{0, 8, {}}, {4, 8, {}}}), "sorted, disjoint");  // overlapping
  EXPECT_DEATH(run(plain, {{8, 4, {}}, {0, 4, {}}}), "sorted, disjoint");  // unsorted
  EXPECT_DEATH(run(plain, {{10, 8, {}}}), "inside");                       // past the tile
  EXPECT_DEATH(run(plain, {{-1, 4, {}}}), "inside");                       // before it
  EXPECT_DEATH(run(plain, {{0, 0, {}}}), "non-empty");
  EXPECT_DEATH(run(plain, {{0, 4, small_mask}}), "length, length");
  EXPECT_DEATH(run(masked, {{0, 4, {}}}), "unmasked plan");
}

// ---- Shared arenas -----------------------------------------------------------
//
// Contexts may co-own one ArenaBuffer when their replays never overlap (a
// stack stream's layers): each replay must match a private-arena replay bit
// for bit, and overlapping replays in one arena abort.

Tensor CopyOf(ConstTensorView view) {
  Tensor t(view.shape());
  std::copy(view.data(), view.data() + view.size(), t.data());
  return t;
}

TEST(SharedArenaTest, ContextsTakingTurnsMatchPrivateArenas) {
  Rng rng(85);
  Graph big = BuildTransformerOpsGraph(12, 4, 8, rng);
  Graph small = BuildAllOpsGraph(24, 16, rng);
  std::shared_ptr<ExecutionPlan> big_plan = big.PlanShared();
  std::shared_ptr<ExecutionPlan> small_plan = small.PlanShared();
  const auto big_feeds = TransformerOpsFeeds(12, 32, 86);
  const auto small_feeds = AllOpsFeeds(24, 16, 87);
  ExecutionContext big_own(*big_plan);
  ExecutionContext small_own(*small_plan);
  const Tensor big_want = CopyOf(big_plan->RunWith(big_own, big_feeds));
  const Tensor small_want = CopyOf(small_plan->RunWith(small_own, small_feeds));

  auto arena = std::make_shared<ArenaBuffer>(
      std::max(big_plan->arena_elems(), small_plan->arena_elems()));
  ExecutionContext big_ctx(*big_plan, arena);
  ExecutionContext small_ctx(*small_plan, arena);
  EXPECT_EQ(big_ctx.arena_base(), small_ctx.arena_base());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(arena->base()) % 64, 0u);
  EXPECT_EQ(big_ctx.arena_bytes(), arena->bytes());
  for (int round = 0; round < 3; ++round) {
    // Each replay overwrites what the other left in the arena.
    ExpectBitwiseEqual(CopyOf(big_plan->RunWith(big_ctx, big_feeds)), big_want);
    ExpectBitwiseEqual(CopyOf(small_plan->RunWith(small_ctx, small_feeds)), small_want);
  }
}

TEST(SharedArenaTest, OverlappingReplaysInOneArenaAbort) {
  // Forks while the worker pool may be live: use the re-executing style.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(87);
  Graph g = BuildAllOpsGraph(24, 16, rng);
  std::shared_ptr<ExecutionPlan> plan = g.PlanShared();
  const auto feeds = AllOpsFeeds(24, 16, 88);
  const auto overlap = [&](bool same_context) {
    auto arena = std::make_shared<ArenaBuffer>(plan->arena_elems());
    ExecutionContext first(*plan, arena);
    ExecutionContext second(*plan, arena);
    ExecutionContext& inner = same_context ? first : second;
    // The first step's observer starts a second replay in the same arena
    // while the first is still running.
    const StepObserver nested = [&](int, ConstTensorView) {
      (void)plan->RunWith(inner, feeds);
    };
    (void)plan->RunWith(first, feeds, nullptr, &nested);
  };
  EXPECT_DEATH(overlap(/*same_context=*/false), "must replay one at a time");
  EXPECT_DEATH(overlap(/*same_context=*/true), "must replay one at a time");
  // An arena smaller than the plan's is refused when the context is built.
  auto tiny = std::make_shared<ArenaBuffer>(plan->arena_elems() - 1);
  EXPECT_DEATH(ExecutionContext(*plan, tiny), "cannot hold");
}

// A stack stream's layer contexts share one arena sized to the largest layer
// plan; its replays at and below capacity stay bitwise the eager oracle.
TEST(SharedArenaTest, StackStreamPinsItsLargestLayerArena) {
  constexpr int64_t kHidden = 32;
  Rng wr(88);
  PlannedTransformerStack xf(2, kHidden, 4, 96, wr);
  PlannedFfnStack ffn(3, kHidden, 96, wr);
  Rng rng(89);
  for (const int64_t capacity : {64, 128, 512}) {
    for (const bool pit : {false, true}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + (pit ? " pit" : " dense"));
      PitCompiler compiler(V100());
      PitCompiler* replay_compiler = pit ? &compiler : nullptr;

      PlannedTransformerStack::Stream xs = xf.MakeStream(capacity, /*masked=*/false, pit);
      int64_t largest = 0;
      for (const TransformerEncoderLayer::Stream& layer : xs.layers) {
        largest = std::max(largest, layer.plan->stats().arena_bytes);
        EXPECT_EQ(layer.ctx->arena_base(), xs.layers.front().ctx->arena_base());
      }
      EXPECT_EQ(xs.ArenaBytes(), largest);
      PlannedFfnStack::Stream fs = ffn.MakeStream(capacity, pit);
      int64_t ffn_largest = 0;
      for (size_t l = 0; l < fs.plans.size(); ++l) {
        ffn_largest = std::max(ffn_largest, fs.plans[l]->stats().arena_bytes);
        EXPECT_EQ(fs.contexts[l]->arena_base(), fs.contexts.front()->arena_base());
      }
      EXPECT_EQ(fs.ArenaBytes(), ffn_largest);
      if (!pit) {
        EXPECT_EQ(xf.StatsFor(capacity).arena_bytes, xs.ArenaBytes());
        EXPECT_EQ(ffn.StatsFor(capacity).arena_bytes, fs.ArenaBytes());
      }

      Tensor out({capacity, kHidden});
      for (const int64_t rows : {capacity, capacity / 2 + 3, int64_t{1}}) {
        const Tensor x = Tensor::Random({rows, kHidden}, rng);
        // NaN past row `rows`: a replay reading past its rows poisons itself.
        Tensor tile = Tensor::Full({capacity, kHidden}, std::nanf(""));
        std::copy(x.data(), x.data() + x.size(), tile.data());
        const Tensor xf_eager = xf.ForwardEager(x);
        const Tensor ffn_eager = ffn.ForwardEager(x);
        for (int threads : {1, 4}) {
          ScopedNumThreads scoped(threads);
          xf.ForwardWith(xs, tile, nullptr, replay_compiler, &out, rows);
          ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(Rows(out, 0, rows), xf_eager))
              << "transformer rows " << rows << " threads " << threads;
          ffn.ForwardWith(fs, tile, replay_compiler, &out, rows);
          ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(Rows(out, 0, rows), ffn_eager))
              << "ffn rows " << rows << " threads " << threads;
        }
      }
    }
  }
}

// ---- Token-row replay -------------------------------------------------------
//
// A token-polymorphic plan compiled at a capacity replays at any row count
// T <= capacity bound on its context. Each such replay must be bitwise equal
// to a plan compiled at exactly T and to the eager oracle, whatever larger
// replays left in the arena and whatever the feed carries past row T.

constexpr int64_t kCapacity = 64;
constexpr int64_t kReplayRows[] = {kCapacity, 1, 17, 3, 63, 16};  // smaller after larger

// [kCapacity, cols] tile whose first rows are `x` and whose rows past them
// are NaN: a replay that reads past its bound row count poisons its output.
Tensor CapacityTile(const Tensor& x) {
  Tensor tile = Tensor::Full({kCapacity, x.dim(1)}, std::nanf(""));
  std::copy(x.data(), x.data() + x.size(), tile.data());
  return tile;
}

TEST(TokenRowsReplayTest, EncoderLayerBelowCapacityMatchesExactPlanAndEager) {
  constexpr int64_t kHidden = 32;
  Rng wr(301);
  TransformerEncoderLayer layer(kHidden, 4, 96, wr);
  Rng rng(302);
  for (const bool pit : {false, true}) {
    for (const bool segmented : {false, true}) {
      SCOPED_TRACE(std::string(pit ? "pit" : "dense") + (segmented ? " segmented" : " whole"));
      TransformerEncoderLayer::Stream cap = layer.MakeStream(kCapacity, /*masked=*/false, pit);
      ASSERT_TRUE(cap.plan->token_polymorphic());
      ASSERT_EQ(cap.plan->token_extent(), kCapacity);
      PitCompiler compiler(V100());
      PitCompiler* pc = pit ? &compiler : nullptr;
      // Poison the whole arena first: NaN rows left by a full-capacity
      // replay must never reach a later, smaller one.
      Tensor out_cap({kCapacity, kHidden});
      layer.ForwardWith(cap, Tensor::Full({kCapacity, kHidden}, std::nanf("")), nullptr, pc,
                        &out_cap);
      for (const int64_t rows : kReplayRows) {
        const Tensor x = Tensor::Random({rows, kHidden}, rng);
        const Tensor tile = CapacityTile(x);
        const Partition part =
            segmented ? RandomPartition(rows, rng) : Partition{{{0, rows, {}}}, {nullptr}, {}};
        TransformerEncoderLayer::Stream exact = layer.MakeStream(rows, /*masked=*/false, pit);
        cap.ctx->set_attention_segments(part.segments);
        exact.ctx->set_attention_segments(part.segments);
        for (const IsaTier isa : {ActiveIsa(), IsaTier::kScalar}) {
          ScopedIsa tier(isa);
          std::vector<Tensor> eager;
          for (size_t s = 0; s < part.segments.size(); ++s) {
            const AttentionSegment& seg = part.segments[s];
            eager.push_back(layer.ForwardEager(Rows(x, seg.offset, seg.length), part.masks[s]));
          }
          for (int threads : {1, 4, 7}) {
            ScopedNumThreads scoped(threads);
            Tensor want({rows, kHidden});
            layer.ForwardWith(exact, x, nullptr, pc, &want);
            layer.ForwardWith(cap, tile, nullptr, pc, &out_cap, rows);
            const Tensor got = Rows(out_cap, 0, rows);
            ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(got, want))
                << "rows " << rows << " isa " << IsaName(isa) << " threads " << threads;
            for (size_t s = 0; s < part.segments.size(); ++s) {
              ASSERT_TRUE(RowsBitwiseEqual(got, part.segments[s].offset, eager[s]))
                  << "rows " << rows << " segment " << s << " isa " << IsaName(isa)
                  << " threads " << threads;
            }
          }
        }
      }
    }
  }
}

TEST(TokenRowsReplayTest, FfnPlansBelowCapacityMatchExactPlanAndEager) {
  // hidden == capacity: the weights' leading dim equals the token extent, so
  // only provenance (not size) can tell token-major values from weights.
  constexpr int64_t kHidden = kCapacity;
  Rng wr(311);
  PlannedFfnStack stack(2, kHidden, 96, wr);
  Rng rng(312);
  for (const bool pit : {false, true}) {
    SCOPED_TRACE(pit ? "pit" : "dense");
    PlannedFfnStack::Stream cap = stack.MakeStream(kCapacity, pit);
    for (const auto& plan : cap.plans) {
      ASSERT_TRUE(plan->token_polymorphic());
      ASSERT_EQ(plan->token_extent(), kCapacity);
    }
    PitCompiler compiler(V100());
    PitCompiler* pc = pit ? &compiler : nullptr;
    Tensor out_cap({kCapacity, kHidden});
    stack.ForwardWith(cap, Tensor::Full({kCapacity, kHidden}, std::nanf("")), pc, &out_cap);
    for (const int64_t rows : kReplayRows) {
      const Tensor x = Tensor::Random({rows, kHidden}, rng);
      const Tensor tile = CapacityTile(x);
      PlannedFfnStack::Stream exact = stack.MakeStream(rows, pit);
      for (const IsaTier isa : {ActiveIsa(), IsaTier::kScalar}) {
        ScopedIsa tier(isa);
        const Tensor eager = stack.ForwardEager(x);
        for (int threads : {1, 4, 7}) {
          ScopedNumThreads scoped(threads);
          Tensor want({rows, kHidden});
          stack.ForwardWith(exact, x, pc, &want);
          stack.ForwardWith(cap, tile, pc, &out_cap, rows);
          const Tensor got = Rows(out_cap, 0, rows);
          ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(got, want))
              << "rows " << rows << " isa " << IsaName(isa) << " threads " << threads;
          ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(got, eager))
              << "rows " << rows << " isa " << IsaName(isa) << " threads " << threads;
        }
      }
    }
  }
}

TEST(TokenRowsReplayTest, TransformerStackStagesAtCapacityBitwise) {
  // Stack-level replay: each layer's output stages into a capacity-sized
  // buffer that feeds the next layer with more rows than T.
  Rng wr(321);
  PlannedTransformerStack stack(2, 32, 4, 96, wr);
  PlannedTransformerStack::Stream cap = stack.MakeStream(kCapacity, /*masked=*/false);
  Rng rng(322);
  Tensor out_cap({kCapacity, 32});
  for (const int64_t rows : kReplayRows) {
    const Tensor x = Tensor::Random({rows, 32}, rng);
    const Tensor eager = stack.ForwardEager(x);
    for (int threads : {1, 4}) {
      ScopedNumThreads scoped(threads);
      stack.ForwardWith(cap, CapacityTile(x), nullptr, nullptr, &out_cap, rows);
      ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(Rows(out_cap, 0, rows), eager))
          << "rows " << rows << " threads " << threads;
    }
  }
}

// The pre-kAttention head-split attention chain, unmasked: reshape to heads,
// transpose, kBatchMatmul scores, softmax, kBatchMatmul context, merge.
Graph HeadSplitChain(int64_t tokens) {
  Graph g;
  const int x = g.AddInput("x", {tokens, 8});
  const int heads = g.AddTranspose("heads", g.AddReshape("split", x, {tokens, 2, 4}), 0, 1);
  const int scores = g.AddBatchMatmul("scores", heads, g.AddTranspose("kt", heads, 1, 2));
  const int ctx = g.AddBatchMatmul("ctx", g.AddSoftmax("probs", scores), heads);
  g.AddReshape("flat", g.AddTranspose("merge", ctx, 0, 1), {tokens, 8});
  return g;
}

TEST(TokenRowsReplayTest, PolymorphismIsDerivedFromProvenance) {
  Rng wr(331);
  TransformerEncoderLayer layer(16, 2, 32, wr);
  EXPECT_TRUE(layer.MakeStream(32, /*masked=*/false).plan->token_polymorphic());
  // A [T, T] mask feed indexes tokens on both axes.
  EXPECT_FALSE(layer.MakeStream(32, /*masked=*/true).plan->token_polymorphic());
  // The head-split chain moves the token axis off the front.
  EXPECT_FALSE(HeadSplitChain(8).PlanShared()->token_polymorphic());
  // x * x^T reads across rows through a token-dependent right operand.
  Graph gram;
  const int x = gram.AddInput("x", {8, 8});
  gram.AddMatmul("gram", x, gram.AddTranspose("x_t", x, 0, 1));
  EXPECT_FALSE(gram.PlanShared()->token_polymorphic());
  // A weight-only chain is constant, whatever its leading dim.
  Graph affine;
  const int a = affine.AddInput("x", {8, 8});
  const int w = affine.AddWeight("w", Tensor::Full({8, 8}, 0.5f));
  const int w_relu = affine.AddRelu("w_relu", w);
  const int xw = affine.AddMatmul("xw", a, w_relu);
  affine.AddAdd("y", xw, a);
  std::shared_ptr<ExecutionPlan> plan = affine.PlanShared();
  EXPECT_TRUE(plan->token_polymorphic());
  EXPECT_TRUE(plan->token_major(a));
  EXPECT_TRUE(plan->token_major(xw));
  EXPECT_FALSE(plan->token_major(w));
  EXPECT_FALSE(plan->token_major(w_relu));
}

TEST(TokenRowsReplayTest, PitCapacityPlanSelectsOncePerRowBucket) {
  // PIT selects per power-of-two row-count bucket and runs the kernel at the
  // bound row count, so replays at several T inside one bucket keep the
  // selected kernel and hit the step's handle. Every row keeps the same
  // columns (7 of 64) live, so every T lands in one sparsity bucket.
  Rng wr(351);
  const Tensor w = Tensor::Random({64, 32}, wr);
  Graph g;
  const int x = g.AddInput("x", {kCapacity, 64}, /*expected_sparsity=*/0.9);
  g.AddMatmul("proj", x, g.AddWeight("w", w));
  const std::vector<MatmulDecision> decisions = g.PitPass();
  ASSERT_TRUE(decisions[0].use_pit);
  std::shared_ptr<ExecutionPlan> plan = g.PlanShared(&decisions);
  ASSERT_TRUE(plan->token_polymorphic());
  ExecutionContext ctx(*plan);
  Tensor tile({kCapacity, 64});
  Rng rng(352);
  for (int64_t i = 0; i < kCapacity; ++i) {
    for (int64_t j = 0; j < 64; j += 10) {
      tile.At(i, j) = rng.NextFloat(0.5f, 1.0f);
    }
  }
  const std::map<std::string, Tensor> feeds{{"x", tile}};
  PitCompiler compiler(V100());
  int64_t hits = 0;
  for (const int64_t rows : {40, 33, 64, 47}) {  // all in bucket 64
    ctx.set_token_rows(rows);
    const ConstTensorView out = plan->RunWith(ctx, feeds, &compiler);
    ASSERT_EQ(out.dim(0), rows);
    EXPECT_EQ(compiler.kernels_compiled(), 1) << "rows " << rows;
    if (rows != 40) {
      EXPECT_EQ(compiler.cache_hits(), hits + 1) << "rows " << rows;
    }
    hits = compiler.cache_hits();
    Tensor got({rows, 32});
    std::copy(out.data(), out.data() + got.size(), got.data());
    EXPECT_TRUE(AllClose(got, MatMul(Rows(tile, 0, rows), w), 1e-3f, 1e-4f)) << "rows " << rows;
  }
}

TEST(TokenRowsReplayTest, RowCountsThePlanCannotReplayAbort) {
  // Forks while the worker pool may be live: use the re-executing style.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng wr(341);
  TransformerEncoderLayer layer(16, 2, 32, wr);
  Rng rng(342);
  const Tensor x = Tensor::Random({16, 16}, rng);
  const Tensor mask = Tensor::Full({4, 4}, 1.0f);
  const auto replay = [&](bool masked, int64_t rows) {
    TransformerEncoderLayer::Stream stream = layer.MakeStream(8, masked);
    Tensor out({16, 16});
    layer.ForwardWith(stream, x, masked ? &mask : nullptr, nullptr, &out, rows);
  };
  EXPECT_DEATH(replay(false, 9), "exceed the plan's capacity");
  EXPECT_DEATH(replay(true, 4), "not token-polymorphic");

  // The explicit kBatchMatmul attention chain only replays at its extent.
  Graph chain = HeadSplitChain(8);
  const std::map<std::string, Tensor> feeds{{"x", Tensor::Random({8, 8}, rng)}};
  const auto run_chain = [&](int64_t rows) {
    std::shared_ptr<ExecutionPlan> plan = chain.PlanShared();
    ExecutionContext ctx(*plan);
    ctx.set_token_rows(rows);
    (void)plan->RunWith(ctx, feeds);
  };
  EXPECT_DEATH(run_chain(4), "not token-polymorphic");
  EXPECT_DEATH(run_chain(9), "exceed the plan's capacity");
  run_chain(8);  // the extent itself replays
}

}  // namespace
}  // namespace pit

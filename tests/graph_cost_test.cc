#include <gtest/gtest.h>

#include "pit/graph/graph_cost.h"

namespace pit {
namespace {

struct Ctx {
  CostModel model{V100()};
  TileDatabase db = TileDatabase::BuildDefault(model);
};

TEST(GraphCostTest, DenseAndNullDecisionsAgree) {
  Ctx ctx;
  Rng rng(1);
  Graph g = BuildFfnGraph(1024, 1024, 4096, rng);
  GraphCostReport dense = EstimateGraphCost(g, ctx.model, ctx.db, nullptr);
  EXPECT_EQ(dense.matmuls_sparse, 0);
  EXPECT_EQ(dense.matmuls_dense, 2);
  EXPECT_GT(dense.total.Total(), 0.0);
}

TEST(GraphCostTest, PitPassLowersFfnCost) {
  Ctx ctx;
  Rng rng(2);
  Graph g = BuildFfnGraph(4096, 1024, 4096, rng);
  auto decisions = g.PitPass();
  GraphCostReport dense = EstimateGraphCost(g, ctx.model, ctx.db, nullptr);
  GraphCostReport pit = EstimateGraphCost(g, ctx.model, ctx.db, &decisions);
  EXPECT_EQ(pit.matmuls_sparse, 1);  // the ReLU-fed down-projection
  EXPECT_EQ(pit.matmuls_dense, 1);
  EXPECT_LT(pit.total.Total(), dense.total.Total());
}

TEST(GraphCostTest, ExternalRowSparsityPaysOff) {
  Ctx ctx;
  Rng rng(3);
  Graph g;
  int x = g.AddInput("padded", {8192, 1024}, /*expected_sparsity=*/0.7);
  int w = g.AddWeight("w", Tensor::Random({1024, 1024}, rng));
  g.AddMatmul("proj", x, w);
  g.PropagateSparsity();
  auto decisions = g.PitPass();
  GraphCostReport dense = EstimateGraphCost(g, ctx.model, ctx.db, nullptr);
  GraphCostReport pit = EstimateGraphCost(g, ctx.model, ctx.db, &decisions);
  EXPECT_LT(pit.total.Total(), dense.total.Total());
  EXPECT_GT(dense.total.Total() / pit.total.Total(), 1.5);
}

TEST(GraphCostTest, ElementwiseOpsArePriced) {
  Ctx ctx;
  Graph g;
  int a = g.AddInput("a", {1024, 1024});
  int b = g.AddInput("b", {1024, 1024});
  g.AddAdd("sum", a, b);
  GraphCostReport report = EstimateGraphCost(g, ctx.model, ctx.db, nullptr);
  EXPECT_GT(report.total.memory_us, 0.0);
  EXPECT_EQ(report.matmuls_dense + report.matmuls_sparse, 0);
}

TEST(GraphCostTest, AttentionCostsTheChainItReplaces) {
  // kAttention is priced as the transpose / batched-GEMM / softmax chain the
  // encoder plan used before it, so cost estimates did not move with it.
  constexpr int64_t kTokens = 256;
  constexpr int64_t kHeads = 8;
  constexpr int64_t kDk = 64;
  constexpr int64_t kHidden = kHeads * kDk;
  Ctx ctx;
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
    const auto heads = [&](int from) {
      return chain.AddTranspose("heads", chain.AddReshape("split", from, {kTokens, kHeads, kDk}),
                                0, 1);
    };
    const int qh = heads(0);
    const int kt = chain.AddTranspose("k_t", heads(1), 1, 2);
    const int vh = heads(2);
    const int probs = chain.AddSoftmax("probs", chain.AddBatchMatmul("scores", qh, kt), mask);
    const int ctx_heads = chain.AddBatchMatmul("ctx_heads", probs, vh);
    chain.AddReshape("ctx", chain.AddTranspose("merge", ctx_heads, 0, 1), {kTokens, kHidden});

    const GraphCostReport a = EstimateGraphCost(fused, ctx.model, ctx.db, nullptr);
    const GraphCostReport b = EstimateGraphCost(chain, ctx.model, ctx.db, nullptr);
    EXPECT_EQ(a.matmuls_dense, b.matmuls_dense);
    EXPECT_NEAR(a.total.Total(), b.total.Total(), 1e-9 * b.total.Total());
    EXPECT_NEAR(a.total.memory_us, b.total.memory_us, 1e-9 * b.total.memory_us);
  }
}

}  // namespace
}  // namespace pit

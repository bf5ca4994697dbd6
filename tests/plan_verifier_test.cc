// Plan-verifier suite (PR 8).
//
// Two halves, matching the verifier's contract:
//   * Positive sweep — every OpKind, fused/in-place/PIT/masked/batched plans,
//     token-polymorphic capacity plans, the randomized-graph fuzzer's
//     generator, and the serving engine's stream plans must all verify with
//     zero violations.
//     A false positive here would turn the compile hook into a build breaker.
//   * Corrupted-plan negative suite — each invariant class is violated once,
//     through the PlanCorruptor test seam, and the verifier must report that
//     specific class. A corruption the verifier misses is exactly the planner
//     bug that would ship as a silent miscompilation.
#include "pit/graph/plan_verifier.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pit/common/rng.h"
#include "pit/graph/execution_plan.h"
#include "pit/graph/graph.h"
#include "pit/runtime/models.h"
#include "pit/runtime/serving_engine.h"
#include "pit/tensor/tensor.h"

namespace pit {
namespace {

// Every OpKind in one graph: fused MatmulBias+ReLU, an in-place elementwise
// chain, masked softmax, layernorm, scale, transpose round-trip, reshape
// aliasing into a batched matmul.
Graph BuildAllOpsGraph(Rng& rng) {
  Graph g;
  const int x = g.AddInput("x", {32, 64});
  const int m = g.AddInput("m", {32, 64});
  const int w = g.AddWeight("w", Tensor::Random({64, 64}, rng));
  const int bias = g.AddWeight("bias", Tensor::Random({64}, rng));
  const int gamma = g.AddWeight("gamma", Tensor::Random({64}, rng));
  const int beta = g.AddWeight("beta", Tensor::Random({64}, rng));
  const int mm = g.AddMatmulBias("proj", x, w, bias);
  const int act = g.AddRelu("act", mm);  // fuses into the MatmulBias step
  const int sum = g.AddAdd("sum", act, x);
  const int masked = g.AddMask("masked", sum, m);
  const int sm = g.AddSoftmax("sm", masked);
  const int ln = g.AddLayerNorm("ln", sm, gamma, beta);
  const int sc = g.AddScale("sc", ln, 0.5f);
  const int tr = g.AddTranspose("tr", sc, 0, 1);
  const int back = g.AddTranspose("back", tr, 0, 1);
  const int heads = g.AddReshape("heads", back, {2, 16, 64});
  const int keys = g.AddInput("keys", {2, 64, 16});
  g.AddBatchMatmul("scores", heads, keys);
  return g;
}

// Masked + batched multi-head attention: three independent projection GEMMs,
// head split/merge through reshape+transpose aliases,
// broadcast-masked softmax, residual add, layernorm.
Graph BuildAttentionGraph(Rng& rng) {
  constexpr int64_t kTokens = 24;
  constexpr int64_t kHidden = 32;
  constexpr int64_t kHeads = 4;
  constexpr int64_t kDk = kHidden / kHeads;
  Graph g;
  const int x = g.AddInput("x", {kTokens, kHidden});
  const int mask = g.AddInput("mask", {kTokens, kTokens});
  const int gamma = g.AddWeight("gamma", Tensor::Random({kHidden}, rng));
  const int beta = g.AddWeight("beta", Tensor::Random({kHidden}, rng));
  auto head_split = [&](const char* name, int from) {
    const int proj =
        g.AddMatmul(name, from, g.AddWeight(std::string("w_") + name,
                                            Tensor::Random({kHidden, kHidden}, rng)));
    const int split = g.AddReshape(std::string(name) + "_h", proj, {kTokens, kHeads, kDk});
    return g.AddTranspose(std::string(name) + "_t", split, 0, 1);
  };
  const int q = head_split("q", x);
  const int k = head_split("k", x);
  const int v = head_split("v", x);
  const int kt = g.AddTranspose("kt", k, 1, 2);
  const int scores = g.AddBatchMatmul("scores", q, kt);
  const int scaled = g.AddScale("scaled", scores, 0.35f);
  const int sm = g.AddSoftmax("sm", scaled, mask);
  const int ctx = g.AddBatchMatmul("ctx", sm, v);
  const int merged = g.AddTranspose("merged", ctx, 0, 1);
  const int flat = g.AddReshape("flat", merged, {kTokens, kHidden});
  const int res = g.AddAdd("res", flat, x);
  g.AddLayerNorm("out", res, gamma, beta);
  return g;
}

// The encoder layer's attention block: q/k/v projections, scaled q, one
// kAttention step (optionally masked), output projection, residual add.
Graph BuildSegmentAttentionGraph(Rng& rng, bool masked) {
  constexpr int64_t kTokens = 24;
  constexpr int64_t kHidden = 32;
  Graph g;
  const int x = g.AddInput("x", {kTokens, kHidden});
  const int mask = masked ? g.AddInput("mask", {kTokens, kTokens}) : -1;
  auto proj = [&](const char* name) {
    return g.AddMatmul(name, x, g.AddWeight(std::string("w_") + name,
                                            Tensor::Random({kHidden, kHidden}, rng)));
  };
  const int q = g.AddScale("q_scale", proj("q"), 0.35f);
  const int ctx = g.AddAttention("attention", q, proj("k"), proj("v"), /*heads=*/4, mask);
  const int w_out = g.AddWeight("w_out", Tensor::Random({kHidden, kHidden}, rng));
  g.AddAdd("res", g.AddMatmul("out", ctx, w_out), x);
  return g;
}

// Two PIT matmuls over independent inputs with disjoint arena footprints.
Graph BuildIndependentPitGraph(Rng& rng, std::vector<MatmulDecision>* decisions) {
  Graph g;
  const int x1 = g.AddInput("x1", {16, 16});
  const int x2 = g.AddInput("x2", {16, 16});
  const int w1 = g.AddWeight("w1", Tensor::Random({16, 16}, rng));
  const int w2 = g.AddWeight("w2", Tensor::Random({16, 16}, rng));
  const int mm1 = g.AddMatmul("mm1", x1, w1);
  const int mm2 = g.AddMatmul("mm2", x2, w2);
  g.AddAdd("sum", mm1, mm2);
  decisions->push_back({mm1, true, 0, MatmulAxis::kM, false, "test"});
  decisions->push_back({mm2, true, 0, MatmulAxis::kM, false, "test"});
  return g;
}

PlanVerifyReport Verify(const ExecutionPlan& plan) { return VerifyPlan(plan); }

// ---- Positive sweep --------------------------------------------------------

TEST(PlanVerifierTest, AllOpsPlanHasZeroViolations) {
  Rng rng(801);
  Graph g = BuildAllOpsGraph(rng);
  const ExecutionPlan plan(g, nullptr);
  const PlanVerifyReport report = Verify(plan);
  EXPECT_TRUE(report.ok()) << report.ToString();
  // The sweep must have examined real structure, not vacuously passed.
  EXPECT_GT(report.steps_checked, 0);
  EXPECT_GT(report.blocks_checked, 0);
  EXPECT_EQ(plan.stats().num_fused, 1);  // the MatmulBias+ReLU pair collapsed
}

TEST(PlanVerifierTest, MaskedBatchedAttentionPlanHasZeroViolations) {
  Rng rng(803);
  Graph g = BuildAttentionGraph(rng);
  const ExecutionPlan plan(g, nullptr);
  const PlanVerifyReport report = Verify(plan);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(PlanVerifierTest, SegmentAttentionPlansHaveZeroViolations) {
  Rng rng(804);
  for (const bool masked : {false, true}) {
    Graph g = BuildSegmentAttentionGraph(rng, masked);
    const ExecutionPlan plan(g, nullptr);
    const PlanVerifyReport report = Verify(plan);
    EXPECT_TRUE(report.ok()) << (masked ? "masked: " : "unmasked: ") << report.ToString();
  }
}

TEST(PlanVerifierTest, FusedAndPitFfnPlansHaveZeroViolations) {
  Rng rng(805);
  Graph dense = BuildFfnGraph(48, 16, 64, rng);
  const ExecutionPlan dense_plan(dense, nullptr);
  EXPECT_EQ(dense_plan.stats().num_fused, 1);
  EXPECT_TRUE(Verify(dense_plan).ok()) << Verify(dense_plan).ToString();

  Graph sparse = BuildFfnGraph(48, 16, 64, rng);
  const std::vector<MatmulDecision> decisions = sparse.PitPass();
  const ExecutionPlan pit_plan(sparse, &decisions);
  EXPECT_GT(pit_plan.stats().num_pit_steps, 0);
  EXPECT_TRUE(Verify(pit_plan).ok()) << Verify(pit_plan).ToString();
}

TEST(PlanVerifierTest, TokenPolymorphicCapacityPlansHaveZeroViolations) {
  // The plans a serving stream compiles at its capacity and replays at every
  // smaller row count: encoder layers and FFN stacks, dense and PIT, at a
  // small capacity and at the engine's default 512 rows.
  Rng rng(806);
  TransformerEncoderLayer layer(32, 4, 96, rng);
  PlannedFfnStack ffn(2, 32, 96, rng);
  for (const int64_t capacity : {64, 512}) {
    for (const bool pit : {false, true}) {
      SCOPED_TRACE(std::string(pit ? "pit" : "dense") + " capacity " + std::to_string(capacity));
      std::vector<std::shared_ptr<ExecutionPlan>> plans = ffn.MakeStream(capacity, pit).plans;
      plans.push_back(layer.MakeStream(capacity, /*masked=*/false, pit).plan);
      for (const auto& plan : plans) {
        EXPECT_TRUE(plan->token_polymorphic());
        EXPECT_EQ(plan->token_extent(), capacity);
        const PlanVerifyReport report = Verify(*plan);
        EXPECT_TRUE(report.ok()) << report.ToString();
      }
    }
  }
  Graph g = BuildFfnGraph(48, 16, 64, rng);
  EXPECT_TRUE(g.PlanShared()->token_polymorphic());
}

TEST(PlanVerifierTest, IndependentPitMatmulsVerifyClean) {
  Rng rng(807);
  std::vector<MatmulDecision> decisions;
  Graph g = BuildIndependentPitGraph(rng, &decisions);
  const ExecutionPlan plan(g, &decisions);
  EXPECT_EQ(plan.stats().num_pit_steps, 2);
  EXPECT_TRUE(Verify(plan).ok()) << Verify(plan).ToString();
}

TEST(PlanVerifierTest, RandomizedGraphsAllVerifyClean) {
  // The plan_executor fuzzer's generator: arbitrary legal op chains with
  // shared subexpressions, aliasing reshape round-trips, and block-reuse
  // pressure. Every generated plan must satisfy every invariant.
  Rng rng(811);
  for (int trial = 0; trial < 16; ++trial) {
    const int64_t rows = 8 + static_cast<int64_t>(rng.NextBelow(3)) * 4;
    const int64_t cols = 8 + static_cast<int64_t>(rng.NextBelow(2)) * 8;
    Graph g;
    g.AddInput("x", {rows, cols});
    std::vector<int> pool{0};
    const int ops = 8 + static_cast<int>(rng.NextBelow(8));
    for (int i = 0; i < ops; ++i) {
      const int src = pool[rng.NextBelow(pool.size())];
      const Shape s = g.node(src).shape;
      // Append form: gcc 12's -Wrestrict false-fires on the operator+ chain.
      std::string name = "n";
      name += std::to_string(i);
      switch (rng.NextBelow(8)) {
        case 0: {
          Tensor w = Tensor::Random({s[1], cols}, rng, -0.3f, 0.3f);
          const int wid = g.AddWeight(name + "_w", std::move(w));
          pool.push_back(g.AddMatmul(name, src, wid));
          break;
        }
        case 1:
          pool.push_back(g.AddRelu(name, src));
          break;
        case 2: {
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
        case 6: {
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
    const ExecutionPlan plan(g, nullptr);
    const PlanVerifyReport report = Verify(plan);
    ASSERT_TRUE(report.ok()) << "fuzz trial " << trial << ":\n" << report.ToString();
  }
}

TEST(PlanVerifierTest, HealthyEngineServesWithEveryPlanVerified) {
  // Every plan compile runs VerifyPlanOrDie, including the ones behind each
  // serving stream. Serving a healthy engine to completion proves the hook
  // fires on valid plans without killing the process.
  Rng rng(813);
  PlannedFfnStack stack(2, 16, 64, rng);
  ServingEngineOptions options;
  options.num_streams = 2;
  ServingEngine engine(stack, options);
  Rng xr(814);
  std::vector<ServeRequest> requests;
  for (int i = 0; i < 6; ++i) {
    requests.push_back({Tensor::Random({8 + 4 * (i % 3), 16}, xr), nullptr});
  }
  const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (const ServeOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.status, ServeStatus::kOk);
  }
  EXPECT_GT(engine.stats().pool_contexts, 0);
}

// ---- Corrupted-plan negative suite -----------------------------------------
//
// Each test compiles a healthy plan, mutates exactly one invariant through
// the PlanCorruptor seam, and asserts the verifier reports that class. The
// corruption may knock on into further violations (a moved block may also
// land out of bounds); tests assert the expected class is PRESENT, not
// exclusive.

TEST(PlanVerifierCorruptionTest, MisalignedOffsetReported) {
  Rng rng(825);
  Graph g = BuildAllOpsGraph(rng);
  ExecutionPlan plan(g, nullptr);
  // Nudge one dispatched step's output block off the 64-byte grid.
  for (OpCall& step : PlanCorruptor::steps(plan)) {
    if (step.kind != OpKind::kReshape && step.out.loc == ValueLoc::kArena) {
      step.out.offset += 1;
      break;
    }
  }
  const PlanVerifyReport report = Verify(plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(PlanViolationKind::kMisalignedOffset)) << report.ToString();
}

TEST(PlanVerifierCorruptionTest, OverlappingReuseReportsClobberedRead) {
  // mm1 and mm2 are independent; add reads both. Redirecting mm2's output
  // into mm1's still-live block is exactly the arena-planner bug class the
  // liveness check exists for: a block recycled while a later step must still
  // read it.
  Rng rng(827);
  Graph g;
  const int x = g.AddInput("x", {16, 16});
  const int w1 = g.AddWeight("w1", Tensor::Random({16, 16}, rng));
  const int w2 = g.AddWeight("w2", Tensor::Random({16, 16}, rng));
  const int mm1 = g.AddMatmul("mm1", x, w1);
  const int mm2 = g.AddMatmul("mm2", x, w2);
  g.AddAdd("sum", mm1, mm2);
  ExecutionPlan plan(g, nullptr);
  std::vector<OpCall>& steps = PlanCorruptor::steps(plan);
  ASSERT_EQ(steps.size(), 3u);
  const int64_t mm1_offset = steps[0].out.offset;
  ASSERT_NE(steps[1].out.offset, mm1_offset);  // healthy plan: distinct blocks
  steps[1].out.offset = mm1_offset;  // mm2 now clobbers mm1's block
  steps[2].in[1].offset = mm1_offset;  // keep the add's read of mm2 coherent
  const PlanVerifyReport report = Verify(plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(PlanViolationKind::kClobberedRead)) << report.ToString();
}

TEST(PlanVerifierCorruptionTest, AttentionOutputAliasingQReportsClobberedRead) {
  // The attention step reads q's rows for every head tile it writes; an
  // output block placed on q's block would overwrite rows it still reads.
  Rng rng(828);
  Graph g = BuildSegmentAttentionGraph(rng, /*masked=*/false);
  ExecutionPlan plan(g, nullptr);
  ASSERT_TRUE(Verify(plan).ok());
  std::vector<OpCall>& steps = PlanCorruptor::steps(plan);
  bool corrupted = false;
  for (size_t s = 0; s < steps.size() && !corrupted; ++s) {
    if (steps[s].kind != OpKind::kAttention) {
      continue;
    }
    ASSERT_EQ(steps[s].in[0].loc, ValueLoc::kArena);
    const int64_t old_offset = steps[s].out.offset;
    steps[s].out.offset = steps[s].in[0].offset;
    // Keep the attention output's readers coherent with the move.
    for (size_t r = s + 1; r < steps.size(); ++r) {
      for (int i = 0; i < steps[r].num_in; ++i) {
        if (steps[r].in[i].node_id == steps[s].out.node_id && steps[r].in[i].offset == old_offset) {
          steps[r].in[i].offset = steps[s].out.offset;
        }
      }
    }
    corrupted = true;
  }
  ASSERT_TRUE(corrupted) << "plan has no attention step";
  const PlanVerifyReport report = Verify(plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(PlanViolationKind::kClobberedRead)) << report.ToString();
}

TEST(PlanVerifierCorruptionTest, DroppedFeedBindingReported) {
  Rng rng(831);
  Graph g = BuildAllOpsGraph(rng);
  ExecutionPlan plan(g, nullptr);
  ASSERT_FALSE(PlanCorruptor::feed_bindings(plan).empty());
  PlanCorruptor::feed_bindings(plan).pop_back();
  const PlanVerifyReport report = Verify(plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(PlanViolationKind::kFeedBinding)) << report.ToString();
}

TEST(PlanVerifierCorruptionTest, ReferenceToElidedFusedNodeReportsDanglingStorage) {
  Rng rng(833);
  Graph ffn = BuildFfnGraph(32, 16, 64, rng);  // matmul -> relu -> matmul
  int relu_id = -1;
  for (int id = 0; id < ffn.size(); ++id) {
    if (ffn.node(id).kind == OpKind::kRelu) {
      relu_id = id;
    }
  }
  ASSERT_GE(relu_id, 0);
  const int elided_matmul = ffn.node(relu_id).inputs[0];
  ExecutionPlan plan(ffn, nullptr);
  ASSERT_EQ(plan.stats().num_fused, 1);
  // Point the down-projection's read at the fused-away matmul node: no step
  // produces it, so the reference dangles — the fused value-map leak.
  std::vector<OpCall>& steps = PlanCorruptor::steps(plan);
  ASSERT_EQ(steps.size(), 2u);
  steps[1].in[0].node_id = elided_matmul;
  const PlanVerifyReport report = Verify(plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(PlanViolationKind::kDanglingStorage)) << report.ToString();
}

TEST(PlanVerifierCorruptionTest, BlockPastArenaExtentReportsOutOfBounds) {
  Rng rng(835);
  Graph g = BuildAllOpsGraph(rng);
  ExecutionPlan plan(g, nullptr);
  // Park a block at the arena's end: aligned, but its extent pokes past the
  // context arena every stream would allocate.
  for (OpCall& step : PlanCorruptor::steps(plan)) {
    if (step.kind != OpKind::kReshape && step.out.loc == ValueLoc::kArena) {
      step.out.offset = PlanCorruptor::arena_elems(plan);
      break;
    }
  }
  const PlanVerifyReport report = Verify(plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(PlanViolationKind::kArenaOutOfBounds)) << report.ToString();
}

TEST(PlanVerifierCorruptionTest, FuseFlagOnElementwiseStepReportsFusedStep) {
  Rng rng(839);
  Graph g = BuildAttentionGraph(rng);
  ExecutionPlan plan(g, nullptr);
  for (OpCall& step : PlanCorruptor::steps(plan)) {
    if (step.kind == OpKind::kAdd) {
      step.fuse_relu = true;  // an epilogue only matmul steps can carry
      break;
    }
  }
  const PlanVerifyReport report = Verify(plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(PlanViolationKind::kFusedStep)) << report.ToString();
}

TEST(PlanVerifierCorruptionTest, OperandCountMismatchReportsMalformedStep) {
  Rng rng(841);
  Graph g = BuildAttentionGraph(rng);
  ExecutionPlan plan(g, nullptr);
  for (OpCall& step : PlanCorruptor::steps(plan)) {
    if (step.kind == OpKind::kLayerNorm) {
      step.num_in = 1;  // layernorm takes x, gamma, beta
      break;
    }
  }
  const PlanVerifyReport report = Verify(plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(PlanViolationKind::kMalformedStep)) << report.ToString();
}

TEST(PlanVerifierCorruptionTest, InflatedStatsReportStatsMismatch) {
  Rng rng(843);
  Graph g = BuildAllOpsGraph(rng);
  ExecutionPlan plan(g, nullptr);
  PlanCorruptor::stats(plan).num_fused += 1;
  const PlanVerifyReport report = Verify(plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(PlanViolationKind::kStatsMismatch)) << report.ToString();
}

TEST(PlanVerifierCorruptionTest, TransposeClaimingPolymorphismReportsTokenRows) {
  // The all-ops plan transposes token data, so it replays only at its extent;
  // claiming polymorphism would let it replay fewer rows through a step that
  // moves the token axis.
  Rng rng(844);
  Graph g = BuildAllOpsGraph(rng);
  ExecutionPlan plan(g, nullptr);
  ASSERT_FALSE(plan.token_polymorphic());
  ASSERT_TRUE(Verify(plan).ok());
  PlanCorruptor::token_polymorphic(plan) = true;
  const PlanVerifyReport report = Verify(plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(PlanViolationKind::kTokenRows)) << report.ToString();
}

TEST(PlanVerifierCorruptionTest, WeightMarkedTokenMajorReportsTokenRows) {
  // A weight marked token-major would be viewed with T rows at replay.
  Rng rng(846);
  Graph g = BuildFfnGraph(32, 32, 64, rng);
  ExecutionPlan plan(g, nullptr);
  ASSERT_TRUE(plan.token_polymorphic());
  const int w_up = 1;
  ASSERT_EQ(g.node(w_up).kind, OpKind::kWeight);
  PlanCorruptor::token_major(plan)[w_up] = 1;
  const PlanVerifyReport report = Verify(plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(PlanViolationKind::kTokenRows)) << report.ToString();
}

TEST(PlanVerifierCorruptionTest, EveryCleanReportHasNoViolationOfAnyClass) {
  // Guard against Has() giving vacuous positives: a clean report must carry
  // none of the classes the suite above asserts.
  Rng rng(845);
  Graph g = BuildAttentionGraph(rng);
  const ExecutionPlan plan(g, nullptr);
  const PlanVerifyReport report = Verify(plan);
  ASSERT_TRUE(report.ok()) << report.ToString();
  for (PlanViolationKind kind :
       {PlanViolationKind::kMalformedStep, PlanViolationKind::kArenaOutOfBounds,
        PlanViolationKind::kMisalignedOffset, PlanViolationKind::kClobberedRead,
        PlanViolationKind::kDanglingStorage, PlanViolationKind::kFeedBinding,
        PlanViolationKind::kFusedStep, PlanViolationKind::kStatsMismatch,
        PlanViolationKind::kTokenRows}) {
    EXPECT_FALSE(report.Has(kind)) << PlanViolationKindName(kind);
  }
}

TEST(PlanVerifierCorruptionDeathTest, VerifyPlanOrDieAbortsWithReport) {
  Rng rng(847);
  Graph g = BuildAllOpsGraph(rng);
  ExecutionPlan plan(g, nullptr);
  for (OpCall& step : PlanCorruptor::steps(plan)) {
    if (step.kind != OpKind::kReshape && step.out.loc == ValueLoc::kArena) {
      step.out.offset += 1;
      break;
    }
  }
  EXPECT_DEATH(VerifyPlanOrDie(plan, "corrupted test plan"), "misaligned-offset");
}

}  // namespace
}  // namespace pit

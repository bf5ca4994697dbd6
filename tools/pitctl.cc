// pitctl — command-line inspector for the PIT library.
//
//   pitctl devices                     device specs + machine balance
//   pitctl tiledb [fp16]               profiled tile database
//   pitctl kernels [fp16]              kernel-space statistics (§4)
//   pitctl rules "<einsum>" [operand]  generic PIT rules for an expression
//   pitctl plan <m> <k> <n> <gm> <gn> <sparsity>
//                                      run Algorithm 1 and print the plan
//   pitctl isa                         detected/selected CPU ISA tier
//   pitctl verify                      compile representative plans and run
//                                      the static plan verifier over each
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "pit/common/backend.h"
#include "pit/common/rng.h"
#include "pit/runtime/models.h"
#include "pit/core/kernel_selection.h"
#include "pit/core/kernel_space.h"
#include "pit/expr/op_registry.h"
#include "pit/graph/execution_plan.h"
#include "pit/graph/graph.h"
#include "pit/graph/plan_verifier.h"
#include "pit/sparse/coverage.h"
#include "pit/tensor/tensor.h"

using namespace pit;

namespace {

void PrintDevices() {
  for (const DeviceSpec& dev : {V100(), A100()}) {
    std::printf("%s: %d SMs, %.1f TFLOPS fp32, %.0f GB/s, launch %.1fus, %dB transactions,\n"
                "  machine balance %.1f flops/byte, min micro-tile 1x%lld fp32 / 1x%lld fp16\n",
                dev.name.c_str(), dev.num_sms, dev.fp32_flops_per_sm_us * dev.num_sms / 1e6,
                dev.mem_bw_bytes_us / 1e3, dev.launch_overhead_us, dev.transaction_bytes,
                dev.BalanceFlopsPerByte(),
                static_cast<long long>(MinMicroTileElems(dev, Precision::kFp32)),
                static_cast<long long>(MinMicroTileElems(dev, Precision::kFp16)));
  }
}

void PrintTileDb(Precision precision) {
  CostModel model(V100(), precision);
  TileDatabase db = TileDatabase::BuildDefault(model, precision == Precision::kFp16);
  std::printf("tile database (%s, V100): %zu entries\n", PrecisionName(precision), db.size());
  for (const TileEntry& e : db.entries()) {
    std::printf("  %-22s %s cost/tile %.4f us, efficiency %.3f\n", e.shape.ToString().c_str(),
                e.tensor_core ? "wmma " : "cuda ", e.tile_cost_us,
                model.TileEfficiency(e.shape, e.tensor_core));
  }
}

void PrintKernels(Precision precision) {
  CostModel model(V100(), precision);
  TileDatabase db = TileDatabase::BuildDefault(model, precision == Precision::kFp16);
  KernelSpaceStats stats = SummarizeKernelSpace(db);
  std::printf("kernel space (%s): %lld dense + %lld wmma kernels -> %lld sparse kernels\n"
              "(%lld rules per dense kernel: 3 PIT-axes x 2 operand layouts)\n",
              PrecisionName(precision), static_cast<long long>(stats.dense_kernels),
              static_cast<long long>(stats.wmma_kernels),
              static_cast<long long>(stats.sparse_kernels),
              static_cast<long long>(stats.rules_per_dense));
}

void PrintRules(const std::string& einsum, int operand) {
  auto expr = ParseEinsumOrNull(einsum);
  if (!expr) {
    std::printf("could not parse: %s\n", einsum.c_str());
    std::exit(1);
  }
  std::printf("expression: %s\n", expr->ToString().c_str());
  for (const auto& info : expr->AnalyzeAxes()) {
    std::printf("  axis %-4s %-10s %-4s  %s\n", info.name.c_str(),
                info.kind == AxisKind::kSpatial ? "spatial" : "reduction",
                info.is_pit_axis ? "PIT" : "-", info.reason.c_str());
  }
  std::printf("rules for operand %d:\n", operand);
  for (const auto& rule : DeriveRules(*expr, operand)) {
    std::printf("  %s\n", rule.ToString().c_str());
  }
}

void PrintPlan(int64_t m, int64_t k, int64_t n, int64_t gm, int64_t gn, double sparsity) {
  CostModel model(V100());
  TileDatabase db = TileDatabase::BuildDefault(model);
  AnalyticPattern pattern(m, k, gm, gn, sparsity);
  SelectionResult sel = SelectKernel(model, db, {&pattern}, m, k, n);
  std::printf("problem: [%lld,%lld]x[%lld,%lld], granularity (%lld,%lld), sparsity %.2f%%\n",
              static_cast<long long>(m), static_cast<long long>(k), static_cast<long long>(k),
              static_cast<long long>(n), static_cast<long long>(gm), static_cast<long long>(gn),
              sparsity * 100.0);
  if (sel.best.fallback_dense) {
    std::printf("decision: DENSE fallback (%.1f us; best sparse plan not competitive)\n",
                sel.best.cost.Total());
  } else {
    std::printf("decision: %s\n", sel.best.rule.ToString().c_str());
    std::printf("  covered %.2f%% of A, sparsity after cover %.2f%%\n",
                sel.best.covered_fraction * 100.0, sel.best.sparsity_after_cover * 100.0);
    std::printf("  %lld dense tiles, %.1f us total (%.1f us index build)\n",
                static_cast<long long>(sel.best.num_exec_tiles), sel.best.cost.Total(),
                sel.best.cost.index_us);
  }
  std::printf("dense alternative: %.1f us; %d candidates searched in %.1f us wall\n",
              sel.dense_cost_us, sel.candidates_evaluated, sel.search_wall_us);
}

// ---- pitctl verify ---------------------------------------------------------
//
// Compiles one representative plan per planner regime — dense all-ops (every
// OpKind through one graph, fusion and in-place reuse engaged), masked +
// batched multi-head attention (independent q/k/v projections, reshape/transpose
// aliasing, broadcast mask softmax), the fused FFN, the PIT-decision FFN
// (sparse steps) — and runs the independent static verifier over each. Then
// it compiles the plans a serving stream replays at every batch's row count
// (encoder layer and FFN, dense and PIT, at the engine's default 512-row
// capacity): each must verify, be token-polymorphic, and replay below its
// capacity bitwise equal to a plan compiled at exactly that row count.
// Machine-grep-able output (`verify=ok`) plus a non-zero exit on any
// violation, for CI gating.

// Every OpKind in one graph: fused MatmulBias+ReLU, elementwise in-place
// chain, masked softmax, layernorm, scale, transpose, reshape aliasing into a
// batched matmul head split.
Graph BuildAllOpsVerifyGraph(Rng& rng) {
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

// Masked + batched multi-head attention block: three independent projection
// GEMMs, head split/merge via reshape+transpose aliases,
// broadcast-masked softmax, residual add, layernorm.
Graph BuildAttentionVerifyGraph(Rng& rng) {
  constexpr int64_t kTokens = 64;
  constexpr int64_t kHidden = 64;
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
    return g.AddTranspose(std::string(name) + "_t", split, 0, 1);  // [heads, tokens, dk]
  };
  const int q = head_split("q", x);
  const int k = head_split("k", x);
  const int v = head_split("v", x);
  const int kt = g.AddTranspose("kt", k, 1, 2);  // [heads, dk, tokens]
  const int scores = g.AddBatchMatmul("scores", q, kt);
  const int scaled = g.AddScale("scaled", scores, 0.25f);
  const int sm = g.AddSoftmax("sm", scaled, mask);
  const int ctx = g.AddBatchMatmul("ctx", sm, v);
  const int merged = g.AddTranspose("merged", ctx, 0, 1);
  const int flat = g.AddReshape("flat", merged, {kTokens, kHidden});
  const int res = g.AddAdd("res", flat, x);
  g.AddLayerNorm("out", res, gamma, beta);
  return g;
}

int PrintVerify() {
  // Every compile below runs VerifyPlanOrDie, so a violating plan aborts in
  // its constructor with the same report and a non-zero exit.
  Rng rng(7);
  struct Case {
    const char* name;
    Graph graph;
    std::vector<MatmulDecision> decisions;
  };
  std::vector<Case> cases;
  cases.push_back({"dense_all_ops", BuildAllOpsVerifyGraph(rng), {}});
  cases.push_back({"masked_batched_attention", BuildAttentionVerifyGraph(rng), {}});
  {
    Graph ffn = BuildFfnGraph(/*tokens=*/128, /*hidden=*/64, /*ffn_hidden=*/256, rng);
    cases.push_back({"ffn_fused_dense", std::move(ffn), {}});
  }
  {
    Graph ffn = BuildFfnGraph(/*tokens=*/128, /*hidden=*/64, /*ffn_hidden=*/256, rng);
    std::vector<MatmulDecision> decisions = ffn.PitPass();
    cases.push_back({"ffn_pit", std::move(ffn), std::move(decisions)});
  }

  int64_t total = 0;
  const auto verify = [&total](const char* name, const ExecutionPlan& plan) {
    const PlanVerifyReport report = VerifyPlan(plan);
    std::printf("plan=%s steps=%d blocks=%d pit_steps=%d fused=%d violations=%lld\n", name,
                report.steps_checked, report.blocks_checked, plan.stats().num_pit_steps,
                plan.stats().num_fused, static_cast<long long>(report.violations_total));
    if (!report.ok()) {
      std::printf("%s\n", report.ToString().c_str());
    }
    total += report.violations_total;
  };
  for (Case& c : cases) {
    verify(c.name, ExecutionPlan(c.graph, c.decisions.empty() ? nullptr : &c.decisions));
  }
  // The serving engine's capacity plans, replayed below capacity the way a
  // packed batch or a 1:1 request replays them.
  constexpr int64_t kCapacity = 512;
  constexpr int64_t kRows = 37;
  const PlannedTransformerStack encoder(/*layers=*/1, /*hidden=*/64, /*heads=*/4,
                                        /*ffn_hidden=*/256, rng);
  const PlannedFfnStack ffn(/*layers=*/1, /*hidden=*/64, /*ffn_hidden=*/256, rng);
  const Tensor x = Tensor::Random({kRows, 64}, rng);
  Tensor tile({kCapacity, 64});
  std::copy(x.data(), x.data() + x.size(), tile.data());
  const auto replay = [&total](const char* name, const ExecutionPlan& plan, const Tensor& got,
                               const Tensor& want) {
    const bool bitwise =
        std::memcmp(got.data(), want.data(), static_cast<size_t>(want.size()) * sizeof(float)) ==
        0;
    std::printf("plan=%s token_polymorphic=%d replay_rows=%lld of %lld bitwise=%d\n", name,
                plan.token_polymorphic() ? 1 : 0, static_cast<long long>(kRows),
                static_cast<long long>(plan.token_extent()), bitwise ? 1 : 0);
    total += (plan.token_polymorphic() ? 0 : 1) + (bitwise ? 0 : 1);
  };
  for (const bool pit : {false, true}) {
    PitCompiler compiler(V100());
    PitCompiler* pc = pit ? &compiler : nullptr;
    Tensor got({kCapacity, 64});
    Tensor want({kRows, 64});
    PlannedTransformerStack::Stream cap = encoder.MakeStream(kCapacity, /*masked=*/false, pit);
    PlannedTransformerStack::Stream exact = encoder.MakeStream(kRows, /*masked=*/false, pit);
    const char* encoder_name = pit ? "capacity_encoder_pit" : "capacity_encoder_dense";
    verify(encoder_name, *cap.layers[0].plan);
    encoder.ForwardWith(cap, tile, nullptr, pc, &got, kRows);
    encoder.ForwardWith(exact, x, nullptr, pc, &want);
    replay(encoder_name, *cap.layers[0].plan, got, want);

    PlannedFfnStack::Stream ffn_cap = ffn.MakeStream(kCapacity, pit);
    PlannedFfnStack::Stream ffn_exact = ffn.MakeStream(kRows, pit);
    const char* ffn_name = pit ? "capacity_ffn_pit" : "capacity_ffn_dense";
    verify(ffn_name, *ffn_cap.plans[0]);
    ffn.ForwardWith(ffn_cap, tile, pc, &got, kRows);
    ffn.ForwardWith(ffn_exact, x, pc, &want);
    replay(ffn_name, *ffn_cap.plans[0], got, want);
  }
  std::printf("verify=%s\n", total == 0 ? "ok" : "fail");
  return total == 0 ? 0 : 1;
}

// Machine-grep-able tier report for CI gating: jobs that sweep PIT_ISA skip
// the SIMD legs (with a notice) when `pitctl isa` reports detected=scalar.
void PrintIsa() {
  std::printf("detected=%s\nselected=%s\nsimd=%d\n", IsaName(DetectedIsa()), IsaName(ActiveIsa()),
              UseSimd() ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  const bool fp16 = argc > 2 && std::string(argv[2]) == "fp16";
  if (cmd == "devices") {
    PrintDevices();
  } else if (cmd == "tiledb") {
    PrintTileDb(fp16 ? Precision::kFp16 : Precision::kFp32);
  } else if (cmd == "kernels") {
    PrintKernels(fp16 ? Precision::kFp16 : Precision::kFp32);
  } else if (cmd == "rules" && argc > 2) {
    PrintRules(argv[2], argc > 3 ? std::atoi(argv[3]) : 0);
  } else if (cmd == "plan" && argc == 8) {
    PrintPlan(std::atoll(argv[2]), std::atoll(argv[3]), std::atoll(argv[4]),
              std::atoll(argv[5]), std::atoll(argv[6]), std::atof(argv[7]));
  } else if (cmd == "isa") {
    PrintIsa();
  } else if (cmd == "verify") {
    return PrintVerify();
  } else {
    std::printf("usage:\n  pitctl devices\n  pitctl tiledb [fp16]\n  pitctl kernels [fp16]\n"
                "  pitctl rules \"C[m,n] += A[m,k] * B[k,n]\" [operand]\n"
                "  pitctl plan <m> <k> <n> <gm> <gn> <sparsity>\n  pitctl isa\n"
                "  pitctl verify\n");
    return cmd.empty() ? 1 : (cmd == "help" ? 0 : 1);
  }
  return 0;
}

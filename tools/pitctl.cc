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
//   pitctl chaos [seed]                randomized fault-injection matrix over
//                                      the serving engine (CI containment gate)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "pit/common/backend.h"
#include "pit/common/fault_injection.h"
#include "pit/common/parallel_for.h"
#include "pit/common/rng.h"
#include "pit/runtime/models.h"
#include "pit/runtime/serving_engine.h"
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

// ---- pitctl chaos ----------------------------------------------------------
//
// Randomized fault matrix over the serving engine: for every injection site x
// streams {1, 4} x threads {1, 4, 7}, serve a fixed
// mixed traffic (ragged lengths, some masked, plus adversarial requests that
// must reject at admission) under high-rate deterministic fault injection and
// require: no abort, every request ends in a definite ServeStatus equal to
// the fault-free baseline's, every kOk output bitwise identical to fault-free
// 1:1 single-stream replay, the injected-fault ledger reconciles
// (faults == retries + degraded + internal, and no internal failures under
// transient faults), and every site actually fired across its cells. A PIT
// slice (batched faulted vs batched fault-free replay at identical
// composition) and an overload + deadline cell ride along. Machine-grep-able
// (`chaos=ok`) plus a non-zero exit on any violation, for CI gating.
//
// PR 10 adds liveness cells: a watchdog-supervised stall matrix (seeded delay
// faults at every streams x threads cell; detection within 2x the
// threshold, no aborts in report mode, outputs still bitwise) and mid-flight
// deadline cells (all-lapsed batches cancelled and released kDeadlineExceeded
// as one forward; mixed batches complete and mark lapsed members at egress).

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

Tensor ChaosMask(int64_t tokens, Rng& rng) {
  Tensor mask = Tensor::RandomSparse({tokens, tokens}, 0.4, rng);
  for (int64_t i = 0; i < mask.size(); ++i) {
    mask[i] = mask[i] != 0.0f ? 1.0f : 0.0f;
  }
  return mask;
}

struct ChaosTraffic {
  std::vector<ServeRequest> requests;
  std::vector<Tensor> masks;  // owned here; requests point into it
  int num_valid = 0;          // requests expected to end kOk in a clean run
};

// Ragged mixed traffic plus three adversarial requests that must reject at
// admission deterministically, faults or not: NaN activations, a bad mask
// (wrong dimensions for transformers; any mask at all for FFN stacks), and a
// negative deadline.
ChaosTraffic BuildChaosTraffic(int64_t hidden, bool transformer, uint64_t seed) {
  ChaosTraffic t;
  Rng rng(seed);
  const int64_t counts[] = {5, 9, 16, 12, 7};
  t.masks.reserve(32);  // stable addresses: requests hold pointers into this
  for (int round = 0; round < 3; ++round) {
    for (size_t c = 0; c < sizeof(counts) / sizeof(counts[0]); ++c) {
      ServeRequest req;
      req.x = Tensor::Random({counts[c], hidden}, rng);
      if (transformer && (round + static_cast<int>(c)) % 2 == 1) {
        t.masks.push_back(ChaosMask(counts[c], rng));
        req.attn_mask = &t.masks.back();
      }
      t.requests.push_back(std::move(req));
      ++t.num_valid;
    }
  }
  {
    ServeRequest nan_req;
    nan_req.x = Tensor::Random({6, hidden}, rng);
    nan_req.x[3] = std::nanf("");
    t.requests.push_back(std::move(nan_req));
  }
  {
    ServeRequest bad_mask;
    bad_mask.x = Tensor::Random({6, hidden}, rng);
    t.masks.push_back(transformer ? ChaosMask(7, rng) : ChaosMask(6, rng));
    bad_mask.attn_mask = &t.masks.back();  // [7,7] vs 6 tokens / any mask on FFN
    t.requests.push_back(std::move(bad_mask));
  }
  {
    ServeRequest bad_deadline;
    bad_deadline.x = Tensor::Random({6, hidden}, rng);
    bad_deadline.deadline_us = -1;
    t.requests.push_back(std::move(bad_deadline));
  }
  return t;
}

// The fault-free reference every cell is checked against: single-stream,
// single-thread. Dense serving compares against 1:1
// (window 1) replay — the strongest form of the PR 6 contract; PIT serving
// compares against batched replay at the same admission knobs (identical
// claim composition), since PIT kernel selection sees the packed tile.
template <typename Stack>
std::vector<ServeOutcome> ChaosBaseline(const Stack& stack, const ChaosTraffic& traffic,
                                        bool use_pit) {
  FaultInjectionConfig off;  // disabled: the baseline must be fault-free even
  ScopedFaultInjection guard(off);  // when PIT_FAULT is exported around us
  ScopedNumThreads one_thread(1);
  ServingEngineOptions opt;
  opt.num_streams = 1;
  opt.use_pit = use_pit;
  opt.batch_window = use_pit ? 4 : 1;
  opt.max_batch_tokens = 48;
  ServingEngine engine(stack, opt);
  return engine.ServeWithStatus(traffic.requests);
}

template <typename Stack>
int ChaosMatrix(const char* label, const Stack& stack, const ChaosTraffic& traffic, bool use_pit,
                const std::vector<int>& thread_counts, Rng& rng,
                int64_t fired_by_site[kNumFaultSites]) {
  const std::vector<ServeOutcome> baseline = ChaosBaseline(stack, traffic, use_pit);
  int failures = 0;
  for (int site_i = 0; site_i < kNumFaultSites; ++site_i) {
    if (static_cast<FaultSite>(site_i) == FaultSite::kStall) {
      continue;  // delay fault, not an error fault: exercised by ChaosStallMatrix
    }
    for (int streams : {1, 4}) {
      for (int threads : thread_counts) {
        const uint64_t cell_seed = rng.NextU64();
        ScopedNumThreads thread_guard(threads);
        ScopedFaultInjection fault(static_cast<FaultSite>(site_i), 0.75, cell_seed);
        ServingEngineOptions opt;
        opt.num_streams = streams;
        opt.use_pit = use_pit;
        opt.batch_window = 4;
        opt.max_batch_tokens = 48;
        ServingEngine engine(stack, opt);
        const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(traffic.requests);
        const ServingEngineStats& stats = engine.stats();
        fired_by_site[site_i] += stats.faults_injected;
        const char* err = nullptr;
        if (outcomes.size() != traffic.requests.size()) {
          err = "lost requests";
        }
        for (size_t i = 0; err == nullptr && i < outcomes.size(); ++i) {
          if (outcomes[i].status != baseline[i].status) {
            err = "status diverged from fault-free baseline";
          } else if (outcomes[i].status == ServeStatus::kOk &&
                     !BitwiseEqual(outcomes[i].output, baseline[i].output)) {
            err = "kOk output diverged bitwise from fault-free baseline";
          }
        }
        if (err == nullptr && stats.internal_failures != 0) {
          err = "internal failure under transient faults";
        }
        if (err == nullptr && stats.faults_injected != stats.retries + stats.degraded_forwards +
                                                           stats.internal_failures) {
          err = "fault ledger does not reconcile";
        }
        std::printf("chaos cell stack=%s site=%s streams=%d threads=%d faults=%lld "
                    "retries=%lld degraded=%lld %s\n",
                    label, FaultSiteName(static_cast<FaultSite>(site_i)), streams, threads,
                    static_cast<long long>(stats.faults_injected),
                    static_cast<long long>(stats.retries),
                    static_cast<long long>(stats.degraded_forwards), err != nullptr ? err : "ok");
        if (err != nullptr) {
          ++failures;
        }
      }
    }
  }
  return failures;
}

// Overload + deadline cell: a bounded queue sheds exactly the valid requests
// beyond its capacity (arrival order, deterministic) without perturbing the
// survivors' bits, and a 1 us deadline sweeps queued requests into
// kDeadlineExceeded — every status still definite, every kOk still bitwise.
int ChaosOverloadCell(const PlannedTransformerStack& stack, const ChaosTraffic& traffic,
                      Rng& rng) {
  const std::vector<ServeOutcome> baseline = ChaosBaseline(stack, traffic, /*use_pit=*/false);
  const char* err = nullptr;
  constexpr int kQueue = 6;
  {
    ScopedFaultInjection fault(FaultSite::kBatchPack, 0.75, rng.NextU64());
    ScopedNumThreads threads(4);
    ServingEngineOptions opt;
    opt.num_streams = 2;
    opt.batch_window = 4;
    opt.max_batch_tokens = 48;
    opt.queue_capacity = kQueue;
    ServingEngine engine(stack, opt);
    const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(traffic.requests);
    int valid_seen = 0;
    for (size_t i = 0; err == nullptr && i < outcomes.size(); ++i) {
      if (baseline[i].status != ServeStatus::kOk) {
        if (outcomes[i].status != baseline[i].status) {
          err = "invalid request not rejected under overload";
        }
        continue;
      }
      ++valid_seen;
      if (valid_seen <= kQueue) {
        if (outcomes[i].status != ServeStatus::kOk) {
          err = "admitted request did not complete";
        } else if (!BitwiseEqual(outcomes[i].output, baseline[i].output)) {
          err = "admitted request diverged bitwise under shedding";
        }
      } else if (outcomes[i].status != ServeStatus::kRejectedOverload) {
        err = "request beyond queue capacity not shed";
      }
    }
    if (err == nullptr && engine.stats().rejected_overload != traffic.num_valid - kQueue) {
      err = "rejected_overload count wrong";
    }
    std::printf("chaos cell stack=transformer mode=overload queue=%d shed=%lld %s\n", kQueue,
                static_cast<long long>(engine.stats().rejected_overload),
                err != nullptr ? err : "ok");
  }
  int failures = err != nullptr ? 1 : 0;
  err = nullptr;
  {
    // Deadline sweep: which requests lapse is timing-dependent, but every
    // status must be definite (kOk or kDeadlineExceeded for valid traffic),
    // kOk bits must match, and the timed_out counter must reconcile.
    FaultInjectionConfig off;
    ScopedFaultInjection guard(off);
    ScopedNumThreads threads(1);
    ServingEngineOptions opt;
    opt.num_streams = 1;
    opt.batch_window = 1;
    opt.deadline_us = 1;
    ServingEngine engine(stack, opt);
    const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(traffic.requests);
    int64_t timed_out = 0;
    for (size_t i = 0; err == nullptr && i < outcomes.size(); ++i) {
      if (baseline[i].status != ServeStatus::kOk) {
        if (outcomes[i].status != baseline[i].status) {
          err = "invalid request not rejected under deadline";
        }
        continue;
      }
      if (outcomes[i].status == ServeStatus::kDeadlineExceeded) {
        ++timed_out;
      } else if (outcomes[i].status != ServeStatus::kOk) {
        err = "valid request ended neither kOk nor kDeadlineExceeded";
      } else if (!BitwiseEqual(outcomes[i].output, baseline[i].output)) {
        err = "kOk output diverged bitwise under deadline sweep";
      }
    }
    if (err == nullptr && engine.stats().timed_out != timed_out) {
      err = "timed_out counter does not match statuses";
    }
    std::printf("chaos cell stack=transformer mode=deadline timed_out=%lld %s\n",
                static_cast<long long>(timed_out), err != nullptr ? err : "ok");
  }
  return failures + (err != nullptr ? 1 : 0);
}

// Stall matrix (PR 10): rate-1.0 seeded stalls at every streams x threads
// cell under watchdog supervision in report mode. A stall is a
// delay, never an error: every status must equal the fault-free baseline's,
// every kOk output must stay bitwise, the error-fault ledger must stay empty,
// and the watchdog must detect each stalled stream within 2x the threshold
// without aborting the process.
int ChaosStallMatrix(const PlannedTransformerStack& stack, const ChaosTraffic& traffic, Rng& rng,
                     int64_t fired_by_site[kNumFaultSites]) {
  constexpr int64_t kWatchdogUs = 50000;
  constexpr int64_t kStallUs = 150000;
  const std::vector<ServeOutcome> baseline = ChaosBaseline(stack, traffic, /*use_pit=*/false);
  int failures = 0;
  for (int streams : {1, 4}) {
    for (int threads : {1, 4, 7}) {
      FaultInjectionConfig config;
      config.enabled = true;
      config.site_enabled[static_cast<int>(FaultSite::kStall)] = true;
      config.rate = 1.0;
      config.seed = rng.NextU64();
      config.stall_us = kStallUs;
      ScopedFaultInjection fault(config);
      ScopedNumThreads thread_guard(threads);
      ServingEngineOptions opt;
      opt.num_streams = streams;
      opt.batch_window = 4;
      opt.max_batch_tokens = 48;
      opt.watchdog_us = kWatchdogUs;
      opt.watchdog_mode = WatchdogMode::kReport;
      ServingEngine engine(stack, opt);
      const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(traffic.requests);
      const ServingEngineStats& stats = engine.stats();
      fired_by_site[static_cast<int>(FaultSite::kStall)] += stats.stalls_injected;
      const char* err = nullptr;
      if (outcomes.size() != traffic.requests.size()) {
        err = "lost requests";
      }
      for (size_t i = 0; err == nullptr && i < outcomes.size(); ++i) {
        if (outcomes[i].status != baseline[i].status) {
          err = "status diverged from fault-free baseline";
        } else if (outcomes[i].status == ServeStatus::kOk &&
                   !BitwiseEqual(outcomes[i].output, baseline[i].output)) {
          err = "kOk output diverged bitwise under stalls";
        }
      }
      if (err == nullptr && stats.stalls_injected == 0) {
        err = "stall site never fired";
      }
      if (err == nullptr && stats.stalls_detected == 0) {
        err = "watchdog missed a stalled stream";
      }
      if (err == nullptr && (stats.stall_min_silence_us <= kWatchdogUs ||
                             stats.stall_min_silence_us > 2 * kWatchdogUs)) {
        err = "detection latency outside (threshold, 2x threshold]";
      }
      if (err == nullptr &&
          stats.faults_injected !=
              stats.retries + stats.degraded_forwards + stats.internal_failures) {
        err = "fault ledger does not reconcile";
      }
      if (err == nullptr && stats.faults_injected != 0) {
        err = "stall leaked into the error-fault ledger";
      }
      std::printf("chaos cell stack=transformer mode=stall streams=%d threads=%d "
                  "stalls=%lld detected=%lld min_silence_us=%lld %s\n",
                  streams, threads, static_cast<long long>(stats.stalls_injected),
                  static_cast<long long>(stats.stalls_detected),
                  static_cast<long long>(stats.stall_min_silence_us),
                  err != nullptr ? err : "ok");
      if (err != nullptr) {
        ++failures;
      }
    }
  }
  return failures;
}

// Mid-flight deadline cells (PR 10), against a packable (unmasked, uniform
// shape) batch held in flight by a stall. All-lapsed: every member deadlined
// and lapsed -> the batch is cancelled at a step boundary (one cancelled
// forward) and released kDeadlineExceeded without completing. Partial-lapse:
// a mixed batch must complete for the survivors' sake — lapsed members are
// marked at egress, survivors stay bitwise identical to the fault-free run.
int ChaosInflightDeadlineCells(const PlannedTransformerStack& stack, uint64_t seed) {
  Rng rng(seed);
  std::vector<ServeRequest> requests(4);
  for (ServeRequest& req : requests) {
    req.x = Tensor::Random({8, 32}, rng);
  }
  std::vector<ServeOutcome> baseline;
  {
    FaultInjectionConfig off;
    ScopedFaultInjection guard(off);
    ScopedNumThreads one_thread(1);
    ServingEngineOptions opt;
    opt.num_streams = 1;
    opt.batch_window = 1;
    ServingEngine engine(stack, opt);
    baseline = engine.ServeWithStatus(requests);
  }

  FaultInjectionConfig stall;
  stall.enabled = true;
  stall.site_enabled[static_cast<int>(FaultSite::kStall)] = true;
  stall.rate = 1.0;
  stall.seed = seed ^ 0xD1Fu;
  stall.stall_us = 400000;  // holds the batch well past the 100 ms deadlines

  int failures = 0;
  {
    for (ServeRequest& req : requests) {
      req.deadline_us = 100000;
    }
    ScopedFaultInjection fault(stall);
    ScopedNumThreads threads(1);
    ServingEngineOptions opt;
    opt.num_streams = 1;
    opt.batch_window = 4;
    opt.max_batch_tokens = 48;
    ServingEngine engine(stack, opt);
    const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(requests);
    const ServingEngineStats& stats = engine.stats();
    const char* err = nullptr;
    for (const ServeOutcome& outcome : outcomes) {
      if (outcome.status != ServeStatus::kDeadlineExceeded || !outcome.output.empty()) {
        err = "all-lapsed batch member not released kDeadlineExceeded without output";
      }
    }
    if (err == nullptr && stats.cancelled_forwards != 1) {
      err = "all-lapsed batch was not cancelled as one forward";
    }
    if (err == nullptr && stats.timed_out_inflight != static_cast<int64_t>(requests.size())) {
      err = "timed_out_inflight does not cover the whole batch";
    }
    std::printf("chaos cell stack=transformer mode=deadline_inflight_all timed_out=%lld "
                "cancelled_forwards=%lld %s\n",
                static_cast<long long>(stats.timed_out_inflight),
                static_cast<long long>(stats.cancelled_forwards), err != nullptr ? err : "ok");
    if (err != nullptr) {
      ++failures;
    }
  }
  {
    for (size_t i = 0; i < requests.size(); ++i) {
      requests[i].deadline_us = i % 2 == 0 ? 100000 : 0;
    }
    ScopedFaultInjection fault(stall);
    ScopedNumThreads threads(1);
    ServingEngineOptions opt;
    opt.num_streams = 1;
    opt.batch_window = 4;
    opt.max_batch_tokens = 48;
    ServingEngine engine(stack, opt);
    const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(requests);
    const ServingEngineStats& stats = engine.stats();
    const char* err = nullptr;
    for (size_t i = 0; err == nullptr && i < outcomes.size(); ++i) {
      if (i % 2 == 0) {
        if (outcomes[i].status != ServeStatus::kDeadlineExceeded || !outcomes[i].output.empty()) {
          err = "lapsed member not marked kDeadlineExceeded at egress";
        }
      } else if (outcomes[i].status != ServeStatus::kOk ||
                 !BitwiseEqual(outcomes[i].output, baseline[i].output)) {
        err = "surviving member diverged from fault-free baseline";
      }
    }
    if (err == nullptr && stats.cancelled_forwards != 0) {
      err = "mixed batch was cancelled in flight";
    }
    std::printf("chaos cell stack=transformer mode=deadline_inflight_partial timed_out=%lld "
                "cancelled_forwards=%lld %s\n",
                static_cast<long long>(stats.timed_out_inflight),
                static_cast<long long>(stats.cancelled_forwards), err != nullptr ? err : "ok");
    if (err != nullptr) {
      ++failures;
    }
  }
  return failures;
}

int RunChaos(uint64_t seed) {
  Rng rng(seed);
  Rng build_rng(seed ^ 0x5DEECE66DULL);
  const PlannedTransformerStack transformer(/*layers=*/2, /*hidden=*/32, /*heads=*/4,
                                            /*ffn_hidden=*/96, build_rng);
  const PlannedFfnStack ffn(/*layers=*/3, /*hidden=*/16, /*ffn_hidden=*/64, build_rng);
  const ChaosTraffic transformer_traffic = BuildChaosTraffic(32, /*transformer=*/true, seed + 1);
  const ChaosTraffic ffn_traffic = BuildChaosTraffic(16, /*transformer=*/false, seed + 2);

  int64_t fired_by_site[kNumFaultSites] = {};
  int failures = 0;
  // The required matrix, dense: every site x streams {1,4} x threads {1,4,7},
  // on both stack families.
  failures += ChaosMatrix("transformer", transformer, transformer_traffic, /*use_pit=*/false,
                          {1, 4, 7}, rng, fired_by_site);
  failures += ChaosMatrix("ffn", ffn, ffn_traffic, /*use_pit=*/false, {1, 4, 7}, rng,
                          fired_by_site);
  // PIT slice: kernel selection sees the packed tile, so the reference is
  // batched single-stream replay at identical composition (ChaosBaseline).
  failures += ChaosMatrix("ffn_pit", ffn, ffn_traffic, /*use_pit=*/true, {4}, rng, fired_by_site);
  failures += ChaosOverloadCell(transformer, transformer_traffic, rng);
  // PR 10 liveness cells: watchdog-supervised stalls at every cell, and
  // mid-flight deadline enforcement on all-lapsed vs mixed batches.
  failures += ChaosStallMatrix(transformer, transformer_traffic, rng, fired_by_site);
  failures += ChaosInflightDeadlineCells(transformer, seed + 3);
  for (int site = 0; site < kNumFaultSites; ++site) {
    if (fired_by_site[site] == 0) {
      std::printf("chaos site=%s never fired across its cells (tap unwired?)\n",
                  FaultSiteName(static_cast<FaultSite>(site)));
      ++failures;
    }
  }
  std::printf("chaos=%s\n", failures == 0 ? "ok" : "fail");
  return failures == 0 ? 0 : 1;
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
  } else if (cmd == "chaos") {
    return RunChaos(argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 137ULL);
  } else {
    std::printf("usage:\n  pitctl devices\n  pitctl tiledb [fp16]\n  pitctl kernels [fp16]\n"
                "  pitctl rules \"C[m,n] += A[m,k] * B[k,n]\" [operand]\n"
                "  pitctl plan <m> <k> <n> <gm> <gn> <sparsity>\n  pitctl isa\n"
                "  pitctl verify\n  pitctl chaos [seed]\n");
    return cmd.empty() ? 1 : (cmd == "help" ? 0 : 1);
  }
  return 0;
}

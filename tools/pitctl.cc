// pitctl — command-line inspector for the PIT library.
//
//   pitctl devices                     device specs + machine balance
//   pitctl tiledb [fp16]               profiled tile database
//   pitctl kernels [fp16]              kernel-space statistics (§4)
//   pitctl rules "<einsum>" [operand]  generic PIT rules for an expression
//   pitctl plan <m> <k> <n> <gm> <gn> <sparsity>
//                                      run Algorithm 1 and print the plan
//   pitctl isa                         detected/selected CPU ISA tier
#include <cstdio>
#include <cstdlib>
#include <string>

#include "pit/common/backend.h"
#include "pit/core/kernel_selection.h"
#include "pit/core/kernel_space.h"
#include "pit/expr/op_registry.h"
#include "pit/gpusim/device.h"
#include "pit/sparse/coverage.h"

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
  } else {
    std::printf("usage:\n  pitctl devices\n  pitctl tiledb [fp16]\n  pitctl kernels [fp16]\n"
                "  pitctl rules \"C[m,n] += A[m,k] * B[k,n]\" [operand]\n"
                "  pitctl plan <m> <k> <n> <gm> <gn> <sparsity>\n  pitctl isa\n");
    return cmd.empty() ? 1 : (cmd == "help" ? 0 : 1);
  }
  return 0;
}

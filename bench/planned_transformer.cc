// Planned-transformer benchmark: steady-state latency of fully planned
// encoder blocks (layernorm + per-head batched attention + masked softmax +
// FFN compiled into one ExecutionPlan per shape) vs. the eager per-op
// composition, arena-planner memory savings, and heap allocations per
// forward — swept over PIT_NUM_THREADS in {1, 4, 8}.
//
// Emits BENCH_pr3.json (per-case latencies at every swept thread count) and
// exits nonzero if a hard acceptance criterion fails: the planned forward
// must be bitwise identical to the eager path, peak arena bytes must undercut
// the eager sum of attention+FFN temporaries, and the dense planned path must
// run with zero heap allocations per steady-state forward (single worker).
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "pit/common/parallel_for.h"
#include "pit/graph/execution_plan.h"
#include "pit/nn/modules.h"
#include "pit/runtime/models.h"
#include "pit/tensor/ops.h"

namespace {
std::atomic<int64_t> g_alloc_count{0};
}  // namespace

// Global counting allocator: every heap allocation in this binary bumps the
// counter, which is how allocs-per-forward is measured exactly.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace pit;

namespace {

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// Allocations of one planned dense forward in steady state, measured with a
// single worker (multi-worker dispatch pays a few std::function wraps; the
// kernels and the arena themselves allocate nothing either way). The output
// staging tensor is preallocated: this is the PlannedTransformerStack seam.
int64_t AllocsPerForward(const TransformerEncoderLayer& layer, const Tensor& x,
                         const Tensor* mask, Tensor* out) {
  ScopedNumThreads one(1);
  layer.ForwardInto(x, mask, nullptr, out);  // warm plan + kernel scratch
  constexpr int kReps = 10;
  const int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < kReps; ++i) {
    layer.ForwardInto(x, mask, nullptr, out);
  }
  const int64_t after = g_alloc_count.load(std::memory_order_relaxed);
  return (after - before) / kReps;
}

Tensor MakeMask(int64_t tokens, double sparsity, Rng& rng) {
  Tensor mask = Tensor::RandomSparse({tokens, tokens}, sparsity, rng);
  for (int64_t i = 0; i < mask.size(); ++i) {
    mask[i] = mask[i] != 0.0f ? 1.0f : 0.0f;
  }
  return mask;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_pr3.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      out_path = argv[i + 1];
    }
  }

  bench::PrintHeader(
      "Planned transformer blocks — whole-block plans vs. eager composition",
      "wall-clock microseconds, best of N; threads = " + std::to_string(NumThreads()));

  bool ok = true;
  bench::JsonReport report("planned_transformer");
  bench::Table table({"case", "eager(ms)", "planned(ms)", "speedup", "arena/KiB",
                      "temps/KiB", "allocs/fwd"});

  constexpr int64_t kTokens = 128;
  constexpr int64_t kHidden = 256;
  constexpr int64_t kHeads = 8;
  constexpr int64_t kFfn = 1024;

  {  // Single encoder block, unmasked and causally masked.
    Rng wr(1);
    TransformerEncoderLayer layer(kHidden, kHeads, kFfn, wr);
    Rng xr(2);
    Tensor x = Tensor::Random({kTokens, kHidden}, xr);
    Tensor mask = MakeMask(kTokens, 0.5, xr);
    Tensor staged(Shape{kTokens, kHidden});

    struct Case {
      const char* name;
      const Tensor* mask;
    } cases[] = {{"encoder_layer_128x256", nullptr}, {"encoder_layer_masked_128x256", &mask}};
    for (const Case& c : cases) {
      Tensor eager = layer.ForwardEager(x, c.mask);
      Tensor planned = layer.Forward(x, c.mask);
      if (!BitwiseEqual(planned, eager)) {
        std::fprintf(stderr, "FAIL %s: planned forward is not bitwise equal to eager\n", c.name);
        ok = false;
      }
      const double eager_us = bench::TimeUs([&] { layer.ForwardEager(x, c.mask); }, 5);
      const double planned_us =
          bench::TimeUs([&] { layer.ForwardInto(x, c.mask, nullptr, &staged); }, 5);
      const int64_t allocs = AllocsPerForward(layer, x, c.mask, &staged);
      const PlanStats stats = layer.PlanStatsFor(kTokens, c.mask != nullptr);
      const double speedup = planned_us > 0.0 ? eager_us / planned_us : 0.0;
      table.Row({c.name, bench::FmtMs(eager_us), bench::FmtMs(planned_us),
                 bench::Fmt(speedup, "%.2fx"), bench::Fmt(stats.arena_bytes / 1024.0, "%.0f"),
                 bench::Fmt(stats.sum_temporary_bytes / 1024.0, "%.0f"),
                 bench::Fmt(static_cast<double>(allocs), "%.0f")});
      bench::JsonFields fields{
          {"eager_us", eager_us},
          {"planned_us", planned_us},
          {"speedup", speedup},
          {"arena_bytes", static_cast<double>(stats.arena_bytes)},
          {"sum_temporary_bytes", static_cast<double>(stats.sum_temporary_bytes)},
          {"allocs_per_forward", static_cast<double>(allocs)},
          {"num_steps", static_cast<double>(stats.num_steps)},
          {"num_inplace", static_cast<double>(stats.num_inplace)},
          {"num_fused", static_cast<double>(stats.num_fused)},
          {"bitwise_equal_eager", BitwiseEqual(planned, eager) ? 1.0 : 0.0},
          {"threads", static_cast<double>(NumThreads())}};
      // Thread sweep (the PR 3 numbers recorded threads: 1 only): planned
      // latency at 1/4/8 workers.
      bench::SweepPlannedThreads(&fields,
                                 [&] { layer.ForwardInto(x, c.mask, nullptr, &staged); });
      report.Add(c.name, fields);
      if (stats.arena_bytes >= stats.sum_temporary_bytes) {
        std::fprintf(stderr, "FAIL %s: arena %lld B >= sum of temporaries %lld B\n", c.name,
                     static_cast<long long>(stats.arena_bytes),
                     static_cast<long long>(stats.sum_temporary_bytes));
        ok = false;
      }
      if (allocs != 0) {
        std::fprintf(stderr, "FAIL %s: %lld heap allocations per steady-state forward (want 0)\n",
                     c.name, static_cast<long long>(allocs));
        ok = false;
      }
    }
  }

  {  // Full encoder stack (the serving trunk), dense and PIT variants.
    Rng wr(3);
    PlannedTransformerStack stack(2, kHidden, kHeads, kFfn, wr);
    Rng xr(4);
    Tensor x = Tensor::Random({kTokens, kHidden}, xr);
    Tensor eager = stack.ForwardEager(x);
    Tensor planned = stack.Forward(x);  // warm plans
    if (!BitwiseEqual(planned, eager)) {
      std::fprintf(stderr, "FAIL transformer_stack: planned != eager (bitwise)\n");
      ok = false;
    }
    const double eager_us = bench::TimeUs([&] { stack.ForwardEager(x); }, 5);
    const double planned_us = bench::TimeUs([&] { stack.Forward(x); }, 5);
    PitCompiler compiler(V100());
    stack.ForwardPit(x, compiler);
    const double pit_us = bench::TimeUs([&] { stack.ForwardPit(x, compiler); }, 5);
    const PlanStats stats = stack.StatsFor(kTokens);
    const double speedup = planned_us > 0.0 ? eager_us / planned_us : 0.0;
    table.Row({"transformer_stack_2x128x256", bench::FmtMs(eager_us), bench::FmtMs(planned_us),
               bench::Fmt(speedup, "%.2fx"), bench::Fmt(stats.arena_bytes / 1024.0, "%.0f"),
               bench::Fmt(stats.sum_temporary_bytes / 1024.0, "%.0f"), "-"});
    bench::JsonFields fields{
        {"eager_us", eager_us},
        {"planned_us", planned_us},
        {"speedup", speedup},
        {"pit_planned_us", pit_us},
        {"arena_bytes", static_cast<double>(stats.arena_bytes)},
        {"sum_temporary_bytes", static_cast<double>(stats.sum_temporary_bytes)},
        {"num_pit_steps", static_cast<double>(stats.num_pit_steps)},
        {"num_inplace", static_cast<double>(stats.num_inplace)},
        {"num_fused", static_cast<double>(stats.num_fused)},
        {"bitwise_equal_eager", BitwiseEqual(planned, eager) ? 1.0 : 0.0},
        {"threads", static_cast<double>(NumThreads())}};
    Tensor staged(Shape{kTokens, kHidden});
    bench::SweepPlannedThreads(&fields,
                               [&] { stack.ForwardInto(x, nullptr, nullptr, &staged); });
    report.Add("transformer_stack_2x128x256", fields);
    if (stats.arena_bytes >= stats.sum_temporary_bytes) {
      std::fprintf(stderr, "FAIL transformer_stack: arena >= sum of temporaries\n");
      ok = false;
    }
  }

  {  // Arena one pooled serving context set pins per packed bucket, for the
     // serving benchmark's stack shape (2 layers, hidden 128, 4 heads).
    bench::PrintHeader("Per-bucket stack arenas", "bytes one stream's contexts pin per bucket");
    bench::Table arenas({"bucket", "masked KiB", "unmasked KiB", "steps/layer"});
    Rng wr(5);
    PlannedTransformerStack stack(2, 128, 4, 512, wr);
    for (const int64_t bucket : {64, 128, 256, 512}) {
      const PlanStats masked = stack.StatsFor(bucket, true);
      const PlanStats unmasked = stack.StatsFor(bucket, false);
      arenas.Row({std::to_string(bucket), bench::Fmt(masked.arena_bytes / 1024.0, "%.0f"),
                  bench::Fmt(unmasked.arena_bytes / 1024.0, "%.0f"),
                  std::to_string(masked.num_steps / stack.layers())});
      report.Add("stack_arena_2x" + std::to_string(bucket) + "x128",
                 {{"masked_arena_bytes", static_cast<double>(masked.arena_bytes)},
                  {"unmasked_arena_bytes", static_cast<double>(unmasked.arena_bytes)},
                  {"num_steps", static_cast<double>(masked.num_steps)}});
    }
  }

  if (!report.WriteFile(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  if (!ok) {
    std::fprintf(stderr, "\nplanned-transformer acceptance checks FAILED\n");
    return 1;
  }
  std::printf("planned-transformer acceptance checks passed\n");
  return 0;
}

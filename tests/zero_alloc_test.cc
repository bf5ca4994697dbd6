// The zero-allocation replay contract: once a context (or stream) is warmed,
// replaying a dense plan through it performs no heap allocation. RunWith and
// the layers' ForwardWith are the seams serving replays, so the contract is
// checked there, at one worker (a multi-worker fan-out pays a few
// std::function wraps; the kernels and the arena allocate nothing either
// way). A counting global operator new makes the measurement exact.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <string>

#include "pit/common/parallel_for.h"
#include "pit/graph/execution_plan.h"
#include "pit/graph/graph.h"
#include "pit/nn/modules.h"
#include "pit/runtime/models.h"

namespace {
std::atomic<int64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
}  // namespace

// Every replaceable non-aligned form is replaced, so each allocation through
// them is counted and every pointer they return is freed with free().
void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return CountedAlloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace pit {
namespace {

// Heap allocations per call of `forward` after one warm-up call, at one
// worker.
int64_t AllocsPerCall(const std::function<void()>& forward) {
  ScopedNumThreads one(1);
  forward();
  constexpr int kReps = 5;
  const int64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < kReps; ++i) {
    forward();
  }
  return (g_allocs.load(std::memory_order_relaxed) - before) / kReps;
}

Tensor BinaryMask(int64_t tokens, double sparsity, Rng& rng) {
  Tensor mask = Tensor::RandomSparse({tokens, tokens}, sparsity, rng);
  for (int64_t i = 0; i < mask.size(); ++i) {
    mask[i] = mask[i] != 0.0f ? 1.0f : 0.0f;
  }
  return mask;
}

TEST(ZeroAllocTest, CountingAllocatorSeesHeapAllocations) {
  const int64_t before = g_allocs.load(std::memory_order_relaxed);
  void* probe = ::operator new(16);  // a direct call: never elided
  const int64_t after = g_allocs.load(std::memory_order_relaxed);
  ::operator delete(probe);
  EXPECT_EQ(after - before, 1);
}

TEST(ZeroAllocTest, RunWithOverWarmedContext) {
  Rng rng(1);
  // OPT-style FFN block (the paper's activation-sparsity shape).
  Graph ffn = BuildFfnGraph(256, 256, 1024, rng);
  Rng xr(2);
  const Tensor x = Tensor::Random({256, 256}, xr);
  // Masked-attention core: mask -> softmax -> matmul(V).
  Graph attention;
  const int scores = attention.AddInput("scores", {256, 256});
  const int mask = attention.AddInput("mask", {256, 256}, 0.85);
  const int v = attention.AddWeight("v", Tensor::Random({256, 64}, rng));
  attention.AddMatmul("ctx",
                      attention.AddSoftmax("probs", attention.AddMask("masked", scores, mask)), v);
  attention.PropagateSparsity();
  const Tensor score_values = Tensor::Random({256, 256}, xr);
  const Tensor mask_values = BinaryMask(256, 0.85, xr);

  struct Case {
    const char* name;
    const Graph* graph;
    std::map<std::string, const Tensor*> feeds;
  } cases[] = {
      {"ffn_256x256x1024", &ffn, {{"x", &x}}},
      {"attention_mask_softmax_256",
       &attention,
       {{"scores", &score_values}, {"mask", &mask_values}}},
  };
  for (const Case& c : cases) {
    std::shared_ptr<ExecutionPlan> plan = c.graph->PlanShared();
    ExecutionContext ctx(*plan);
    EXPECT_EQ(AllocsPerCall([&] { plan->RunWith(ctx, c.feeds); }), 0) << c.name;
  }
}

TEST(ZeroAllocTest, EncoderLayerForwardWith) {
  constexpr int64_t kTokens = 128, kHidden = 256;
  Rng wr(3);
  TransformerEncoderLayer layer(kHidden, 8, 1024, wr);
  Rng xr(4);
  const Tensor x = Tensor::Random({kTokens, kHidden}, xr);
  const Tensor mask = BinaryMask(kTokens, 0.5, xr);
  Tensor out({kTokens, kHidden});
  for (const Tensor* m : {static_cast<const Tensor*>(nullptr), &mask}) {
    TransformerEncoderLayer::Stream stream = layer.MakeStream(kTokens, m != nullptr);
    EXPECT_EQ(AllocsPerCall([&] { layer.ForwardWith(stream, x, m, nullptr, &out); }), 0)
        << (m != nullptr ? "masked" : "unmasked");
  }
}

TEST(ZeroAllocTest, StacksForwardWithAtCapacityAndBelowIt) {
  constexpr int64_t kCapacity = 128, kRows = 100, kHidden = 256;
  Rng xr(5);
  const Tensor x = Tensor::Random({kCapacity, kHidden}, xr);
  Tensor out({kCapacity, kHidden});

  Rng wr(6);
  PlannedTransformerStack xf(2, kHidden, 8, 1024, wr);
  PlannedTransformerStack::Stream xf_stream = xf.MakeStream(kCapacity, /*masked=*/false);
  PlannedFfnStack ffn(4, kHidden, 1024, wr);
  PlannedFfnStack::Stream ffn_stream = ffn.MakeStream(kCapacity);
  // rows 0 replays the whole capacity; kRows binds a shorter packed batch.
  for (const int64_t rows : {int64_t{0}, kRows}) {
    EXPECT_EQ(AllocsPerCall([&] { xf.ForwardWith(xf_stream, x, nullptr, nullptr, &out, rows); }),
              0)
        << "transformer stack, rows " << rows;
    EXPECT_EQ(AllocsPerCall([&] { ffn.ForwardWith(ffn_stream, x, nullptr, &out, rows); }), 0)
        << "FFN stack, rows " << rows;
  }
}

}  // namespace
}  // namespace pit

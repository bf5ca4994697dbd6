#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "pit/common/backend.h"
#include "pit/common/cancellation.h"
#include "pit/common/parallel_for.h"
#include "pit/common/rng.h"

namespace pit {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextBelow(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, BernoulliFrequencyTracksP) {
  Rng rng(13);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(17);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kTrials = 50000;
  for (int i = 0; i < kTrials; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kTrials;
  const double var = sum2 / kTrials - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, FloatRangeRespected) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.NextFloat(2.0f, 5.0f);
    EXPECT_GE(v, 2.0f);
    EXPECT_LT(v, 5.0f);
  }
}

TEST(RngTest, NextFloatNeverReturnsHi) {
  // fma(u, 3, 2) rounds up to exactly 5 for u close enough to 1; seed 1
  // draws such a u at draw 395951.
  Rng rng(1);
  for (int i = 0; i < 400000; ++i) {
    const float v = rng.NextFloat(2.0f, 5.0f);
    ASSERT_GE(v, 2.0f) << "draw " << i;
    ASSERT_LT(v, 5.0f) << "draw " << i;
  }
}

TEST(RngTest, NextFloatIsOneRoundedFma) {
  // The draw is fma(u, hi - lo, lo) rounded once, whether or not the build
  // may contract lo + u * (hi - lo) itself: seeded weights and inputs are the
  // same bits in native and portable builds.
  const float bounds[][2] = {{-0.01f, 0.01f}, {0.0f, 1.0f}, {-1.0f, 1.0f}, {2.0f, 5.0f}};
  for (const auto& b : bounds) {
    Rng rng(29);
    Rng twin(29);
    for (int i = 0; i < 10000; ++i) {
      const float want = std::fma(static_cast<float>(twin.NextDouble()), b[1] - b[0], b[0]);
      const float got = rng.NextFloat(b[0], b[1]);
      ASSERT_EQ(std::bit_cast<uint32_t>(got), std::bit_cast<uint32_t>(want))
          << "draw " << i << " in [" << b[0] << ", " << b[1] << ")";
    }
  }
}

// ---- Environment-variable parsing: misconfiguration must fail loudly, never
// silently fall back to a default the operator did not ask for. ----

TEST(EnvParsingTest, NumThreadsAcceptsPositiveIntegers) {
  EXPECT_EQ(ParseNumThreadsEnv("1"), 1);
  EXPECT_EQ(ParseNumThreadsEnv("4"), 4);
  EXPECT_EQ(ParseNumThreadsEnv("7"), 7);
  EXPECT_EQ(ParseNumThreadsEnv("128"), 128);
  EXPECT_EQ(ParseNumThreadsEnv("65536"), 65536);
}

TEST(EnvParsingTest, NumThreadsRejectsNonNumeric) {
  EXPECT_DEATH(ParseNumThreadsEnv("abc"), "PIT_NUM_THREADS");
  EXPECT_DEATH(ParseNumThreadsEnv("4x"), "PIT_NUM_THREADS");
  EXPECT_DEATH(ParseNumThreadsEnv("3.5"), "PIT_NUM_THREADS");
  EXPECT_DEATH(ParseNumThreadsEnv(""), "PIT_NUM_THREADS");
  EXPECT_DEATH(ParseNumThreadsEnv(" 4"), "PIT_NUM_THREADS");
}

TEST(EnvParsingTest, NumThreadsRejectsZeroAndNegative) {
  EXPECT_DEATH(ParseNumThreadsEnv("0"), "PIT_NUM_THREADS");
  EXPECT_DEATH(ParseNumThreadsEnv("-1"), "PIT_NUM_THREADS");
  EXPECT_DEATH(ParseNumThreadsEnv("-128"), "PIT_NUM_THREADS");
  EXPECT_DEATH(ParseNumThreadsEnv("65537"), "PIT_NUM_THREADS");
  EXPECT_DEATH(ParseNumThreadsEnv("99999999999999999999"), "PIT_NUM_THREADS");
}

TEST(EnvParsingTest, IsaAcceptsKnownNames) {
  EXPECT_EQ(ParseIsaEnv("scalar"), IsaTier::kScalar);
  EXPECT_EQ(ParseIsaEnv("auto"), DetectedIsa());
  if (DetectedIsa() != IsaTier::kScalar) {
    // "avx2" pins the AVX2 tier wherever CPUID grants it (an avx512 machine
    // can still pin down to avx2; see the rejection test for the converse).
    EXPECT_EQ(ParseIsaEnv("avx2"), IsaTier::kAvx2);
  }
}

TEST(EnvParsingTest, IsaRejectsUnknownAndUnsupportedNames) {
  EXPECT_DEATH(ParseIsaEnv("AVX2"), "PIT_ISA");
  EXPECT_DEATH(ParseIsaEnv("avx512"), "PIT_ISA");  // not a requestable tier
  EXPECT_DEATH(ParseIsaEnv("sse"), "PIT_ISA");
  EXPECT_DEATH(ParseIsaEnv(""), "PIT_ISA");
  EXPECT_DEATH(ParseIsaEnv("avx2 "), "PIT_ISA");
  if (DetectedIsa() == IsaTier::kScalar) {
    // Requesting a SIMD tier the CPU lacks must abort, not silently fall back.
    EXPECT_DEATH(ParseIsaEnv("avx2"), "PIT_ISA");
  }
}

TEST(IsaTierTest, ScopedIsaRestoresAndNeverExceedsDetection) {
  const IsaTier before = ActiveIsa();
  {
    ScopedIsa tier(IsaTier::kScalar);
    EXPECT_EQ(ActiveIsa(), IsaTier::kScalar);
    EXPECT_FALSE(UseSimd());
  }
  EXPECT_EQ(ActiveIsa(), before);
  EXPECT_LE(static_cast<int>(ActiveIsa()), static_cast<int>(DetectedIsa()));
}

// ---- Task-capable thread pool (the serving engine's stream substrate) -------

// The deadlock regression this PR's pool rework is guarded by: tasks
// dispatched on the pool call ParallelFor themselves (nested submission from
// worker threads). The ctest-level 120 s timeout turns a deadlock into a
// loud failure rather than a hung job; correctness of the partial sums
// checks that every nested chunk actually ran.
TEST(ParallelTasksTest, NestedParallelForFromWorkerDoesNotDeadlock) {
  ScopedNumThreads threads(4);
  constexpr int64_t kTasks = 16;
  constexpr int64_t kInner = 10000;
  std::vector<int64_t> sums(kTasks, 0);
  for (int round = 0; round < 8; ++round) {
    std::fill(sums.begin(), sums.end(), 0);
    ParallelTasks(kTasks, /*nested_width=*/2, [&](int64_t task) {
      // Nested data-parallel loop from inside a pool task: per-chunk partial
      // sums merged in chunk order (the determinism contract).
      const int chunks = ParallelChunkCount(kInner, 1);
      std::vector<int64_t> partial(static_cast<size_t>(chunks), 0);
      ParallelForChunks(kInner, chunks, [&](int chunk, int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          partial[static_cast<size_t>(chunk)] += i;
        }
      });
      int64_t total = 0;
      for (int64_t p : partial) {
        total += p;
      }
      sums[task] = total;
    });
    for (int64_t task = 0; task < kTasks; ++task) {
      ASSERT_EQ(sums[task], kInner * (kInner - 1) / 2) << "task " << task;
    }
  }
}

// Spins (yielding) until `done` holds; false after a 60 s deadline, so a
// broken pool fails the test instead of hanging it.
template <typename Pred>
bool SpinUntil(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

// The elastic width rule, observed exactly: with every task claimed and live
// the budget is the base width; each sibling that returns hands its share
// back, so the last task left may fan out to the whole pool.
TEST(ParallelTasksTest, WidthBudgetBoundsNestedChunkCount) {
  ScopedNumThreads threads(8);
  // Outside any parallel region the chunk count is bounded by NumThreads.
  EXPECT_EQ(ParallelChunkCount(1000, 1), 8);
  EXPECT_EQ(ParallelWidthBudget(), 0);
  constexpr int kTasks = 4;
  constexpr int kBase = 2;  // NumThreads() / tasks, as the serving engine grants
  std::atomic<int> started{0};
  std::atomic<int> checked{0};
  std::atomic<int> released{0};  // task t may return once released >= kTasks - t
  ParallelTasks(kTasks, kBase, [&](int64_t task) {
    EXPECT_TRUE(ParallelRegionActive());
    // Start barrier: threads >= tasks, so every task is claimed and live.
    started.fetch_add(1);
    ASSERT_TRUE(SpinUntil([&] { return started.load() == kTasks; }));
    EXPECT_EQ(ParallelWidthBudget(), kBase);
    EXPECT_EQ(ParallelChunkCount(1000, 1), kBase);
    checked.fetch_add(1);
    if (task != 0) {
      ASSERT_TRUE(SpinUntil([&] { return released.load() >= kTasks - task; }));
      return;
    }
    // Once every task has checked the base width, task 0 releases its
    // siblings one at a time (task 3 first) and watches its own budget widen
    // to ceil(NumThreads() / live) as each returns.
    ASSERT_TRUE(SpinUntil([&] { return checked.load() == kTasks; }));
    int width = kBase;
    for (int live = kTasks - 1; live >= 1; --live) {
      released.fetch_add(1);
      const int expected = std::max(kBase, (8 + live - 1) / live);  // 3, 4, 8
      ASSERT_TRUE(SpinUntil([&] { return ParallelWidthBudget() != width; }))
          << "budget stuck at " << width << " with " << live << " tasks live";
      width = ParallelWidthBudget();
      EXPECT_EQ(width, expected) << live << " tasks live";
      EXPECT_EQ(ParallelChunkCount(1000, 1), expected);
    }
    EXPECT_EQ(width, NumThreads());
  });
  // The budget never exceeds the pool, however large the base width.
  {
    ScopedNumThreads four(4);
    ParallelTasks(2, /*nested_width=*/16, [&](int64_t) {
      EXPECT_EQ(ParallelWidthBudget(), 4);
      EXPECT_EQ(ParallelChunkCount(1000, 1), 4);
    });
  }
  // Plain nested ParallelFor (no budget) still runs inline: a chunk's nested
  // loop sees a single-chunk (serial) plan.
  ParallelFor(8, 1, [&](int64_t, int64_t) {
    EXPECT_EQ(ParallelWidthBudget(), 0);
    EXPECT_EQ(ParallelChunkCount(1000, 1), 1);
  });
}

// Set while Body() runs on this thread, like a kernel's live thread_local
// scratch (SegmentAttentionInto's buffers, SoftmaxInto's spans).
thread_local bool tls_in_body = false;

constexpr int64_t kBodyIters = 2048;
// More Body chunks than the pool has threads, so some stay unclaimed while
// every thread that may take one holds its own.
constexpr int kBodyChunks = 64;

// The handshake of one WaiterNeverReentersLiveChunk round. Every hold ends
// at `deadline` at the latest, so a round ends whatever the pool does.
struct Choreography {
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(3);
  std::atomic<bool> split_started{false};  // a fan-out's second chunk runs elsewhere
  std::atomic<int> reentries{0};
  std::atomic<int64_t> sum{0};
  std::atomic<int64_t> bodies{0};

  template <typename Pred>
  void HoldUntil(Pred done) const {
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }
  void Hold() const {
    HoldUntil([&] { return reentries.load() > 0; });
  }
};

// A kernel-shaped body: takes thread_local state, fans out (inline inside a
// chunk, to the task's width budget on a task thread), and releases it. In a
// fan-out the submitter's own first chunk ends once the second has started
// on another thread, which then holds it, so the submitter waits. A waiter
// that ran another Body chunk meanwhile would re-enter Body and find the
// flag set.
void Body(Choreography& c) {
  if (tls_in_body) {
    c.reentries.fetch_add(1);
  }
  tls_in_body = true;
  ParallelFor(kBodyIters, kBodyIters / 2, [&](int64_t lo, int64_t hi) {
    if (lo > 0) {
      c.split_started.store(true);
      c.Hold();
    } else if (hi < kBodyIters) {
      c.HoldUntil([&] { return c.split_started.load(); });
    }
    int64_t local = 0;
    for (int64_t i = lo; i < hi; ++i) {
      local += i;
    }
    c.sum.fetch_add(local);
  });
  tls_in_body = false;
  c.bodies.fetch_add(1);
}

// Task 0 runs Body inline on its task thread and waits on the fan-out chunk
// another thread holds. Meanwhile task 1 runs a loop of Body chunks, more
// than there are threads, each held until the round's deadline: every
// thread that may take one holds one, and the rest stay unclaimed while
// task 0's thread waits. No waiter may pick one up while its own Body is live (the
// client thread, once its task is done, may).
TEST(ParallelTasksTest, WaiterNeverReentersLiveChunk) {
  ScopedNumThreads threads(3);
  for (int round = 0; round < 16; ++round) {
    Choreography c;
    ParallelTasks(2, /*nested_width=*/2, [&](int64_t task) {
      if (task == 0) {
        Body(c);  // inline on the task thread: fans out
        return;
      }
      c.HoldUntil([&] { return c.split_started.load(); });
      ParallelForChunks(kBodyChunks, kBodyChunks, [&](int, int64_t lo, int64_t hi) {
        for (int64_t b = lo; b < hi; ++b) {
          Body(c);  // inside a chunk: runs inline
          c.Hold();
        }
      });
    });
    ASSERT_EQ(c.reentries.load(), 0) << "round " << round;
    ASSERT_EQ(c.sum.load(), c.bodies.load() * (kBodyIters * (kBodyIters - 1) / 2))
        << "round " << round;
    EXPECT_EQ(c.bodies.load(), 1 + kBodyChunks);
    EXPECT_FALSE(tls_in_body);
  }
}

TEST(ParallelTasksTest, SingleThreadRunsTasksInline) {
  ScopedNumThreads threads(1);
  std::vector<int> order;
  ParallelTasks(5, 4, [&](int64_t task) { order.push_back(static_cast<int>(task)); });
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);  // inline fallback is in order
  }
}

}  // namespace
}  // namespace pit

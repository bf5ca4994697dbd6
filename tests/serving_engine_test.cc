// Differential suite for the multi-stream serving engine: per-request outputs
// must be bitwise identical to single-stream replay (and to the stacks' eager
// oracles) for any (streams x thread count) combination, across
// mixed request shapes, masked and unmasked, over each stream's one reused
// capacity stack stream. The
// suite runs under TSan in CI: concurrent streams over shared immutable plans
// must be provably race-free, not just stable on one machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "pit/common/backend.h"
#include "pit/common/fault_injection.h"
#include "pit/common/parallel_for.h"
#include "pit/common/rng.h"
#include "pit/runtime/models.h"
#include "pit/runtime/serving_engine.h"
#include "pit/tensor/ops.h"

namespace pit {
namespace {

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(std::memcmp(a.data(), b.data(), static_cast<size_t>(a.size()) * sizeof(float)), 0)
      << "max abs diff " << MaxAbsDiff(a, b);
}

Tensor MakeMask(int64_t tokens, Rng& rng) {
  Tensor mask = Tensor::RandomSparse({tokens, tokens}, 0.4, rng);
  for (int64_t i = 0; i < mask.size(); ++i) {
    mask[i] = mask[i] != 0.0f ? 1.0f : 0.0f;
  }
  return mask;
}

// What one serving stream pins at `capacity`: its stack stream's one arena,
// which every layer replays in, so the largest layer plan's arena.
int64_t StreamArenaBytes(const PlannedTransformerStack& stack, int64_t capacity,
                         bool pit = false) {
  int64_t largest = 0;
  for (const auto& layer : stack.MakeStream(capacity, /*masked=*/false, pit).layers) {
    largest = std::max(largest, layer.plan->stats().arena_bytes);
  }
  return largest;
}

int64_t StreamArenaBytes(const PlannedFfnStack& stack, int64_t capacity, bool pit = false) {
  int64_t largest = 0;
  for (const auto& plan : stack.MakeStream(capacity, pit).plans) {
    largest = std::max(largest, plan->stats().arena_bytes);
  }
  return largest;
}

// A request mix over several token counts, some masked. Masks are keyed by
// token count and owned here (requests reference them).
struct RequestMix {
  std::vector<ServeRequest> requests;
  std::vector<Tensor> masks;  // one per distinct token count, index parallel to token_counts
  std::vector<int64_t> token_counts;
};

RequestMix BuildMix(int64_t hidden, const std::vector<int64_t>& token_counts, int per_shape,
                    uint64_t seed) {
  RequestMix mix;
  mix.token_counts = token_counts;
  Rng rng(seed);
  for (int64_t tokens : token_counts) {
    mix.masks.push_back(MakeMask(tokens, rng));
  }
  // Interleave shapes and mask usage so consecutive requests rarely share a
  // pooled context (the pool-reuse path still gets hit via repeats).
  for (int r = 0; r < per_shape; ++r) {
    for (size_t t = 0; t < token_counts.size(); ++t) {
      ServeRequest req;
      req.x = Tensor::Random({token_counts[t], hidden}, rng);
      if ((r + static_cast<int>(t)) % 2 == 1) {
        req.attn_mask = &mix.masks[t];
      }
      mix.requests.push_back(std::move(req));
    }
  }
  return mix;
}

TEST(ServingEngineTest, MatchesEagerAcrossStreamsAndThreads) {
  // Masked requests replay as one attention segment carrying their mask on
  // the same unmasked capacity plans as the unmasked ones.
  Rng wr(1);
  PlannedTransformerStack stack(2, 32, 4, 96, wr);
  RequestMix mix = BuildMix(32, {8, 12, 16}, 4, 2);

  // Oracle: the eager per-op composition, one request at a time.
  std::vector<Tensor> expected;
  for (const ServeRequest& req : mix.requests) {
    expected.push_back(stack.ForwardEager(req.x, req.attn_mask));
  }

  for (int threads : {1, 4}) {
    for (int streams : {1, 2, 4}) {
      ScopedNumThreads thread_guard(threads);
      ServingEngineOptions options;
      options.num_streams = streams;
      ServingEngine engine(stack, options);
      std::vector<Tensor> outputs = engine.Serve(mix.requests);
      ASSERT_EQ(outputs.size(), expected.size());
      for (size_t i = 0; i < outputs.size(); ++i) {
        ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outputs[i], expected[i]))
            << "request " << i << " (streams=" << streams << ", threads=" << threads << ")";
      }
    }
  }
}

TEST(ServingEngineTest, RandomizedRequestMixFuzzMatchesSingleStream) {
  // Fuzzed request streams (random token counts, random mask usage, random
  // order) served at several stream counts must reproduce the 1-stream
  // engine's outputs bitwise — the request-to-stream assignment must be
  // invisible in the results.
  Rng wr(3);
  PlannedTransformerStack stack(2, 16, 2, 48, wr);
  Rng fuzz(4);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<int64_t> counts;
    std::vector<Tensor> masks;
    for (int c = 0; c < 3; ++c) {
      counts.push_back(4 + static_cast<int64_t>(fuzz.NextBelow(12)));
      masks.push_back(MakeMask(counts.back(), fuzz));
    }
    std::vector<ServeRequest> requests;
    const int n = 6 + static_cast<int>(fuzz.NextBelow(10));
    for (int i = 0; i < n; ++i) {
      const size_t pick = fuzz.NextBelow(counts.size());
      ServeRequest req;
      req.x = Tensor::Random({counts[pick], 16}, fuzz);
      if (fuzz.NextBool(0.5)) {
        req.attn_mask = &masks[pick];
      }
      requests.push_back(std::move(req));
    }

    ScopedNumThreads threads(4);
    ServingEngineOptions single;
    single.num_streams = 1;
    ServingEngine baseline(stack, single);
    std::vector<Tensor> expected = baseline.Serve(requests);

    for (int streams : {2, 3}) {
      ServingEngineOptions options;
      options.num_streams = streams;
      ServingEngine engine(stack, options);
      std::vector<Tensor> outputs = engine.Serve(requests);
      ASSERT_EQ(outputs.size(), expected.size());
      for (size_t i = 0; i < outputs.size(); ++i) {
        ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outputs[i], expected[i]))
            << "fuzz trial " << trial << " request " << i << " streams " << streams;
      }
    }
  }
}

int64_t TotalPlanMisses(const ServingEngineStats& stats) {
  int64_t misses = 0;
  for (const ServingBucketStats& b : stats.buckets) {
    misses += b.plan_misses;
  }
  return misses;
}

// Streams that served at least one request, and therefore built their stack
// stream (greedy claiming may leave a stream idle on a small request mix).
int64_t ActiveStreams(const ServingEngineStats& stats) {
  int64_t active = 0;
  for (int64_t r : stats.per_stream_requests) {
    active += r > 0 ? 1 : 0;
  }
  return active;
}

// Every serving stream holds exactly one stack stream, compiled at the
// capacity (the batch token budget on the power-of-two grid) and built on
// first use: the pool is one context per layer per active stream, all of a
// stream's contexts in one arena of the largest capacity layer plan's size,
// and a second Serve builds nothing.
TEST(ServingEngineTest, OneCapacityStreamPerServingStream) {
  Rng wr(5);
  PlannedTransformerStack stack(2, 16, 2, 48, wr);
  RequestMix mix = BuildMix(16, {8, 12}, 3, 6);
  const int64_t stream_bytes = StreamArenaBytes(stack, 512);

  ScopedNumThreads threads(2);
  for (int streams : {1, 2}) {
    SCOPED_TRACE(streams);
    ServingEngineOptions options;
    options.num_streams = streams;
    ServingEngine engine(stack, options);
    engine.Serve(mix.requests);
    const ServingEngineStats first = engine.stats();
    EXPECT_EQ(first.requests, static_cast<int64_t>(mix.requests.size()));
    EXPECT_EQ(first.num_streams, streams);
    EXPECT_GT(first.requests_per_sec, 0.0);
    EXPECT_GE(first.p99_latency_us, first.p50_latency_us);
    EXPECT_LE(first.p99_latency_us, first.wall_us);
    int64_t assigned = 0;
    for (int64_t r : first.per_stream_requests) {
      assigned += r;
    }
    EXPECT_EQ(assigned, first.requests);
    const int64_t active = ActiveStreams(first);
    EXPECT_GE(active, 1);
    EXPECT_EQ(TotalPlanMisses(first), active);
    EXPECT_EQ(first.pool_contexts, active * stack.layers());
    EXPECT_EQ(first.pool_arena_bytes, active * stream_bytes);
    EXPECT_EQ(first.pool_arena_bytes_highwater, first.pool_arena_bytes);
    EXPECT_EQ(first.pool_contexts_highwater, first.pool_contexts);

    // A second Serve replays the built streams; a stream meets its first
    // request here at most once (claiming is timing-dependent), so misses
    // still equal the active stream count.
    engine.Serve(mix.requests);
    const ServingEngineStats second = engine.stats();
    EXPECT_EQ(second.requests, 2 * first.requests);
    EXPECT_EQ(TotalPlanMisses(second), ActiveStreams(second));
    EXPECT_EQ(second.pool_contexts, ActiveStreams(second) * stack.layers());
    EXPECT_EQ(second.pool_arena_bytes, ActiveStreams(second) * stream_bytes);
    if (streams == 1) {
      EXPECT_EQ(TotalPlanMisses(second), TotalPlanMisses(first));  // zero new misses
    }
  }
}

// A stack stream replays every layer in one arena, so the pool pins active
// streams x the largest capacity layer arena: for both stacks, dense and PIT,
// at three capacities. Dense outputs stay bitwise the eager oracle, and PIT
// outputs match the 1-stream engine's.
TEST(ServingEngineTest, PoolArenaIsOneSharedArenaPerStream) {
  Rng wr(17);
  PlannedTransformerStack xf(2, 16, 2, 48, wr);
  PlannedFfnStack ffn(3, 16, 64, wr);
  Rng rr(18);
  std::vector<ServeRequest> requests;
  for (int64_t tokens : {5, 12, 20, 40, 9, 33, 17, 3, 26, 8}) {
    ServeRequest req;
    req.x = Tensor::Random({tokens, 16}, rr);
    requests.push_back(std::move(req));
  }
  std::vector<Tensor> xf_eager;
  std::vector<Tensor> ffn_eager;
  for (const ServeRequest& req : requests) {
    xf_eager.push_back(xf.ForwardEager(req.x));
    ffn_eager.push_back(ffn.ForwardEager(req.x));
  }
  ScopedNumThreads threads(4);
  for (const int64_t capacity : {64, 128, 512}) {
    for (const bool pit : {false, true}) {
      std::vector<Tensor> xf_single;
      std::vector<Tensor> ffn_single;
      for (const int streams : {1, 4}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity) + (pit ? " pit" : " dense") + " " +
                     std::to_string(streams) + " streams");
        ServingEngineOptions options;
        options.use_pit = pit;
        options.num_streams = streams;
        options.batch_window = 2;
        options.max_batch_tokens = capacity;
        const auto check = [&](ServingEngine& engine, int64_t layers, int64_t stream_bytes,
                               const std::vector<Tensor>& eager, std::vector<Tensor>* single) {
          const std::vector<Tensor> outputs = engine.Serve(requests);
          const ServingEngineStats& stats = engine.stats();
          EXPECT_EQ(stats.pool_contexts, ActiveStreams(stats) * layers);
          EXPECT_EQ(stats.pool_arena_bytes, ActiveStreams(stats) * stream_bytes);
          EXPECT_EQ(stats.pool_arena_bytes_highwater, stats.pool_arena_bytes);
          if (single->empty()) {
            *single = outputs;
          }
          for (size_t i = 0; i < outputs.size(); ++i) {
            ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outputs[i], pit ? (*single)[i] : eager[i]))
                << "request " << i;
          }
        };
        ServingEngine xf_engine(xf, options);
        check(xf_engine, xf.layers(), StreamArenaBytes(xf, capacity, pit), xf_eager, &xf_single);
        ServingEngine ffn_engine(ffn, options);
        check(ffn_engine, ffn.layers(), StreamArenaBytes(ffn, capacity, pit), ffn_eager,
              &ffn_single);
      }
    }
  }
}

// 1:1 serving over more distinct lengths than any shape-keyed pool would
// hold: each replays the stream's one capacity plan set at its exact length,
// so each stream builds once, and every output is bitwise the eager oracle.
TEST(ServingEngineTest, OneToOneOverManyLengthsBuildsOncePerStream) {
  Rng wr(13);
  PlannedTransformerStack stack(2, 16, 2, 48, wr);
  Rng rr(14);
  std::vector<Tensor> masks;
  masks.reserve(40);
  std::vector<ServeRequest> requests;
  for (int64_t tokens = 3; tokens < 43; ++tokens) {
    ServeRequest req;
    req.x = Tensor::Random({tokens, 16}, rr);
    if (tokens % 3 == 0) {
      masks.push_back(MakeMask(tokens, rr));
      req.attn_mask = &masks.back();
    }
    requests.push_back(std::move(req));
  }
  std::vector<Tensor> expected;
  for (const ServeRequest& req : requests) {
    expected.push_back(stack.ForwardEager(req.x, req.attn_mask));
  }
  ScopedNumThreads threads(4);
  for (int streams : {1, 3}) {
    SCOPED_TRACE(streams);
    ServingEngineOptions options;
    options.num_streams = streams;
    ServingEngine engine(stack, options);
    std::vector<Tensor> outputs = engine.Serve(requests);
    for (size_t i = 0; i < outputs.size(); ++i) {
      ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outputs[i], expected[i])) << "request " << i;
    }
    const ServingEngineStats& stats = engine.stats();
    EXPECT_EQ(stats.buckets.size(), requests.size());  // one replay row count per length
    EXPECT_EQ(TotalPlanMisses(stats), ActiveStreams(stats));
    EXPECT_EQ(stats.pool_contexts, ActiveStreams(stats) * stack.layers());
  }
}

// A 1:1 request longer than the capacity grows the stream, to the next power
// of two. Spans are claimed largest first, so the longest request builds the
// stream once and every shorter one replays it; a later call with a longer
// request grows it once more.
TEST(ServingEngineTest, LongRequestGrowsTheStreamOnce) {
  Rng wr(15);
  PlannedTransformerStack stack(2, 16, 2, 48, wr);
  Rng rr(16);
  std::vector<ServeRequest> requests;
  for (int64_t tokens : {8, 20, 48, 50, 5, 64}) {
    ServeRequest req;
    req.x = Tensor::Random({tokens, 16}, rr);
    requests.push_back(std::move(req));
  }
  ServingEngineOptions options;
  options.num_streams = 1;
  options.max_batch_tokens = 32;  // capacity 32
  ServingEngine engine(stack, options);
  std::vector<Tensor> outputs = engine.Serve(requests);
  for (size_t i = 0; i < outputs.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outputs[i], stack.ForwardEager(requests[i].x)))
        << "request " << i;
  }
  const ServingEngineStats& stats = engine.stats();
  ASSERT_EQ(stats.buckets.size(), requests.size());
  EXPECT_EQ(TotalPlanMisses(stats), 1);  // built once, by the 64-token request
  for (const ServingBucketStats& b : stats.buckets) {
    if (b.bucket == 64) {
      EXPECT_EQ(b.plan_misses, 1);  // 64: claimed first, past capacity 32
      EXPECT_EQ(b.plan_hits, 0);
    } else {
      EXPECT_EQ(b.plan_misses, 0) << "bucket " << b.bucket;
      EXPECT_EQ(b.plan_hits, 1) << "bucket " << b.bucket;
    }
  }
  EXPECT_EQ(stats.pool_contexts, stack.layers());
  EXPECT_EQ(stats.pool_arena_bytes, StreamArenaBytes(stack, 64));
  EXPECT_EQ(stats.pool_arena_bytes_highwater, stats.pool_arena_bytes);

  // Growth across calls: a 100-token request grows the stream to 128 once.
  std::vector<ServeRequest> longer;
  for (int64_t tokens : {12, 100}) {
    ServeRequest req;
    req.x = Tensor::Random({tokens, 16}, rr);
    longer.push_back(std::move(req));
  }
  outputs = engine.Serve(longer);
  for (size_t i = 0; i < outputs.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outputs[i], stack.ForwardEager(longer[i].x)))
        << "request " << i;
  }
  const ServingEngineStats& grown = engine.stats();
  EXPECT_EQ(TotalPlanMisses(grown), 2);
  for (const ServingBucketStats& b : grown.buckets) {
    EXPECT_EQ(b.plan_misses, b.bucket == 64 || b.bucket == 100 ? 1 : 0) << "bucket " << b.bucket;
  }
  EXPECT_EQ(grown.pool_contexts, stack.layers());
  EXPECT_EQ(grown.pool_arena_bytes, StreamArenaBytes(stack, 128));
  EXPECT_GE(grown.pool_arena_bytes_highwater, grown.pool_arena_bytes);
}

TEST(ServingEngineTest, FfnStackServingMatchesEager) {
  Rng wr(7);
  PlannedFfnStack stack(3, 16, 64, wr);
  Rng rr(8);
  std::vector<ServeRequest> requests;
  for (int i = 0; i < 10; ++i) {
    ServeRequest req;
    req.x = Tensor::Random({8 + 4 * (i % 3), 16}, rr);
    requests.push_back(std::move(req));
  }
  ScopedNumThreads threads(4);
  ServingEngineOptions options;
  options.num_streams = 3;
  ServingEngine engine(stack, options);
  std::vector<Tensor> outputs = engine.Serve(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outputs[i], stack.ForwardEager(requests[i].x)))
        << "request " << i;
  }
}

TEST(ServingEngineTest, PitServingMatchesSingleStreamPit) {
  // All streams share the engine's one compiler, resampling off: a key's
  // kernel is the one its first input selected, whichever stream that was.
  // At this sparsity the outputs must still be independent of the
  // request-to-stream assignment.
  Rng wr(9);
  PlannedFfnStack stack(2, 16, 64, wr);
  Rng rr(10);
  std::vector<ServeRequest> requests;
  for (int i = 0; i < 8; ++i) {
    ServeRequest req;
    req.x = Tensor::Random({12, 16}, rr);
    requests.push_back(std::move(req));
  }
  ScopedNumThreads threads(4);
  ServingEngineOptions pit;
  pit.use_pit = true;
  pit.num_streams = 1;
  ServingEngine baseline(stack, pit);
  std::vector<Tensor> expected = baseline.Serve(requests);

  pit.num_streams = 3;
  ServingEngine engine(stack, pit);
  std::vector<Tensor> outputs = engine.Serve(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outputs[i], expected[i])) << "request " << i;
  }
}

TEST(ServingEngineTest, PitEngineSelectsEachKeyOncePerDeployment) {
  // One compiler for the whole engine: 1, 2 and 4 streams over one stack run
  // Algorithm 1 exactly once per distinct (row bucket, k, n, sparsity bucket)
  // key — as many selections as a serial compiler makes over the same
  // forwards — a repeated Serve selects nothing, and every stream count
  // returns the same bits.
  Rng wr(12);
  PlannedFfnStack stack(2, 16, 64, wr);
  Rng rr(13);
  std::vector<ServeRequest> requests;
  for (int64_t tokens : {5, 12, 20, 40, 70, 9, 33, 64, 17, 100, 3, 50}) {
    ServeRequest req;
    req.x = Tensor::Random({tokens, 16}, rr);
    requests.push_back(std::move(req));
  }
  PitCompiler serial(V100());
  for (const ServeRequest& req : requests) {
    stack.ForwardPit(req.x, serial);
  }
  const int64_t distinct_keys = serial.kernels_compiled();
  ASSERT_GE(distinct_keys, 4);  // at least one key per row bucket: 16, 32, 64, 128

  ScopedNumThreads threads(4);
  for (int window : {1, 4}) {
    std::vector<Tensor> expected;
    int64_t selections = -1;
    for (int streams : {1, 2, 4}) {
      ServingEngineOptions options;
      options.use_pit = true;
      options.num_streams = streams;
      options.batch_window = window;
      ServingEngine engine(stack, options);
      EXPECT_EQ(engine.kernel_selections(), 0);
      const std::vector<Tensor> outputs = engine.Serve(requests);
      if (window == 1) {
        EXPECT_EQ(engine.kernel_selections(), distinct_keys) << streams << " streams";
      }
      if (selections < 0) {
        selections = engine.kernel_selections();
        expected = outputs;
      }
      EXPECT_EQ(engine.kernel_selections(), selections)
          << streams << " streams, window " << window;
      const std::vector<Tensor> again = engine.Serve(requests);
      EXPECT_EQ(engine.kernel_selections(), selections)
          << "repeat, " << streams << " streams, window " << window;
      for (size_t i = 0; i < requests.size(); ++i) {
        ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outputs[i], expected[i]))
            << "request " << i << ", " << streams << " streams, window " << window;
        ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(again[i], expected[i]))
            << "repeat, request " << i << ", " << streams << " streams, window " << window;
      }
    }
  }
}

// ServingEngineOptions is the engine's only configuration: every field takes
// its explicit value, and its zero value selects the documented default.
TEST(ServingEngineTest, OptionsTakeExplicitValueElseDefault) {
  Rng wr(11);
  PlannedFfnStack stack(1, 8, 16, wr);
  {
    ServingEngineOptions options;
    options.num_streams = 5;
    options.batch_window = 3;
    options.max_batch_tokens = 128;
    options.deadline_us = 777;
    options.queue_capacity = 9;
    options.watchdog_us = 54321;
    options.watchdog_mode = WatchdogMode::kAbort;
    ServingEngine engine(stack, options);
    EXPECT_EQ(engine.num_streams(), 5);
    EXPECT_EQ(engine.batch_window(), 3);
    EXPECT_EQ(engine.max_batch_tokens(), 128);
    EXPECT_EQ(engine.deadline_us(), 777);
    EXPECT_EQ(engine.queue_capacity(), 9);
    EXPECT_EQ(engine.watchdog_us(), 54321);
    EXPECT_EQ(engine.watchdog_mode(), WatchdogMode::kAbort);
  }
  {
    ScopedNumThreads threads(3);
    ServingEngine engine(stack, {});
    EXPECT_EQ(engine.num_streams(), 3);          // the worker count
    EXPECT_EQ(engine.batch_window(), 1);         // batching off
    EXPECT_EQ(engine.max_batch_tokens(), 512);
    EXPECT_EQ(engine.deadline_us(), 0);          // no default deadline
    EXPECT_EQ(engine.queue_capacity(), 0);       // unbounded
    EXPECT_EQ(engine.watchdog_us(), 0);          // no watchdog
    EXPECT_EQ(engine.watchdog_mode(), WatchdogMode::kReport);
  }
}

// ---- Continuous ragged batching --------------------------------------------
//
// Batched serving packs mixed-length requests into bucket-padded dense tiles
// behind a block-diagonal mask. The contract under test: per-request outputs
// are bitwise identical to the unbatched engine and the eager oracle at any
// (streams x threads x window x token budget) combination.

TEST(RaggedBatchingTest, MatchesEagerAndUnbatchedAcrossCombinations) {
  Rng wr(21);
  PlannedTransformerStack stack(2, 32, 4, 96, wr);
  RequestMix mix = BuildMix(32, {5, 9, 16}, 4, 22);

  std::vector<Tensor> expected;
  for (const ServeRequest& req : mix.requests) {
    expected.push_back(stack.ForwardEager(req.x, req.attn_mask));
  }

  for (int threads : {1, 4}) {
    for (int streams : {1, 2, 4}) {
      ScopedNumThreads thread_guard(threads);
      ServingEngineOptions options;
      options.num_streams = streams;
      options.batch_window = 4;
      options.max_batch_tokens = 48;
      ServingEngine engine(stack, options);
      std::vector<Tensor> outputs = engine.Serve(mix.requests);
      ASSERT_EQ(outputs.size(), expected.size());
      for (size_t i = 0; i < outputs.size(); ++i) {
        ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outputs[i], expected[i]))
            << "request " << i << " (streams=" << streams << ", threads=" << threads << ")";
      }
      // Requests were actually coalesced, not served 1:1, with no padding.
      EXPECT_LT(engine.stats().batches, engine.stats().requests);
      EXPECT_EQ(engine.stats().packed_utilization, 1.0);
    }
  }
}

TEST(RaggedBatchingTest, RandomizedMixedLengthFuzzMatchesOneToOne) {
  // Fuzzed lengths, masks, and admission knobs: the batched engine must
  // reproduce the unbatched single-stream engine bitwise for every request —
  // batch composition and per-request attention segments are invisible in
  // the results.
  Rng wr(23);
  PlannedTransformerStack stack(2, 16, 2, 48, wr);
  Rng fuzz(24);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<Tensor> masks;
    std::vector<ServeRequest> requests;
    const int n = 8 + static_cast<int>(fuzz.NextBelow(10));
    for (int i = 0; i < n; ++i) {
      const int64_t tokens = 3 + static_cast<int64_t>(fuzz.NextBelow(14));
      ServeRequest req;
      req.x = Tensor::Random({tokens, 16}, fuzz);
      if (fuzz.NextBool(0.5)) {
        masks.push_back(MakeMask(tokens, fuzz));
      }
      requests.push_back(std::move(req));
    }
    // Wire masks after the vectors stop reallocating.
    size_t mask_idx = 0;
    for (ServeRequest& req : requests) {
      if (mask_idx < masks.size() && masks[mask_idx].dim(0) == req.x.dim(0)) {
        req.attn_mask = &masks[mask_idx];
        ++mask_idx;
      }
    }

    ScopedNumThreads threads(4);
    ServingEngineOptions unbatched;
    unbatched.num_streams = 1;
    unbatched.batch_window = 1;
    ServingEngine baseline(stack, unbatched);
    std::vector<Tensor> expected = baseline.Serve(requests);

    for (int window : {2, 5}) {
      for (int max_tokens : {24, 64}) {
        for (int streams : {1, 3}) {
          ServingEngineOptions options;
          options.num_streams = streams;
          options.batch_window = window;
          options.max_batch_tokens = max_tokens;
          ServingEngine engine(stack, options);
          std::vector<Tensor> outputs = engine.Serve(requests);
          ASSERT_EQ(outputs.size(), expected.size());
          for (size_t i = 0; i < outputs.size(); ++i) {
            ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outputs[i], expected[i]))
                << "fuzz trial " << trial << " request " << i << " window " << window
                << " max_tokens " << max_tokens << " streams " << streams;
          }
        }
      }
    }
  }
}

TEST(RaggedBatchingTest, FfnStackBatchingMatchesEager) {
  Rng wr(25);
  PlannedFfnStack stack(3, 16, 64, wr);
  Rng rr(26);
  std::vector<ServeRequest> requests;
  for (int i = 0; i < 12; ++i) {
    ServeRequest req;
    req.x = Tensor::Random({3 + 5 * (i % 4), 16}, rr);
    requests.push_back(std::move(req));
  }
  ScopedNumThreads threads(4);
  ServingEngineOptions options;
  options.num_streams = 2;
  options.batch_window = 4;
  options.max_batch_tokens = 40;
  ServingEngine engine(stack, options);
  std::vector<Tensor> outputs = engine.Serve(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outputs[i], stack.ForwardEager(requests[i].x)))
        << "request " << i;
  }
  EXPECT_LT(engine.stats().batches, engine.stats().requests);
}

TEST(RaggedBatchingTest, PitBatchedServingMatchesSingleStreamBatched) {
  // PIT kernel selection sees the packed tile's sparsity, so batched PIT is
  // not bitwise against 1:1 PIT — the contract is stream-assignment
  // invariance at fixed batching knobs.
  Rng wr(27);
  PlannedFfnStack stack(2, 16, 64, wr);
  Rng rr(28);
  std::vector<ServeRequest> requests;
  for (int i = 0; i < 10; ++i) {
    ServeRequest req;
    req.x = Tensor::Random({4 + 3 * (i % 3), 16}, rr);
    requests.push_back(std::move(req));
  }
  ScopedNumThreads threads(4);
  ServingEngineOptions pit;
  pit.use_pit = true;
  pit.batch_window = 3;
  pit.max_batch_tokens = 32;
  pit.num_streams = 1;
  ServingEngine baseline(stack, pit);
  std::vector<Tensor> expected = baseline.Serve(requests);

  pit.num_streams = 3;
  ServingEngine engine(stack, pit);
  std::vector<Tensor> outputs = engine.Serve(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outputs[i], expected[i])) << "request " << i;
  }
  // PIT batches replay at their exact sums too: no padding rows.
  EXPECT_EQ(engine.stats().packed_utilization, 1.0);
}

TEST(RaggedBatchingTest, StatsReportReplayRowCountsAndOneBuild) {
  Rng wr(29);
  PlannedTransformerStack stack(2, 16, 2, 48, wr);
  RequestMix mix = BuildMix(16, {5, 9, 13}, 4, 30);

  // Single stream: claims (and therefore the batch -> stream mapping) are
  // deterministic, so the second-pass pure-hit assertions below cannot be
  // perturbed by which stream serves a batch.
  ScopedNumThreads threads(2);
  ServingEngineOptions options;
  options.num_streams = 1;
  options.batch_window = 4;
  options.max_batch_tokens = 40;
  ServingEngine engine(stack, options);
  engine.Serve(mix.requests);
  const ServingEngineStats& stats = engine.stats();

  EXPECT_EQ(stats.batch_window, 4);
  EXPECT_EQ(stats.max_batch_tokens, 40);
  EXPECT_GT(stats.batches, 0);
  EXPECT_LT(stats.batches, stats.requests);
  // Every batch replays at exactly its summed tokens: no padding rows.
  EXPECT_EQ(stats.packed_utilization, 1.0);
  ASSERT_FALSE(stats.buckets.empty());
  int64_t bucket_requests = 0;
  int64_t prev_bucket = 0;
  for (const ServingBucketStats& b : stats.buckets) {
    EXPECT_GT(b.bucket, prev_bucket);  // ascending, distinct
    prev_bucket = b.bucket;
    EXPECT_GE(b.requests, b.batches);
    EXPECT_GE(b.packed_tokens, b.batches);  // at least one real row per batch
    EXPECT_EQ(b.computed_tokens, b.batches * b.bucket);
    EXPECT_EQ(b.computed_tokens, b.packed_tokens) << "bucket " << b.bucket;
    EXPECT_EQ(b.plan_hits + b.plan_misses, b.batches);
    EXPECT_GE(b.p99_latency_us, b.p50_latency_us);
    bucket_requests += b.requests;
  }
  EXPECT_EQ(bucket_requests, stats.requests);
  // One stack stream, built once at capacity 64 (the 40-token budget on the
  // power-of-two grid), whatever row counts the batches replay at.
  EXPECT_EQ(TotalPlanMisses(stats), 1);
  EXPECT_EQ(stats.pool_contexts, stack.layers());
  EXPECT_EQ(stats.pool_arena_bytes, StreamArenaBytes(stack, 64));

  // A second pass over the same mix composes the same batches: pure hits.
  engine.Serve(mix.requests);
  const ServingEngineStats& again = engine.stats();
  EXPECT_EQ(TotalPlanMisses(again), 1);
  EXPECT_EQ(again.pool_contexts, stack.layers());
  int64_t hits = 0;
  for (const ServingBucketStats& b : again.buckets) {
    hits += b.plan_hits;
  }
  EXPECT_EQ(hits, again.batches - 1);
}

// Spans are claimed largest first but formed by one fixed rule: window-aligned
// strides of the admitted queue, each split greedily under the token cap. So
// per-bucket composition is one hand-computable function of the length list,
// the same at any (streams x threads), and only the claim order changes.
TEST(RaggedBatchingTest, LongestSpanFirstKeepsComposition) {
  Rng wr(31);
  PlannedTransformerStack stack(2, 16, 2, 48, wr);
  Rng rr(32);
  // Window 4, cap 32. Strides and their greedy splits:
  //   [5 9 40 12] -> {5 9}=14, {40}, {12}
  //   [7 70 3 20] -> {7}, {70}, {3 20}=23
  //   [16 16 6 10] -> {16 16}=32, {6 10}=16
  //   [9 7 30 2]  -> {9 7}=16, {30 2}=32
  //   [11]        -> {11}
  const std::vector<int64_t> lengths = {5, 9, 40, 12, 7, 70, 3, 20, 16,
                                        16, 6, 10, 9, 7, 30, 2, 11};
  std::vector<Tensor> masks;
  masks.reserve(lengths.size());
  std::vector<ServeRequest> requests;
  for (size_t i = 0; i < lengths.size(); ++i) {
    ServeRequest req;
    req.x = Tensor::Random({lengths[i], 16}, rr);
    if (i % 3 == 1) {
      masks.push_back(MakeMask(lengths[i], rr));
      req.attn_mask = &masks.back();
    }
    requests.push_back(std::move(req));
  }
  std::vector<Tensor> expected;
  for (const ServeRequest& req : requests) {
    expected.push_back(stack.ForwardEager(req.x, req.attn_mask));
  }
  // {bucket, batches, requests, packed_tokens}, ascending by bucket.
  const std::vector<std::vector<int64_t>> composition = {
      {7, 1, 1, 7},    {11, 1, 1, 11}, {12, 1, 1, 12}, {14, 1, 2, 14}, {16, 2, 4, 32},
      {23, 1, 2, 23},  {32, 2, 4, 64}, {40, 1, 1, 40}, {70, 1, 1, 70}};

  for (int threads : {1, 4}) {
    for (int streams : {1, 2, 4}) {
      SCOPED_TRACE("streams=" + std::to_string(streams) + " threads=" + std::to_string(threads));
      ScopedNumThreads thread_guard(threads);
      ServingEngineOptions options;
      options.num_streams = streams;
      options.batch_window = 4;
      options.max_batch_tokens = 32;
      ServingEngine engine(stack, options);
      std::vector<Tensor> outputs = engine.Serve(requests);
      ASSERT_EQ(outputs.size(), expected.size());
      for (size_t i = 0; i < outputs.size(); ++i) {
        ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outputs[i], expected[i])) << "request " << i;
      }
      const ServingEngineStats& stats = engine.stats();
      ASSERT_EQ(stats.buckets.size(), composition.size());
      for (size_t b = 0; b < composition.size(); ++b) {
        const ServingBucketStats& got = stats.buckets[b];
        EXPECT_EQ(got.bucket, composition[b][0]);
        EXPECT_EQ(got.batches, composition[b][1]) << "bucket " << got.bucket;
        EXPECT_EQ(got.requests, composition[b][2]) << "bucket " << got.bucket;
        EXPECT_EQ(got.packed_tokens, composition[b][3]) << "bucket " << got.bucket;
      }
      if (streams == 1) {
        // Capacity 32 grows to 64 for the 40-row span and to 128 for the
        // 70-row one. One build in total holds only if the 70-row span is
        // claimed first; arrival order would build three times.
        EXPECT_EQ(TotalPlanMisses(stats), 1);
        EXPECT_EQ(stats.buckets.back().plan_misses, 1);
        EXPECT_EQ(stats.pool_arena_bytes, StreamArenaBytes(stack, 128));
      }
    }
  }
}

// One span several times longer than the rest, and fewer spans than twice
// the streams: the streams run out of spans while the long forward is in
// flight, so the pool's elastic width widens it mid-forward. The kernels are
// chunk-count deterministic, so the bits must not move: dense and masked
// outputs match the 1-stream engine and the eager oracle, and PIT keeps its
// stream-invariance contract. Hidden 128 / FFN 512 keep the long span's
// GEMMs above the pool's per-chunk grain, so they really fan out.
TEST(RaggedBatchingTest, UnevenSpansWidenTheTailBitwise) {
  Rng wr(33);
  PlannedTransformerStack stack(2, 128, 4, 512, wr);
  PlannedFfnStack ffn(2, 128, 512, wr);
  Rng rr(34);
  // Window 2, cap 256: spans {160 24}=184, {9 14}=23, {7 16}=23.
  const std::vector<int64_t> lengths = {160, 24, 9, 14, 7, 16};
  std::vector<Tensor> masks;
  masks.reserve(lengths.size());
  std::vector<ServeRequest> requests;
  for (size_t i = 0; i < lengths.size(); ++i) {
    ServeRequest req;
    req.x = Tensor::Random({lengths[i], 128}, rr);
    if (i % 3 == 0) {
      masks.push_back(MakeMask(lengths[i], rr));
      req.attn_mask = &masks.back();
    }
    requests.push_back(std::move(req));
  }
  std::vector<ServeRequest> unmasked = requests;
  for (ServeRequest& req : unmasked) {
    req.attn_mask = nullptr;
  }
  std::vector<Tensor> expected;
  for (const ServeRequest& req : requests) {
    expected.push_back(stack.ForwardEager(req.x, req.attn_mask));
  }
  ServingEngineOptions options;
  options.batch_window = 2;
  options.max_batch_tokens = 256;
  ServingEngineOptions pit = options;
  pit.use_pit = true;
  std::vector<Tensor> single;
  std::vector<Tensor> pit_single;
  {
    ScopedNumThreads threads(4);
    options.num_streams = 1;
    ServingEngine engine(stack, options);
    single = engine.Serve(requests);
    pit.num_streams = 1;
    ServingEngine pit_engine(ffn, pit);
    pit_single = pit_engine.Serve(unmasked);
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(single[i], expected[i])) << "request " << i;
  }
  for (int threads : {4, 7}) {
    for (int streams : {2, 4}) {
      SCOPED_TRACE("streams=" + std::to_string(streams) + " threads=" + std::to_string(threads));
      ScopedNumThreads thread_guard(threads);
      options.num_streams = streams;
      ServingEngine engine(stack, options);
      const std::vector<Tensor> outputs = engine.Serve(requests);
      ASSERT_EQ(outputs.size(), expected.size());
      for (size_t i = 0; i < outputs.size(); ++i) {
        ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outputs[i], expected[i])) << "request " << i;
        ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outputs[i], single[i])) << "request " << i;
      }
      EXPECT_EQ(engine.stats().batches, 3);
      pit.num_streams = streams;
      ServingEngine pit_engine(ffn, pit);
      const std::vector<Tensor> pit_outputs = pit_engine.Serve(unmasked);
      for (size_t i = 0; i < pit_outputs.size(); ++i) {
        ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(pit_outputs[i], pit_single[i]))
            << "PIT request " << i;
      }
    }
  }
}

// ---- fault containment (PR 9) ----------------------------------------------

// Rejecting a request must not perturb its batchmates: the queue excludes
// rejected requests before spans form, and the PR 6 contract makes the
// composition difference bitwise invisible — so a batched multi-stream run
// over valid + invalid traffic must reproduce the valid-only run's bits
// exactly, with every invalid request mapped to kInvalidArgument and an
// empty output.
TEST(FaultContainmentTest, InvalidRequestsRejectedWithoutPerturbingBatchmates) {
  Rng wr(401);
  PlannedTransformerStack stack(2, 32, 4, 96, wr);
  RequestMix mix = BuildMix(32, {5, 9, 16}, /*per_shape=*/4, /*seed=*/402);
  ServingEngineOptions options;
  options.num_streams = 3;
  options.batch_window = 3;
  options.max_batch_tokens = 64;

  ServingEngine clean_engine(stack, options);
  const std::vector<ServeOutcome> clean = clean_engine.ServeWithStatus(mix.requests);
  for (const ServeOutcome& outcome : clean) {
    ASSERT_EQ(outcome.status, ServeStatus::kOk);
  }

  // Interleave adversarial requests: NaN activations, a [tokens+1, tokens]
  // mask, a rank-3 mask, a non-finite mask, a wrong hidden dimension, a
  // negative deadline. Every one must reject at admission (satellite: mask
  // dimensions are validated up front, not deep inside a kernel).
  Rng bad_rng(403);
  std::vector<ServeRequest> traffic;
  std::vector<Tensor> bad_masks;
  bad_masks.reserve(3);
  bad_masks.push_back(MakeMask(7, bad_rng));  // vs 6 tokens: wrong dims
  bad_masks.push_back(Tensor::Random({6, 6, 1}, bad_rng));
  bad_masks.push_back(MakeMask(6, bad_rng));
  bad_masks.back()[0] = std::nanf("");
  std::vector<size_t> valid_at;
  auto push_invalid = [&](ServeRequest req) { traffic.push_back(std::move(req)); };
  for (size_t i = 0; i < mix.requests.size(); ++i) {
    if (i % 3 == 1) {
      ServeRequest bad;
      bad.x = Tensor::Random({6, 32}, bad_rng);
      switch (i % 4) {
        case 0:
        case 1:
          bad.attn_mask = &bad_masks[(i / 3) % 3];
          break;
        case 2:
          bad.x[5] = std::nanf("");
          break;
        default:
          bad.deadline_us = -1;
          break;
      }
      push_invalid(std::move(bad));
    }
    valid_at.push_back(traffic.size());
    traffic.push_back(mix.requests[i]);
  }
  {
    ServeRequest wrong_hidden;
    wrong_hidden.x = Tensor::Random({4, 16}, bad_rng);
    push_invalid(std::move(wrong_hidden));
  }
  {
    ServeRequest nan_mask;
    nan_mask.x = Tensor::Random({6, 32}, bad_rng);
    nan_mask.attn_mask = &bad_masks[2];  // well-shaped mask with a NaN entry
    push_invalid(std::move(nan_mask));
  }

  ServingEngine engine(stack, options);
  const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(traffic);
  ASSERT_EQ(outcomes.size(), traffic.size());
  size_t next_valid = 0;
  int64_t invalid = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (next_valid < valid_at.size() && valid_at[next_valid] == i) {
      ASSERT_EQ(outcomes[i].status, ServeStatus::kOk);
      ASSERT_NO_FATAL_FAILURE(
          ExpectBitwiseEqual(outcomes[i].output, clean[next_valid].output))
          << "rejected batchmates perturbed valid request " << next_valid;
      ++next_valid;
    } else {
      EXPECT_EQ(outcomes[i].status, ServeStatus::kInvalidArgument);
      EXPECT_TRUE(outcomes[i].output.empty());
      ++invalid;
    }
  }
  EXPECT_EQ(next_valid, clean.size());
  EXPECT_EQ(engine.stats().rejected_invalid, invalid);
}

// FFN stacks have no attention, so any mask is an admission error — the
// mask-rejection half of the admission-validation satellite.
TEST(FaultContainmentTest, FfnStackRejectsMaskedRequestsAtAdmission) {
  Rng wr(411);
  PlannedFfnStack stack(2, 16, 48, wr);
  Rng rng(412);
  const Tensor mask = MakeMask(6, rng);
  std::vector<ServeRequest> requests(2);
  requests[0].x = Tensor::Random({6, 16}, rng);
  requests[1].x = Tensor::Random({6, 16}, rng);
  requests[1].attn_mask = &mask;  // well-formed, but FFN stacks take none
  ServingEngine engine(stack, {});
  const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(requests);
  EXPECT_EQ(outcomes[0].status, ServeStatus::kOk);
  EXPECT_EQ(outcomes[1].status, ServeStatus::kInvalidArgument);
  EXPECT_EQ(engine.stats().rejected_invalid, 1);
}

// The bounded admission queue sheds in arrival order — deterministically, so
// callers can reason about which requests an overloaded engine drops — and
// shedding must not perturb the admitted requests' bits.
TEST(FaultContainmentTest, OverloadShedsBeyondQueueCapacityDeterministically) {
  Rng wr(421);
  PlannedTransformerStack stack(2, 32, 4, 96, wr);
  RequestMix mix = BuildMix(32, {5, 9}, /*per_shape=*/4, /*seed=*/422);
  const int64_t n = static_cast<int64_t>(mix.requests.size());
  constexpr int kQueue = 3;

  ServingEngineOptions clean_options;
  clean_options.num_streams = 2;
  clean_options.batch_window = 2;
  ServingEngine clean_engine(stack, clean_options);
  const std::vector<ServeOutcome> clean = clean_engine.ServeWithStatus(mix.requests);

  ServingEngineOptions options = clean_options;
  options.queue_capacity = kQueue;
  ServingEngine engine(stack, options);
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(mix.requests);
    for (int64_t i = 0; i < n; ++i) {
      if (i < kQueue) {
        ASSERT_EQ(outcomes[static_cast<size_t>(i)].status, ServeStatus::kOk);
        ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outcomes[static_cast<size_t>(i)].output,
                                                   clean[static_cast<size_t>(i)].output));
      } else {
        EXPECT_EQ(outcomes[static_cast<size_t>(i)].status, ServeStatus::kRejectedOverload);
        EXPECT_TRUE(outcomes[static_cast<size_t>(i)].output.empty());
      }
    }
    EXPECT_EQ(engine.stats().rejected_overload, (pass + 1) * (n - kQueue));
  }
}

// A 1 us default deadline sweeps queued requests into kDeadlineExceeded at
// claim time; a per-request budget overrides the engine default, so a caller
// who asked for a generous deadline still completes. Which queued requests
// lapse is timing-dependent, but every status must be definite and every
// surviving output bitwise identical to the clean run.
TEST(FaultContainmentTest, DeadlineSweepShedsQueuedRequests) {
  Rng wr(431);
  PlannedTransformerStack stack(2, 32, 4, 96, wr);
  RequestMix mix = BuildMix(32, {9, 16}, /*per_shape=*/4, /*seed=*/432);
  ServingEngine clean_engine(stack, {});
  const std::vector<ServeOutcome> clean = clean_engine.ServeWithStatus(mix.requests);

  // The last request carries its own day-long budget: it must survive the
  // engine's 1 us default no matter how slow the sweep is.
  mix.requests.back().deadline_us = 86400000000LL;
  ScopedNumThreads threads(1);
  ServingEngineOptions options;
  options.num_streams = 1;
  options.deadline_us = 1;
  ServingEngine engine(stack, options);
  const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(mix.requests);
  int64_t timed_out = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].status == ServeStatus::kDeadlineExceeded) {
      EXPECT_TRUE(outcomes[i].output.empty());
      ++timed_out;
    } else {
      ASSERT_EQ(outcomes[i].status, ServeStatus::kOk);
      ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outcomes[i].output, clean[i].output));
    }
  }
  EXPECT_EQ(outcomes.back().status, ServeStatus::kOk);
  EXPECT_GE(timed_out, 1);
  EXPECT_EQ(engine.stats().timed_out, timed_out);
}

// Satellite regression: an empty Serve call and a fully-rejected Serve call
// must keep every stat finite — no 0/0 packed utilization, no percentile of
// an empty latency set, no NaN requests_per_sec.
TEST(FaultContainmentTest, ZeroRequestAndFullyRejectedServesKeepStatsFinite) {
  Rng wr(441);
  PlannedFfnStack stack(2, 16, 48, wr);
  ServingEngineOptions options;
  options.batch_window = 4;
  ServingEngine engine(stack, options);

  const std::vector<ServeOutcome> none = engine.ServeWithStatus({});
  EXPECT_TRUE(none.empty());
  const ServingEngineStats& s0 = engine.stats();
  EXPECT_EQ(s0.requests, 0);
  EXPECT_EQ(s0.batches, 0);
  EXPECT_EQ(s0.mean_latency_us, 0.0);
  EXPECT_EQ(s0.p50_latency_us, 0.0);
  EXPECT_EQ(s0.p99_latency_us, 0.0);
  EXPECT_TRUE(std::isfinite(s0.requests_per_sec));
  EXPECT_TRUE(std::isfinite(s0.packed_utilization));
  EXPECT_EQ(s0.packed_utilization, 1.0);

  Rng rng(442);
  std::vector<ServeRequest> invalid(3);
  for (ServeRequest& req : invalid) {
    req.x = Tensor::Random({4, 16}, rng);
    req.x[1] = std::nanf("");
  }
  const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(invalid);
  const ServingEngineStats& s1 = engine.stats();
  for (const ServeOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.status, ServeStatus::kInvalidArgument);
  }
  EXPECT_EQ(s1.rejected_invalid, 3);
  EXPECT_EQ(s1.requests_per_sec, 0.0);
  EXPECT_EQ(s1.mean_latency_us, 0.0);
  EXPECT_EQ(s1.p50_latency_us, 0.0);
  EXPECT_EQ(s1.p99_latency_us, 0.0);
  EXPECT_TRUE(std::isfinite(s1.packed_utilization));
  for (const ServingBucketStats& bucket : s1.buckets) {
    EXPECT_EQ(bucket.p50_latency_us, 0.0);
    EXPECT_EQ(bucket.p99_latency_us, 0.0);
  }
}

// The admission scan rejects every non-finite value wherever it sits in the
// activations or the mask: first element, middle, and last (the scalar tail
// behind the vectorized body; hidden 20 and 7 tokens make both tensors odd
// lengths). Extreme but finite values are admitted.
TEST(FaultContainmentTest, AdmissionRejectsEveryNonFiniteAndAdmitsExtremeFinites) {
  Rng wr(443);
  PlannedTransformerStack stack(1, 20, 2, 40, wr);
  constexpr int64_t kTokens = 7;
  Rng rng(444);
  const Tensor clean_x = Tensor::Random({kTokens, 20}, rng);
  const Tensor clean_mask = MakeMask(kTokens, rng);
  const float non_finite[] = {std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(), std::nanf("")};
  const float finite[] = {FLT_MAX, -FLT_MAX, std::numeric_limits<float>::denorm_min(), -0.0f};
  std::vector<Tensor> masks;
  masks.reserve(2 * (std::size(non_finite) + std::size(finite)) * 3);
  std::vector<ServeRequest> requests;
  std::vector<ServeStatus> want;
  for (const bool in_mask : {false, true}) {
    const int64_t size = in_mask ? clean_mask.size() : clean_x.size();
    for (const int64_t at : {int64_t{0}, size / 2, size - 1}) {
      for (const bool bad : {true, false}) {
        for (const float value : bad ? std::span<const float>(non_finite)
                                     : std::span<const float>(finite)) {
          ServeRequest req;
          req.x = clean_x;
          masks.push_back(clean_mask);
          req.attn_mask = &masks.back();
          (in_mask ? masks.back() : req.x)[at] = value;
          requests.push_back(std::move(req));
          want.push_back(bad ? ServeStatus::kInvalidArgument : ServeStatus::kOk);
        }
      }
    }
  }
  ServingEngineOptions options;
  options.num_streams = 2;
  options.batch_window = 4;
  ServingEngine engine(stack, options);
  const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  int64_t invalid = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].status, want[i]) << "request " << i;
    invalid += want[i] == ServeStatus::kInvalidArgument ? 1 : 0;
  }
  EXPECT_EQ(engine.stats().rejected_invalid, invalid);
}

// Rate-1.0 injection at every site, served 1:1 and batched: transient faults
// (retries immune, the PIT_FAULT model) must leave every request kOk with
// bits identical to the fault-free run, and the ledger must reconcile
// exactly — every injected fault compensated by one retry or one degraded
// forward. Both windows share one ladder, whose only degraded rung is the
// transient context.
TEST(FaultContainmentTest, EverySiteTransientFaultSweepStaysBitwise) {
  Rng wr(451);
  PlannedTransformerStack stack(2, 32, 4, 96, wr);
  RequestMix mix = BuildMix(32, {5, 9, 16}, /*per_shape=*/2, /*seed=*/452);
  for (const int window : {1, 3}) {
    SCOPED_TRACE("batch_window=" + std::to_string(window));
    ServingEngineOptions options;
    options.num_streams = 4;
    options.batch_window = window;
    options.max_batch_tokens = 64;
    std::vector<ServeOutcome> clean;
    {
      ServingEngine engine(stack, options);
      clean = engine.ServeWithStatus(mix.requests);
    }
    ScopedNumThreads threads(4);
    for (int site = 0; site < kNumFaultSites; ++site) {
      SCOPED_TRACE(FaultSiteName(static_cast<FaultSite>(site)));
      FaultInjectionConfig config;
      config.enabled = true;
      config.site_enabled[site] = true;
      config.rate = 1.0;
      config.seed = 1000 + static_cast<uint64_t>(site);
      config.stall_us = 2000;  // keep the stall leg wall-clock bounded
      ScopedFaultInjection fault(config);
      ServingEngine engine(stack, options);
      const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(mix.requests);
      for (size_t i = 0; i < outcomes.size(); ++i) {
        ASSERT_EQ(outcomes[i].status, ServeStatus::kOk);
        ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outcomes[i].output, clean[i].output));
      }
      const ServingEngineStats& stats = engine.stats();
      if (static_cast<FaultSite>(site) == FaultSite::kStall) {
        // A stall is a delay, not a failure: outputs stay bitwise, the fault
        // ledger stays empty, and the sleeps are tallied on their own counter.
        EXPECT_EQ(stats.faults_injected, 0);
        EXPECT_GT(stats.stalls_injected, 0);
      } else {
        EXPECT_GT(stats.faults_injected, 0);
        EXPECT_EQ(stats.internal_failures, 0);
        EXPECT_EQ(stats.faults_injected, stats.retries + stats.degraded_forwards);
        if (static_cast<FaultSite>(site) != FaultSite::kContextAcquire) {
          EXPECT_EQ(stats.degraded_forwards, 0);
        }
      }
    }
  }
}

// Persistent faults (fail_retries: the retry rung fails too) must exhaust the
// ladder into per-request kInternal — never an abort, never a hung request —
// and the engine must serve clean bitwise traffic again once injection stops.
TEST(FaultContainmentTest, PersistentFaultsEndInInternalThenRecover) {
  Rng wr(461);
  PlannedTransformerStack stack(2, 32, 4, 96, wr);
  RequestMix mix = BuildMix(32, {5, 9}, /*per_shape=*/2, /*seed=*/462);
  for (const int window : {1, 2}) {
    SCOPED_TRACE("batch_window=" + std::to_string(window));
    ServingEngineOptions options;
    options.num_streams = 2;
    options.batch_window = window;
    std::vector<ServeOutcome> clean;
    {
      ServingEngine engine(stack, options);
      clean = engine.ServeWithStatus(mix.requests);
    }
    for (FaultSite site : {FaultSite::kPlanCompile, FaultSite::kKernelDispatch}) {
      SCOPED_TRACE(FaultSiteName(site));
      ServingEngine engine(stack, options);
      {
        ScopedFaultInjection fault(site, 1.0, /*seed=*/77, /*fail_retries=*/true);
        const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(mix.requests);
        for (const ServeOutcome& outcome : outcomes) {
          EXPECT_EQ(outcome.status, ServeStatus::kInternal);
          EXPECT_TRUE(outcome.output.empty());
        }
        const ServingEngineStats& stats = engine.stats();
        EXPECT_GT(stats.internal_failures, 0);
        EXPECT_EQ(stats.faults_injected,
                  stats.retries + stats.degraded_forwards + stats.internal_failures);
      }
      // Injection scope gone: the same engine must recover to clean bits.
      const std::vector<ServeOutcome> recovered = engine.ServeWithStatus(mix.requests);
      for (size_t i = 0; i < recovered.size(); ++i) {
        ASSERT_EQ(recovered[i].status, ServeStatus::kOk);
        ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(recovered[i].output, clean[i].output));
      }
      const ServingEngineStats& stats = engine.stats();
      EXPECT_EQ(stats.faults_injected,
                stats.retries + stats.degraded_forwards + stats.internal_failures);
    }
  }
}

// ---- Liveness: in-flight deadlines, watchdog, drain (PR 10) ----------------

// Unmasked fixed-shape requests that pack into a single span (one claim, one
// forward) so batch-level cancellation counters are deterministic.
std::vector<ServeRequest> PackableRequests(int n, int64_t tokens, int64_t hidden, uint64_t seed) {
  Rng rng(seed);
  std::vector<ServeRequest> requests(n);
  for (ServeRequest& req : requests) {
    req.x = Tensor::Random({tokens, hidden}, rng);
  }
  return requests;
}

FaultInjectionConfig StallConfig(int64_t stall_us, uint64_t seed) {
  FaultInjectionConfig config;
  config.enabled = true;
  config.site_enabled[static_cast<int>(FaultSite::kStall)] = true;
  config.rate = 1.0;
  config.seed = seed;
  config.stall_us = stall_us;
  return config;
}

// Every member of the packed batch carries a deadline and every one lapses
// while the stall holds the batch in flight: the armed token must cancel the
// forward at a step boundary (one cancelled forward, not one per member) and
// release the whole batch as kDeadlineExceeded without completing.
TEST(LivenessTest, AllLapsedInFlightBatchIsCancelledAndReleased) {
  Rng wr(471);
  PlannedTransformerStack stack(2, 32, 4, 96, wr);
  std::vector<ServeRequest> requests = PackableRequests(4, 8, 32, 472);
  for (ServeRequest& req : requests) {
    req.deadline_us = 100000;  // 100 ms, lapses under the 400 ms stall
  }
  ScopedFaultInjection fault(StallConfig(/*stall_us=*/400000, /*seed=*/473));
  ScopedNumThreads threads(1);
  ServingEngineOptions options;
  options.num_streams = 1;
  options.batch_window = 4;
  options.max_batch_tokens = 256;
  ServingEngine engine(stack, options);
  const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (const ServeOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.status, ServeStatus::kDeadlineExceeded);
    EXPECT_TRUE(outcome.output.empty());
  }
  const ServingEngineStats& stats = engine.stats();
  EXPECT_EQ(stats.timed_out_inflight, 4);
  EXPECT_EQ(stats.timed_out, 4);
  EXPECT_EQ(stats.cancelled_forwards, 1);  // one batch cancel, not four
  EXPECT_EQ(stats.stalls_injected, 1);
  EXPECT_EQ(stats.cancelled, 0);
  EXPECT_EQ(stats.faults_injected, 0);  // stalls never enter the fault ledger
}

// A mixed batch (some members deadlined, some not) must NEVER be cancelled in
// flight: the forward completes for the survivors' sake, lapsed members are
// marked at egress without output, and surviving outputs stay bitwise
// identical to the fault-free run.
TEST(LivenessTest, PartialLapseMarksLapsedAtEgressAndKeepsSurvivorsBitwise) {
  Rng wr(481);
  PlannedTransformerStack stack(2, 32, 4, 96, wr);
  std::vector<ServeRequest> requests = PackableRequests(4, 8, 32, 482);

  ServingEngine clean_engine(stack, {});
  const std::vector<ServeOutcome> clean = clean_engine.ServeWithStatus(requests);

  for (size_t i = 0; i < requests.size(); ++i) {
    if (i % 2 == 0) {
      requests[i].deadline_us = 100000;  // lapses under the 400 ms stall
    }
  }
  ScopedFaultInjection fault(StallConfig(/*stall_us=*/400000, /*seed=*/483));
  ScopedNumThreads threads(1);
  ServingEngineOptions options;
  options.num_streams = 1;
  options.batch_window = 4;
  options.max_batch_tokens = 256;
  ServingEngine engine(stack, options);
  const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(outcomes[i].status, ServeStatus::kDeadlineExceeded) << "request " << i;
      EXPECT_TRUE(outcomes[i].output.empty());
    } else {
      ASSERT_EQ(outcomes[i].status, ServeStatus::kOk) << "request " << i;
      ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outcomes[i].output, clean[i].output));
    }
  }
  const ServingEngineStats& stats = engine.stats();
  EXPECT_EQ(stats.cancelled_forwards, 0);  // the mixed batch must complete
  EXPECT_EQ(stats.timed_out_inflight, 2);
  EXPECT_EQ(stats.timed_out, 2);
}

// Watchdog in report mode: a stalled stream (silent past the threshold) must
// be detected and tallied without perturbing results — every request still
// completes kOk and bitwise identical to the clean run.
TEST(LivenessTest, WatchdogDetectsStallInReportModeWithoutPerturbingResults) {
  Rng wr(491);
  PlannedTransformerStack stack(2, 32, 4, 96, wr);
  std::vector<ServeRequest> requests = PackableRequests(4, 8, 32, 492);

  ServingEngine clean_engine(stack, {});
  const std::vector<ServeOutcome> clean = clean_engine.ServeWithStatus(requests);

  ScopedFaultInjection fault(StallConfig(/*stall_us=*/150000, /*seed=*/493));
  ServingEngineOptions options;
  options.num_streams = 2;
  options.watchdog_us = 20000;  // 20 ms threshold, well under the 150 ms stall
  options.watchdog_mode = WatchdogMode::kReport;
  ServingEngine engine(stack, options);
  EXPECT_EQ(engine.watchdog_us(), 20000);
  EXPECT_EQ(engine.watchdog_mode(), WatchdogMode::kReport);
  const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(requests);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_EQ(outcomes[i].status, ServeStatus::kOk);
    ASSERT_NO_FATAL_FAILURE(ExpectBitwiseEqual(outcomes[i].output, clean[i].output));
  }
  const ServingEngineStats& stats = engine.stats();
  EXPECT_GE(stats.stalls_detected, 1);
  EXPECT_GT(stats.stalls_injected, 0);
  EXPECT_GT(stats.stall_min_silence_us, engine.watchdog_us());
  EXPECT_GE(stats.stall_max_silence_us, stats.stall_min_silence_us);

  // Stats rendering carries the liveness counters.
  const std::string rendered = stats.ToString();
  EXPECT_NE(rendered.find("stalls"), std::string::npos);
  EXPECT_NE(rendered.find("requests"), std::string::npos);
}

// Watchdog in abort mode is a fail-fast: a detected stall must bring the
// process down with the diagnostic on stderr.
TEST(LivenessTest, WatchdogAbortModeDiesOnStall) {
  // Forks while the worker pool may be live: use the re-executing style.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng wr(501);
  PlannedTransformerStack stack(2, 32, 4, 96, wr);
  std::vector<ServeRequest> requests = PackableRequests(2, 8, 32, 502);
  EXPECT_DEATH(
      {
        ScopedFaultInjection fault(StallConfig(/*stall_us=*/400000, /*seed=*/503));
        ServingEngineOptions options;
        options.num_streams = 1;
        options.watchdog_us = 10000;
        options.watchdog_mode = WatchdogMode::kAbort;
        ServingEngine engine(stack, options);
        (void)engine.ServeWithStatus(requests);
      },
      "WATCHDOG");
}

// Destroying the engine while a Serve is in flight must cancel cooperatively
// and join cleanly: no hang, no abort, and every request left with a definite
// status (completed kOk stays bitwise-valid, the rest are kCancelled).
TEST(LivenessTest, DestructorWithInFlightWorkCancelsAndJoins) {
  Rng wr(511);
  PlannedTransformerStack stack(2, 32, 4, 96, wr);
  std::vector<ServeRequest> requests = PackableRequests(8, 8, 32, 512);
  // Serve one request per claim so the drain has claim boundaries to land on,
  // and hold each claim under a stall so the destructor races real work.
  ScopedFaultInjection fault(StallConfig(/*stall_us=*/100000, /*seed=*/513));
  ServingEngineOptions options;
  options.num_streams = 1;
  options.batch_window = 1;
  auto engine = std::make_unique<ServingEngine>(stack, options);
  // The worker holds a raw pointer so the unique_ptr object itself is not
  // read concurrently with reset(); the engine's own Drain-before-destroy
  // keeps the pointee alive until ServeWithStatus returns.
  ServingEngine* raw = engine.get();
  std::vector<ServeOutcome> outcomes;
  std::thread server([&] { outcomes = raw->ServeWithStatus(requests); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  engine.reset();  // destructor: Drain(kCancelInFlight) + watchdog shutdown
  server.join();
  ASSERT_EQ(outcomes.size(), requests.size());
  int cancelled = 0;
  for (const ServeOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.status == ServeStatus::kOk ||
                outcome.status == ServeStatus::kCancelled)
        << "status " << ServeStatusName(outcome.status);
    if (outcome.status == ServeStatus::kCancelled) {
      EXPECT_TRUE(outcome.output.empty());
      ++cancelled;
    } else {
      EXPECT_FALSE(outcome.output.empty());
    }
  }
  // The 100 ms-per-claim stall guarantees the 30 ms-delayed destructor lands
  // before the tail of the queue was claimed.
  EXPECT_GE(cancelled, 1);
}

// Drain is idempotent and terminal: a second Drain is a no-op, and Serve after
// Drain rejects every request with a definite kCancelled status — no abort, no
// hang, stats still reconciled.
TEST(LivenessTest, DoubleDrainIsIdempotentAndServeAfterDrainIsRejected) {
  Rng wr(521);
  PlannedFfnStack stack(2, 16, 48, wr);
  ServingEngine engine(stack, {});
  EXPECT_FALSE(engine.drained());
  engine.Drain();
  EXPECT_TRUE(engine.drained());
  engine.Drain(DrainPolicy::kCancelInFlight);  // second drain: no-op
  EXPECT_TRUE(engine.drained());

  Rng rng(522);
  std::vector<ServeRequest> requests(3);
  for (ServeRequest& req : requests) {
    req.x = Tensor::Random({4, 16}, rng);
  }
  const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (const ServeOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.status, ServeStatus::kCancelled);
    EXPECT_TRUE(outcome.output.empty());
  }
  EXPECT_EQ(engine.stats().cancelled, 3);
  EXPECT_EQ(engine.stats().requests, 3);
}

// ---- Output ownership ------------------------------------------------------

// "Output iff kOk": outputs are allocated at egress, so every other outcome
// — invalid, shed, lapsed in the queue or in flight, drained, internal —
// must come back without one, and every kOk output is [tokens, hidden].
void ExpectOutputIffOk(const std::vector<ServeOutcome>& outcomes,
                       const std::vector<ServeRequest>& requests, int64_t hidden) {
  ASSERT_EQ(outcomes.size(), requests.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].status == ServeStatus::kOk) {
      EXPECT_EQ(outcomes[i].output.shape(), (Shape{requests[i].x.dim(0), hidden}))
          << "request " << i;
    } else {
      EXPECT_TRUE(outcomes[i].output.empty())
          << "request " << i << " " << ServeStatusName(outcomes[i].status) << " holds an output";
    }
  }
}

TEST(FaultContainmentTest, OnlyOkOutcomesHoldAnOutput) {
  Rng wr(445);
  PlannedTransformerStack stack(2, 32, 4, 96, wr);
  RequestMix mix = BuildMix(32, {5, 9, 16}, /*per_shape=*/3, /*seed=*/446);
  const auto count = [](const std::vector<ServeOutcome>& outcomes, ServeStatus status) {
    int64_t k = 0;
    for (const ServeOutcome& outcome : outcomes) {
      k += outcome.status == status ? 1 : 0;
    }
    return k;
  };
  {
    // Invalid, shed at the queue bound, lapsed in the queue, and served.
    std::vector<ServeRequest> requests = mix.requests;
    requests[1].x[0] = std::nanf("");
    for (size_t i = 2; i < requests.size(); i += 3) {
      requests[i].deadline_us = 1;
    }
    ServingEngineOptions options;
    options.num_streams = 2;
    options.batch_window = 2;
    options.queue_capacity = static_cast<int>(requests.size()) - 2;
    ServingEngine engine(stack, options);
    const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(requests);
    ASSERT_NO_FATAL_FAILURE(ExpectOutputIffOk(outcomes, requests, 32));
    EXPECT_EQ(count(outcomes, ServeStatus::kInvalidArgument), 1);
    EXPECT_EQ(count(outcomes, ServeStatus::kRejectedOverload), 1);
    EXPECT_GE(count(outcomes, ServeStatus::kDeadlineExceeded), 1);
    EXPECT_GE(count(outcomes, ServeStatus::kOk), 1);
  }
  {
    // Lapsed in flight: a mixed batch completes and marks its lapsed members
    // at egress.
    std::vector<ServeRequest> requests = PackableRequests(4, 8, 32, 447);
    requests[0].deadline_us = 20000;  // lapses under the 60 ms stall
    ScopedFaultInjection fault(StallConfig(/*stall_us=*/60000, /*seed=*/448));
    ServingEngineOptions options;
    options.num_streams = 1;
    options.batch_window = 4;
    ServingEngine engine(stack, options);
    const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(requests);
    ASSERT_NO_FATAL_FAILURE(ExpectOutputIffOk(outcomes, requests, 32));
    EXPECT_EQ(outcomes[0].status, ServeStatus::kDeadlineExceeded);
    EXPECT_EQ(count(outcomes, ServeStatus::kOk), 3);
  }
  {
    // Drained: every request is cancelled.
    ServingEngine engine(stack, {});
    engine.Drain();
    const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(mix.requests);
    ASSERT_NO_FATAL_FAILURE(ExpectOutputIffOk(outcomes, mix.requests, 32));
    EXPECT_EQ(count(outcomes, ServeStatus::kCancelled),
              static_cast<int64_t>(mix.requests.size()));
  }
  {
    // Internal: a persistent kernel-dispatch fault fails every forward and
    // its retry after the forward ran.
    ScopedFaultInjection fault(FaultSite::kKernelDispatch, 1.0, /*seed=*/449,
                               /*fail_retries=*/true);
    ServingEngineOptions options;
    options.num_streams = 2;
    options.batch_window = 2;
    ServingEngine engine(stack, options);
    const std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(mix.requests);
    ASSERT_NO_FATAL_FAILURE(ExpectOutputIffOk(outcomes, mix.requests, 32));
    EXPECT_EQ(count(outcomes, ServeStatus::kInternal),
              static_cast<int64_t>(mix.requests.size()));
  }
}

}  // namespace
}  // namespace pit

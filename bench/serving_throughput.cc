// Multi-stream serving throughput: requests/sec and latency percentiles of
// the ServingEngine driving a PlannedTransformerStack over a mixed request
// stream, swept over stream counts {1, 2, 4, 8} at a fixed worker-pool width.
//
// This is the PR 5 acceptance bench: per-request outputs must be bitwise
// identical to the single-stream engine at every stream count, and — wherever
// the machine actually provides >= 4-way concurrency (parallel probe, like
// the BENCH_pr1 assert) — 4 streams must deliver >= 2.5x the
// requests/sec of 1 stream. The workload is deliberately serving-shaped:
// small per-request token counts, whose plans replay step by step and whose
// kernels parallelize poorly intra-op, so the
// headroom the engine must find is inter-request parallelism.
//
// A second section is the PR 6 acceptance bench: continuous ragged batching
// over a mixed-length request stream (alpaca + mnli length distributions).
// Either way each stream compiles one plan set at its capacity: serving that
// traffic 1:1 replays it at every distinct token count, while batched serving
// packs requests, each one attention segment, and replays each batch at
// exactly its summed tokens, so `buckets.size()` (reported as replay row
// counts) counts distinct packed sums, not plan sets. Outputs must stay
// bitwise identical, and wherever the probe finds real >= 4-way concurrency,
// batched throughput must be >= 1.5x the 1:1 engine at high load.
//
// Emits BENCH_pr5.json (stream sweep) and BENCH_pr6.json (ragged batching).
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "pit/common/backend.h"
#include "pit/common/parallel_for.h"
#include "pit/runtime/models.h"
#include "pit/runtime/serving_engine.h"
#include "pit/tensor/ops.h"
#include "pit/workloads/seq_len.h"

using namespace pit;

namespace {

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

Tensor MakeMask(int64_t tokens, Rng& rng) {
  Tensor mask = Tensor::RandomSparse({tokens, tokens}, 0.4, rng);
  for (int64_t i = 0; i < mask.size(); ++i) {
    mask[i] = mask[i] != 0.0f ? 1.0f : 0.0f;
  }
  return mask;
}

bool AllOk(const std::vector<ServeOutcome>& outcomes) {
  for (const ServeOutcome& outcome : outcomes) {
    if (outcome.status != ServeStatus::kOk) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_pr5.json";
  std::string out6_path = "BENCH_pr6.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      out_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--out6") == 0) {
      out6_path = argv[i + 1];
    }
  }

  const int threads = NumThreads();
  bench::PrintHeader("Multi-stream serving throughput — shared plans, per-stream contexts",
                     "wall-clock; " + std::to_string(threads) + " pool workers, streams swept");
  // One shared machine probe up front: scaling asserts below gate on the
  // *measured* pool speedup, never on the reported hardware thread count —
  // CI boxes have reported hardware_threads=1 (which silently disarmed every
  // assert here) and, conversely, report more threads than the cgroup quota
  // actually provides.
  const bench::MachineProbe& mp = bench::GetMachineProbe();

  bool ok = true;
  bench::JsonReport report("serving_throughput");

  // Serving trunk: 2 encoder blocks at a modest width; requests mix three
  // token counts, a third of them masked (one segment carrying its mask).
  constexpr int64_t kLayers = 2;
  constexpr int64_t kHidden = 128;
  constexpr int64_t kHeads = 4;
  constexpr int64_t kFfn = 512;
  Rng wr(1);
  PlannedTransformerStack stack(kLayers, kHidden, kHeads, kFfn, wr);

  Rng rr(2);
  const std::vector<int64_t> token_counts{32, 48, 64};
  std::vector<Tensor> masks;
  masks.reserve(token_counts.size());
  for (int64_t tokens : token_counts) {
    masks.push_back(MakeMask(tokens, rr));
  }
  std::vector<ServeRequest> requests;
  constexpr int kRequests = 48;
  for (int i = 0; i < kRequests; ++i) {
    const size_t pick = static_cast<size_t>(i) % token_counts.size();
    ServeRequest req;
    req.x = Tensor::Random({token_counts[pick], kHidden}, rr);
    if (i % 3 == 2) {
      req.attn_mask = &masks[pick];
    }
    requests.push_back(std::move(req));
  }

  bench::Table table({"streams", "wall(ms)", "req/s", "p50(ms)", "p99(ms)", "vs 1 stream",
                      "pool ctx", "pool KiB"});
  std::vector<ServeOutcome> baseline_outputs;
  double baseline_rps = 0.0;
  double rps_at_4 = 0.0;
  for (const int streams : {1, 2, 4, 8}) {
    ServingEngineOptions options;
    options.num_streams = streams;
    ServingEngine engine(stack, options);
    engine.ServeWithStatus(requests);  // warm: compiles plans, builds context pools
    std::vector<ServeOutcome> outputs;
    double best_wall_us = 0.0;
    ServingEngineStats best{};
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<ServeOutcome> got = engine.ServeWithStatus(requests);
      const ServingEngineStats s = engine.stats();
      if (rep == 0 || s.wall_us < best_wall_us) {
        best_wall_us = s.wall_us;
        best = s;
        outputs = std::move(got);
      }
    }
    bool bitwise_vs_1stream = true;
    if (!AllOk(outputs)) {
      std::fprintf(stderr, "FAIL serving@%d streams: a request did not end kOk\n", streams);
      ok = false;
    }
    if (streams == 1) {
      baseline_outputs = outputs;
      baseline_rps = best.requests_per_sec;
    } else {
      for (size_t i = 0; i < outputs.size(); ++i) {
        if (!BitwiseEqual(outputs[i].output, baseline_outputs[i].output)) {
          std::fprintf(stderr,
                       "FAIL serving@%d streams: request %zu not bitwise equal to the "
                       "single-stream engine\n",
                       streams, i);
          bitwise_vs_1stream = false;
          ok = false;
        }
      }
    }
    if (streams == 4) {
      rps_at_4 = best.requests_per_sec;
    }
    const double vs1 = baseline_rps > 0.0 ? best.requests_per_sec / baseline_rps : 0.0;
    table.Row({std::to_string(streams), bench::FmtMs(best.wall_us),
               bench::Fmt(best.requests_per_sec, "%.1f"), bench::FmtMs(best.p50_latency_us),
               bench::FmtMs(best.p99_latency_us), bench::Fmt(vs1, "%.2fx"),
               std::to_string(best.pool_contexts_highwater),
               bench::Fmt(static_cast<double>(best.pool_arena_bytes_highwater) / 1024.0, "%.0f")});
    report.Add("serving_streams_" + std::to_string(streams),
               {{"requests", kRequests},
                {"wall_us", best.wall_us},
                {"requests_per_sec", best.requests_per_sec},
                {"p50_latency_us", best.p50_latency_us},
                {"p99_latency_us", best.p99_latency_us},
                {"mean_latency_us", best.mean_latency_us},
                {"speedup_vs_1stream", vs1},
                {"pool_contexts_highwater", best.pool_contexts_highwater},
                {"pool_arena_bytes_highwater", best.pool_arena_bytes_highwater},
                {"bitwise_equal_1stream", bitwise_vs_1stream ? 1 : 0},
                {"threads", threads}});
  }

  // Scaling acceptance, gated on the concurrency the machine *measurably*
  // provides (mp.probe4). The reported hardware thread count is logged and
  // recorded but never consulted: it misstates the quota in both directions.
  const double scaling = baseline_rps > 0.0 ? rps_at_4 / baseline_rps : 0.0;
  report.Add("serving_scaling",
             {{"rps_1stream", baseline_rps},
              {"rps_4streams", rps_at_4},
              {"speedup_4v1", scaling},
              {"probe4", mp.probe4},
              {"hardware_threads", mp.hardware_threads},
              {"assert_armed", mp.probe4 > 2.0 ? 1 : 0}});
  if (mp.probe4 > 2.0) {
    if (scaling < 2.5) {
      std::fprintf(stderr,
                   "FAIL serving scaling: 4 streams at %.2fx vs 1 stream < 2.5x with measured "
                   "probe %.2fx (reported hw=%lld)\n",
                   scaling, mp.probe4, static_cast<long long>(mp.hardware_threads));
      ok = false;
    } else {
      std::printf("serving scaling 4 streams %.2fx >= 2.5x (probe %.2fx) — OK\n", scaling,
                  mp.probe4);
    }
  } else {
    std::printf("serving scaling assertion skipped (probe %.2fx, reported hw=%lld — no "
                "measured 4-way concurrency on this machine); measured %.2fx\n",
                mp.probe4, static_cast<long long>(mp.hardware_threads), scaling);
  }

  // ---- PR 6: continuous ragged batching at mixed-length high load ----------
  //
  // Lognormal lengths from two datasets interleaved: dozens of distinct token
  // counts, each replayed 1:1 at its exact length over the stream's one
  // capacity plan set. Two stacks, same request tensors:
  //
  //  - transformer: correctness showcase. Batched outputs must stay bitwise
  //    identical to 1:1, each request attending within its own segment.
  //    Throughput is reported, not asserted; packed attention costs
  //    sum(t_i^2) score entries, the same as 1:1.
  //  - FFN (the paper's OPT/alpaca scenario): all ops are linear in rows, so
  //    packed compute matches 1:1 flops and batching wins on plan reuse plus
  //    large-m kernel utilization. This carries the probe-gated speedup
  //    assert, in a single-replica configuration (1 stream, full worker pool
  //    intra-op) — the setting where small per-request tiles cannot fill the
  //    pool and batching is the only route to utilization.
  bench::PrintHeader("Ragged batched serving — mixed alpaca/mnli lengths",
                     "1:1 vs SRead/SWrite-packed batching, " + std::to_string(threads) +
                         " pool workers");
  bench::JsonReport report6("serving_ragged_batching");
  Rng lrng(5);
  const std::vector<int64_t> lens_alpaca = SampleBatchLens(DatasetSeqLens("alpaca"), 32, lrng);
  const std::vector<int64_t> lens_mnli = SampleBatchLens(DatasetSeqLens("mnli"), 32, lrng);
  std::vector<ServeRequest> mixed;
  std::set<int64_t> distinct_lens;
  Rng mrng(6);
  for (size_t i = 0; i < lens_alpaca.size() + lens_mnli.size(); ++i) {
    const int64_t len = i % 2 == 0 ? lens_alpaca[i / 2] : lens_mnli[i / 2];
    distinct_lens.insert(len);
    ServeRequest req;
    req.x = Tensor::Random({len, kHidden}, mrng);
    mixed.push_back(std::move(req));
  }
  const int64_t n_mixed = static_cast<int64_t>(mixed.size());
  Rng fr(7);
  PlannedFfnStack ffn_stack(kLayers, kHidden, kFfn, fr);

  bench::Table table6({"stack/mode", "wall(ms)", "req/s", "p50(ms)", "p99(ms)", "forwards",
                       "row counts", "padding rows"});
  // (stack, streams, window) per measured mode; 1:1 and batched pairs share
  // the stack and stream count so only the admission policy differs.
  struct RaggedMode {
    const char* name;
    bool ffn;
    int streams;
    int window;
  };
  const RaggedMode modes[] = {
      {"xf 1:1", false, 4, 1},
      {"xf batched", false, 4, 8},
      {"ffn 1:1", true, 1, 1},
      {"ffn batched", true, 1, 16},
  };
  std::vector<ServeOutcome> xf_baseline, ffn_baseline;
  double ffn_one_to_one_rps = 0.0;
  double ffn_batched_rps = 0.0;
  for (const RaggedMode& mode : modes) {
    ServingEngineOptions options;
    options.num_streams = mode.streams;
    options.batch_window = mode.window;
    options.max_batch_tokens = 512;
    const std::unique_ptr<ServingEngine> engine =
        mode.ffn ? std::make_unique<ServingEngine>(ffn_stack, options)
                 : std::make_unique<ServingEngine>(stack, options);
    engine->ServeWithStatus(mixed);  // warm: compiles plans, builds context pools
    std::vector<ServeOutcome> outputs;
    ServingEngineStats best{};
    for (int rep = 0; rep < 2; ++rep) {
      std::vector<ServeOutcome> got = engine->ServeWithStatus(mixed);
      const ServingEngineStats s = engine->stats();
      if (rep == 0 || s.wall_us < best.wall_us) {
        best = s;
        outputs = std::move(got);
      }
    }
    if (!AllOk(outputs)) {
      std::fprintf(stderr, "FAIL ragged batching (%s): a request did not end kOk\n", mode.name);
      ok = false;
    }
    // Every forward replays at exactly its packed rows: the rows replayed
    // (bucket x forwards, summed) must equal the request rows packed.
    int64_t padding_rows = 0;
    for (const ServingBucketStats& b : best.buckets) {
      padding_rows += b.bucket * b.batches - b.packed_tokens;
    }
    if (padding_rows != 0) {
      std::fprintf(stderr, "FAIL ragged batching (%s): %lld padding rows replayed\n", mode.name,
                   static_cast<long long>(padding_rows));
      ok = false;
    }
    std::vector<ServeOutcome>& baseline = mode.ffn ? ffn_baseline : xf_baseline;
    if (mode.window == 1) {
      baseline = std::move(outputs);
    } else {
      for (size_t i = 0; i < outputs.size(); ++i) {
        if (!BitwiseEqual(outputs[i].output, baseline[i].output)) {
          std::fprintf(stderr,
                       "FAIL ragged batching (%s): request %zu not bitwise equal to the 1:1 "
                       "engine\n",
                       mode.name, i);
          ok = false;
        }
      }
    }
    if (mode.ffn) {
      (mode.window == 1 ? ffn_one_to_one_rps : ffn_batched_rps) = best.requests_per_sec;
    }
    table6.Row({mode.name, bench::FmtMs(best.wall_us), bench::Fmt(best.requests_per_sec, "%.1f"),
                bench::FmtMs(best.p50_latency_us), bench::FmtMs(best.p99_latency_us),
                std::to_string(best.batches), std::to_string(best.buckets.size()),
                std::to_string(padding_rows)});
    std::string key = std::string("ragged_") + (mode.ffn ? "ffn_" : "transformer_") +
                      (mode.window == 1 ? "one_to_one" : "batched");
    report6.Add(key, {{"requests", n_mixed},
                      {"wall_us", best.wall_us},
                      {"requests_per_sec", best.requests_per_sec},
                      {"p50_latency_us", best.p50_latency_us},
                      {"p99_latency_us", best.p99_latency_us},
                      {"mean_latency_us", best.mean_latency_us},
                      {"forwards", best.batches},
                      {"replay_row_counts", static_cast<int64_t>(best.buckets.size())},
                      {"distinct_request_lengths", static_cast<int64_t>(distinct_lens.size())},
                      {"padding_rows", padding_rows},
                      {"pool_contexts_highwater", best.pool_contexts_highwater},
                      {"pool_arena_bytes_highwater", best.pool_arena_bytes_highwater},
                      {"streams", mode.streams},
                      {"batch_window", mode.window},
                      {"threads", threads}});
  }

  const double batch_speedup =
      ffn_one_to_one_rps > 0.0 ? ffn_batched_rps / ffn_one_to_one_rps : 0.0;
  report6.Add("ragged_batching_speedup",
              {{"rps_one_to_one", ffn_one_to_one_rps},
               {"rps_batched", ffn_batched_rps},
               {"speedup", batch_speedup},
               {"probe4", mp.probe4},
               {"hardware_threads", mp.hardware_threads},
               {"assert_armed", mp.probe4 > 2.0 ? 1 : 0}});
  if (mp.probe4 > 2.0) {
    if (batch_speedup < 1.5) {
      std::fprintf(stderr,
                   "FAIL ragged batching: FFN batched at %.2fx vs 1:1 < 1.5x with measured "
                   "probe %.2fx (reported hw=%lld)\n",
                   batch_speedup, mp.probe4, static_cast<long long>(mp.hardware_threads));
      ok = false;
    } else {
      std::printf("ragged batching (FFN single-replica) %.2fx >= 1.5x vs 1:1 (probe %.2fx) "
                  "— OK\n",
                  batch_speedup, mp.probe4);
    }
  } else {
    std::printf("ragged batching assertion skipped (probe %.2fx, reported hw=%lld — no "
                "measured 4-way concurrency on this machine); measured %.2fx\n",
                mp.probe4, static_cast<long long>(mp.hardware_threads), batch_speedup);
  }

  if (!report.WriteFile(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  if (!report6.WriteFile(out6_path)) {
    std::fprintf(stderr, "failed to write %s\n", out6_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s and %s\n", out_path.c_str(), out6_path.c_str());
  if (!ok) {
    std::fprintf(stderr, "\nserving-throughput acceptance checks FAILED\n");
    return 1;
  }
  std::printf("serving-throughput acceptance checks passed\n");
  return 0;
}

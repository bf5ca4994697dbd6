// pitbench: one closed-loop ServingEngine benchmark over four dynamic-sparsity
// workloads, with a per-layer trace measured from outside the library.
//
//   pitbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--trace-out FILE]
//
// One process serves one workload (run.py starts one per workload, so set-up
// time and peak RSS are per workload). A single client calls
// ServingEngine::ServeWithStatus with 64 requests and blocks until it
// returns: the engine's API is a batch API, so a closed loop is the honest
// load model. The request pool (512 requests) comes from --seed alone.
//
// Untraced (--trace 0) the run prints the end-to-end metrics: set-up time,
// requests and tokens per second and peak RSS (medians over pool passes),
// and per-call p50/p95 over every measured call. Traced
// (--trace 1) it prints the per-layer metrics instead: engine counters as
// deltas over the measured phase, and a shadow re-execution of the same
// batches (shadow.cc) that attributes time to layers. Either way every kOk
// output of one full pool pass is checked bitwise against the stack's eager
// oracle, and the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status 1 means a failed request or a mismatch; 2 a usage error.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pitbench.h"

#include "pit/common/backend.h"
#include "pit/common/parallel_for.h"
#include "pit/common/rng.h"
#include "pit/workloads/attention_masks.h"
#include "pit/workloads/seq_len.h"

using namespace pit;

namespace pitbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

// Why each workload is here (README.md has the measured shares):
//  - xf_mixed_packed: packing, the block-diagonal mask and (sum t)^2
//    attention tiles; the target of segment-aware attention.
//  - xf_mixed_1to1: the same traffic unpacked; ~200 distinct lengths thrash
//    the 16-shape plan pools, so plan compile is on the hot path. The
//    control for packing.
//  - ffn_mixed_pit: the only workload on PIT's core path (detect, select,
//    sparse matmul); no attention.
//  - xf_short_masked_packed: short requests with their own input-dependent
//    masks in large buckets; the worst case for packed attention.
constexpr Workload kWorkloads[] = {
    {"xf_mixed_packed", /*ffn=*/false, /*use_pit=*/false, /*batch_window=*/8,
     /*mnli_only=*/false, /*masked=*/false},
    {"xf_mixed_1to1", false, false, 1, false, false},
    {"ffn_mixed_pit", true, true, 16, false, false},
    {"xf_short_masked_packed", false, false, 8, true, true},
};

// Weights are part of the program under test, not of the inputs: fixed.
constexpr uint64_t kXfWeightSeed = 1;
constexpr uint64_t kFfnWeightSeed = 7;
// Untraced runs build the deployment this many times and report the median.
constexpr int kSetupRuns = 5;
constexpr size_t kMinCalls = 256;

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "pitbench: %s\nusage: pitbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

// Strict decimal parse: the whole string, in [lo, hi].
double ParseNumber(const char* flag, const char* text, double lo, double hi) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= lo && v <= hi)) {
    Usage((std::string("bad value for ") + flag + ": " + text).c_str());
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) {
          args.workload = &w;
        }
      }
      if (args.workload == nullptr) {
        Usage((std::string("unknown workload ") + value).c_str());
      }
    } else if (flag == "--seed") {
      args.seed = static_cast<uint64_t>(ParseNumber("--seed", value, 0, 1e15));
    } else if (flag == "--seconds") {
      args.seconds = ParseNumber("--seconds", value, 0.1, 3600);
    } else if (flag == "--trace") {
      args.trace = ParseNumber("--trace", value, 0, 1) != 0.0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload == nullptr) {
    Usage("--workload is required");
  }
  return args;
}

// ---- inputs -------------------------------------------------------------------

double NormalQuantile(double p) {
  double lo = -9.0;
  double hi = 9.0;
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

constexpr int kCalls = kPoolSize / kCallSize;

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.NextBelow(i)]);
  }
}

// n lengths from a dataset's lognormal length distribution, rounded and
// clamped as SampleBatchLens does, but stratified: the i-th draw comes from
// the quantile band [i/n, (i+1)/n). Then band i is dealt to call i % kCalls
// and each call is shuffled. An i.i.d. draw moves the mean alpaca length of
// 256 requests by ~5% from seed to seed, and which call is heaviest (so p95)
// with it; stratified and dealt, every call carries the same length profile
// and the seed changes only which lengths meet in a batch.
std::vector<std::vector<int64_t>> StratifiedCallLens(const char* dataset, int n, Rng& rng) {
  const SeqLenDistribution d = DatasetSeqLens(dataset);
  const double mu = std::log(d.mean) - 0.5 * d.sigma * d.sigma;
  std::vector<std::vector<int64_t>> calls(kCalls);
  for (int i = 0; i < n; ++i) {
    const double p = (i + rng.NextDouble()) / n;
    const double len = std::exp(mu + d.sigma * NormalQuantile(p));
    calls[static_cast<size_t>(i % kCalls)].push_back(
        std::clamp<int64_t>(static_cast<int64_t>(std::llround(len)), d.min_len, d.max_len));
  }
  for (std::vector<int64_t>& call : calls) {
    Shuffle(call, rng);
  }
  return calls;
}

RequestPool MakePool(const Workload& w, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> lens;
  if (w.mnli_only) {
    for (const std::vector<int64_t>& call : StratifiedCallLens("mnli", kPoolSize, rng)) {
      lens.insert(lens.end(), call.begin(), call.end());
    }
  } else {
    const auto alpaca = StratifiedCallLens("alpaca", kPoolSize / 2, rng);
    const auto mnli = StratifiedCallLens("mnli", kPoolSize / 2, rng);
    for (size_t c = 0; c < kCalls; ++c) {
      for (size_t i = 0; i < alpaca[c].size(); ++i) {
        lens.push_back(alpaca[c][i]);
        lens.push_back(mnli[c][i]);
      }
    }
  }
  RequestPool pool;
  pool.masks.reserve(kPoolSize);  // requests point into it: never reallocate
  pool.calls.resize(kCalls);
  for (int i = 0; i < kPoolSize; ++i) {
    const int64_t len = lens[static_cast<size_t>(i)];
    ServeRequest request;
    request.x = Tensor::Random({len, kHidden}, rng);
    if (w.masked) {
      // Longformer-style: a 16-wide sliding window plus 2 global tokens
      // whose positions are drawn per request (the input-dependent part).
      pool.masks.push_back(LongformerMask({len, 16, 2}, rng));
      request.attn_mask = &pool.masks.back();
    }
    pool.calls[static_cast<size_t>(i / kCallSize)].push_back(std::move(request));
  }
  return pool;
}

// Printed so that two runs (say parent and change) can show they replayed
// the same requests: token sum, distinct lengths, and an FNV-1a hash over
// every length and mask.
void PrintDigest(const RequestPool& pool) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ull;
    }
  };
  int64_t tokens = 0;
  std::set<int64_t> distinct;
  for (int i = 0; i < kPoolSize; ++i) {
    const ServeRequest& r = pool.request(i);
    const int64_t len = r.x.dim(0);
    tokens += len;
    distinct.insert(len);
    mix(&len, sizeof(len));
    if (r.attn_mask != nullptr) {
      mix(r.attn_mask->data(), sizeof(float) * static_cast<size_t>(r.attn_mask->size()));
    }
  }
  std::printf("inputs.digest requests=%d tokens=%lld distinct_lengths=%zu fnv1a=%016llx\n",
              kPoolSize, static_cast<long long>(tokens), distinct.size(),
              static_cast<unsigned long long>(h));
}

// ---- the system under test ----------------------------------------------------

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
};

// Declared stack first: the engine references it and is destroyed first.
struct Deployment {
  Stack stack;
  std::unique_ptr<ServingEngine> engine;
};

std::vector<ServeOutcome> Serve(ServingEngine& engine, const std::vector<ServeRequest>& call,
                                Tally* tally) {
  std::vector<ServeOutcome> outcomes = engine.ServeWithStatus(call);
  tally->attempted += static_cast<int64_t>(call.size());
  for (const ServeOutcome& o : outcomes) {
    tally->failed += o.status != ServeStatus::kOk ? 1 : 0;
  }
  return outcomes;
}

// Set-up as a user pays it: build the stack and the engine, then serve the
// pool once, which compiles the plans and fills the context pools.
std::unique_ptr<Deployment> Deploy(const Workload& w, int streams, const RequestPool& pool,
                                   Tally* tally) {
  auto d = std::make_unique<Deployment>();
  ServingEngineOptions options;
  options.num_streams = streams;
  options.use_pit = w.use_pit;
  options.batch_window = w.batch_window;
  options.max_batch_tokens = kMaxBatchTokens;
  if (w.ffn) {
    Rng rng(kFfnWeightSeed);
    d->stack.ffn = std::make_unique<PlannedFfnStack>(kLayers, kHidden, kFfn, rng);
    d->engine = std::make_unique<ServingEngine>(*d->stack.ffn, options);
  } else {
    Rng rng(kXfWeightSeed);
    d->stack.xf = std::make_unique<PlannedTransformerStack>(kLayers, kHidden, kHeads, kFfn, rng);
    d->engine = std::make_unique<ServingEngine>(*d->stack.xf, options);
  }
  for (const std::vector<ServeRequest>& call : pool.calls) {
    Serve(*d->engine, call, tally);
  }
  return d;
}

// Engine counters summed over buckets; the benchmark reports deltas.
struct Counters {
  int64_t batches = 0;
  int64_t plan_hits = 0;
  int64_t plan_misses = 0;
  int64_t packed_tokens = 0;
  int64_t computed_tokens = 0;
};

Counters Snapshot(const ServingEngineStats& s) {
  Counters c;
  c.batches = s.batches;
  for (const ServingBucketStats& b : s.buckets) {
    c.plan_hits += b.plan_hits;
    c.plan_misses += b.plan_misses;
    c.packed_tokens += b.packed_tokens;
    c.computed_tokens += b.computed_tokens;
  }
  return c;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// VmHWM in MiB: the process's peak resident set since start or since the
// last ResetPeakRss.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// Where /proc/self/clear_refs is not writable the reset does nothing, and
// each read gives the lifetime peak instead.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// The measured phase: whole pool passes until `seconds` have elapsed, so
// every pass serves the same 512 requests in the same order, and until at
// least kMinCalls calls, so that p95 has at least 10 samples beyond it.
struct Phase {
  std::vector<double> call_ms;
  std::vector<double> pass_s;
  std::vector<double> pass_requests_per_s;
  std::vector<double> pass_tokens_per_s;
  // Peak RSS within each pass. With ~200 distinct lengths cycling through
  // 16-shape pools the lifetime peak depends on which shapes happened to be
  // pooled together; the median per-pass peak is the steady footprint.
  std::vector<double> pass_peak_rss_mb;
  double cpu_per_wall = 0.0;  // busy cores the engine got, as the kernel counts them
};

Phase Measure(ServingEngine& engine, const RequestPool& pool, double seconds, Tally* tally) {
  Phase phase;
  const Clock::time_point start = Clock::now();
  const double cpu_start = ProcessCpuSeconds();
  do {
    int64_t ok = 0;
    int64_t tokens = 0;
    ResetPeakRss();
    const Clock::time_point pass_start = Clock::now();
    for (const std::vector<ServeRequest>& call : pool.calls) {
      const Clock::time_point t0 = Clock::now();
      const std::vector<ServeOutcome> outcomes = Serve(engine, call, tally);
      phase.call_ms.push_back(Seconds(Clock::now() - t0) * 1e3);
      for (size_t j = 0; j < outcomes.size(); ++j) {
        if (outcomes[j].status == ServeStatus::kOk) {
          ++ok;
          tokens += call[j].x.dim(0);
        }
      }
    }
    const double pass = Seconds(Clock::now() - pass_start);
    phase.pass_s.push_back(pass);
    phase.pass_requests_per_s.push_back(static_cast<double>(ok) / pass);
    phase.pass_tokens_per_s.push_back(static_cast<double>(tokens) / pass);
    phase.pass_peak_rss_mb.push_back(PeakRssMiB());
  } while (Seconds(Clock::now() - start) < seconds || phase.call_ms.size() < kMinCalls);
  phase.cpu_per_wall = (ProcessCpuSeconds() - cpu_start) / Seconds(Clock::now() - start);
  return phase;
}

// One more pool pass, keeping the kOk outputs, each checked bitwise against
// the stack's eager oracle. Returns the mismatch count; `outputs` keeps the
// engine's outputs (empty tensors where a request failed).
int64_t CheckAgainstEager(Deployment& d, const RequestPool& pool, Tally* tally,
                          std::vector<Tensor>* outputs) {
  outputs->assign(kPoolSize, Tensor());
  for (size_t c = 0; c < pool.calls.size(); ++c) {
    std::vector<ServeOutcome> outcomes = Serve(*d.engine, pool.calls[c], tally);
    for (size_t j = 0; j < outcomes.size(); ++j) {
      if (outcomes[j].status == ServeStatus::kOk) {
        (*outputs)[c * kCallSize + j] = std::move(outcomes[j].output);
      }
    }
  }
  int64_t mismatches = 0;
  for (int i = 0; i < kPoolSize; ++i) {
    const Tensor& got = (*outputs)[static_cast<size_t>(i)];
    if (got.empty()) {
      continue;
    }
    const ServeRequest& r = pool.request(i);
    const Tensor want = d.stack.xf != nullptr ? d.stack.xf->ForwardEager(r.x, r.attn_mask)
                                              : d.stack.ffn->ForwardEager(r.x);
    if (want.shape() != got.shape() ||
        std::memcmp(want.data(), got.data(), sizeof(float) * static_cast<size_t>(got.size())) !=
            0) {
      ++mismatches;
    }
  }
  return mismatches;
}

// ---- run context --------------------------------------------------------------

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

void PrintResult(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace pitbench

int main(int argc, char** argv) {
  using namespace pitbench;
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *args.workload;
  const int nproc = AffinityCpus();
  const int threads = std::min(4, nproc);
  const int streams = threads;
  SetNumThreads(threads);
  std::printf("pitbench workload=%s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("context nproc=%d threads=%d streams=%d isa_detected=%s isa_selected=%s\n", nproc,
              threads, streams, IsaName(DetectedIsa()), IsaName(ActiveIsa()));
  const RequestPool pool = MakePool(w, args.seed);
  PrintDigest(pool);

  Tally tally;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < (args.trace ? 1 : kSetupRuns); ++i) {
    d.reset();
    const Clock::time_point t0 = Clock::now();
    d = Deploy(w, streams, pool, &tally);
    setup_s.push_back(Seconds(Clock::now() - t0));
  }

  const Counters before = Snapshot(d->engine->stats());
  const Phase phase = Measure(*d->engine, pool, args.seconds, &tally);
  const Counters after = Snapshot(d->engine->stats());
  const size_t calls = phase.call_ms.size();
  const size_t p95_rank = static_cast<size_t>(std::ceil(0.95 * static_cast<double>(calls)));
  std::printf("measured %zu calls in %zu pool passes; %zu calls beyond p95; "
              "cpu/wall %.2f (busy cores)\n",
              calls, phase.pass_s.size(), calls - p95_rank, phase.cpu_per_wall);

  std::vector<Tensor> engine_outputs;
  const int64_t mismatches = CheckAgainstEager(*d, pool, &tally, &engine_outputs);
  std::printf("eager check: %lld of %d outputs differ bitwise\n",
              static_cast<long long>(mismatches), kPoolSize);

  std::vector<Metric> metrics;
  bool correct = tally.failed == 0 && mismatches == 0;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"requests_per_s", Median(phase.pass_requests_per_s), "req/s"},
        {"tokens_per_s", Median(phase.pass_tokens_per_s), "tokens/s"},
        {"batch_ms_p50", Percentile(phase.call_ms, 0.50), "ms"},
        {"batch_ms_p95", Percentile(phase.call_ms, 0.95), "ms"},
        {"peak_rss_mb", Median(phase.pass_peak_rss_mb), "MiB"},
    };
  } else {
    const double ratio_den = static_cast<double>(after.plan_hits - before.plan_hits +
                                                 after.plan_misses - before.plan_misses);
    metrics = {
        {"runtime.forwards_per_call",
         static_cast<double>(after.batches - before.batches) / static_cast<double>(calls),
         "count"},
        {"runtime.plan_miss_frac",
         ratio_den > 0 ? static_cast<double>(after.plan_misses - before.plan_misses) / ratio_den
                       : 0.0,
         "frac"},
        {"runtime.packed_util",
         static_cast<double>(after.packed_tokens - before.packed_tokens) /
             static_cast<double>(std::max<int64_t>(1, after.computed_tokens -
                                                          before.computed_tokens)),
         "frac"},
        {"runtime.pool_arena_mb",
         static_cast<double>(d->engine->stats().pool_arena_bytes_highwater) / (1024.0 * 1024.0),
         "MiB"},
    };
    const TraceResult trace = RunShadow(w, d->stack, pool, engine_outputs, Median(phase.pass_s),
                                        std::max(1, threads / streams), args.trace_out);
    metrics.insert(metrics.end(), trace.metrics.begin(), trace.metrics.end());
    if (trace.dropped_spans > 0) {
      std::printf("trace: %lld spans dropped (buffer full)\n",
                  static_cast<long long>(trace.dropped_spans));
    }
    correct = correct && trace.mismatches == 0 && trace.dropped_spans == 0;
  }
  PrintResult(correct, tally, metrics);
  return correct ? 0 : 1;
}

#include "pit/runtime/serving_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "pit/common/check.h"
#include "pit/common/fault_injection.h"
#include "pit/common/parallel_for.h"
#include "pit/core/sread_swrite.h"
#include "pit/gpusim/device.h"
#include "pit/runtime/serving.h"
#include "pit/workloads/seq_len.h"

namespace pit {

namespace {

// Floor of the power-of-two grid a serving stream's capacity grows on.
constexpr int64_t kMinCapacityBucket = 16;
// Token budget per packed batch when the option does not set one.
constexpr int kDefaultMaxBatchTokens = 512;

// The row capacity a serving stream's plans and staging are built at: the
// batch token budget, or `rows` when a longer request needs more, on the
// power-of-two grid.
int64_t CapacityFor(int64_t rows, int64_t max_batch_tokens) {
  return BucketTokensPow2(std::max(max_batch_tokens, rows), kMinCapacityBucket);
}

// Finiteness scan: one NaN or inf in an activation (or mask) poisons every
// dot product its rows feed, so non-finite inputs are rejected at admission
// rather than silently corrupting a packed batch's shared forward. Branch
// free, so it vectorizes: an all-ones exponent field plus one carries into
// the sign bit, and no finite value's does.
bool AllFinite(const Tensor& t) {
  const float* data = t.data();
  const int64_t n = t.size();
  uint32_t carry = 0;
  for (int64_t i = 0; i < n; ++i) {
    uint32_t bits = 0;
    std::memcpy(&bits, data + i, sizeof(bits));
    carry |= (bits & 0x7f800000u) + 0x00800000u;
  }
  return (carry & 0x80000000u) == 0;
}

}  // namespace

const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kInvalidArgument:
      return "invalid_argument";
    case ServeStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case ServeStatus::kRejectedOverload:
      return "rejected_overload";
    case ServeStatus::kInternal:
      return "internal";
    case ServeStatus::kCancelled:
      return "cancelled";
  }
  PIT_CHECK(false) << "unknown ServeStatus " << static_cast<int>(status);
  return "";
}

std::string ServingEngineStats::ToString() const {
  std::ostringstream os;
  os << "ServingEngineStats{requests=" << requests << " streams=" << num_streams
     << " window=" << batch_window << " max_tokens=" << max_batch_tokens
     << " batches=" << batches << "; "
     << ServeStatusName(ServeStatus::kInvalidArgument) << "=" << rejected_invalid << " "
     << ServeStatusName(ServeStatus::kRejectedOverload) << "=" << rejected_overload << " "
     << ServeStatusName(ServeStatus::kDeadlineExceeded) << "=" << timed_out
     << " (in_flight=" << timed_out_inflight << ") "
     << ServeStatusName(ServeStatus::kCancelled) << "=" << cancelled
     << "; faults=" << faults_injected << " retries=" << retries
     << " internal=" << internal_failures << " cancelled_forwards=" << cancelled_forwards
     << "; stalls_injected=" << stalls_injected << " stalls_detected=" << stalls_detected << "}";
  return os.str();
}

// One request stream: one stack stream (shared capacity plans + private
// contexts), built on first use and reused across requests and Serve calls,
// plus the staging every forward packs into (a 1:1 request is a span of
// one). Nothing in here is ever touched by another stream.
struct ServingEngine::StreamState {
  struct BucketCounters {
    int64_t batches = 0;
    int64_t requests = 0;
    int64_t packed_tokens = 0;
    int64_t computed_tokens = 0;
    int64_t plan_hits = 0;
    int64_t plan_misses = 0;
  };

  // The stack stream of whichever stack the engine drives (the other stays
  // empty), compiled at the stream's capacity; tokens == 0 until built.
  PlannedTransformerStack::Stream transformer;
  PlannedFfnStack::Stream ffn;
  // Packed tile at capacity: requests gather into x's first rows and the
  // plans replay into out's.
  Tensor x;
  Tensor out;
  // Keyed by replayed row count.
  std::map<int64_t, BucketCounters> bucket_counters;
  // Identity row ids 0..max_len-1: every request's token rows are a prefix
  // span of this one reusable vector for SRead/SWrite purposes.
  std::vector<int64_t> iota;
  // Per-forward scratch: request lengths and (transformer only) one
  // attention segment per request, carrying the request's own mask.
  std::vector<int64_t> lens;
  std::vector<AttentionSegment> segments;
  // Per-claim scratch: the original request indices that survived the
  // deadline sweep and enter the packed forward.
  std::vector<int64_t> span;
  int64_t requests = 0;
  // This stream's share of the engine's lifetime ledgers, written only by
  // the stream's own worker and summed by ServeWithStatus after the workers
  // joined. The fault ledger reconciles across streams: faults ==
  // retries + internal.
  int64_t faults = 0;
  int64_t retries = 0;
  int64_t internal = 0;
  int64_t timed_out_queued = 0;    // shed by the claim-time deadline sweep
  int64_t timed_out_inflight = 0;  // lapsed after their batch was claimed
  int64_t cancelled_forwards = 0;
  int64_t stalls_injected = 0;
  // Liveness state. `cancel` is installed on every acquired stack stream's
  // contexts before a forward, so replays stop at the next step boundary
  // once it fires. `heartbeat` is the step-progress counter those
  // replays bump (via the thread-local sink); `hb_active` marks the worker
  // mid-claim so the watchdog only measures silence while work is actually
  // in flight, and `hb_rows` is the row count the claim replays at, for
  // diagnostics.
  CancelToken cancel;
  std::atomic<uint64_t> heartbeat{0};
  std::atomic<bool> hb_active{false};
  std::atomic<int64_t> hb_rows{0};
};

ServingEngine::ServingEngine(const PlannedTransformerStack& stack,
                             const ServingEngineOptions& options)
    : transformer_(&stack), hidden_(stack.hidden()) {
  Init(options);
}

ServingEngine::ServingEngine(const PlannedFfnStack& stack, const ServingEngineOptions& options)
    : ffn_(&stack), hidden_(stack.hidden()) {
  Init(options);
}

void ServingEngine::Init(const ServingEngineOptions& options) {
  // Option misuse is API misuse, not request data: fail fast at construction
  // (0 always means "default", never "negative").
  PIT_CHECK(options.num_streams >= 0)
      << "ServingEngineOptions::num_streams must be >= 0, got " << options.num_streams;
  PIT_CHECK(options.batch_window >= 0)
      << "ServingEngineOptions::batch_window must be >= 0, got " << options.batch_window;
  PIT_CHECK(options.max_batch_tokens >= 0)
      << "ServingEngineOptions::max_batch_tokens must be >= 0, got " << options.max_batch_tokens;
  PIT_CHECK(options.deadline_us >= 0)
      << "ServingEngineOptions::deadline_us must be >= 0, got " << options.deadline_us;
  PIT_CHECK(options.queue_capacity >= 0)
      << "ServingEngineOptions::queue_capacity must be >= 0, got " << options.queue_capacity;
  PIT_CHECK(options.watchdog_us >= 0)
      << "ServingEngineOptions::watchdog_us must be >= 0, got " << options.watchdog_us;
  num_streams_ = options.num_streams > 0 ? options.num_streams : NumThreads();
  use_pit_ = options.use_pit;
  // Window 1 is batching off: every request replays at its exact token count.
  batch_window_ = options.batch_window > 0 ? options.batch_window : 1;
  max_batch_tokens_ =
      options.max_batch_tokens > 0 ? options.max_batch_tokens : kDefaultMaxBatchTokens;
  deadline_us_ = options.deadline_us;        // 0: no default deadline
  queue_capacity_ = options.queue_capacity;  // 0: unbounded admission queue
  watchdog_us_ = options.watchdog_us;        // 0: no watchdog thread
  watchdog_mode_ = options.watchdog_mode;
  if (use_pit_) {
    compiler_ = std::make_unique<PitCompiler>(V100());
  }
  streams_.reserve(static_cast<size_t>(num_streams_));
  for (int s = 0; s < num_streams_; ++s) {
    streams_.push_back(std::make_unique<StreamState>());
  }
  stats_.num_streams = num_streams_;
  stats_.batch_window = batch_window_;
  stats_.max_batch_tokens = max_batch_tokens_;
  stats_.per_stream_requests.assign(static_cast<size_t>(num_streams_), 0);
  // Supervision starts last: the watchdog reads streams_, which is immutable
  // from here on.
  if (watchdog_us_ > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

ServingEngine::~ServingEngine() {
  // A dying engine never strands a caller: cut in-flight work at the next
  // step boundary, wait out any concurrent Serve, then stop supervision.
  Drain(DrainPolicy::kCancelInFlight);
  StopWatchdog();
}

void ServingEngine::Drain(DrainPolicy policy) {
  std::unique_lock<std::mutex> lock(serve_mu_);
  draining_.store(true, std::memory_order_release);
  if (policy == DrainPolicy::kCancelInFlight) {
    // Sticky manual cancel on every stream token: in-flight replays stop at
    // the next step boundary and their requests resolve
    // kCancelled. Tokens stay cancelled forever — a drained engine is
    // permanently quiesced.
    for (const std::unique_ptr<StreamState>& stream : streams_) {
      stream->cancel.Cancel();
    }
  }
  // Workers stop claiming at the next span boundary (they poll draining_),
  // so serve_active_ reaches zero without outside help; idempotent because a
  // re-entered Drain just re-publishes the flag and the wait is immediate.
  serve_cv_.wait(lock, [this] { return serve_active_ == 0; });
}

void ServingEngine::StopWatchdog() {
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) {
    watchdog_.join();
  }
}

void ServingEngine::WatchdogLoop() {
  // Per-stream observation the watchdog keeps for itself: the heartbeat
  // count and mid-request flag it last saw, the tick that first saw the
  // stream's last progress (a new count, or a request starting; on the
  // watchdog's own clock, so no cross-thread timestamp races), and whether
  // the current silence episode was already reported (one detection per
  // episode). That progress came after the tick before since_us, so the
  // real silence lies in now - since_us .. now - since_us + tick (plus the
  // watchdog's wake-up slop).
  struct Observed {
    uint64_t count = 0;
    bool active = false;
    int64_t since_us = 0;
    bool reported = false;
  };
  std::vector<Observed> seen(static_cast<size_t>(num_streams_));
  // Tick at a quarter of the threshold, so a stall is detected within 1.25x
  // the threshold of real silence (plus scheduling slop).
  const int64_t tick_us = std::max<int64_t>(watchdog_us_ / 4, 100);
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, std::chrono::microseconds(tick_us),
                          [this] { return watchdog_stop_; });
    if (watchdog_stop_) {
      break;
    }
    const int64_t now_us = SteadyNowUs();
    for (int s = 0; s < num_streams_; ++s) {
      StreamState& stream = *streams_[static_cast<size_t>(s)];
      Observed& o = seen[static_cast<size_t>(s)];
      const uint64_t count = stream.heartbeat.load(std::memory_order_relaxed);
      const bool active = stream.hb_active.load(std::memory_order_acquire);
      if (!active || !o.active || count != o.count) {
        // Idle, starting a request, or progressing: reset the episode
        // baseline.
        o.count = count;
        o.active = active;
        o.since_us = now_us;
        o.reported = false;
        continue;
      }
      const int64_t silence_us = now_us - o.since_us;
      if (silence_us <= watchdog_us_ || o.reported) {
        continue;
      }
      o.reported = true;
      ++stalls_detected_;
      const int64_t rows = stream.hb_rows.load(std::memory_order_relaxed);
      std::fprintf(stderr,
                   "[PIT WATCHDOG] stream %d stalled: replaying %lld rows, step %llu, "
                   "silent %lld..%lld us (threshold %lld us, mode %s)\n",
                   s, static_cast<long long>(rows), static_cast<unsigned long long>(count),
                   static_cast<long long>(silence_us), static_cast<long long>(silence_us + tick_us),
                   static_cast<long long>(watchdog_us_),
                   watchdog_mode_ == WatchdogMode::kAbort ? "abort" : "report");
      if (watchdog_mode_ == WatchdogMode::kAbort) {
        PIT_CHECK(false) << "PIT WATCHDOG (abort mode): stream " << s << " stalled (replaying "
                         << rows << " rows, step " << count << ", silent " << silence_us << ".."
                         << silence_us + tick_us << " us, threshold " << watchdog_us_ << " us)";
      }
    }
  }
}

ServeStatus ServingEngine::AdmissionStatus(const ServeRequest& request) const {
  if (request.x.rank() != 2 || request.x.dim(0) <= 0 || request.x.dim(1) != hidden_) {
    return ServeStatus::kInvalidArgument;
  }
  if (request.deadline_us < 0) {
    return ServeStatus::kInvalidArgument;
  }
  if (request.attn_mask != nullptr) {
    if (ffn_ != nullptr) {
      // FFN stacks have no attention: a masked request is malformed data,
      // not grounds to abort the batch it arrived in.
      return ServeStatus::kInvalidArgument;
    }
    const Tensor& mask = *request.attn_mask;
    const int64_t tokens = request.x.dim(0);
    // A mismatched mask would abort deep inside the attention kernel with a
    // kernel-level diagnostic; reject it at the request boundary.
    if (mask.rank() != 2 || mask.dim(0) != tokens || mask.dim(1) != tokens) {
      return ServeStatus::kInvalidArgument;
    }
    if (!AllFinite(mask)) {
      return ServeStatus::kInvalidArgument;
    }
  }
  if (!AllFinite(request.x)) {
    return ServeStatus::kInvalidArgument;
  }
  return ServeStatus::kOk;
}

void ServingEngine::ReplayStack(StreamState& stream, int64_t rows) {
  PitCompiler* compiler = compiler_.get();
  // The stack stream, its builder and the replay call are the only
  // stack-specific parts.
  const auto replay = [&](auto& stack_stream, auto make, auto forward) {
    if (rows <= stack_stream.tokens) {
      ++stream.bucket_counters[rows].plan_hits;
    } else {
      // First use, or a request longer than the capacity: (re)build. Capacity
      // only ever grows, so a stream rebuilds at most once per doubling of
      // the longest request.
      ++stream.bucket_counters[rows].plan_misses;
      stack_stream = make(CapacityFor(rows, max_batch_tokens_));
    }
    stack_stream.SetCancelToken(&stream.cancel);
    forward(stack_stream);
  };
  if (transformer_ != nullptr) {
    replay(
        stream.transformer,
        [&](int64_t capacity) { return transformer_->MakeStream(capacity, false, use_pit_); },
        [&](PlannedTransformerStack::Stream& stack_stream) {
          stack_stream.SetAttentionSegments(stream.segments);
          transformer_->ForwardWith(stack_stream, stream.x, nullptr, compiler, &stream.out, rows);
        });
    return;
  }
  replay(
      stream.ffn, [&](int64_t capacity) { return ffn_->MakeStream(capacity, use_pit_); },
      [&](PlannedFfnStack::Stream& stack_stream) {
        ffn_->ForwardWith(stack_stream, stream.x, compiler, &stream.out, rows);
      });
}

bool ServingEngine::ForwardSpan(StreamState& stream, const std::vector<ServeRequest>& requests,
                                const std::vector<int64_t>& span,
                                const std::vector<int64_t>& deadline_abs,
                                std::vector<ServeOutcome>& outcomes,
                                std::vector<int64_t>& bucket_of) {
  // In-flight deadline arming: the batch is cancellable mid-replay only when
  // EVERY member carries a deadline — the token then arms with the latest
  // member deadline, so a mid-replay lapse proves every member has already
  // lapsed. A mixed batch never arms: its forward always completes, and the
  // lapsed members are marked at egress without output, leaving the
  // survivors' bits identical to fault-free 1:1 replay.
  bool all_deadlined = true;
  int64_t latest_deadline_us = 0;
  for (const int64_t idx : span) {
    const int64_t d = deadline_abs[static_cast<size_t>(idx)];
    if (d == CancelToken::kNoDeadline) {
      all_deadlined = false;
      break;
    }
    latest_deadline_us = std::max(latest_deadline_us, d);
  }
  if (all_deadlined) {
    stream.cancel.ArmDeadline(latest_deadline_us);
  } else {
    stream.cancel.ClearDeadline();
  }
  stream.lens.clear();
  stream.segments.clear();
  // The span replays at exactly its summed request rows: no padding rows.
  int64_t rows = 0;
  int64_t max_len = 0;
  for (const int64_t idx : span) {
    const ServeRequest& request = requests[static_cast<size_t>(idx)];
    const int64_t len = request.x.dim(0);
    stream.lens.push_back(len);
    if (transformer_ != nullptr) {
      stream.segments.push_back({rows, len,
                                 request.attn_mask != nullptr ? ConstTensorView(*request.attn_mask)
                                                              : ConstTensorView()});
    }
    rows += len;
    max_len = std::max(max_len, len);
  }
  if (static_cast<int64_t>(stream.iota.size()) < max_len) {
    const int64_t old = static_cast<int64_t>(stream.iota.size());
    stream.iota.resize(static_cast<size_t>(max_len));
    for (int64_t i = old; i < max_len; ++i) {
      stream.iota[static_cast<size_t>(i)] = i;
    }
  }
  if (stream.x.empty() || stream.x.dim(0) < rows) {
    // Staging at the capacity the stream's plans are (or will be) built at.
    const int64_t capacity = CapacityFor(rows, max_batch_tokens_);
    stream.x = Tensor({capacity, hidden_});
    stream.out = Tensor({capacity, hidden_});
  }
  int64_t off = 0;
  for (size_t i = 0; i < span.size(); ++i) {
    const int64_t len = stream.lens[i];
    SReadRowsInto(requests[static_cast<size_t>(span[i])].x,
                  std::span<const int64_t>(stream.iota.data(), static_cast<size_t>(len)),
                  stream.x, off);
    off += len;
  }
  // Each request attends only within its own segment, under its own mask.
  ReplayStack(stream, rows);
  const bool manual_cancel = stream.cancel.cancelled_manual();
  const bool batch_lapsed = all_deadlined && stream.cancel.deadline_lapsed();
  stream.cancel.ClearDeadline();
  if (ConsumeFaultPending()) {
    // Kernel-dispatch fault mid-replay: staging holds garbage; scatter
    // nothing. The fired probe is compensated by the caller's identical
    // retry or its terminal failure. A fired cancel token makes the retry
    // exit at replay entry, so it re-lands here immediately with no fault
    // pending.
    ++stream.faults;
    return false;
  }
  if (manual_cancel) {
    // Drain cut the batch mid-replay: every member resolves kCancelled —
    // a definitive outcome, not a failure to retry.
    for (const int64_t idx : span) {
      outcomes[static_cast<size_t>(idx)].status = ServeStatus::kCancelled;
    }
    ++stream.cancelled_forwards;
    return true;
  }
  if (batch_lapsed) {
    // The batch deadline (max over members) lapsed mid-replay, so every
    // member has lapsed: the forward was cancelled at a step boundary and
    // the whole batch resolves kDeadlineExceeded without output.
    for (const int64_t idx : span) {
      outcomes[static_cast<size_t>(idx)].status = ServeStatus::kDeadlineExceeded;
    }
    stream.timed_out_inflight += static_cast<int64_t>(span.size());
    ++stream.cancelled_forwards;
    return true;
  }
  // Egress: one clock read decides which members still have a live deadline;
  // lapsed members are marked kDeadlineExceeded without output (their rows
  // were computed, but nobody is waiting), survivors scatter bitwise
  // identical to fault-free 1:1 replay.
  const int64_t egress_now_us = SteadyNowUs();
  off = 0;
  for (size_t i = 0; i < span.size(); ++i) {
    const int64_t idx = span[i];
    const int64_t len = stream.lens[i];
    if (deadline_abs[static_cast<size_t>(idx)] <= egress_now_us) {
      outcomes[static_cast<size_t>(idx)].status = ServeStatus::kDeadlineExceeded;
      ++stream.timed_out_inflight;
      off += len;
      continue;
    }
    // The output exists only for kOk, and is allocated here, on the stream,
    // rather than by the client for every admitted request up front.
    Tensor& output = outcomes[static_cast<size_t>(idx)].output;
    output = Tensor({len, hidden_});
    SWriteRowsFrom(stream.out, off,
                   std::span<const int64_t>(stream.iota.data(), static_cast<size_t>(len)),
                   output);
    off += len;
    bucket_of[static_cast<size_t>(idx)] = rows;
    outcomes[static_cast<size_t>(idx)].status = ServeStatus::kOk;
  }
  StreamState::BucketCounters& c = stream.bucket_counters[rows];
  ++c.batches;
  c.requests += static_cast<int64_t>(span.size());
  c.packed_tokens += rows;
  c.computed_tokens += rows;
  return true;
}

void ServingEngine::ServeSpan(StreamState& stream, const std::vector<ServeRequest>& requests,
                              const std::vector<int64_t>& span,
                              const std::vector<int64_t>& deadline_abs,
                              std::vector<ServeOutcome>& outcomes,
                              std::vector<int64_t>& bucket_of) {
  // One rung for both stacks and every window: a forward stopped by a
  // kernel-dispatch fault is retried once at identical composition — same
  // span, same rows, same kernels, so the retry is bitwise invisible for
  // dense and PIT alike. A second failure is terminal.
  if (ForwardSpan(stream, requests, span, deadline_abs, outcomes, bucket_of)) {
    return;
  }
  ++stream.retries;
  ScopedFaultRetryImmunity immune;
  if (!ForwardSpan(stream, requests, span, deadline_abs, outcomes, bucket_of)) {
    ++stream.internal;
    for (const int64_t idx : span) {
      outcomes[static_cast<size_t>(idx)].status = ServeStatus::kInternal;
    }
  }
}

void ServingEngine::MergeBucketStats(const std::vector<int64_t>& bucket_of,
                                     const std::vector<double>& latencies) {
  std::map<int64_t, ServingBucketStats> merged;
  for (const std::unique_ptr<StreamState>& stream : streams_) {
    for (const auto& [bucket, c] : stream->bucket_counters) {
      ServingBucketStats& b = merged[bucket];
      b.bucket = bucket;
      b.batches += c.batches;
      b.requests += c.requests;
      b.packed_tokens += c.packed_tokens;
      b.computed_tokens += c.computed_tokens;
      b.plan_hits += c.plan_hits;
      b.plan_misses += c.plan_misses;
    }
  }
  std::map<int64_t, std::vector<double>> latencies_by_bucket;
  for (size_t i = 0; i < bucket_of.size(); ++i) {
    latencies_by_bucket[bucket_of[i]].push_back(latencies[i]);
  }
  int64_t batches = 0;
  stats_.buckets.clear();
  for (auto& [bucket, b] : merged) {
    auto it = latencies_by_bucket.find(bucket);
    // Guarded by presence *and* non-emptiness: a bucket served in an earlier
    // call but untouched by this one keeps percentiles of 0 rather than
    // feeding an empty sample into PercentileNearestRank.
    if (it != latencies_by_bucket.end() && !it->second.empty()) {
      std::sort(it->second.begin(), it->second.end());
      b.p50_latency_us = PercentileNearestRank(it->second, 0.50);
      b.p99_latency_us = PercentileNearestRank(it->second, 0.99);
    }
    batches += b.batches;
    stats_.buckets.push_back(b);
  }
  stats_.batches = batches;
}

void ServingEngine::FormSpans(const std::vector<ServeRequest>& requests,
                              const std::vector<int64_t>& queue, int64_t window,
                              int64_t max_tokens, std::vector<Span>& spans) {
  spans.clear();
  const int64_t qn = static_cast<int64_t>(queue.size());
  const auto rows = [&](int64_t j) {
    return requests[static_cast<size_t>(queue[static_cast<size_t>(j)])].x.dim(0);
  };
  for (int64_t i0 = 0; i0 < qn; i0 += window) {
    const int64_t i_end = std::min(i0 + window, qn);
    int64_t b0 = i0;
    while (b0 < i_end) {
      // Greedy admission under the token budget: extend while the next
      // request still fits; a single oversized request forms its own span
      // (and at window 1 every request does).
      int64_t b1 = b0 + 1;
      int64_t sum = rows(b0);
      while (b1 < i_end && sum + rows(b1) <= max_tokens) {
        sum += rows(b1);
        ++b1;
      }
      spans.push_back({b0, b1, sum});
      b0 = b1;
    }
  }
  // Largest first; ties keep arrival order (the span start breaks them), so
  // the order is total and std::sort needs no scratch beyond the list.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.rows != b.rows ? a.rows > b.rows : a.begin < b.begin;
  });
}

std::vector<ServeOutcome> ServingEngine::ServeWithStatus(
    const std::vector<ServeRequest>& requests) {
  const int64_t n = static_cast<int64_t>(requests.size());
  std::vector<ServeOutcome> outcomes(static_cast<size_t>(n));
  // Serve/Drain handshake: a drained engine rejects the whole call with a
  // definite status (never an abort, never a hang); otherwise the call
  // registers as active so Drain() can wait it out.
  {
    std::lock_guard<std::mutex> lock(serve_mu_);
    if (draining_.load(std::memory_order_acquire)) {
      for (ServeOutcome& outcome : outcomes) {
        outcome.status = ServeStatus::kCancelled;
      }
      stats_.requests += n;
      stats_.cancelled += n;
      return outcomes;
    }
    ++serve_active_;
  }
  const int64_t t0_abs_us = SteadyNowUs();
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_us = [&t0] {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  // Admission: validate every request up front (pure per-request work, so it
  // fans out), then admit in arrival order against the bounded queue —
  // shedding is deterministic, independent of streams/threads/timing. A
  // rejected request never reaches a stream, so it cannot perturb the batch
  // composition of admitted neighbours beyond its absence (which the PR 6
  // contract makes bitwise invisible).
  std::vector<ServeStatus> admit(static_cast<size_t>(n), ServeStatus::kOk);
  ParallelFor(n, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      admit[static_cast<size_t>(i)] = AdmissionStatus(requests[static_cast<size_t>(i)]);
    }
  });
  std::vector<int64_t> queue;
  queue.reserve(static_cast<size_t>(n));
  int64_t rejected_invalid = 0;
  int64_t rejected_overload = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (admit[static_cast<size_t>(i)] != ServeStatus::kOk) {
      outcomes[static_cast<size_t>(i)].status = admit[static_cast<size_t>(i)];
      ++rejected_invalid;
      continue;
    }
    if (queue_capacity_ > 0 && static_cast<int64_t>(queue.size()) >= queue_capacity_) {
      outcomes[static_cast<size_t>(i)].status = ServeStatus::kRejectedOverload;
      ++rejected_overload;
      continue;
    }
    queue.push_back(i);
  }
  // Absolute per-request deadlines on the steady clock (kNoDeadline when
  // neither the request nor the engine sets a budget). Queued requests start
  // in kCancelled, not the kInternal default: if Drain() stops the claim loop
  // before a worker reaches them, they already carry the definite status the
  // drain contract promises.
  std::vector<int64_t> deadline_abs(static_cast<size_t>(n), CancelToken::kNoDeadline);
  for (const int64_t idx : queue) {
    const ServeRequest& request = requests[static_cast<size_t>(idx)];
    const int64_t budget_us = request.deadline_us > 0 ? request.deadline_us : deadline_us_;
    if (budget_us > 0) {
      deadline_abs[static_cast<size_t>(idx)] = t0_abs_us + budget_us;
    }
    outcomes[static_cast<size_t>(idx)].status = ServeStatus::kCancelled;
  }
  const int64_t qn = static_cast<int64_t>(queue.size());
  std::vector<double> latencies(static_cast<size_t>(n), 0.0);
  std::vector<int64_t> bucket_of(static_cast<size_t>(n), 0);

  // Work-conserving M:N dispatch over the call's spans, formed up front and
  // ordered largest first (FormSpans): each stream worker claims the next
  // span off a shared cursor, so the longest forwards start first and the
  // short ones fill the tail (longest-processing-time-first list
  // scheduling). Requests never split across streams, and span (and
  // therefore batch) composition is fixed before any stream claims, so
  // per-request replay bits are independent of the claim interleaving.
  FormSpans(requests, queue, batch_window_, max_batch_tokens_, spans_);
  const int64_t num_spans = static_cast<int64_t>(spans_.size());
  std::atomic<int64_t> next{0};
  const int budget = std::max(1, NumThreads() / std::max(1, num_streams_));
  ParallelTasks(num_streams_, budget, [&](int64_t s) {
    // Fault probes are live only inside engine workers: plan replays
    // anywhere else in the process never observe injected faults.
    ScopedFaultArming arming;
    StreamState& stream = *streams_[static_cast<size_t>(s)];
    // Route this worker's replay step checkpoints into the stream's
    // heartbeat counter for the watchdog.
    ScopedThreadHeartbeat heartbeat_scope(&stream.heartbeat);
    for (int64_t k = next.fetch_add(1, std::memory_order_relaxed); k < num_spans;
         k = next.fetch_add(1, std::memory_order_relaxed)) {
      // Drain stops claiming at span boundaries: already-claimed spans run
      // to their definite outcome (finished or cancelled mid-replay by the
      // stream token), unclaimed requests keep their kCancelled status.
      if (draining_.load(std::memory_order_acquire)) {
        break;
      }
      const Span& claimed = spans_[static_cast<size_t>(k)];
      // Deadline-expiry sweep at claim time: a request whose latency
      // budget lapsed while it waited for a stream is shed before packing,
      // so an overloaded engine stops spending compute on requests nobody
      // is waiting for anymore.
      stream.span.clear();
      const int64_t sweep_now_us = SteadyNowUs();
      for (int64_t j = claimed.begin; j < claimed.end; ++j) {
        const int64_t idx = queue[static_cast<size_t>(j)];
        if (deadline_abs[static_cast<size_t>(idx)] <= sweep_now_us) {
          outcomes[static_cast<size_t>(idx)].status = ServeStatus::kDeadlineExceeded;
          ++stream.timed_out_queued;
        } else {
          stream.span.push_back(idx);
        }
      }
      if (stream.span.empty()) {
        continue;
      }
      // Mark the stream mid-claim for the watchdog, then draw the seeded
      // stall probe: a fired stall wedges the worker *before* the forward,
      // so watchdog detection and in-flight deadline lapse both become
      // reachable deterministically.
      int64_t span_tokens = 0;
      for (const int64_t idx : stream.span) {
        span_tokens += requests[static_cast<size_t>(idx)].x.dim(0);
      }
      stream.hb_rows.store(span_tokens, std::memory_order_relaxed);
      stream.hb_active.store(true, std::memory_order_release);
      if (FaultProbe(FaultSite::kStall)) {
        ++stream.stalls_injected;
        std::this_thread::sleep_for(std::chrono::microseconds(ActiveFaultConfig().stall_us));
      }
      ServeSpan(stream, requests, stream.span, deadline_abs, outcomes, bucket_of);
      stream.hb_active.store(false, std::memory_order_release);
      const double done = elapsed_us();
      int64_t completed = 0;
      for (const int64_t idx : stream.span) {
        if (outcomes[static_cast<size_t>(idx)].status == ServeStatus::kOk) {
          latencies[static_cast<size_t>(idx)] = done;
          ++completed;
        }
      }
      stream.requests += completed;
    }
  });
  const double wall_us = elapsed_us();

  // Every claim ends in a definite status, and queued-but-unclaimed requests
  // (possible only under Drain) already hold kCancelled, so nothing leaves
  // here with the kInternal default unless a retry genuinely failed.
  // Outputs are allocated only at egress for kOk members, so the structured
  // contract (output iff kOk) holds without a sweep here.
  std::vector<int64_t> ok_buckets;
  std::vector<double> ok_latencies;
  ok_buckets.reserve(static_cast<size_t>(qn));
  ok_latencies.reserve(static_cast<size_t>(qn));
  int64_t cancelled_now = 0;
  for (int64_t i = 0; i < n; ++i) {
    ServeOutcome& outcome = outcomes[static_cast<size_t>(i)];
    if (outcome.status == ServeStatus::kOk) {
      ok_buckets.push_back(bucket_of[static_cast<size_t>(i)]);
      ok_latencies.push_back(latencies[static_cast<size_t>(i)]);
    } else if (outcome.status == ServeStatus::kCancelled) {
      ++cancelled_now;
    }
  }
  const int64_t served_ok = static_cast<int64_t>(ok_latencies.size());

  // Lifetime + last-call statistics (single-caller engine: no worker is
  // running here anymore, so plain reads of the stream states are safe).
  stats_.requests += n;
  stats_.wall_us = wall_us;
  stats_.requests_per_sec =
      wall_us > 0.0 ? static_cast<double>(served_ok) / (wall_us / 1e6) : 0.0;
  stats_.rejected_invalid += rejected_invalid;
  stats_.rejected_overload += rejected_overload;
  stats_.cancelled += cancelled_now;
  const auto total = [this](int64_t StreamState::*counter) {
    int64_t sum = 0;
    for (const std::unique_ptr<StreamState>& stream : streams_) {
      sum += (*stream).*counter;
    }
    return sum;
  };
  stats_.timed_out_inflight = total(&StreamState::timed_out_inflight);
  stats_.timed_out = total(&StreamState::timed_out_queued) + stats_.timed_out_inflight;
  stats_.cancelled_forwards = total(&StreamState::cancelled_forwards);
  stats_.stalls_injected = total(&StreamState::stalls_injected);
  stats_.faults_injected = total(&StreamState::faults);
  stats_.retries = total(&StreamState::retries);
  stats_.internal_failures = total(&StreamState::internal);
  for (int s = 0; s < num_streams_; ++s) {
    stats_.per_stream_requests[static_cast<size_t>(s)] = streams_[static_cast<size_t>(s)]->requests;
  }
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    stats_.stalls_detected = stalls_detected_;
  }
  // Pool gauges: a stream's stack stream is only ever replaced by a larger
  // one, so the pinned footprint is whatever the streams hold now.
  stats_.pool_contexts = 0;
  stats_.pool_arena_bytes = 0;
  for (const std::unique_ptr<StreamState>& stream : streams_) {
    stats_.pool_contexts += stream->transformer.NumContexts() + stream->ffn.NumContexts();
    stats_.pool_arena_bytes += stream->transformer.ArenaBytes() + stream->ffn.ArenaBytes();
  }
  stats_.pool_contexts_highwater = std::max(stats_.pool_contexts_highwater, stats_.pool_contexts);
  stats_.pool_arena_bytes_highwater =
      std::max(stats_.pool_arena_bytes_highwater, stats_.pool_arena_bytes);
  MergeBucketStats(ok_buckets, ok_latencies);
  if (served_ok > 0) {
    double sum = 0.0;
    for (const double l : ok_latencies) {
      sum += l;
    }
    stats_.mean_latency_us = sum / static_cast<double>(served_ok);
    std::sort(ok_latencies.begin(), ok_latencies.end());
    stats_.p50_latency_us = PercentileNearestRank(ok_latencies, 0.50);
    stats_.p99_latency_us = PercentileNearestRank(ok_latencies, 0.99);
  } else {
    // Zero completions (empty call, or everything rejected/shed/timed out):
    // the latency report is explicitly zero, never 0/0 or a percentile of an
    // empty sample.
    stats_.mean_latency_us = 0.0;
    stats_.p50_latency_us = 0.0;
    stats_.p99_latency_us = 0.0;
  }
  {
    // Notify under the lock: once a drainer observes serve_active_ == 0 the
    // engine may be destroyed, so the notify must happen-before that
    // observation, not after.
    std::lock_guard<std::mutex> lock(serve_mu_);
    --serve_active_;
    serve_cv_.notify_all();
  }
  return outcomes;
}

}  // namespace pit

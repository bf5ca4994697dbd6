// Throughput-oriented multi-stream serving engine over the planned stacks.
//
// The compile-once/execute-many seam (shared immutable ExecutionPlans, PR 2-4)
// served one request stream: a plan's arena was its execution state, so a
// second in-flight forward had to wait. This engine exploits the plan/context
// split: every stream holds private ExecutionContexts over the stack's shared
// plans, so N streams replay the same compiled plans concurrently with zero
// cross-stream shared mutable state — inter-request parallelism, which is
// where the hardware headroom is at serving-size shapes (small per-step
// work leaves little for intra-op parallelism alone).
//
// Compile once, replay at any row count (Fig. 5; the token axis is a
// PIT-axis of every row-wise op, §3.2): each stream holds exactly one stack
// stream — one context per layer, all in one shared arena — over
// token-polymorphic plans compiled at a capacity of max_batch_tokens rows (on
// the power-of-two grid), built on first use and grown only when a longer
// request arrives. Every forward binds its own row count: a packed batch
// replays at exactly its summed tokens, a 1:1 request (a packed span of one)
// at its length, so no padding row is ever computed. Pooled memory is
// therefore streams x one capacity layer arena, whatever the length mix.
//
// Continuous ragged batching (PR 6) applies the paper's micro-tile
// permutation to the batch axis: a padded mixed-length batch is a dynamically
// row-sparse tensor (§2.1 Fig. 2c), so a stream coalesces several in-flight
// requests of *different* token counts into one dense forward by
// SRead-gathering each request's token rows into a packed
// [sum_tokens, hidden] tile, replaying the stack's shared plan over it with
// one attention segment per request (a request's rows attend only to each
// other, under its own mask, so attention costs sum(t_i^2) score entries
// rather than sum(t)^2), and SWrite-scattering per-request outputs back.
// PIT's kernel cache selects once per power-of-two row-count bucket and runs
// the chosen kernel at the exact sum, so the distinct sums of one bucket share
// one selection (the engine's shared PitCompiler). The batched result is
// bitwise identical per request to 1:1 single-stream replay for dense
// serving: every other kernel in the stack is row-independent (GEMM rows,
// layernorm, residuals) and each segment runs exactly the attention calls of
// its request served alone, so a request's rows cannot observe its batch
// neighbours. A masked 1:1 request is one segment carrying its mask.
//
// Scheduling: one worker per stream on the task-capable ParallelFor pool
// (ParallelTasks). A Serve call first forms its spans — its forwards — as a
// pure function of (admitted requests, batch window, token cap):
// window-aligned strides of the admitted queue, each split greedily under
// the token cap. The spans are ordered by packed row count, largest first
// (ties in arrival order), and each worker greedily claims the next span off
// a shared atomic cursor — a work-conserving M:N scheduler, not a static
// partition, and longest-processing-time-first, so the long forwards start
// early and the short ones fill the streams' tails. Span (and therefore
// batch) composition never depends on the stream count or claim timing;
// only the claim order is scheduled. Each worker runs with an elastic
// intra-op width budget: threads/streams while any worker is unstarted, then
// the pool split over the workers still running, so once a worker finds no
// span left its threads widen the forwards still in flight, and the client
// thread helps run their kernels' chunks after its own worker is done. Each
// kernel call fans out to the budget it reads when it starts, which keeps
// every result bitwise identical to single-stream replay at any
// (streams x threads) combination: requests never split across streams,
// contexts never cross streams, and every kernel is chunk-count
// deterministic.
//
// The client's serial prelude is short: admission's finiteness scan is
// branch free and fans out with the rest of admission, and each kOk output
// is allocated by its stream at egress, not for every admitted request up
// front.
//
// Fault containment (PR 9): the error domain is split in two. *API misuse* —
// a null stack, negative option values, legacy Serve() on a failed request —
// stays fail-fast (PIT_CHECK abort, check.h). *Data-dependent request
// failures* are contained at the request boundary and reported as a
// per-request ServeStatus: admission validates shape, mask dimensions and
// finiteness up front (kInvalidArgument), a bounded admission queue sheds
// overflow (kRejectedOverload), a deadline sweep sheds requests whose latency
// budget lapsed while queued (kDeadlineExceeded), and injected or transient
// infrastructure faults ride one degradation ladder for both stacks and every
// batch window — retry a failed plan compile once, fall back to a transient
// unpooled stream on context exhaustion, and retry a failed forward (pack,
// compile double fault, kernel dispatch) once at identical composition —
// that ends in kOk or, only under persistent injected faults, kInternal.
// A rejected request is excluded from its packed batch without perturbing
// batchmates: the PR 6 contract makes per-request outputs independent of
// batch composition, so every degradation rung is bitwise invisible to the
// surviving requests. The fault taps themselves live in
// common/fault_injection.h (PIT_FAULT=site:rate:seed) and fire only inside
// the engine's stream workers.
//
// Liveness (PR 10): fault containment alone still hangs when work *stops*
// instead of failing, so the engine carries the liveness half of isolation.
// Every stream owns a CancelToken installed on its contexts; plan
// replay polls it at step boundaries (kernels stay
// uninterruptible), giving bounded time-to-release: deadlines are enforced
// *in flight*, not just at claim time — a packed batch whose every member
// lapsed mid-replay is released kDeadlineExceeded without completing the
// forward, while a batch with surviving members completes and marks only the
// lapsed members at egress (without output), so surviving outputs stay
// bitwise identical to fault-free 1:1 replay. An engine-owned watchdog thread
// reads per-stream heartbeat counters (bumped at replay checkpoints) for
// bounded time-to-*detection*: a mid-request stream silent past
// ServingEngineOptions::watchdog_us is logged and counted (stalls_detected),
// and WatchdogMode::kAbort escalates to fail-fast. The deterministic `stall`
// fault site (PIT_FAULT=stall:rate:seed, a seeded worker sleep) makes both
// provable in chaos. Drain()/the destructor stop claiming, cancel or finish
// in-flight work per policy, release queued requests kCancelled, and reject
// later Serves with a definite status.
//
// ServingEngineOptions is the engine's only configuration: each field takes
// its explicit value, else (0) its default — NumThreads() streams, batch
// window 1 (batching off), 512 batch token rows, no default deadline, an
// unbounded admission queue, and no watchdog.
#ifndef PIT_RUNTIME_SERVING_ENGINE_H_
#define PIT_RUNTIME_SERVING_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pit/common/cancellation.h"
#include "pit/runtime/models.h"
#include "pit/tensor/tensor.h"

namespace pit {

// Terminal state of one served request. Every submitted request ends in
// exactly one of these; the engine never aborts on malformed request *data*
// (aborting remains reserved for API misuse).
enum class ServeStatus {
  kOk = 0,                // output holds the [tokens, hidden] result
  kInvalidArgument = 1,   // rejected at admission: shape/mask/finiteness
  kDeadlineExceeded = 2,  // latency budget lapsed (queued, mid-replay, or at egress)
  kRejectedOverload = 3,  // shed by the bounded admission queue
  kInternal = 4,          // degradation ladder exhausted (persistent faults)
  kCancelled = 5,         // engine drained: in-flight work cut, queued work
                          // released unserved, or Serve called after Drain
};

// Human-readable status name ("ok", "invalid_argument", ...).
const char* ServeStatusName(ServeStatus status);

// What the watchdog does when a stream stays silent past the threshold.
// Report increments stalls_detected and logs the diagnostic; abort
// additionally fail-fasts the process with the dump — for deployments where a
// wedged stream is worse dead than slow.
enum class WatchdogMode {
  kReport = 0,
  kAbort = 1,
};

// What Drain() does with spans already claimed by a stream worker. Unclaimed
// queued requests are always released unserved with kCancelled — draining
// stops claiming first in either policy.
enum class DrainPolicy {
  kFinishInFlight = 0,  // let claimed spans complete normally (kOk etc.)
  kCancelInFlight = 1,  // fire the streams' cancel tokens: claimed spans stop
                        // at the next step boundary and end kCancelled
};

// One inference request: an activation batch and an optional attention mask
// (transformer stacks only; FFN stacks reject masked requests at admission).
// The mask must outlive the Serve call.
struct ServeRequest {
  Tensor x;                           // [tokens, hidden]
  const Tensor* attn_mask = nullptr;  // [tokens, tokens] or nullptr
  // Latency budget in microseconds, measured from submission (Serve entry):
  // a request still waiting for a stream when its budget lapses is shed with
  // kDeadlineExceeded before packing, so an overloaded engine stops spending
  // compute on requests nobody is waiting for anymore. 0 inherits the
  // engine's default deadline (ServingEngineOptions::deadline_us; 0 there
  // too means no deadline). Negative budgets are rejected at admission with
  // kInvalidArgument.
  int64_t deadline_us = 0;
};

// Terminal outcome of one request: its status and, iff status == kOk, the
// [tokens, hidden] output (empty otherwise).
struct ServeOutcome {
  ServeStatus status = ServeStatus::kInternal;
  Tensor output;
};

struct ServingEngineOptions {
  // > 0: explicit stream count. 0: NumThreads().
  int num_streams = 0;
  // Route the stacks' sparse matmuls through PIT. The engine owns one
  // PitCompiler, shared by every stream, with periodic resampling left
  // disabled: Algorithm 1 runs once per (row bucket, k, n, sparsity bucket)
  // key over the engine's lifetime, whatever the stream count, and every
  // stream runs the kernel published for a key. That kernel is the one
  // selected for the first input to reach the key, so which input that was
  // can depend on claim timing; the tests check that PIT outputs match
  // across stream counts at the tested sparsities.
  bool use_pit = false;
  // Continuous ragged-batching admission policy. batch_window is the width
  // of the window-aligned strides the admitted queue is cut into; a packed
  // forward coalesces consecutive requests of one stride (the latency bound:
  // a request waits for at most window - 1 batchmates). max_batch_tokens
  // closes a batch early when admitting the next request would push the
  // packed row count past it (the compute bound; a single longer request
  // forms its own batch). max_batch_tokens also sets
  // the row capacity every stream's plans are compiled at; a longer request
  // grows it. > 0: explicit. 0: 1 (batching off — every request replays at
  // its exact token count) and 512. The resulting spans are served largest
  // first, so within one Serve call short requests finish after long ones:
  // that shapes the last call's per-request p50/p99 (ServingEngineStats),
  // not the call's wall time.
  int batch_window = 0;
  int max_batch_tokens = 0;
  // Default per-request latency budget in microseconds (requests may carry a
  // tighter or looser one in ServeRequest::deadline_us). > 0: explicit.
  // 0: no deadline. Negative values are API misuse (PIT_CHECK).
  int64_t deadline_us = 0;
  // Bounded admission queue: at most this many requests per Serve call are
  // admitted; the rest are shed with kRejectedOverload (admission order, so
  // shedding is deterministic). > 0: explicit. 0: unbounded. Negative values
  // are API misuse (PIT_CHECK).
  int queue_capacity = 0;
  // Per-stream stall-detection threshold in microseconds: an engine-owned
  // watchdog thread reads the streams' heartbeat counters (bumped at replay
  // step checkpoints) and flags any stream that is mid-request but
  // silent for longer than this. > 0: explicit. 0: no watchdog. Negative
  // values are API misuse (PIT_CHECK).
  int64_t watchdog_us = 0;
  // Escalation on detection.
  WatchdogMode watchdog_mode = WatchdogMode::kReport;
};

// Per-bucket service accounting. A "bucket" is the row count a forward
// replays the stream's capacity plans at: the summed token count of a packed
// batch, or a request's token count when serving 1:1. Every serving stream
// holds one stack stream, so buckets describe replay shapes, not plan sets.
struct ServingBucketStats {
  int64_t bucket = 0;           // replayed row count
  int64_t batches = 0;          // lifetime forwards at this row count
  int64_t requests = 0;         // lifetime requests served through them
  int64_t packed_tokens = 0;    // lifetime real token rows packed
  int64_t computed_tokens = 0;  // lifetime rows computed (== packed_tokens)
  // Stack-stream acquisitions at this row count: hits replayed the built
  // stream, misses built it (first use) or grew it (a longer request).
  int64_t plan_hits = 0;
  int64_t plan_misses = 0;
  // Nearest-rank latency percentiles of the last Serve call's kOk requests
  // that landed in this bucket (0 when none did).
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
};

// Aggregate statistics of the engine's lifetime (latencies of the most
// recent Serve call; pool high-water marks across all calls).
struct ServingEngineStats {
  int num_streams = 0;
  int batch_window = 1;
  int max_batch_tokens = 0;
  int64_t requests = 0;       // total requests submitted over the engine lifetime
  int64_t batches = 0;        // total forwards dispatched (== requests unbatched)
  double wall_us = 0.0;       // wall-clock of the last Serve call
  double requests_per_sec = 0.0;  // kOk completions per second, last call
  // Latency statistics over the last Serve call's kOk requests; all 0 when
  // none completed (an empty or fully-shed call must not divide by zero or
  // take a percentile of nothing).
  double mean_latency_us = 0.0;  // arrival (= Serve start) -> completion
  double p50_latency_us = 0.0;   // nearest-rank percentiles (PercentileNearestRank)
  double p99_latency_us = 0.0;
  // Lifetime fraction of computed token rows that were real request rows.
  // Every forward replays at its exact summed rows, so this is 1.0.
  double packed_utilization = 1.0;
  // Fault-containment accounting (lifetime). The injected-fault ledger
  // reconciles exactly: faults_injected == retries + degraded_forwards +
  // internal_failures — every injected fault is compensated by exactly one
  // retry, one degraded (but successful) forward, or one terminal internal
  // failure. internal_failures counts terminal *forwards*; a packed forward
  // that dies maps to one internal failure but fails every request in it.
  int64_t rejected_invalid = 0;   // admission rejections (kInvalidArgument)
  int64_t rejected_overload = 0;  // queue shed (kRejectedOverload)
  int64_t timed_out = 0;          // all kDeadlineExceeded requests (sweep + in-flight)
  // The in-flight subset of timed_out: requests whose budget lapsed after
  // their batch was claimed — released mid-replay (the whole batch lapsed) or
  // marked at egress without output (some batchmates survived).
  int64_t timed_out_inflight = 0;
  // Requests ended kCancelled (drain cut them, released them unclaimed, or
  // rejected a post-Drain Serve).
  int64_t cancelled = 0;
  // Packed forwards released early by a fired cancel token (every member's
  // deadline lapsed mid-replay, or drain) instead of completing.
  int64_t cancelled_forwards = 0;
  // Liveness chaos + supervision: stall-site probes that fired in this
  // engine's workers (seeded sleeps), watchdog detections, and the
  // min/max silence the watchdog observed at detection time (microseconds;
  // the detection-latency bound the chaos gate asserts against).
  int64_t stalls_injected = 0;
  int64_t stalls_detected = 0;
  int64_t stall_min_silence_us = 0;
  int64_t stall_max_silence_us = 0;
  int64_t faults_injected = 0;    // fault-injection probes that fired in this engine
  int64_t retries = 0;            // same-composition retry rungs taken
  int64_t degraded_forwards = 0;  // transient-context rungs taken (context_acquire)
  int64_t internal_failures = 0;  // forwards whose ladder exhausted (kInternal)
  // Context/arena pool accounting: each stream pins one context per layer
  // at its capacity once it has served a request, and all of them replay in
  // one arena sized to the stream's largest layer plan; high-water marks
  // track the peak pinned footprint over the engine's lifetime.
  int64_t pool_contexts = 0;             // currently pooled ExecutionContexts
  int64_t pool_contexts_highwater = 0;
  // Bytes pinned by pooled arenas: one arena per active stream, so active
  // streams x one stack stream's ArenaBytes().
  int64_t pool_arena_bytes = 0;
  int64_t pool_arena_bytes_highwater = 0;
  std::vector<int64_t> per_stream_requests;  // lifetime kOk completions per stream
  std::vector<ServingBucketStats> buckets;   // ascending by bucket

  // Multi-line human-readable summary with symbolic status names, for chaos
  // diagnostics and test-failure messages (never parsed programmatically).
  std::string ToString() const;
};

// Drives a pinned PlannedTransformerStack (or PlannedFfnStack) over request
// streams. The engine is itself single-caller (one Serve at a time); all
// parallelism is internal. Streams and their stack streams persist across
// Serve calls, so steady-state serving recompiles and reallocates nothing
// for requests up to the capacity.
class ServingEngine {
 public:
  explicit ServingEngine(const PlannedTransformerStack& stack,
                         const ServingEngineOptions& options = {});
  explicit ServingEngine(const PlannedFfnStack& stack, const ServingEngineOptions& options = {});
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  // Serves every request to a definite terminal status across the engine's
  // streams and returns the outcomes in request order; never aborts on
  // malformed request data. kOk outputs are bitwise identical to
  // single-stream replay (and, for dense serving, to the 1:1 unbatched
  // engine and the stack's eager oracle) for any (streams x threads x
  // batching) combination, and independent of which batchmates
  // were rejected, shed or timed out around them (PR 6 contract). PIT
  // kernel selection is cached once per key in the engine's shared compiler
  // by the first input to reach it (see use_pit) and sees the packed tile's
  // sparsity; the tests check that batched PIT results match batched
  // single-stream PIT replay at the tested sparsities, not the 1:1 PIT
  // engine.
  std::vector<ServeOutcome> ServeWithStatus(const std::vector<ServeRequest>& requests);

  // Legacy strict wrapper: serves via ServeWithStatus and requires every
  // request to end kOk — any contained failure is escalated to the fail-fast
  // domain (PIT_CHECK abort naming the request and its status). For callers
  // whose traffic is correct by construction (benches, examples, tests).
  std::vector<Tensor> Serve(const std::vector<ServeRequest>& requests);

  // Graceful shutdown: stops span claiming, then per policy cancels claimed
  // spans at their next step boundary (kCancelInFlight, their requests end
  // kCancelled) or lets them complete (kFinishInFlight), and blocks until no
  // Serve call is inside the engine. Unclaimed queued requests are released
  // unserved with kCancelled either way. Idempotent — a second Drain (any
  // policy) returns immediately — and permanent: every later Serve call is
  // rejected with all-kCancelled outcomes (never an abort via
  // ServeWithStatus). The destructor drains with kCancelInFlight.
  void Drain(DrainPolicy policy = DrainPolicy::kFinishInFlight);
  bool drained() const { return draining_.load(std::memory_order_acquire); }

  int num_streams() const { return num_streams_; }
  int batch_window() const { return batch_window_; }
  int max_batch_tokens() const { return max_batch_tokens_; }
  int64_t deadline_us() const { return deadline_us_; }
  int queue_capacity() const { return queue_capacity_; }
  int64_t watchdog_us() const { return watchdog_us_; }
  WatchdogMode watchdog_mode() const { return watchdog_mode_; }
  // Lifetime count of PIT kernel selections the engine's compiler published:
  // one per distinct key, for any stream count (0 without use_pit).
  int64_t kernel_selections() const {
    return compiler_ != nullptr ? compiler_->kernels_compiled() : 0;
  }
  const ServingEngineStats& stats() const { return stats_; }

 private:
  struct StreamState;

  // Shared constructor body: option validation (misuse is fail-fast),
  // stream-state allocation, the shared compiler, stats init (the two
  // public constructors differ only in which stack pointer they set).
  void Init(const ServingEngineOptions& options);
  // Admission validation — the data-dependent half of the error domain:
  // activation shape, deadline sign, mask shape (and absence for FFN
  // stacks), finiteness of activations and mask. Pure per-request.
  ServeStatus AdmissionStatus(const ServeRequest& request) const;
  // Replays the first `rows` rows of the stream's staging tile into its
  // output tile through the stream's one stack stream, with the stream's
  // cancel token and — transformer stacks — its bound attention segments.
  // The stack stream is built on first use, at the capacity (max_batch_tokens
  // on the power-of-two grid), and grown when `rows` exceeds it; the hit or
  // miss is tallied under `rows`. Carries two infrastructure fault taps: a
  // context-acquire fault degrades to a transient stream over the same shared
  // plans (same bits, nothing pinned afterwards); a plan-compile fault
  // retries the build once. False when the retried build failed again
  // (persistent faults; the old stack stream stays). A kernel-dispatch fault
  // stays pending for ForwardSpan.
  bool ReplayStack(StreamState& stream, int64_t rows);
  // Serves the span's requests (original indices) through ForwardSpan under
  // the one degradation ladder, for both stacks and every batch window: a
  // failed forward (batch_pack probe, compile double fault, kernel dispatch
  // fault) is retried once at identical composition; a second failure ends
  // every member kInternal. `deadline_abs` maps every original request index
  // to its absolute lapse time (CancelToken::kNoDeadline for none).
  void ServeSpan(StreamState& stream, const std::vector<ServeRequest>& requests,
                 const std::vector<int64_t>& span, const std::vector<int64_t>& deadline_abs,
                 std::vector<ServeOutcome>& outcomes, std::vector<int64_t>& bucket_of);
  // The one forward every span takes — a 1:1 request is a span of one:
  // gather, segment, replay, scatter. The span replays at exactly its summed
  // tokens, whatever the window.
  // In-flight deadline enforcement happens here: the stream's token is armed
  // with the latest member deadline iff *every* member carries one (the span
  // is cancelled mid-replay only when every member has lapsed — all end
  // kDeadlineExceeded without the forward completing); otherwise the forward
  // completes and members whose own budget lapsed are marked at egress
  // without scattering, so surviving outputs stay bitwise identical to
  // fault-free 1:1 replay. Returns false when a rung inside failed (injected
  // compile double-fault or kernel dispatch fault) — staging contents are
  // then undefined and nothing was scattered; ServeSpan decides the next
  // rung. Cancellation and lapse are definitive outcomes (true), never
  // ladder rungs.
  bool ForwardSpan(StreamState& stream, const std::vector<ServeRequest>& requests,
                   const std::vector<int64_t>& span, const std::vector<int64_t>& deadline_abs,
                   std::vector<ServeOutcome>& outcomes, std::vector<int64_t>& bucket_of);
  // One forward's worth of admitted requests: queue positions [begin, end),
  // packing `rows` token rows.
  struct Span {
    int64_t begin = 0;
    int64_t end = 0;
    int64_t rows = 0;
  };
  // Forms a call's spans into `spans` (cleared first) as a pure function of
  // the admitted queue (original request indices, arrival order), the batch
  // window and the token cap: window-aligned strides of the queue, each split
  // greedily under the cap (a single longer request is a span of its own).
  // The spans come out ordered by rows, largest first, ties in arrival order.
  static void FormSpans(const std::vector<ServeRequest>& requests,
                        const std::vector<int64_t>& queue, int64_t window, int64_t max_tokens,
                        std::vector<Span>& spans);
  // Folds the streams' per-bucket counters and the last Serve's per-request
  // (bucket, latency) pairs — kOk requests only — into stats_.buckets.
  void MergeBucketStats(const std::vector<int64_t>& bucket_of,
                        const std::vector<double>& latencies);
  // The supervision thread's body: every ~watchdog_us_/4 it compares each
  // mid-request stream's heartbeat counter against the last observation;
  // a stream silent past watchdog_us_ is flagged once per stall episode
  // (diagnostic to stderr, stall counters; PIT_CHECK abort under
  // WatchdogMode::kAbort).
  void WatchdogLoop();
  void StopWatchdog();

  const PlannedTransformerStack* transformer_ = nullptr;  // exactly one of the
  const PlannedFfnStack* ffn_ = nullptr;                  // two stacks is set
  int64_t hidden_ = 0;                                    // the stack's width
  int num_streams_ = 1;
  bool use_pit_ = false;
  int batch_window_ = 1;
  int max_batch_tokens_ = 0;
  int64_t deadline_us_ = 0;  // default per-request budget; 0 = none
  int queue_capacity_ = 0;   // admission bound; 0 = unbounded
  int64_t watchdog_us_ = 0;  // stall threshold; 0 = no watchdog thread
  WatchdogMode watchdog_mode_ = WatchdogMode::kReport;
  // The one PIT compiler every stream's replays select through (use_pit
  // only). Thread-safe; its cache outlives Serve calls.
  std::unique_ptr<PitCompiler> compiler_;
  std::vector<std::unique_ptr<StreamState>> streams_;
  // The current Serve call's spans in claim order. Reused across calls, so
  // steady-state dispatch allocates nothing; written by Serve (single
  // caller) before the workers start, then only read by them.
  std::vector<Span> spans_;
  // Supervision thread + its shutdown channel (condvar so StopWatchdog never
  // waits out a full tick).
  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  // guarded by watchdog_mu_
  // Watchdog detections and the min/max silence observed at detection
  // (lifetime), written by the watchdog thread; guarded by watchdog_mu_.
  int64_t stalls_detected_ = 0;
  int64_t stall_min_silence_us_ = 0;
  int64_t stall_max_silence_us_ = 0;
  // Drain/lifecycle synchronization: draining_ stops span claiming (workers
  // poll it at claim boundaries) and permanently rejects later Serves;
  // serve_active_/serve_cv_ let Drain wait for in-flight Serve calls to exit
  // (notified under serve_mu_, so the condvar is never touched after the
  // waiter proceeds).
  std::atomic<bool> draining_{false};
  std::mutex serve_mu_;
  std::condition_variable serve_cv_;
  int serve_active_ = 0;  // guarded by serve_mu_
  ServingEngineStats stats_;
};

}  // namespace pit

#endif  // PIT_RUNTIME_SERVING_ENGINE_H_

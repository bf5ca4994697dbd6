// Shared-memory parallel loop primitive backing the blocked compute backend.
//
// A lazily-created persistent thread pool executes loops split into contiguous
// static chunks. Determinism contract: chunks are contiguous, ordered ranges
// of the iteration space, so any per-chunk partial results merged in chunk
// order reproduce the sequential order exactly — results are independent of
// the thread count AND of the chunk count.
//
// The pool is task-capable: several jobs may be in flight at once (the
// serving engine submits one worker task per stream), and a
// worker running a task may itself submit a nested ParallelFor without
// deadlock. Nested submission is governed by a per-thread *width budget*: a
// task dispatched through ParallelTasks runs with an elastic budget of
// nested chunks (its intra-op share of the thread pool, which widens as
// sibling tasks finish; see ParallelTasks); any other nested ParallelFor call
// runs inline (sequentially). Deadlock-freedom is structural: the submitter
// of every job drains that job's chunk queue itself before waiting, so a job
// can always complete even if no other thread ever helps.
//
// While it waits out chunks other threads claimed, a submitter helps run
// other jobs' loop chunks only if it submitted a ParallelTasks batch from
// outside any chunk or task (in serving: the client thread once its own
// stream is done). Every other waiter sleeps: a thread inside a chunk or task,
// or a top-level ParallelFor caller, may be mid-kernel with thread_local
// scratch live across the loop it waits in, and a helped chunk of the same
// kernel would clobber it.
//
// The worker count defaults to the hardware concurrency and can be overridden
// by the PIT_NUM_THREADS environment variable or SetNumThreads().
#ifndef PIT_COMMON_PARALLEL_FOR_H_
#define PIT_COMMON_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace pit {

// Worker-thread count used by ParallelFor. Resolution order: SetNumThreads()
// override, then PIT_NUM_THREADS, then std::thread::hardware_concurrency().
int NumThreads();

// Strict parser behind the PIT_NUM_THREADS resolution: the value must be a
// plain positive decimal integer in 1..65536 (no trailing junk, no zero, no
// negatives — a typo'd thread count must fail loudly, not silently fall back
// to the hardware default). Aborts via PIT_CHECK on anything else.
int ParseNumThreadsEnv(const char* value);

// Overrides the worker count at runtime (clamped to >= 1). Intended for tests
// and benchmarks; takes effect for subsequent ParallelFor calls.
void SetNumThreads(int n);

// RAII thread-count override.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int n) : saved_(NumThreads()) { SetNumThreads(n); }
  ~ScopedNumThreads() { SetNumThreads(saved_); }
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  int saved_;
};

// fn(begin, end): process the contiguous range [begin, end).
using RangeFn = std::function<void(int64_t begin, int64_t end)>;
// fn(chunk, begin, end): as RangeFn plus the 0-based chunk index, for loops
// that accumulate into per-chunk buffers merged in chunk order afterwards.
using ChunkFn = std::function<void(int chunk, int64_t begin, int64_t end)>;

// True while the calling thread is already executing inside a ParallelFor
// chunk or a ParallelTasks task (nested loops without a width budget run
// inline).
bool ParallelRegionActive();

// The calling thread's nested-parallelism width budget: how many chunks a
// nested ParallelFor submitted from inside the current task may fan out to.
// 0 outside any task and inside plain ParallelFor chunks (nested calls run
// inline there); inside a ParallelTasks task, the task's elastic width (see
// ParallelTasks), read afresh on every call.
int ParallelWidthBudget();

// Chunk count for an n-iteration loop with the given grain:
// min(width, ceil(n / grain)), at least 1, where `width` is the calling
// thread's width budget when inside a task and NumThreads() otherwise. Size
// per-chunk buffers with this and pass the value to ParallelForChunks —
// passing it (rather than having ParallelForChunks recompute it) guarantees
// the loop never uses more chunks than the caller allocated, even if the
// thread count changes concurrently.
int ParallelChunkCount(int64_t n, int64_t grain);

// Out-of-line pool dispatch behind ParallelFor; call ParallelFor instead.
void ParallelForRange(int64_t n, int num_chunks, const RangeFn& fn);

// Splits [0, n) into contiguous chunks and runs them on the pool (the calling
// thread participates). `grain` is the minimum number of iterations worth
// dispatching to a thread; loops smaller than one grain run inline on the
// caller. Blocks until every chunk finished.
//
// Template shim: the serial cases (single chunk — which covers a nested call
// without a width budget and one worker) run the callable directly, so small
// planned-executor steps dispatch with zero heap allocations — only a genuine
// fan-out pays the std::function wrap.
template <typename Fn>
void ParallelFor(int64_t n, int64_t grain, Fn&& fn) {
  if (n <= 0) {
    return;
  }
  const int num_chunks = ParallelChunkCount(n, grain);
  if (num_chunks <= 1) {
    fn(static_cast<int64_t>(0), n);
    return;
  }
  ParallelForRange(n, num_chunks, RangeFn(std::forward<Fn>(fn)));
}

// As ParallelFor but with explicit chunking: runs exactly `num_chunks`
// contiguous chunks (or a single inline chunk 0 when nested/degenerate) and
// hands the chunk index — always < num_chunks — to the callback. Get
// `num_chunks` from ParallelChunkCount.
void ParallelForChunks(int64_t n, int num_chunks, const ChunkFn& fn);

// Out-of-line pool dispatch behind ParallelTasks; call ParallelTasks instead.
// fn(begin, end) runs tasks [begin, end); each claimed range executes with
// the job's elastic width budget (base `nested_width`).
void ParallelTasksRange(int64_t n, int nested_width, const RangeFn& fn);

// Task-parallel region: runs fn(task) for task in [0, n) concurrently on the
// pool, one task per chunk (the calling thread participates). Each task runs
// with an elastic nested-parallelism width budget, so a task may itself call
// ParallelFor and fan out to its share of the pool — this is the seam the
// serving engine's stream workers dispatch through. The budget is
// `nested_width` while any task is unclaimed, then
// max(nested_width, ceil(NumThreads() / live)), where `live` counts the
// tasks claimed but not yet finished, so the threads of finished tasks widen
// the tasks still running; it never exceeds NumThreads() and only grows while
// the region runs. Each nested loop reads it when it sizes its chunks, so a
// task's loops may run at different widths: callers must be chunk-count
// deterministic (every kernel here is). Blocks until every task finished;
// while it waits the calling thread helps run the tasks' nested loops (see
// the helping rule above). Tasks must be mutually independent; the order in
// which they execute is unspecified. Serial cases (one task, one worker,
// nested call) run inline with zero heap allocations.
template <typename Fn>
void ParallelTasks(int64_t n, int nested_width, Fn&& fn) {
  if (n <= 0) {
    return;
  }
  if (n == 1 || NumThreads() <= 1 || ParallelRegionActive()) {
    for (int64_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  ParallelTasksRange(n, nested_width, RangeFn([&fn](int64_t begin, int64_t end) {
                       for (int64_t i = begin; i < end; ++i) {
                         fn(i);
                       }
                     }));
}

// fn(begin, end, out): append the hits found in [begin, end) to `out`, in
// ascending order.
using GatherFn = std::function<void(int64_t begin, int64_t end, std::vector<int64_t>* out)>;

// Parallel ordered gather: scans [0, n) in `num_chunks` contiguous chunks,
// each appending to a private vector, and returns the vectors concatenated in
// chunk order — which reproduces the sequential ascending scan exactly, for
// any chunk count. The shared primitive behind the sparsity detector's
// block-row scan and the live-channel/filter scans.
std::vector<int64_t> ParallelOrderedGather(int64_t n, int num_chunks, const GatherFn& fn);

}  // namespace pit

#endif  // PIT_COMMON_PARALLEL_FOR_H_

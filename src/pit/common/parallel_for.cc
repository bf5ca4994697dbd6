#include "pit/common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "pit/common/check.h"

namespace pit {
namespace {

int DefaultNumThreads() {
  if (const char* env = std::getenv("PIT_NUM_THREADS")) {
    return ParseNumThreadsEnv(env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::atomic<int> g_num_threads{0};  // 0 = not yet resolved

// One job's shared state. A job is either a data-parallel loop (ParallelFor)
// or a task batch (ParallelTasks); both are chunk queues. Heap-held via
// shared_ptr so a worker that picks up an already-finished job reads only
// this job's (exhausted) chunk counter and never touches freed state.
struct Job {
  const ChunkFn* fn = nullptr;
  int64_t n = 0;
  int64_t per_chunk = 0;
  int num_chunks = 0;
  // Base width budget of a nested loop inside one of this job's chunks
  // (ParallelTasks tasks); 0 for plain loops (nested calls inline).
  int nested_width = 0;
  std::atomic<int> next_chunk{0};
  std::atomic<int> remaining{0};

  // The elastic width budget of a nested loop submitted from one of this
  // job's chunks: the base budget while any chunk is unclaimed, then the
  // pool split over the chunks still running (claimed, unfinished), so the
  // threads freed by finished siblings widen the ones left. Never above
  // NumThreads(); it only grows while the job runs.
  int NestedWidth() const {
    if (nested_width == 0) {
      return 0;
    }
    const int threads = NumThreads();
    int width = nested_width;
    if (next_chunk.load(std::memory_order_relaxed) >= num_chunks) {
      const int live = std::max(1, remaining.load(std::memory_order_relaxed));
      width = std::max(width, (threads + live - 1) / live);
    }
    return std::min(width, threads);
  }
};

// The job whose chunk the calling thread is executing, or nullptr outside
// any chunk. Nested ParallelFor calls from a chunk run inline unless the job
// grants a width budget (ParallelTasks).
thread_local const Job* tls_job = nullptr;

// Multi-job work-sharing pool. Any thread — external callers and pool workers
// alike — may submit a job; the submitter always participates and fully
// drains its own chunk queue before waiting, so every job can complete even
// if no worker ever helps (this is what makes nested submission from a
// worker deadlock-free: the blocked submitter has already claimed every
// outstanding chunk, and chunks claimed by other threads run to completion
// without ever waiting on this job).
//
// Helping rule: a submitter waiting out its job's claimed chunks runs other
// jobs' loop chunks only if its job is a task batch submitted from outside
// any chunk (in serving: the client thread once its own stream is done).
// Every other waiter sleeps. A thread inside a chunk or task may be
// mid-kernel, holding thread_local scratch across the nested ParallelFor it
// waits in; a helped chunk of the same kernel would re-enter and clobber it.
// A top-level ParallelFor caller may be mid-kernel too (a kernel's serial
// path runs on the caller), so only the task-batch submitter qualifies, and
// it takes loop chunks only, never another batch's tasks, so it returns
// promptly once its own tasks are done.
class Pool {
 public:
  static Pool& Get() {
    static Pool* pool = new Pool();  // leaked: workers live for the process
    return *pool;
  }

  void Run(const ChunkFn& fn, int64_t n, int num_chunks, int nested_width) {
    const bool helps = nested_width > 0 && tls_job == nullptr;
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->n = n;
    job->num_chunks = num_chunks;
    job->per_chunk = (n + num_chunks - 1) / num_chunks;
    job->nested_width = nested_width;
    job->remaining.store(num_chunks, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(mu_);
      // Size the pool to the job's full concurrency demand: its own chunks
      // TIMES the width budget each chunk's nested loops may fan out to —
      // 3 tasks with budget 3 need up to 9 runnable chunks,
      // not 3 (all capped by the configured thread count). Nested loops that
      // widen later size the pool for themselves.
      const int64_t demand =
          static_cast<int64_t>(num_chunks) * std::max(1, nested_width) - 1;
      EnsureWorkersLocked(static_cast<int>(std::min<int64_t>(demand, NumThreads() - 1)));
      active_.push_back(job);
      ++job_version_;
    }
    work_cv_.notify_all();
    Work(*job);  // the caller is a full participant and drains the queue
    std::unique_lock<std::mutex> lk(mu_);
    // The queue is exhausted (Work returned), so no worker can still claim a
    // chunk: drop the job from the active list and wait out the chunks other
    // threads claimed.
    active_.erase(std::find(active_.begin(), active_.end(), job));
    const auto done = [&] { return job->remaining.load(std::memory_order_acquire) == 0; };
    if (!helps) {
      done_cv_.wait(lk, done);
      return;
    }
    while (!done()) {
      if (std::shared_ptr<Job> loop = FindClaimableLocked(/*loops_only=*/true)) {
        lk.unlock();
        Work(*loop);
        lk.lock();
        continue;
      }
      // Woken by a newly pushed job (work_cv_) or by this task batch's
      // completion, which also signals work_cv_.
      const uint64_t seen_version = job_version_;
      work_cv_.wait(lk, [&] { return done() || job_version_ != seen_version; });
    }
  }

 private:
  Pool() = default;

  void EnsureWorkersLocked(int count) {
    while (static_cast<int>(workers_.size()) < count) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  // First active job with unclaimed chunks (a plain loop, if `loops_only`),
  // or nullptr. Caller holds mu_.
  std::shared_ptr<Job> FindClaimableLocked(bool loops_only) {
    for (const auto& job : active_) {
      if (job->next_chunk.load(std::memory_order_relaxed) < job->num_chunks &&
          (!loops_only || job->nested_width == 0)) {
        return job;
      }
    }
    return nullptr;
  }

  void WorkerLoop() {
    uint64_t seen_version = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lk(mu_);
        while ((job = FindClaimableLocked(/*loops_only=*/false)) == nullptr) {
          work_cv_.wait(lk, [&] { return job_version_ != seen_version; });
          seen_version = job_version_;
        }
      }
      Work(*job);
    }
  }

  static void Work(Job& job) {
    const Job* const saved_job = tls_job;
    tls_job = &job;
    for (;;) {
      const int c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.num_chunks) {
        break;
      }
      const int64_t begin = static_cast<int64_t>(c) * job.per_chunk;
      const int64_t end = std::min<int64_t>(job.n, begin + job.per_chunk);
      if (begin < end) {
        (*job.fn)(c, begin, end);
      }
      if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        Pool& pool = Pool::Get();
        { std::lock_guard<std::mutex> lk(pool.mu_); }  // fence vs. the waiter's predicate check
        pool.done_cv_.notify_all();
        if (job.nested_width > 0) {
          pool.work_cv_.notify_all();  // a helping submitter waits there
        }
      }
    }
    tls_job = saved_job;
  }

  std::mutex mu_;  // guards active_/job_version_/workers_
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::vector<std::shared_ptr<Job>> active_;  // jobs that may have unclaimed chunks
  uint64_t job_version_ = 0;
};

}  // namespace

int ParseNumThreadsEnv(const char* value) {
  constexpr long long kMaxThreads = 1 << 16;
  PIT_CHECK(value != nullptr && *value != '\0')
      << "PIT_NUM_THREADS is set but empty; expected a positive integer";
  // Strict decimal: digits only (strtoll would silently skip leading
  // whitespace and accept a sign).
  PIT_CHECK(*value >= '0' && *value <= '9')
      << "PIT_NUM_THREADS=\"" << value << "\" is not a plain positive integer";
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value, &end, 10);
  PIT_CHECK(end != value && *end == '\0')
      << "PIT_NUM_THREADS=\"" << value << "\" is not an integer";
  PIT_CHECK(errno != ERANGE && v >= 1 && v <= kMaxThreads)
      << "PIT_NUM_THREADS=\"" << value << "\" out of range; expected 1.." << kMaxThreads;
  return static_cast<int>(v);
}

int NumThreads() {
  int v = g_num_threads.load(std::memory_order_relaxed);
  if (v == 0) {
    v = DefaultNumThreads();
    g_num_threads.store(v, std::memory_order_relaxed);
  }
  return v;
}

void SetNumThreads(int n) { g_num_threads.store(std::max(1, n), std::memory_order_relaxed); }

int ParallelChunkCount(int64_t n, int64_t grain) {
  if (n <= 0) {
    return 1;
  }
  grain = std::max<int64_t>(1, grain);
  const int64_t by_grain = (n + grain - 1) / grain;
  const int width = tls_job != nullptr ? std::max(1, tls_job->NestedWidth()) : NumThreads();
  return static_cast<int>(std::clamp<int64_t>(std::min<int64_t>(by_grain, width), 1, 1 << 10));
}

void ParallelForChunks(int64_t n, int num_chunks, const ChunkFn& fn) {
  if (n <= 0) {
    return;
  }
  num_chunks = static_cast<int>(std::clamp<int64_t>(num_chunks, 1, n));
  if (num_chunks <= 1 || (tls_job != nullptr && tls_job->NestedWidth() <= 1)) {
    fn(0, 0, n);
    return;
  }
  Pool::Get().Run(fn, n, num_chunks, /*nested_width=*/0);
}

bool ParallelRegionActive() { return tls_job != nullptr; }

int ParallelWidthBudget() { return tls_job != nullptr ? tls_job->NestedWidth() : 0; }

void ParallelForRange(int64_t n, int num_chunks, const RangeFn& fn) {
  ParallelForChunks(n, num_chunks,
                    [&fn](int /*chunk*/, int64_t begin, int64_t end) { fn(begin, end); });
}

void ParallelTasksRange(int64_t n, int nested_width, const RangeFn& fn) {
  if (n <= 0) {
    return;
  }
  if (n == 1 || NumThreads() <= 1 || tls_job != nullptr) {
    fn(0, n);
    return;
  }
  // One task per chunk: independent tasks have no ordering constraint, so
  // maximal chunking gives the scheduler full claim granularity.
  const int num_chunks = static_cast<int>(std::min<int64_t>(n, 1 << 10));
  const ChunkFn chunk_fn = [&fn](int /*chunk*/, int64_t begin, int64_t end) { fn(begin, end); };
  Pool::Get().Run(chunk_fn, n, num_chunks, std::max(1, nested_width));
}

std::vector<int64_t> ParallelOrderedGather(int64_t n, int num_chunks, const GatherFn& fn) {
  if (n <= 0) {
    return {};
  }
  num_chunks = static_cast<int>(std::clamp<int64_t>(num_chunks, 1, n));
  std::vector<std::vector<int64_t>> parts(static_cast<size_t>(num_chunks));
  ParallelForChunks(n, num_chunks, [&](int chunk, int64_t begin, int64_t end) {
    fn(begin, end, &parts[static_cast<size_t>(chunk)]);
  });
  size_t total = 0;
  for (const auto& part : parts) {
    total += part.size();
  }
  std::vector<int64_t> out;
  out.reserve(total);
  for (const auto& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

}  // namespace pit

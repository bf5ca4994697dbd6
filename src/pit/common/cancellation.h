// Cooperative cancellation + liveness primitives for the replay stack.
//
// CancelToken is an atomic, shareable cancellation flag with an optional
// absolute steady-clock deadline. Kernels stay uninterruptible: plan replay
// polls the token at step boundaries and returns a
// kCancelled replay status instead of completing, so cancellation latency is
// bounded by one step, never by a whole forward.
//
// The heartbeat half is the detection side of the same contract: replaying
// threads publish step progress into a per-stream atomic counter via a
// thread-local pointer (installed with ScopedThreadHeartbeat), and the serving
// engine's watchdog thread reads those counters to spot streams that stopped
// making progress (see ServingEngineOptions::watchdog_us in
// runtime/serving_engine.h).
#ifndef PIT_COMMON_CANCELLATION_H_
#define PIT_COMMON_CANCELLATION_H_

#include <atomic>
#include <cstdint>

namespace pit {

// Monotonic wall time in microseconds (steady clock — immune to NTP steps).
// All deadlines in this header are absolute values on this clock.
int64_t SteadyNowUs();

// Shareable cancellation flag. Writers call Cancel() (sticky manual cancel,
// used by Drain) or ArmDeadline() (absolute steady-clock lapse, used for
// in-flight batch deadlines); readers poll cancelled() at replay checkpoints.
// All members are atomics: any number of threads may poll while one arms.
class CancelToken {
 public:
  static constexpr int64_t kNoDeadline = INT64_MAX;

  // Sticky manual cancellation. Survives ClearDeadline()/Reset of the
  // deadline; only Reset() clears it (tests / stream reuse).
  void Cancel() { manual_.store(true, std::memory_order_release); }

  // Arms an absolute steady-clock deadline (microseconds, SteadyNowUs()
  // epoch). A deadline already in the past cancels immediately.
  void ArmDeadline(int64_t deadline_us) {
    deadline_us_.store(deadline_us, std::memory_order_release);
  }
  void ClearDeadline() {
    deadline_us_.store(kNoDeadline, std::memory_order_release);
  }

  // Clears both the manual flag and the deadline.
  void Reset() {
    manual_.store(false, std::memory_order_release);
    deadline_us_.store(kNoDeadline, std::memory_order_release);
  }

  // Poll side. The fast path (no manual cancel, no armed deadline) is two
  // relaxed-ish atomic loads and no clock read.
  bool cancelled() const {
    if (manual_.load(std::memory_order_acquire)) return true;
    const int64_t d = deadline_us_.load(std::memory_order_acquire);
    if (d == kNoDeadline) return false;
    return SteadyNowUs() >= d;
  }
  bool cancelled_manual() const {
    return manual_.load(std::memory_order_acquire);
  }
  bool deadline_armed() const {
    return deadline_us_.load(std::memory_order_acquire) != kNoDeadline;
  }
  bool deadline_lapsed() const {
    const int64_t d = deadline_us_.load(std::memory_order_acquire);
    return d != kNoDeadline && SteadyNowUs() >= d;
  }

 private:
  std::atomic<bool> manual_{false};
  std::atomic<int64_t> deadline_us_{kNoDeadline};
};

namespace liveness_internal {
// Per-thread heartbeat sink. Null (the default) makes HeartbeatTick() a
// single TLS load + branch, so replay outside a supervised engine pays
// nothing measurable. constinit lets other TUs read it directly instead of
// through a TLS init wrapper (whose null return UBSan reports).
extern thread_local constinit std::atomic<uint64_t>* tls_heartbeat;
}  // namespace liveness_internal

// Bumps the calling thread's published heartbeat counter, if any. Called at
// replay checkpoints (step boundaries) — frequency is bounded by
// plan step count, so a relaxed fetch_add is plenty.
inline void HeartbeatTick() {
  std::atomic<uint64_t>* hb = liveness_internal::tls_heartbeat;
  if (hb != nullptr) hb->fetch_add(1, std::memory_order_relaxed);
}

// Installs a heartbeat counter for the current thread for the scope's
// lifetime, restoring the previous sink on exit (nesting-safe: an inner
// engine's workers shadow, never clobber, an outer installation).
class ScopedThreadHeartbeat {
 public:
  explicit ScopedThreadHeartbeat(std::atomic<uint64_t>* sink)
      : prev_(liveness_internal::tls_heartbeat) {
    liveness_internal::tls_heartbeat = sink;
  }
  ~ScopedThreadHeartbeat() { liveness_internal::tls_heartbeat = prev_; }

  ScopedThreadHeartbeat(const ScopedThreadHeartbeat&) = delete;
  ScopedThreadHeartbeat& operator=(const ScopedThreadHeartbeat&) = delete;

 private:
  std::atomic<uint64_t>* prev_;
};

}  // namespace pit

#endif  // PIT_COMMON_CANCELLATION_H_

// Deterministic fault injection for the serving engine's one retry rung.
//
// The library's baseline contract is fail-fast on misuse (check.h), but the
// serving engine additionally promises that a forward stopped mid-replay by a
// kernel-dispatch failure never loses or corrupts a request: it retries the
// forward once at identical composition and, if that fails too, ends it with
// a definite kInternal. Well-formed inputs never reach that path, so this
// module makes it reachable on demand: seeded, site-keyed probes that "fail"
// deterministically at a configured rate, so the serving suites
// (tests/serving_engine_test.cc) can prove the rung ends in a definite
// per-request ServeStatus — never an abort, never a lost request, never
// divergent bits for requests that still succeed.
//
// Determinism contract: the k-th probe of a site fires iff
// mix(seed, site, k) < rate (a pure function). Probe indices are claimed from
// a per-site atomic sequence, so the *multiset* of fire/no-fire outcomes over
// any N probes is a pure function of (seed, rate, N) — which request observes
// the k-th outcome may vary with thread timing, but every containment
// invariant the tests check (definite statuses, bitwise-identical kOk
// outputs, counter reconciliation) is independent of that assignment.
//
// Probes only fire inside an *armed* scope (ScopedFaultArming, installed by
// the ServingEngine around its stream workers): an installed config perturbs
// serving-engine traffic only, not every plan replay in the process. Probes
// inside a *retry-immune* scope (the engine's retry) are skipped unless the
// config's fail_retries flag is set: by default injected faults model
// transient failures, so every retry succeeds; tests opt into persistent
// faults to exercise kInternal.
//
// Configure in code only, with SetFaultConfig or the ScopedFaultInjection
// RAII guard; there is no environment knob.
//
// The stall site is the liveness counterpart of the kernel-dispatch site: a
// fired probe makes a stream worker sleep for `stall_us` (a seeded wedge, not
// an error), so watchdog detection and in-flight deadline enforcement become
// provable. Because a stall is a delay rather than a failure, it never enters
// the engine's fault ledger.
#ifndef PIT_COMMON_FAULT_INJECTION_H_
#define PIT_COMMON_FAULT_INJECTION_H_

#include <cstdint>

namespace pit {

// The seams a fault can be injected into. Sites are keyed independently: a
// config enables either or both, and each site draws from its own
// deterministic probe sequence.
enum class FaultSite : int {
  kKernelDispatch = 0,  // dispatching a plan step (ExecutionPlan replay)
  kStall = 1,           // seeded sleep inside a stream worker (liveness tests)
};
inline constexpr int kNumFaultSites = 2;

// Human-readable site name ("kernel_dispatch", "stall"), for logs and test
// traces.
const char* FaultSiteName(FaultSite site);

struct FaultInjectionConfig {
  bool enabled = false;
  bool site_enabled[kNumFaultSites] = {false, false};
  double rate = 0.0;  // fire probability per probe, in (0, 1] when enabled
  uint64_t seed = 0;
  // Sleep duration of a fired stall probe, microseconds. Long enough by
  // default that the default-tick watchdog provably detects the wedge;
  // tests dial it down to keep wall time bounded.
  int64_t stall_us = 50000;
  // Evaluate probes inside retry-immune scopes too, so a retried forward can
  // fail again and the terminal kInternal outcome becomes reachable. Off by
  // default: injected faults then model *transient* failures, so every retry
  // provably succeeds.
  bool fail_retries = false;
};

// The active config: the one SetFaultConfig last installed (disabled until
// then).
const FaultInjectionConfig& ActiveFaultConfig();

// Installs `config` and resets the probe sequences, so a test observes the
// deterministic sequence from k = 0. Fired probes are counted by the engine
// that draws them (ServingEngineStats' fault ledger).
void SetFaultConfig(const FaultInjectionConfig& config);

// True when any site is enabled — the cheap predicate the engine arms on.
bool FaultInjectionEnabled();

// Draws the next probe for `site`: true = the injected fault fires. False
// when disarmed, disabled, the site is off, or the scope is retry-immune
// (unless fail_retries).
bool FaultProbe(FaultSite site);

namespace fault_internal {
// Thread-local fast-path flag behind the replay-loop step probe: reading one
// thread-local bool is the entire per-step cost when injection is disarmed.
// constinit keeps that read direct, with no TLS init wrapper call.
extern thread_local constinit bool tls_armed;
bool StepProbeSlow();
}  // namespace fault_internal

// Per-step probe for the ExecutionPlan replay loop: when a kernel-dispatch
// fault fires (or one already fired earlier in this forward), the replay must
// stop dispatching steps and return — the engine consumes the pending fault
// and owns the retry. Near-free when disarmed.
inline bool FaultStepProbe() {
  return fault_internal::tls_armed && fault_internal::StepProbeSlow();
}

// The pending-fault channel between the replay loop and the engine (same
// thread: probes run on the thread that submits plan steps). FaultPending()
// lets later plan replays of the same forward no-op fast; the engine calls
// ConsumeFaultPending() after each dispatch to learn whether the forward was
// aborted (and to clear the flag for the next attempt).
bool FaultPending();
bool ConsumeFaultPending();

// Arms fault probes on the calling thread for the guard's lifetime. The
// ServingEngine installs this inside each stream worker; code outside an
// armed scope (eager oracles, nn-layer forwards, benches) never observes an
// injected fault. Arms only when injection is enabled, so the common case
// stays a no-op.
class ScopedFaultArming {
 public:
  ScopedFaultArming();
  ~ScopedFaultArming();
  ScopedFaultArming(const ScopedFaultArming&) = delete;
  ScopedFaultArming& operator=(const ScopedFaultArming&) = delete;

 private:
  bool saved_;
};

// Marks the calling thread's current operation as a retry: probes are
// skipped inside, unless the config's fail_retries flag asks for persistent
// faults. Nestable.
class ScopedFaultRetryImmunity {
 public:
  ScopedFaultRetryImmunity();
  ~ScopedFaultRetryImmunity();
  ScopedFaultRetryImmunity(const ScopedFaultRetryImmunity&) = delete;
  ScopedFaultRetryImmunity& operator=(const ScopedFaultRetryImmunity&) = delete;
};

// RAII config override for tests: installs a single-site config (or any
// FaultInjectionConfig) and restores the previous one on destruction, each
// through SetFaultConfig.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection(FaultSite site, double rate, uint64_t seed, bool fail_retries = false);
  explicit ScopedFaultInjection(const FaultInjectionConfig& config);
  ~ScopedFaultInjection();
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  FaultInjectionConfig saved_;
};

}  // namespace pit

#endif  // PIT_COMMON_FAULT_INJECTION_H_

#include "pit/common/fault_injection.h"

#include <atomic>

#include "pit/common/check.h"

namespace pit {
namespace {

// Global active config. Written only from SetFaultConfig (tests / process
// setup, outside any serving call); read lock-free by probes. The engine's
// worker fan-out synchronizes the write with the readers (pool submission is
// a happens-before edge), so probes never race a config change mid-Serve.
FaultInjectionConfig g_config;

// Per-site probe sequence: claims the deterministic index k.
std::atomic<uint64_t> g_sequence[kNumFaultSites];

thread_local int tls_retry_immune = 0;
thread_local bool tls_pending = false;

// SplitMix64 finalizer: a well-mixed pure function of the probe key, so the
// fire/no-fire decision for (seed, site, k) is identical on every platform.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

namespace fault_internal {
thread_local constinit bool tls_armed = false;

bool StepProbeSlow() {
  if (tls_pending) {
    return true;  // a fault already aborted this forward; keep it stopped
  }
  if (FaultProbe(FaultSite::kKernelDispatch)) {
    tls_pending = true;
    return true;
  }
  return false;
}
}  // namespace fault_internal

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kKernelDispatch:
      return "kernel_dispatch";
    case FaultSite::kStall:
      return "stall";
  }
  PIT_CHECK(false) << "unknown FaultSite " << static_cast<int>(site);
  return "";
}

const FaultInjectionConfig& ActiveFaultConfig() { return g_config; }

void SetFaultConfig(const FaultInjectionConfig& config) {
  g_config = config;
  for (std::atomic<uint64_t>& sequence : g_sequence) {
    sequence.store(0, std::memory_order_relaxed);
  }
}

bool FaultInjectionEnabled() { return ActiveFaultConfig().enabled; }

bool FaultProbe(FaultSite site) {
  if (!fault_internal::tls_armed) {
    return false;
  }
  const FaultInjectionConfig& config = ActiveFaultConfig();
  if (!config.enabled || !config.site_enabled[static_cast<int>(site)]) {
    return false;
  }
  if (tls_retry_immune > 0 && !config.fail_retries) {
    return false;
  }
  const uint64_t k = g_sequence[static_cast<int>(site)].fetch_add(1, std::memory_order_relaxed);
  if (config.rate < 1.0) {
    const uint64_t key =
        config.seed ^ Mix64((static_cast<uint64_t>(site) + 1) * 0x9E3779B97F4A7C15ULL + k);
    // Map the hash to [0, 1) and compare against the rate; both sides are
    // exact doubles, so the decision is platform-independent.
    const double u =
        static_cast<double>(Mix64(key) >> 11) * (1.0 / 9007199254740992.0);  // 2^53
    return u < config.rate;
  }
  return true;
}

bool FaultPending() { return tls_pending; }

bool ConsumeFaultPending() {
  const bool pending = tls_pending;
  tls_pending = false;
  return pending;
}

ScopedFaultArming::ScopedFaultArming() : saved_(fault_internal::tls_armed) {
  fault_internal::tls_armed = FaultInjectionEnabled();
}

ScopedFaultArming::~ScopedFaultArming() { fault_internal::tls_armed = saved_; }

ScopedFaultRetryImmunity::ScopedFaultRetryImmunity() { ++tls_retry_immune; }

ScopedFaultRetryImmunity::~ScopedFaultRetryImmunity() { --tls_retry_immune; }

ScopedFaultInjection::ScopedFaultInjection(FaultSite site, double rate, uint64_t seed,
                                           bool fail_retries)
    : saved_(ActiveFaultConfig()) {
  PIT_CHECK(rate > 0.0 && rate <= 1.0) << "ScopedFaultInjection rate must be in (0, 1]";
  FaultInjectionConfig config;
  config.enabled = true;
  config.site_enabled[static_cast<int>(site)] = true;
  config.rate = rate;
  config.seed = seed;
  config.fail_retries = fail_retries;
  SetFaultConfig(config);
}

ScopedFaultInjection::ScopedFaultInjection(const FaultInjectionConfig& config)
    : saved_(ActiveFaultConfig()) {
  SetFaultConfig(config);
}

ScopedFaultInjection::~ScopedFaultInjection() { SetFaultConfig(saved_); }

}  // namespace pit

#include "pit/common/fault_injection.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>

#include "pit/common/check.h"

namespace pit {
namespace {

// Global active config. Written only from SetFaultConfig (tests / process
// setup, outside any serving call); read lock-free by probes. The engine's
// worker fan-out synchronizes the write with the readers (pool submission is
// a happens-before edge), so probes never race a config change mid-Serve.
FaultInjectionConfig g_config;
std::once_flag g_env_once;

// Per-site probe sequence (claims the deterministic index k) and fired count.
struct SiteCounters {
  std::atomic<uint64_t> sequence{0};
  std::atomic<int64_t> fired{0};
};
SiteCounters g_sites[kNumFaultSites];

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

void ResolveEnvConfig() {
  const char* value = std::getenv("PIT_FAULT");
  if (value != nullptr && value[0] != '\0') {
    g_config = ParseFaultEnv(value);
  }
}

// Strict decimal fraction in (0, 1]: digits and at most one '.', full
// consumption. Rejects exponents, signs, inf/nan spellings outright.
bool ParseRate(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  int dots = 0;
  for (char c : text) {
    if (c == '.') {
      ++dots;
    } else if (c < '0' || c > '9') {
      return false;
    }
  }
  if (dots > 1 || text == ".") {
    return false;
  }
  *out = std::strtod(text.c_str(), nullptr);
  return *out > 0.0 && *out <= 1.0;
}

// Strict unsigned decimal (seeds may use the full 64-bit range).
bool ParseSeed(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 20) {
    return false;
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return false;  // overflow
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool ParseSite(const std::string& text, FaultInjectionConfig* config) {
  if (text == "all") {
    // "all" spells the failure sites only: stall is a delay fault (liveness
    // chaos) and must never ride along with a failure sweep unasked — a
    // high-rate all-site sweep sleeping 50 ms per claim would turn every
    // containment test into a wall-clock test.
    for (int i = 0; i < kNumFaultSites; ++i) {
      config->site_enabled[i] = static_cast<FaultSite>(i) != FaultSite::kStall;
    }
    return true;
  }
  for (int i = 0; i < kNumFaultSites; ++i) {
    if (text == FaultSiteName(static_cast<FaultSite>(i))) {
      config->site_enabled[i] = true;
      return true;
    }
  }
  return false;
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
    case FaultSite::kPlanCompile:
      return "plan_compile";
    case FaultSite::kContextAcquire:
      return "context_acquire";
    case FaultSite::kBatchPack:
      return "batch_pack";
    case FaultSite::kKernelDispatch:
      return "kernel_dispatch";
    case FaultSite::kStall:
      return "stall";
  }
  PIT_CHECK(false) << "unknown FaultSite " << static_cast<int>(site);
  return "";
}

FaultInjectionConfig ParseFaultEnv(const char* value) {
  PIT_CHECK(value != nullptr && value[0] != '\0')
      << "PIT_FAULT must be site:rate:seed (site: plan_compile|context_acquire|"
         "batch_pack|kernel_dispatch|stall|all, rate in (0,1], seed unsigned decimal)";
  const std::string text(value);
  const size_t first = text.find(':');
  const size_t second = first == std::string::npos ? std::string::npos : text.find(':', first + 1);
  const bool well_formed = first != std::string::npos && second != std::string::npos &&
                           text.find(':', second + 1) == std::string::npos;
  PIT_CHECK(well_formed) << "PIT_FAULT must have exactly three ':'-separated fields "
                            "(site:rate:seed), got \""
                         << text << "\"";
  FaultInjectionConfig config;
  const std::string site = text.substr(0, first);
  const std::string rate = text.substr(first + 1, second - first - 1);
  const std::string seed = text.substr(second + 1);
  PIT_CHECK(ParseSite(site, &config))
      << "PIT_FAULT site must be plan_compile|context_acquire|batch_pack|"
         "kernel_dispatch|stall|all, got \""
      << site << "\"";
  PIT_CHECK(ParseRate(rate, &config.rate))
      << "PIT_FAULT rate must be a plain decimal in (0, 1], got \"" << rate << "\"";
  PIT_CHECK(ParseSeed(seed, &config.seed))
      << "PIT_FAULT seed must be a plain unsigned decimal, got \"" << seed << "\"";
  config.enabled = true;
  // fail_retries stays false: environment-driven chaos injects transient
  // faults only, so every degradation ladder terminates in a served request.
  return config;
}

const FaultInjectionConfig& ActiveFaultConfig() {
  std::call_once(g_env_once, ResolveEnvConfig);
  return g_config;
}

void SetFaultConfig(const FaultInjectionConfig& config) {
  std::call_once(g_env_once, ResolveEnvConfig);  // pin resolution order
  g_config = config;
  ResetFaultCounters();
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
  SiteCounters& counters = g_sites[static_cast<int>(site)];
  const uint64_t k = counters.sequence.fetch_add(1, std::memory_order_relaxed);
  bool fire = true;
  if (config.rate < 1.0) {
    const uint64_t key =
        config.seed ^ Mix64((static_cast<uint64_t>(site) + 1) * 0x9E3779B97F4A7C15ULL + k);
    // Map the hash to [0, 1) and compare against the rate; both sides are
    // exact doubles, so the decision is platform-independent.
    const double u =
        static_cast<double>(Mix64(key) >> 11) * (1.0 / 9007199254740992.0);  // 2^53
    fire = u < config.rate;
  }
  if (fire) {
    counters.fired.fetch_add(1, std::memory_order_relaxed);
  }
  return fire;
}

int64_t FaultProbesFired(FaultSite site) {
  return g_sites[static_cast<int>(site)].fired.load(std::memory_order_relaxed);
}

int64_t FaultProbesFiredTotal() {
  int64_t total = 0;
  for (int i = 0; i < kNumFaultSites; ++i) {
    total += g_sites[i].fired.load(std::memory_order_relaxed);
  }
  return total;
}

void ResetFaultCounters() {
  for (int i = 0; i < kNumFaultSites; ++i) {
    g_sites[i].sequence.store(0, std::memory_order_relaxed);
    g_sites[i].fired.store(0, std::memory_order_relaxed);
  }
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

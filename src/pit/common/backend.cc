#include "pit/common/backend.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "pit/common/check.h"

namespace pit {
namespace {

constexpr int kUnresolved = -1;

std::atomic<int> g_backend{static_cast<int>(ComputeBackend::kBlocked)};

IsaTier DefaultIsa() {
  if (const char* env = std::getenv("PIT_ISA")) {
    return ParseIsaEnv(env);
  }
  return DetectedIsa();
}

std::atomic<int> g_isa{kUnresolved};

}  // namespace

ComputeBackend ActiveBackend() {
  return static_cast<ComputeBackend>(g_backend.load(std::memory_order_relaxed));
}

void SetBackend(ComputeBackend backend) {
  g_backend.store(static_cast<int>(backend), std::memory_order_relaxed);
}

IsaTier DetectedIsa() {
#if PIT_SIMD_X86
  // Static: the CPU's feature set cannot change underneath a running process.
  static const IsaTier detected = [] {
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      if (__builtin_cpu_supports("avx512f")) {
        return IsaTier::kAvx512;
      }
      return IsaTier::kAvx2;
    }
    return IsaTier::kScalar;
  }();
  return detected;
#else
  return IsaTier::kScalar;
#endif
}

IsaTier ParseIsaEnv(const char* value) {
  PIT_CHECK(value != nullptr && *value != '\0')
      << "PIT_ISA is set but empty; expected \"auto\", \"avx2\", or \"scalar\"";
  if (std::strcmp(value, "scalar") == 0) {
    return IsaTier::kScalar;
  }
  if (std::strcmp(value, "avx2") == 0) {
    PIT_CHECK(DetectedIsa() != IsaTier::kScalar)
        << "PIT_ISA=avx2 forced but this build/CPU lacks AVX2+FMA; a silent "
           "scalar downgrade would invalidate the tier's bench numbers";
    return IsaTier::kAvx2;
  }
  PIT_CHECK(std::strcmp(value, "auto") == 0)
      << "unrecognized PIT_ISA=\"" << value << "\"; expected \"auto\", \"avx2\", or \"scalar\"";
  return DetectedIsa();
}

IsaTier ActiveIsa() {
  int v = g_isa.load(std::memory_order_relaxed);
  if (v == kUnresolved) {
    v = static_cast<int>(DefaultIsa());
    g_isa.store(v, std::memory_order_relaxed);
  }
  return static_cast<IsaTier>(v);
}

void SetIsa(IsaTier tier) { g_isa.store(static_cast<int>(tier), std::memory_order_relaxed); }

const char* IsaName(IsaTier tier) {
  switch (tier) {
    case IsaTier::kScalar:
      return "scalar";
    case IsaTier::kAvx2:
      return "avx2";
    case IsaTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool UseSimd() { return UseBlockedBackend() && ActiveIsa() != IsaTier::kScalar; }

}  // namespace pit

#include "pit/common/cancellation.h"

#include <chrono>

namespace pit {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace liveness_internal {
thread_local constinit std::atomic<uint64_t>* tls_heartbeat = nullptr;
}  // namespace liveness_internal

}  // namespace pit

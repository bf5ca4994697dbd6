// Shared helpers for the figure-regeneration benchmarks.
//
// Every bench binary prints a self-describing table of the same series the
// paper's figure reports (markdown-ish, machine-grep-able). Values are
// simulated-latency microseconds/milliseconds from the gpusim cost model
// unless a column explicitly says wall-clock.
#ifndef PIT_BENCH_BENCH_UTIL_H_
#define PIT_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pit/common/backend.h"
#include "pit/common/parallel_for.h"

namespace pit::bench {

inline void PrintHeader(const std::string& title, const std::string& what) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("================================================================\n");
}

class Table {
 public:
  explicit Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
    for (size_t i = 0; i < columns_.size(); ++i) {
      std::printf("%s%-18s", i ? " | " : "", columns_[i].c_str());
    }
    std::printf("\n");
    for (size_t i = 0; i < columns_.size(); ++i) {
      std::printf("%s------------------", i ? "-+-" : "");
    }
    std::printf("\n");
  }

  void Row(const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      std::printf("%s%-18s", i ? " | " : "", cells[i].c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::string> columns_;
};

inline std::string Fmt(double v, const char* fmt = "%.3f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

inline std::string FmtMs(double us) { return Fmt(us / 1000.0, "%.3f"); }
inline std::string FmtPct(double frac) { return Fmt(frac * 100.0, "%.2f%%"); }

// Wall-clock time of `fn`, best of `reps` runs, in microseconds.
template <typename Fn>
double TimeUs(Fn&& fn, int reps = 3) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    if (i == 0 || us < best) {
      best = us;
    }
  }
  return best;
}

// Real concurrency the pool delivers at `threads` workers, measured with a
// memory-parallel sqrt sweep: CI containers routinely report more hardware
// threads than the cgroup quota actually provides, so parallel-speedup
// assertions must gate on this probe, not on the configured thread count.
// The shared implementation behind bench_backend_speedup's detector assert
// and the serving benches' throughput asserts.
inline double ParallelProbeSpeedup(int threads) {
  if (threads <= 1) {
    return 1.0;
  }
  std::vector<float> buf(1 << 21);
  auto work = [&] {
    float* p = buf.data();
    ParallelFor(static_cast<int64_t>(buf.size()), 1 << 14, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        p[i] = std::sqrt(static_cast<float>(i) + p[i]);
      }
    });
  };
  double multi;
  {
    ScopedNumThreads t(threads);
    multi = TimeUs(work, 3);
  }
  double single;
  {
    ScopedNumThreads one(1);
    single = TimeUs(work, 3);
  }
  return multi > 0.0 ? single / multi : 1.0;
}

// A typed JSON field value: doubles print with %.6g, integers print as exact
// integers (byte counters like pool_arena_bytes_highwater were previously
// serialized in scientific notation, e.g. 9.66452e+07 — unreadable and lossy
// past 2^24), strings print quoted.
class JsonValue {
 public:
  JsonValue(double v) : kind_(Kind::kDouble), num_(v) {}          // NOLINT(runtime/explicit)
  JsonValue(float v) : kind_(Kind::kDouble), num_(v) {}           // NOLINT(runtime/explicit)
  JsonValue(int64_t v) : kind_(Kind::kInt), int_(v) {}            // NOLINT(runtime/explicit)
  JsonValue(int v) : kind_(Kind::kInt), int_(v) {}                // NOLINT(runtime/explicit)
  JsonValue(std::string v) : kind_(Kind::kString), str_(std::move(v)) {}  // NOLINT
  JsonValue(const char* v) : kind_(Kind::kString), str_(v) {}     // NOLINT(runtime/explicit)

  std::string Serialized() const {
    char buf[64];
    switch (kind_) {
      case Kind::kDouble:
        std::snprintf(buf, sizeof(buf), "%.6g", num_);
        return buf;
      case Kind::kInt:
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(int_));
        return buf;
      case Kind::kString:
        return "\"" + str_ + "\"";
    }
    return "null";
  }

 private:
  enum class Kind { kDouble, kInt, kString };
  Kind kind_;
  double num_ = 0.0;
  int64_t int_ = 0;
  std::string str_;
};

using JsonFields = std::vector<std::pair<std::string, JsonValue>>;

// One-shot machine probe shared by every bench: the ISA tier (detected by
// CPUID and selected through PIT_ISA), the *reported* hardware thread count,
// and the concurrency the pool *measurably* delivers at 4 workers. CI boxes
// have reported hardware_threads=1 (disarming every speedup assert) and,
// conversely, report far more threads than the cgroup quota provides — so
// scaling asserts gate on probe4, and SIMD asserts gate on the detected
// tier. Probed once, logged prominently on first use, embedded as "meta" in
// every BENCH_*.json so the perf trajectory is interpretable across machines.
struct MachineProbe {
  std::string isa_detected;
  std::string isa_selected;
  int64_t hardware_threads = 0;  // as reported; may misstate the real quota
  int64_t pool_workers = 0;
  double probe4 = 1.0;  // measured pool speedup at 4 workers
  bool SimdSelected() const { return isa_selected != "scalar"; }
};

inline const MachineProbe& GetMachineProbe() {
  static const MachineProbe probe = [] {
    MachineProbe p;
    p.isa_detected = IsaName(DetectedIsa());
    p.isa_selected = IsaName(ActiveIsa());
    p.hardware_threads = static_cast<int64_t>(std::thread::hardware_concurrency());
    p.pool_workers = NumThreads();
    p.probe4 = ParallelProbeSpeedup(4);
    std::printf(
        "[machine] isa detected=%s selected=%s | hardware_threads=%lld (reported) | "
        "pool_workers=%lld | measured pool speedup@4 = %.2fx%s\n",
        p.isa_detected.c_str(), p.isa_selected.c_str(),
        static_cast<long long>(p.hardware_threads), static_cast<long long>(p.pool_workers),
        p.probe4,
        p.probe4 > 2.0 ? "" : " — parallel-scaling asserts DISARMED (no effective concurrency)");
    return p;
  }();
  return probe;
}

// Accumulates named records of typed fields and writes them as a BENCH_*.json
// trajectory file:
//   {"bench": "...", "meta": {...}, "results": [{"name": "...", ...}, ...]}
// The meta block carries the MachineProbe (ISA tiers, hardware threads, pool
// width, measured 4-way speedup) so every report is self-describing.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) : bench_name_(std::move(bench_name)) {}

  void Add(const std::string& name, JsonFields fields) {
    records_.emplace_back(name, std::move(fields));
  }

  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const MachineProbe& mp = GetMachineProbe();
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench_name_.c_str());
    std::fprintf(f,
                 "  \"meta\": {\"isa_detected\": \"%s\", \"isa_selected\": \"%s\", "
                 "\"hardware_threads\": %lld, \"pool_workers\": %lld, "
                 "\"pool_speedup_at_4\": %.3f},\n",
                 mp.isa_detected.c_str(), mp.isa_selected.c_str(),
                 static_cast<long long>(mp.hardware_threads),
                 static_cast<long long>(mp.pool_workers), mp.probe4);
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "    {\"name\": \"%s\"", records_[i].first.c_str());
      for (const auto& [key, value] : records_[i].second) {
        std::fprintf(f, ", \"%s\": %s", key.c_str(), value.Serialized().c_str());
      }
      std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::string bench_name_;
  std::vector<std::pair<std::string, JsonFields>> records_;
};

}  // namespace pit::bench

#endif  // PIT_BENCH_BENCH_UTIL_H_

// Analytical GPU device model.
//
// The paper evaluates on NVIDIA V100 and A100. This repository substitutes an
// analytical execution model for the physical device (the figure benches
// print its simulated microseconds; README "Benchmarks"): a kernel is a set
// of tiles scheduled in waves over the SMs; each tile's time follows a
// roofline with a tile-shape-dependent efficiency factor. The model is
// deterministic, so every figure regenerates identically on any machine.
#ifndef PIT_GPUSIM_DEVICE_H_
#define PIT_GPUSIM_DEVICE_H_

#include <cstdint>
#include <string>

namespace pit {

enum class Precision { kFp32, kFp16 };

inline int64_t BytesPerElement(Precision p) { return p == Precision::kFp32 ? 4 : 2; }
inline const char* PrecisionName(Precision p) { return p == Precision::kFp32 ? "fp32" : "fp16"; }

// Static description of an accelerator. Units: time in microseconds, so
// throughputs are FLOPs/us and bytes/us.
struct DeviceSpec {
  std::string name;
  int num_sms = 80;
  // Peak fp32 FLOPs per SM per microsecond (CUDA cores).
  double fp32_flops_per_sm_us = 196e3;
  // fp16 throughput multiplier on CUDA cores (half2 math).
  double fp16_multiplier = 2.0;
  // Additional multiplier when a kernel can use tensor cores (wmma/mma).
  double tensor_core_multiplier = 8.0;
  // Global memory bandwidth in bytes per microsecond.
  double mem_bw_bytes_us = 0.9e6;
  // Fixed kernel-launch overhead in microseconds.
  double launch_overhead_us = 5.0;
  // Global-memory read/write transaction granularity in bytes (CUDA: 32 B).
  int transaction_bytes = 32;

  // Machine balance in FLOPs per byte at fp32 — the roofline ridge point.
  double BalanceFlopsPerByte() const {
    return fp32_flops_per_sm_us * num_sms / mem_bw_bytes_us;
  }
};

// Specs follow the public datasheets (V100-SXM2 32GB, A100-SXM4 80GB).
DeviceSpec V100();
DeviceSpec A100();

// Smallest micro-tile (elements along the contiguous axis) that saturates one
// memory transaction: 32 B / elem_size, i.e. 1x8 fp32 or 1x16 fp16 (§3.1).
int64_t MinMicroTileElems(const DeviceSpec& dev, Precision p);

}  // namespace pit

#endif  // PIT_GPUSIM_DEVICE_H_

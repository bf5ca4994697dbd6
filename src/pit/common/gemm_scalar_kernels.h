// The scalar GEMM register-tile kernels — the kScalar ISA tier and the
// differential oracle every SIMD tier is tested against.
//
// These live in their own translation unit, compiled with the compiler's
// auto-vectorizer disabled (see CMakeLists.txt): with -march=native the
// broadcast-axpy inner loops otherwise compile to the host's full vector ISA,
// which makes PIT_ISA=scalar mean "whatever the build flags produced" instead
// of a true scalar baseline. Pinning the tier to scalar code keeps its
// meaning (and its timings in BENCH_pr7.json) stable across build
// configurations. De-vectorization changes no results: the lanes of the j
// loop are independent, so every per-element accumulation chain is the same
// ascending-p sequence either way.
#ifndef PIT_COMMON_GEMM_SCALAR_KERNELS_H_
#define PIT_COMMON_GEMM_SCALAR_KERNELS_H_

#include <cstdint>

namespace pit::scalar_kernels {

inline constexpr int64_t kMr = 4;   // register-tile rows
inline constexpr int64_t kNr = 16;  // register-tile cols (2 cache lines)

// Full 4x16 register tile: C[0:4, 0:16] += A[0:4, p0:p1] * B[p0:p1, 0:16].
// `a` is the tile's first A row, `b`/`c` are offset to the tile's first
// column; bias/relu form the shared fused epilogue.
void Kernel4x16(const float* a, int64_t lda, const float* b, int64_t ldb, float* c, int64_t ldc,
                int64_t p0, int64_t p1, const float* bias, bool relu);

// Ragged-edge tile (mr < 4 and/or nr < 16), same p-ascending per-element
// order, so which kernel covers a row never changes the numeric result.
void KernelEdge(const float* a, int64_t lda, const float* b, int64_t ldb, float* c, int64_t ldc,
                int64_t mr, int64_t nr, int64_t p0, int64_t p1, const float* bias, bool relu);

}  // namespace pit::scalar_kernels

#endif  // PIT_COMMON_GEMM_SCALAR_KERNELS_H_

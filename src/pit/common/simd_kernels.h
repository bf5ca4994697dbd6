// Explicit vector microkernels behind the IsaTier dispatch (common/backend.h).
//
// Kernels are grouped into two dispatch tables resolved once per op call:
//  - GemmKernels: the register-tile GEMM kernels with the fused bias /
//    bias+relu epilogue. The AVX2 tier runs a 4x16 full tile and a scalar
//    fmaf edge tile for ragged rows and columns; the AVX-512 tier runs an
//    8x32 full tile and one masked 8x32 tile that covers every ragged edge
//    (mr <= 8 rows, nr <= 32 columns) on vector lanes. The SIMD variants
//    contract with fma — one rounding per multiply-add instead of two — so
//    they differ from the scalar blocked oracle within tolerance; but every
//    SIMD kernel (vector lanes AND the scalar fma edge kernel) applies the
//    exact same ascending-p fma chain per element, so a result never depends
//    on which kernel covered it, on tiling, packing, row position, or thread
//    count, and the two SIMD tiers are bitwise identical to each other. The
//    8x32 tile exists because a 4x16 AVX-512 tile keeps only 4 zmm
//    accumulator chains live, which leaves a 2-port, 4-cycle-latency fma core
//    latency-bound at half its peak; 16 chains cover the latency. The masked
//    tile exists because a scalar edge runs a 39-wide attention score GEMM
//    at a tenth of the full tiles' rate. The AVX2 tier deliberately keeps its
//    4x16 and scalar edge tiles: they are the independent kernels both
//    AVX-512 tiles are tested against.
//  - RowKernels: row/segment primitives for softmax (max / exp-sum / divide),
//    layernorm (sum / squared-diff sum / normalize), the elementwise kernels
//    (add/relu/scale), the detector's span-nonzero scan, and the row-gather
//    copy. All lane across the column dimension. add/relu/scale/copy and
//    span_nonzero perform per-lane IEEE ops with no reduction, so they are
//    bitwise equal to the scalar tier. row_max is an exact reduction (max is
//    associative). exp_sum uses a polynomial exp and a lane-grouped sum,
//    sum/sqdiff_sum are lane-grouped: tolerance vs scalar, deterministic for
//    a fixed span length. Both SIMD tiers share the AVX2 row kernels.
//
// All intrinsics live in simd_kernels.cc behind function-level
// __attribute__((target(...))), so this TU builds even when the global flags
// lack -mavx2 (e.g. -DPIT_NATIVE_ARCH=OFF); dispatch is gated at runtime on
// DetectedIsa().
#ifndef PIT_COMMON_SIMD_KERNELS_H_
#define PIT_COMMON_SIMD_KERNELS_H_

#include <cstdint>

#include "pit/common/backend.h"

namespace pit {
namespace simd {

struct GemmKernels {
  // C[0:4, 0:16] += A[0:4, p0:p1] * B[p0:p1, 0:16]; same contract as the
  // scalar Kernel4x16 (a = tile's first A row, b/c offset to the tile's
  // first column). nullptr on AVX-512, which runs only the two 8x32 tiles.
  void (*tile4x16)(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
                   int64_t ldc, int64_t p0, int64_t p1, const float* bias, bool relu);
  // C[0:8, 0:32] += A[0:8, p0:p1] * [B0 | B1][p0:p1, 0:32]: 8 rows times two
  // 16-column strips, where b0/b1 point at the strips' first columns
  // (consecutive packed tiles, or b + j and b + j + 16) and share ldb; bias
  // (if any) covers all 32 columns. Bitwise equal to four tile4x16 calls.
  // nullptr on tiers without a wide tile (AVX2).
  void (*tile8x32)(const float* a, int64_t lda, const float* b0, const float* b1, int64_t ldb,
                   float* c, int64_t ldc, int64_t p0, int64_t p1, const float* bias, bool relu);
  // tile8x32 restricted to C[0:mr, 0:nr] for 1 <= mr <= 8, 1 <= nr <= 32:
  // lane-masked loads and stores never read or write A, B, C or bias outside
  // those rows and columns, and b1 is not read when nr <= 16. Bitwise equal
  // to the edge tile. nullptr on tiers without a wide tile (AVX2).
  void (*tile8x32_masked)(const float* a, int64_t lda, const float* b0, const float* b1,
                          int64_t ldb, float* c, int64_t ldc, int64_t mr, int64_t nr,
                          int64_t p0, int64_t p1, const float* bias, bool relu);
  // Ragged-edge tile (mr < 4 and/or nr < 16): scalar loops contracted with
  // fmaf so the per-element chain matches the vector lanes exactly. nullptr
  // on AVX-512, whose masked tile covers every edge.
  void (*edge)(const float* a, int64_t lda, const float* b, int64_t ldb, float* c, int64_t ldc,
               int64_t mr, int64_t nr, int64_t p0, int64_t p1, const float* bias, bool relu);
};

struct RowKernels {
  // max over x[0:n) (exact; -inf identity seed like the scalar loop).
  float (*row_max)(const float* x, int64_t n);
  // out[i] = poly_exp(x[i] - maxv), with x[i] == -inf blended to exactly 0
  // (the scalar oracle's masked-lane convention); returns sum(out). Every
  // element — vector lane or tail — runs the identical fma polynomial, so
  // per-element values are position-independent; only the returned sum is
  // lane-grouped.
  float (*exp_sum)(const float* x, int64_t n, float maxv, float* out);
  // x[i] /= denom in place (per-lane IEEE division, bitwise equal to the
  // scalar divide given the same inputs).
  void (*div_inplace)(float* x, int64_t n, float denom);
  // Elementwise c = a + b / c = max(a, 0) / c = a * factor: bitwise equal to
  // the scalar loops.
  void (*add)(const float* a, const float* b, float* c, int64_t n);
  void (*relu)(const float* a, float* c, int64_t n);
  void (*scale)(const float* a, float factor, float* c, int64_t n);
  // sum over x[0:n) (lane-grouped; layernorm mean).
  float (*sum)(const float* x, int64_t n);
  // sum of (x[i] - mean)^2 (lane-grouped fma; layernorm variance).
  float (*sqdiff_sum)(const float* x, int64_t n, float mean);
  // c[i] = fmaf((x[i] - mean) * inv, gamma[i], beta[i]) — the layernorm
  // normalize pass; identical chain for lanes and tail.
  void (*normalize)(const float* x, int64_t n, float mean, float inv, const float* gamma,
                    const float* beta, float* c);
  // Any element of p[0:count) != 0.0f — the detector's magnitude-masked
  // integer-OR scan; exact predicate, bitwise-identical tile sets.
  bool (*span_nonzero)(const float* p, int64_t count);
  // dst[0:n) = src[0:n): the row-gather copy (exact).
  void (*copy)(const float* src, float* dst, int64_t n);
};

// Kernel tables for a SIMD tier; nullptr when `tier` is kScalar or the build
// lacks x86 intrinsics. Forcing a tier above DetectedIsa() aborts — executing
// those kernels would SIGILL.
const GemmKernels* GemmKernelsFor(IsaTier tier);
const RowKernels* RowKernelsFor(IsaTier tier);

}  // namespace simd
}  // namespace pit

#endif  // PIT_COMMON_SIMD_KERNELS_H_

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
//  - RowKernels: row primitives for softmax (one call per row), layernorm
//    (sum / squared-diff sum / normalize), the elementwise kernels
//    (add/relu/scale), the detector's span-nonzero scan, and the row-gather
//    copy. All lane across the column dimension. add/relu/scale/copy and
//    span_nonzero perform per-lane IEEE ops with no reduction, so they are
//    bitwise equal to the scalar tier. softmax_row groups its sum by absolute
//    column (lane j % 8 of the row) and uses a polynomial exp; sum/sqdiff_sum
//    are lane-grouped: tolerance vs the scalar tier, deterministic for a
//    fixed row length. Both SIMD tiers share the AVX2 row kernels.
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
  // out[0:n) = softmax of x[0:n) over its live columns, where column j is
  // live iff mask is null or mask[j] != 0.0f (so -0.0f masks it). Dead
  // columns, and live ones whose score is -inf, get exactly +0; a row with
  // no live finite score is all +0. Loads and stores stay inside [0, n) and
  // out may alias x. Per-lane exp and divide are position-independent; the
  // max is exact and the sum is grouped by absolute column, so a row's
  // result depends only on its own scores and mask, and is bitwise the same
  // when the row is shifted by any offset inside a wider, masked row.
  void (*softmax_row)(const float* x, const float* mask, int64_t n, float* out);
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

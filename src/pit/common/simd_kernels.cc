#include "pit/common/simd_kernels.h"

#include <algorithm>

#include "pit/common/check.h"

#if PIT_SIMD_X86
#include <immintrin.h>
#endif

namespace pit {
namespace simd {

#if PIT_SIMD_X86

// Everything below carries a function-level target attribute so this TU
// compiles under baseline -march (e.g. the TSan job's -DPIT_NATIVE_ARCH=OFF
// build); the tables at the bottom are only handed out after a runtime
// DetectedIsa() gate, so no vector instruction executes on unsupported CPUs.
#define PIT_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define PIT_TARGET_AVX512 __attribute__((target("avx512f")))

namespace {

// ---- GEMM 4x16 --------------------------------------------------------------

// Fused epilogue on one 8-lane accumulator: bias add then relu clamp, the
// exact per-lane order of the scalar Epilogue (add, then v > 0 ? v : 0 —
// _mm256_max_ps(v, 0) matches that ternary bit-for-bit including NaN -> 0
// and -0 -> +0).
PIT_TARGET_AVX2 inline __m256 Epilogue8(__m256 acc, const float* bias, bool relu) {
  if (bias != nullptr) {
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(bias));
  }
  if (relu) {
    acc = _mm256_max_ps(acc, _mm256_setzero_ps());
  }
  return acc;
}

PIT_TARGET_AVX2 void GemmTile4x16Avx2(const float* a, int64_t lda, const float* b, int64_t ldb,
                                      float* c, int64_t ldc, int64_t p0, int64_t p1,
                                      const float* bias, bool relu) {
  __m256 acc00 = _mm256_loadu_ps(c);
  __m256 acc01 = _mm256_loadu_ps(c + 8);
  __m256 acc10 = _mm256_loadu_ps(c + ldc);
  __m256 acc11 = _mm256_loadu_ps(c + ldc + 8);
  __m256 acc20 = _mm256_loadu_ps(c + 2 * ldc);
  __m256 acc21 = _mm256_loadu_ps(c + 2 * ldc + 8);
  __m256 acc30 = _mm256_loadu_ps(c + 3 * ldc);
  __m256 acc31 = _mm256_loadu_ps(c + 3 * ldc + 8);
  for (int64_t p = p0; p < p1; ++p) {
    const float* brow = b + p * ldb;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    const __m256 a0 = _mm256_broadcast_ss(a + p);
    acc00 = _mm256_fmadd_ps(a0, b0, acc00);
    acc01 = _mm256_fmadd_ps(a0, b1, acc01);
    const __m256 a1 = _mm256_broadcast_ss(a + lda + p);
    acc10 = _mm256_fmadd_ps(a1, b0, acc10);
    acc11 = _mm256_fmadd_ps(a1, b1, acc11);
    const __m256 a2 = _mm256_broadcast_ss(a + 2 * lda + p);
    acc20 = _mm256_fmadd_ps(a2, b0, acc20);
    acc21 = _mm256_fmadd_ps(a2, b1, acc21);
    const __m256 a3 = _mm256_broadcast_ss(a + 3 * lda + p);
    acc30 = _mm256_fmadd_ps(a3, b0, acc30);
    acc31 = _mm256_fmadd_ps(a3, b1, acc31);
  }
  _mm256_storeu_ps(c, Epilogue8(acc00, bias, relu));
  _mm256_storeu_ps(c + 8, Epilogue8(acc01, bias ? bias + 8 : nullptr, relu));
  _mm256_storeu_ps(c + ldc, Epilogue8(acc10, bias, relu));
  _mm256_storeu_ps(c + ldc + 8, Epilogue8(acc11, bias ? bias + 8 : nullptr, relu));
  _mm256_storeu_ps(c + 2 * ldc, Epilogue8(acc20, bias, relu));
  _mm256_storeu_ps(c + 2 * ldc + 8, Epilogue8(acc21, bias ? bias + 8 : nullptr, relu));
  _mm256_storeu_ps(c + 3 * ldc, Epilogue8(acc30, bias, relu));
  _mm256_storeu_ps(c + 3 * ldc + 8, Epilogue8(acc31, bias ? bias + 8 : nullptr, relu));
}

// Ragged-edge tile under the SIMD tiers: scalar loops contracted with fmaf
// (lowered to vfmadd under the target attribute) in the same ascending-p
// order as the vector lanes, so the per-element chain — and therefore the
// result — is identical regardless of which kernel covers an element. That
// uniformity is what keeps the tier's results independent of row position,
// column splits, packing, and tiling.
PIT_TARGET_AVX2 void GemmEdgeFma(const float* a, int64_t lda, const float* b, int64_t ldb,
                                 float* c, int64_t ldc, int64_t mr, int64_t nr, int64_t p0,
                                 int64_t p1, const float* bias, bool relu) {
  float acc[4][16];
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < nr; ++j) {
      acc[r][j] = c[r * ldc + j];
    }
  }
  for (int64_t p = p0; p < p1; ++p) {
    const float* brow = b + p * ldb;
    for (int64_t r = 0; r < mr; ++r) {
      const float av = a[r * lda + p];
      for (int64_t j = 0; j < nr; ++j) {
        acc[r][j] = __builtin_fmaf(av, brow[j], acc[r][j]);
      }
    }
  }
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < nr; ++j) {
      float v = bias ? acc[r][j] + bias[j] : acc[r][j];
      if (relu) {
        v = v > 0.0f ? v : 0.0f;
      }
      c[r * ldc + j] = v;
    }
  }
}

// Fused epilogue on one 16-lane accumulator, the same per-lane order as
// Epilogue8 (vmaxps against 0 matches the scalar ternary bit for bit). Only
// the `live` lanes of bias are read, so a masked tile never touches bias past
// its last column; dead lanes come out as 0 and are never stored.
PIT_TARGET_AVX512 inline __m512 Epilogue16(__m512 acc, const float* bias, __mmask16 live,
                                           bool relu) {
  if (bias != nullptr) {
    acc = _mm512_add_ps(acc, _mm512_maskz_loadu_ps(live, bias));
  }
  if (relu) {
    acc = _mm512_maskz_max_ps(live, acc, _mm512_setzero_ps());
  }
  return acc;
}

// AVX-512 wide tile: 8 rows times two 16-column strips (b0/b1), one
// accumulator each — 16 independent fma chains (why: see the header). Each
// lane runs the same ascending-p fma chain and epilogue as an AVX2 lane, so
// the two SIMD tiers are bitwise identical.
PIT_TARGET_AVX512 void GemmTile8x32Avx512(const float* a, int64_t lda, const float* b0,
                                          const float* b1, int64_t ldb, float* c, int64_t ldc,
                                          int64_t p0, int64_t p1, const float* bias, bool relu) {
  __m512 acc[8][2];
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) {
    acc[r][0] = _mm512_loadu_ps(c + r * ldc);
    acc[r][1] = _mm512_loadu_ps(c + r * ldc + 16);
  }
  for (int64_t p = p0; p < p1; ++p) {
    const __m512 bv0 = _mm512_loadu_ps(b0 + p * ldb);
    const __m512 bv1 = _mm512_loadu_ps(b1 + p * ldb);
#pragma GCC unroll 8
    for (int r = 0; r < 8; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * lda + p]);
      acc[r][0] = _mm512_fmadd_ps(av, bv0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(av, bv1, acc[r][1]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) {
    _mm512_storeu_ps(c + r * ldc, Epilogue16(acc[r][0], bias, 0xFFFF, relu));
    _mm512_storeu_ps(c + r * ldc + 16,
                     Epilogue16(acc[r][1], bias ? bias + 16 : nullptr, 0xFFFF, relu));
  }
}

// Masked wide tile: C[0:MR, 0:nr] for nr <= 32, the AVX-512 tier's ragged
// edge. C, B and bias move through lane masks built from nr, so dead lanes
// are never read from memory (no fault past an operand's end) and never
// stored; kTwo is false when nr <= 16 and the second strip is skipped. MR is
// a template parameter so a short unit runs one fma chain per live row and
// strip, and never reads A past row MR-1. Live lanes run the ascending-p fma
// chain and epilogue of every other tile, so the result is bitwise the AVX2
// tier's edge tile.
template <int MR, bool kTwo>
PIT_TARGET_AVX512 void GemmTileMaskedAvx512(const float* a, int64_t lda, const float* b0,
                                            const float* b1, int64_t ldb, float* c, int64_t ldc,
                                            int64_t nr, int64_t p0, int64_t p1,
                                            const float* bias, bool relu) {
  const __mmask16 m0 = kTwo ? 0xFFFF : static_cast<__mmask16>((1u << nr) - 1);
  const __mmask16 m1 = kTwo ? static_cast<__mmask16>((1u << (nr - 16)) - 1) : 0;
  __m512 acc[MR][2];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    acc[r][0] = _mm512_maskz_loadu_ps(m0, c + r * ldc);
    if (kTwo) {
      acc[r][1] = _mm512_maskz_loadu_ps(m1, c + r * ldc + 16);
    }
  }
  for (int64_t p = p0; p < p1; ++p) {
    const __m512 bv0 = _mm512_maskz_loadu_ps(m0, b0 + p * ldb);
    const __m512 bv1 = kTwo ? _mm512_maskz_loadu_ps(m1, b1 + p * ldb) : bv0;
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * lda + p]);
      acc[r][0] = _mm512_fmadd_ps(av, bv0, acc[r][0]);
      if (kTwo) {
        acc[r][1] = _mm512_fmadd_ps(av, bv1, acc[r][1]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    _mm512_mask_storeu_ps(c + r * ldc, m0, Epilogue16(acc[r][0], bias, m0, relu));
    if (kTwo) {
      _mm512_mask_storeu_ps(c + r * ldc + 16, m1,
                            Epilogue16(acc[r][1], bias ? bias + 16 : nullptr, m1, relu));
    }
  }
}

// Runs a ragged tile on the instantiation for its row count and strip count.
PIT_TARGET_AVX512 void GemmTile8x32MaskedAvx512(const float* a, int64_t lda, const float* b0,
                                                const float* b1, int64_t ldb, float* c,
                                                int64_t ldc, int64_t mr, int64_t nr, int64_t p0,
                                                int64_t p1, const float* bias, bool relu) {
  switch (mr) {
#define PIT_MASKED_TILE(MR)                                                                  \
  case MR:                                                                                   \
    if (nr > 16) {                                                                           \
      GemmTileMaskedAvx512<MR, true>(a, lda, b0, b1, ldb, c, ldc, nr, p0, p1, bias, relu);  \
    } else {                                                                                 \
      GemmTileMaskedAvx512<MR, false>(a, lda, b0, b1, ldb, c, ldc, nr, p0, p1, bias, relu); \
    }                                                                                        \
    return;
    PIT_MASKED_TILE(1)
    PIT_MASKED_TILE(2)
    PIT_MASKED_TILE(3)
    PIT_MASKED_TILE(4)
    PIT_MASKED_TILE(5)
    PIT_MASKED_TILE(6)
    PIT_MASKED_TILE(7)
    PIT_MASKED_TILE(8)
#undef PIT_MASKED_TILE
  }
}

// ---- Vector exp -------------------------------------------------------------

// Cephes-style expf: range-reduce by log2(e), 5th-order polynomial on the
// remainder, scale by 2^n through the exponent bits. ~2 ulp over the clamped
// range.
constexpr float kExpHi = 88.3762626647950f;
constexpr float kExpLo = -87.3365478515625f;
constexpr float kLog2E = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

PIT_TARGET_AVX2 inline __m256 ExpPoly8(__m256 x) {
  x = _mm256_min_ps(x, _mm256_set1_ps(kExpHi));
  x = _mm256_max_ps(x, _mm256_set1_ps(kExpLo));
  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(kLog2E), _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(kLn2Hi)));
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(kLn2Lo)));
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(kExpP0);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP1));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP2));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP3));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP4));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP5));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  const __m256i n = _mm256_cvttps_epi32(fx);
  const __m256i pow2 = _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(0x7f)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2));
}

// ---- Row kernels (AVX2, shared by both SIMD tiers) --------------------------

PIT_TARGET_AVX2 inline float HorizontalSum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

PIT_TARGET_AVX2 inline float HorizontalMax8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_max_ps(lo, hi);
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// One softmax row, three passes over absolute 8-column chunks: max, then
// exp(x - max) and its sum, then divide. A lane is live iff it lies inside
// [0, n) and mask[j] != 0.0f (_CMP_NEQ_UQ, the scalar loop's test: -0.0f
// masks a column, NaN does not); a dead lane or a raw -inf score writes +0.
// A chunk with no live lane skips the exp and the divide: it writes zeros and
// adds nothing to the lane sums, which are >= +0, so skipping is exact. The
// row's partial last chunk (kTail) moves through vmaskmov, so no lane reads
// or writes past the row. Lane sums group columns by absolute index mod 8, so
// shifting a row by o columns (a packed request at offset o of a
// block-diagonal tile) rotates the lanes but keeps each lane's adds in order;
// HorizontalSum8's butterfly (lane i with i+4, then i+2, then i+1) maps onto
// itself under rotation, and IEEE add commutes, so the row's sum and outputs
// are bitwise the same at any offset.
template <bool kTail>
PIT_TARGET_AVX2 inline __m256 Load8(const float* p, __m256i in) {
  return kTail ? _mm256_maskload_ps(p, in) : _mm256_loadu_ps(p);
}

template <bool kTail>
PIT_TARGET_AVX2 inline void Store8(float* p, __m256i in, __m256 v) {
  kTail ? _mm256_maskstore_ps(p, in, v) : _mm256_storeu_ps(p, v);
}

// The chunk at column j. Pass 0 folds its live scores into acc (max); pass 1
// writes its exps and adds them into acc (sum), with v = max; pass 2 divides
// by v = sum.
template <int kPass, bool kTail>
PIT_TARGET_AVX2 inline void SoftmaxChunk8(const float* x, const float* mask, int64_t j,
                                          __m256i in, __m256 v, float* out, __m256& acc) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 ninf = _mm256_set1_ps(-__builtin_inff());
  __m256 live = mask == nullptr ? _mm256_castsi256_ps(in)
                                : _mm256_cmp_ps(Load8<kTail>(mask + j, in), zero, _CMP_NEQ_UQ);
  if (kPass == 0) {
    acc = _mm256_max_ps(acc, _mm256_blendv_ps(ninf, Load8<kTail>(x + j, in), live));
  } else if (_mm256_testz_ps(live, live)) {
    if (kPass == 1) {
      Store8<kTail>(out + j, in, zero);
    }
  } else if (kPass == 2) {
    Store8<kTail>(out + j, in, _mm256_div_ps(Load8<kTail>(out + j, in), v));
  } else {
    const __m256 s = Load8<kTail>(x + j, in);
    live = _mm256_and_ps(live, _mm256_cmp_ps(s, ninf, _CMP_NEQ_OQ));
    // Dead lanes get exp(0): an -inf argument would leave the clamped
    // polynomial as a subnormal, and each one costs a microcode assist.
    const __m256 e = _mm256_and_ps(live, ExpPoly8(_mm256_and_ps(live, _mm256_sub_ps(s, v))));
    Store8<kTail>(out + j, in, e);
    acc = _mm256_add_ps(acc, e);
  }
}

template <int kPass>
PIT_TARGET_AVX2 inline void SoftmaxPass8(const float* x, const float* mask, int64_t n, __m256 v,
                                         float* out, __m256& acc) {
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    SoftmaxChunk8<kPass, false>(x, mask, j, _mm256_set1_epi32(-1), v, out, acc);
  }
  if (j < n) {
    const __m256i in = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n - j)),
                                          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    SoftmaxChunk8<kPass, true>(x, mask, j, in, v, out, acc);
  }
}

PIT_TARGET_AVX2 void SoftmaxRowAvx2(const float* x, const float* mask, int64_t n, float* out) {
  __m256 vmax = _mm256_set1_ps(-__builtin_inff());
  SoftmaxPass8<0>(x, mask, n, vmax, out, vmax);
  const float maxv = HorizontalMax8(vmax);
  if (maxv == -__builtin_inff()) {  // fully masked: the row is all zeros
    std::fill(out, out + n, 0.0f);
    return;
  }
  __m256 vsum = _mm256_setzero_ps();
  SoftmaxPass8<1>(x, mask, n, _mm256_set1_ps(maxv), out, vsum);
  SoftmaxPass8<2>(x, mask, n, _mm256_set1_ps(HorizontalSum8(vsum)), out, vsum);
}

PIT_TARGET_AVX2 void AddAvx2(const float* a, const float* b, float* c, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(c + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) {
    c[i] = a[i] + b[i];
  }
}

PIT_TARGET_AVX2 void ReluAvx2(const float* a, float* c, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(c + i, _mm256_max_ps(_mm256_loadu_ps(a + i), zero));
  }
  for (; i < n; ++i) {
    c[i] = a[i] > 0.0f ? a[i] : 0.0f;
  }
}

PIT_TARGET_AVX2 void ScaleAvx2(const float* a, float factor, float* c, int64_t n) {
  const __m256 vf = _mm256_set1_ps(factor);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(c + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vf));
  }
  for (; i < n; ++i) {
    c[i] = a[i] * factor;
  }
}

PIT_TARGET_AVX2 float SumAvx2(const float* x, int64_t n) {
  __m256 vsum = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vsum = _mm256_add_ps(vsum, _mm256_loadu_ps(x + i));
  }
  float sum = n >= 8 ? HorizontalSum8(vsum) : 0.0f;
  for (; i < n; ++i) {
    sum += x[i];
  }
  return sum;
}

PIT_TARGET_AVX2 float SqDiffSumAvx2(const float* x, int64_t n, float mean) {
  const __m256 vmean = _mm256_set1_ps(mean);
  __m256 vsum = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(x + i), vmean);
    vsum = _mm256_fmadd_ps(d, d, vsum);
  }
  float sum = n >= 8 ? HorizontalSum8(vsum) : 0.0f;
  for (; i < n; ++i) {
    const float d = x[i] - mean;
    sum = __builtin_fmaf(d, d, sum);
  }
  return sum;
}

PIT_TARGET_AVX2 void NormalizeAvx2(const float* x, int64_t n, float mean, float inv,
                                   const float* gamma, const float* beta, float* c) {
  const __m256 vmean = _mm256_set1_ps(mean);
  const __m256 vinv = _mm256_set1_ps(inv);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vmean), vinv);
    _mm256_storeu_ps(c + i, _mm256_fmadd_ps(t, _mm256_loadu_ps(gamma + i),
                                            _mm256_loadu_ps(beta + i)));
  }
  for (; i < n; ++i) {
    const float t = (x[i] - mean) * inv;
    c[i] = __builtin_fmaf(t, gamma[i], beta[i]);
  }
}

PIT_TARGET_AVX2 bool SpanNonZeroAvx2(const float* p, int64_t count) {
  // Same predicate as the scalar integer-OR scan: nonzero magnitude bits
  // anywhere in the span, early exit every 64-byte stride.
  const __m256i mag = _mm256_set1_epi32(0x7fffffff);
  int64_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m256i w0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const __m256i w1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i + 8));
    const __m256i v = _mm256_and_si256(_mm256_or_si256(w0, w1), mag);
    if (!_mm256_testz_si256(v, v)) {
      return true;
    }
  }
  if (i + 8 <= count) {
    const __m256i w =
        _mm256_and_si256(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i)), mag);
    if (!_mm256_testz_si256(w, w)) {
      return true;
    }
    i += 8;
  }
  for (; i < count; ++i) {
    if (p[i] != 0.0f) {
      return true;
    }
  }
  return false;
}

PIT_TARGET_AVX2 void CopyAvx2(const float* src, float* dst, int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_ps(dst + i, _mm256_loadu_ps(src + i));
    _mm256_storeu_ps(dst + i + 8, _mm256_loadu_ps(src + i + 8));
  }
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_loadu_ps(src + i));
  }
  for (; i < n; ++i) {
    dst[i] = src[i];
  }
}

const GemmKernels kGemmAvx2{GemmTile4x16Avx2, nullptr, nullptr, GemmEdgeFma};
const GemmKernels kGemmAvx512{nullptr, GemmTile8x32Avx512, GemmTile8x32MaskedAvx512, nullptr};
const RowKernels kRowAvx2{SoftmaxRowAvx2, AddAvx2,       ReluAvx2,        ScaleAvx2, SumAvx2,
                          SqDiffSumAvx2,  NormalizeAvx2, SpanNonZeroAvx2, CopyAvx2};

}  // namespace

#endif  // PIT_SIMD_X86

const GemmKernels* GemmKernelsFor(IsaTier tier) {
#if PIT_SIMD_X86
  if (tier == IsaTier::kScalar) {
    return nullptr;
  }
  PIT_CHECK(static_cast<int>(tier) <= static_cast<int>(DetectedIsa()))
      << "IsaTier " << IsaName(tier) << " forced above DetectedIsa()="
      << IsaName(DetectedIsa()) << "; executing its kernels would SIGILL";
  return tier == IsaTier::kAvx512 ? &kGemmAvx512 : &kGemmAvx2;
#else
  (void)tier;
  return nullptr;
#endif
}

const RowKernels* RowKernelsFor(IsaTier tier) {
#if PIT_SIMD_X86
  if (tier == IsaTier::kScalar) {
    return nullptr;
  }
  PIT_CHECK(static_cast<int>(tier) <= static_cast<int>(DetectedIsa()))
      << "IsaTier " << IsaName(tier) << " forced above DetectedIsa()="
      << IsaName(DetectedIsa()) << "; executing its kernels would SIGILL";
  return &kRowAvx2;
#else
  (void)tier;
  return nullptr;
#endif
}

}  // namespace simd
}  // namespace pit

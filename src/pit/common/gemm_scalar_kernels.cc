// Scalar GEMM register-tile kernels. This TU is compiled with the
// auto-vectorizer off (CMakeLists.txt) so the kScalar ISA tier is genuinely
// scalar regardless of -march; see the header for why that matters and why it
// cannot change results.
#include "pit/common/gemm_scalar_kernels.h"

namespace pit::scalar_kernels {
namespace {

// Epilogue store shared by every kernel: bias add then optional ReLU clamp,
// in the exact per-element order of the separate MatMulBiasInto + ReluInto
// passes, so fusing never changes a bit.
inline float Epilogue(float acc, const float* bias, int64_t j, bool relu) {
  float v = bias ? acc + bias[j] : acc;
  if (relu) {
    v = v > 0.0f ? v : 0.0f;
  }
  return v;
}

}  // namespace

void Kernel4x16(const float* a, int64_t lda, const float* b, int64_t ldb, float* c, int64_t ldc,
                int64_t p0, int64_t p1, const float* bias, bool relu) {
  float acc[kMr][kNr];
  for (int64_t r = 0; r < kMr; ++r) {
    for (int64_t j = 0; j < kNr; ++j) {
      acc[r][j] = c[r * ldc + j];
    }
  }
  for (int64_t p = p0; p < p1; ++p) {
    const float* brow = b + p * ldb;
    const float a0 = a[p];
    const float a1 = a[lda + p];
    const float a2 = a[2 * lda + p];
    const float a3 = a[3 * lda + p];
    for (int64_t j = 0; j < kNr; ++j) {
      const float bv = brow[j];
      acc[0][j] += a0 * bv;
      acc[1][j] += a1 * bv;
      acc[2][j] += a2 * bv;
      acc[3][j] += a3 * bv;
    }
  }
  for (int64_t r = 0; r < kMr; ++r) {
    for (int64_t j = 0; j < kNr; ++j) {
      c[r * ldc + j] = Epilogue(acc[r][j], bias, j, relu);
    }
  }
}

void KernelEdge(const float* a, int64_t lda, const float* b, int64_t ldb, float* c, int64_t ldc,
                int64_t mr, int64_t nr, int64_t p0, int64_t p1, const float* bias, bool relu) {
  float acc[kMr][kNr];
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
        acc[r][j] += av * brow[j];
      }
    }
  }
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < nr; ++j) {
      c[r * ldc + j] = Epilogue(acc[r][j], bias, j, relu);
    }
  }
}

}  // namespace pit::scalar_kernels

#include "pit/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "pit/common/backend.h"
#include "pit/common/gemm_microkernel.h"
#include "pit/common/parallel_for.h"
#include "pit/common/simd_kernels.h"

namespace pit {

namespace {

// Row kernels for the active ISA tier, or null for the scalar loops. The
// reference backend always gets null: it is the oracle and must not share
// code with the kernels under test.
inline const simd::RowKernels* ActiveRowKernels() {
  return UseSimd() ? simd::RowKernelsFor(ActiveIsa()) : nullptr;
}

// Iterations per dispatched chunk for cheap element-wise loops; keeps the pool
// out of the picture for small tensors.
constexpr int64_t kElemGrain = 1 << 14;

// Reference scalar matmul, ikj order, row-major with leading dimensions
// lda/ldb/ldc. Kept verbatim as the oracle the blocked backend is
// differential-tested against.
void ReferenceMatMulInto(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
                         int64_t ldc, int64_t m, int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    const float* arow = a + i * lda;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) {
        continue;  // free win on sparse inputs; exact math is unchanged
      }
      const float* brow = b + p * ldb;
      for (int64_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

// C[m,n] += A[m,k] * B[k,n] over strided row-major operands on the active
// backend. Both backends run each element's ascending-p chain from C's value,
// so a zeroed C gets exactly MatMulInto's bits at any strides.
void MatMulAccumulate(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
                      const float* b, int64_t ldb, float* c, int64_t ldc) {
  if (UseBlockedBackend()) {
    GemmF32(m, n, k, a, lda, b, ldb, c, ldc);
  } else {
    ReferenceMatMulInto(a, lda, b, ldb, c, ldc, m, k, n);
  }
}

// Query rows per block of SegmentAttentionInto: the score tile a block holds
// is [kAttentionRowBlock, t], 64 KiB at t = 512.
constexpr int64_t kAttentionRowBlock = 32;

}  // namespace

void MatMulInto(ConstTensorView a, ConstTensorView b, TensorView c) {
  PIT_CHECK_EQ(a.rank(), 2);
  PIT_CHECK_EQ(b.rank(), 2);
  PIT_CHECK_EQ(c.rank(), 2);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  PIT_CHECK_EQ(k, b.dim(0));
  PIT_CHECK_EQ(c.dim(0), m);
  PIT_CHECK_EQ(c.dim(1), n);
  std::fill(c.data(), c.data() + c.size(), 0.0f);  // kernels accumulate into C
  MatMulAccumulate(m, n, k, a.data(), k, b.data(), n, c.data(), n);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  PIT_CHECK_EQ(a.rank(), 2);
  PIT_CHECK_EQ(b.rank(), 2);
  Tensor c({a.dim(0), b.dim(1)});
  MatMulInto(a, b, c);
  return c;
}

void BatchMatMulInto(ConstTensorView a, ConstTensorView b, TensorView c) {
  PIT_CHECK_EQ(a.rank(), 3);
  PIT_CHECK_EQ(b.rank(), 3);
  PIT_CHECK_EQ(c.rank(), 3);
  const int64_t bs = a.dim(0), m = a.dim(1), k = a.dim(2), n = b.dim(2);
  PIT_CHECK_EQ(bs, b.dim(0));
  PIT_CHECK_EQ(k, b.dim(1));
  PIT_CHECK_EQ(c.dim(0), bs);
  PIT_CHECK_EQ(c.dim(1), m);
  PIT_CHECK_EQ(c.dim(2), n);
  std::fill(c.data(), c.data() + c.size(), 0.0f);  // kernels accumulate into C
  if (UseBlockedBackend()) {
    // Parallel over batch slices when there are enough of them to fill the
    // pool; otherwise keep the batch loop serial so each slice's GEMM can use
    // every worker (a per-slice GEMM called from a pool worker runs inline).
    const int64_t batch_grain = bs >= NumThreads() ? 1 : bs;
    ParallelFor(bs, batch_grain, [&](int64_t s0, int64_t s1) {
      for (int64_t s = s0; s < s1; ++s) {
        GemmF32(m, n, k, a.data() + s * m * k, k, b.data() + s * k * n, n,
                c.data() + s * m * n, n);
      }
    });
  } else {
    for (int64_t s = 0; s < bs; ++s) {
      ReferenceMatMulInto(a.data() + s * m * k, k, b.data() + s * k * n, n, c.data() + s * m * n,
                          n, m, k, n);
    }
  }
}

Tensor BatchMatMul(const Tensor& a, const Tensor& b) {
  PIT_CHECK_EQ(a.rank(), 3);
  PIT_CHECK_EQ(b.rank(), 3);
  Tensor c({a.dim(0), a.dim(1), b.dim(2)});
  BatchMatMulInto(a, b, c);
  return c;
}

void MatMulBiasInto(ConstTensorView a, ConstTensorView b, ConstTensorView bias, TensorView c) {
  PIT_CHECK_EQ(a.rank(), 2);
  PIT_CHECK_EQ(b.rank(), 2);
  PIT_CHECK_EQ(c.rank(), 2);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  PIT_CHECK_EQ(k, b.dim(0));
  PIT_CHECK_EQ(bias.size(), n);
  PIT_CHECK_EQ(c.dim(0), m);
  PIT_CHECK_EQ(c.dim(1), n);
  std::fill(c.data(), c.data() + c.size(), 0.0f);
  if (UseBlockedBackend()) {
    // Bias is fused into the GEMM epilogue: C is written exactly once.
    GemmF32(m, n, k, a.data(), k, b.data(), n, c.data(), n, bias.data());
  } else {
    ReferenceMatMulInto(a.data(), k, b.data(), n, c.data(), n, m, k, n);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        c.At(i, j) += bias[j];
      }
    }
  }
}

Tensor MatMulBias(const Tensor& a, const Tensor& b, const Tensor& bias) {
  PIT_CHECK_EQ(a.rank(), 2);
  PIT_CHECK_EQ(b.rank(), 2);
  Tensor c({a.dim(0), b.dim(1)});
  MatMulBiasInto(a, b, bias, c);
  return c;
}

void MatMulReluInto(ConstTensorView a, ConstTensorView b, TensorView c) {
  PIT_CHECK_EQ(a.rank(), 2);
  PIT_CHECK_EQ(b.rank(), 2);
  PIT_CHECK_EQ(c.rank(), 2);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  PIT_CHECK_EQ(k, b.dim(0));
  PIT_CHECK_EQ(c.dim(0), m);
  PIT_CHECK_EQ(c.dim(1), n);
  std::fill(c.data(), c.data() + c.size(), 0.0f);
  if (UseBlockedBackend()) {
    GemmF32(m, n, k, a.data(), k, b.data(), n, c.data(), n, /*bias=*/nullptr, /*relu=*/true);
  } else {
    ReferenceMatMulInto(a.data(), k, b.data(), n, c.data(), n, m, k, n);
    for (int64_t i = 0; i < c.size(); ++i) {
      c[i] = c[i] > 0.0f ? c[i] : 0.0f;
    }
  }
}

void MatMulBiasReluInto(ConstTensorView a, ConstTensorView b, ConstTensorView bias,
                        TensorView c) {
  PIT_CHECK_EQ(a.rank(), 2);
  PIT_CHECK_EQ(b.rank(), 2);
  PIT_CHECK_EQ(c.rank(), 2);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  PIT_CHECK_EQ(k, b.dim(0));
  PIT_CHECK_EQ(bias.size(), n);
  PIT_CHECK_EQ(c.dim(0), m);
  PIT_CHECK_EQ(c.dim(1), n);
  std::fill(c.data(), c.data() + c.size(), 0.0f);
  if (UseBlockedBackend()) {
    // Bias and ReLU both fuse into the GEMM epilogue: C is written once.
    GemmF32(m, n, k, a.data(), k, b.data(), n, c.data(), n, bias.data(), /*relu=*/true);
  } else {
    ReferenceMatMulInto(a.data(), k, b.data(), n, c.data(), n, m, k, n);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        c.At(i, j) += bias[j];
      }
    }
    for (int64_t i = 0; i < c.size(); ++i) {
      c[i] = c[i] > 0.0f ? c[i] : 0.0f;
    }
  }
}

void AddInto(ConstTensorView a, ConstTensorView b, TensorView c) {
  PIT_CHECK(a.ShapeEquals(b));
  PIT_CHECK_EQ(a.size(), c.size());
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Lane-wise IEEE add: the vector path is bitwise equal to the scalar loop.
  const simd::RowKernels* rk = ActiveRowKernels();
  ParallelFor(a.size(), GrainOrSerial(a.size(), kElemGrain), [&](int64_t lo, int64_t hi) {
    if (rk != nullptr) {
      rk->add(pa + lo, pb + lo, pc + lo, hi - lo);
      return;
    }
    for (int64_t i = lo; i < hi; ++i) {
      pc[i] = pa[i] + pb[i];
    }
  });
}

void AddBiasRowsInto(ConstTensorView bias, TensorView c) {
  PIT_CHECK_EQ(c.rank(), 2);
  PIT_CHECK_EQ(bias.size(), c.dim(1));
  const int64_t rows = c.dim(0), cols = c.dim(1);
  const float* pb = bias.data();
  float* pc = c.data();
  const simd::RowKernels* rk = ActiveRowKernels();
  const int64_t grain = std::max<int64_t>(1, kElemGrain / std::max<int64_t>(cols, 1));
  ParallelFor(rows, GrainOrSerial(rows, grain), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      float* row = pc + i * cols;
      if (rk != nullptr) {
        rk->add(row, pb, row, cols);
        continue;
      }
      for (int64_t j = 0; j < cols; ++j) {
        row[j] = row[j] + pb[j];
      }
    }
  });
}

Tensor Add(const Tensor& a, const Tensor& b) {
  PIT_CHECK(a.shape() == b.shape());
  Tensor c(a.shape());
  AddInto(a, b, c);
  return c;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  PIT_CHECK(a.shape() == b.shape());
  Tensor c(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  ParallelFor(a.size(), GrainOrSerial(a.size(), kElemGrain), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      pc[i] = pa[i] * pb[i];
    }
  });
  return c;
}

void ReluInto(ConstTensorView a, TensorView c) {
  PIT_CHECK_EQ(a.size(), c.size());
  const float* pa = a.data();
  float* pc = c.data();
  // max(x, 0) lanes match the scalar ternary bit-for-bit (incl. NaN and -0),
  // so the vector path is bitwise equal — and stays interchangeable with the
  // GEMM kernels' fused relu epilogue.
  const simd::RowKernels* rk = ActiveRowKernels();
  ParallelFor(a.size(), GrainOrSerial(a.size(), kElemGrain), [&](int64_t lo, int64_t hi) {
    if (rk != nullptr) {
      rk->relu(pa + lo, pc + lo, hi - lo);
      return;
    }
    for (int64_t i = lo; i < hi; ++i) {
      pc[i] = pa[i] > 0.0f ? pa[i] : 0.0f;
    }
  });
}

Tensor Relu(const Tensor& a) {
  Tensor c(a.shape());
  ReluInto(a, c);
  return c;
}

void ScaleInto(ConstTensorView a, float factor, TensorView c) {
  PIT_CHECK_EQ(a.size(), c.size());
  const float* pa = a.data();
  float* pc = c.data();
  // Lane-wise IEEE multiply: the vector path is bitwise equal to the scalar
  // loop.
  const simd::RowKernels* rk = ActiveRowKernels();
  ParallelFor(a.size(), GrainOrSerial(a.size(), kElemGrain), [&](int64_t lo, int64_t hi) {
    if (rk != nullptr) {
      rk->scale(pa + lo, factor, pc + lo, hi - lo);
      return;
    }
    for (int64_t i = lo; i < hi; ++i) {
      pc[i] = pa[i] * factor;
    }
  });
}

Tensor Scale(const Tensor& a, float factor) {
  Tensor c(a.shape());
  ScaleInto(a, factor, c);
  return c;
}

Tensor Gelu(const Tensor& a) {
  Tensor c(a.shape());
  const float* pa = a.data();
  float* pc = c.data();
  // tanh is ~20x an add; use a finer grain so mid-sized tensors still fan out.
  ParallelFor(a.size(), GrainOrSerial(a.size(), kElemGrain / 16), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float x = pa[i];
      pc[i] = 0.5f * x * (1.0f + std::tanh(0.7978845608f * (x + 0.044715f * x * x * x)));
    }
  });
  return c;
}

namespace {

// Blocked 2-D transpose of one contiguous [rows, cols] plane into [cols, rows].
// 32x32 blocks: both the read and write streams stay within a few cache
// lines per block. Parallel over row blocks (disjoint output columns).
void Transpose2DPlane(const float* pa, float* pc, int64_t rows, int64_t cols) {
  constexpr int64_t kBlk = 32;
  const int64_t row_blocks = (rows + kBlk - 1) / kBlk;
  ParallelFor(row_blocks,
              GrainOrSerial(row_blocks, std::max<int64_t>(1, (1 << 16) / std::max<int64_t>(1, kBlk * cols))),
              [&](int64_t b0, int64_t b1) {
                for (int64_t rb = b0; rb < b1; ++rb) {
                  const int64_t r0 = rb * kBlk, r1 = std::min(rows, r0 + kBlk);
                  for (int64_t c0 = 0; c0 < cols; c0 += kBlk) {
                    const int64_t c1 = std::min(cols, c0 + kBlk);
                    for (int64_t r = r0; r < r1; ++r) {
                      for (int64_t cc = c0; cc < c1; ++cc) {
                        pc[cc * rows + r] = pa[r * cols + cc];
                      }
                    }
                  }
                }
              });
}

}  // namespace

Tensor Transpose2D(const Tensor& a) {
  PIT_CHECK_EQ(a.rank(), 2);
  Tensor c({a.dim(1), a.dim(0)});
  Transpose2DPlane(a.data(), c.data(), a.dim(0), a.dim(1));
  return c;
}

void TransposeInto(ConstTensorView a, int axis0, int axis1, TensorView c) {
  PIT_CHECK_EQ(a.size(), c.size());
  if (a.rank() == 2) {
    PIT_CHECK(axis0 == 0 && axis1 == 1) << "rank-2 transpose swaps axes (0, 1)";
    PIT_CHECK_EQ(c.rank(), 2);
    PIT_CHECK_EQ(c.dim(0), a.dim(1));
    PIT_CHECK_EQ(c.dim(1), a.dim(0));
    Transpose2DPlane(a.data(), c.data(), a.dim(0), a.dim(1));
    return;
  }
  PIT_CHECK_EQ(a.rank(), 3);
  PIT_CHECK_EQ(c.rank(), 3);
  const int64_t d0 = a.dim(0), d1 = a.dim(1), d2 = a.dim(2);
  const float* pa = a.data();
  float* pc = c.data();
  if (axis0 == 0 && axis1 == 1) {
    // [d0, d1, d2] -> [d1, d0, d2]: row-of-d2 moves are contiguous memcpys.
    PIT_CHECK(c.dim(0) == d1 && c.dim(1) == d0 && c.dim(2) == d2);
    ParallelFor(d0, GrainOrSerial(d0, std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, d1 * d2))),
                [&](int64_t i0, int64_t i1) {
                  for (int64_t i = i0; i < i1; ++i) {
                    for (int64_t j = 0; j < d1; ++j) {
                      std::memcpy(pc + (j * d0 + i) * d2, pa + (i * d1 + j) * d2,
                                  static_cast<size_t>(d2) * sizeof(float));
                    }
                  }
                });
    return;
  }
  PIT_CHECK(axis0 == 1 && axis1 == 2) << "rank-3 transpose swaps axes (0,1) or (1,2)";
  // [d0, d1, d2] -> [d0, d2, d1]: one 2-D transpose per batch slice.
  PIT_CHECK(c.dim(0) == d0 && c.dim(1) == d2 && c.dim(2) == d1);
  ParallelFor(d0, GrainOrSerial(d0, std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, d1 * d2))),
              [&](int64_t s0, int64_t s1) {
                for (int64_t s = s0; s < s1; ++s) {
                  const float* src = pa + s * d1 * d2;
                  float* dst = pc + s * d1 * d2;
                  for (int64_t r = 0; r < d1; ++r) {
                    for (int64_t cc = 0; cc < d2; ++cc) {
                      dst[cc * d1 + r] = src[r * d2 + cc];
                    }
                  }
                }
              });
}

void SoftmaxInto(ConstTensorView a, const ConstTensorView* mask, TensorView c) {
  PIT_CHECK(a.rank() == 2 || a.rank() == 3);
  const int64_t n = a.dim(a.rank() - 1);
  const int64_t m = a.size() / std::max<int64_t>(1, n);  // independent rows
  PIT_CHECK_EQ(a.size(), c.size());
  PIT_CHECK_EQ(c.dim(c.rank() - 1), n);
  // The mask matches the input row-for-row, or — under a rank-3 input — is a
  // single trailing [dim(1), n] plane broadcast over axis 0 (one attention
  // mask shared by every head). Anything else (a mask that merely divides the
  // flattened row count) would be applied with the wrong period: reject it.
  int64_t mask_rows = 0;
  if (mask != nullptr) {
    PIT_CHECK_EQ(mask->dim(mask->rank() - 1), n);
    mask_rows = mask->size() / std::max<int64_t>(1, n);
    PIT_CHECK(mask_rows == m || (a.rank() == 3 && mask_rows == a.dim(1)))
        << "softmax mask must match the input rows or its trailing plane";
  }
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  // Resolved once per call: vector row kernels under a SIMD tier, and span
  // skipping for masked rows under the blocked backend. Skipping is exact —
  // a masked column contributes -inf to the max and +0.0f to the sum, both
  // identities, and its 0-write equals the oracle's 0/sum — so the scalar
  // skip path is bitwise equal to the unskipped loop. The vector kernels run
  // span-relative (lanes grouped from each span's start), so a packed
  // request row (one block-diagonal span at offset o) is bitwise identical
  // to the same request served 1:1 at offset 0.
  const simd::RowKernels* rk = ActiveRowKernels();
  const bool skip = mask != nullptr && UseBlockedBackend();
  // Rows are independent; per-row math is identical to the reference loop.
  ParallelFor(m, GrainOrSerial(m, std::max<int64_t>(1, kElemGrain / (4 * std::max<int64_t>(1, n)))),
              [&](int64_t i0, int64_t i1) {
                thread_local std::vector<std::pair<int64_t, int64_t>> spans;
                for (int64_t i = i0; i < i1; ++i) {
                  const float* arow = a.data() + i * n;
                  float* crow = c.data() + i * n;
                  const float* mrow =
                      mask != nullptr ? mask->data() + (i % mask_rows) * n : nullptr;
                  if ((mrow != nullptr && !skip) || (mrow == nullptr && rk == nullptr)) {
                    // Scalar full-row loop: the reference backend's oracle,
                    // and the differential oracle for the span path.
                    float maxv = kNegInf;
                    for (int64_t j = 0; j < n; ++j) {
                      const float v = (mrow && mrow[j] == 0.0f) ? kNegInf : arow[j];
                      maxv = std::max(maxv, v);
                    }
                    if (maxv == kNegInf) {
                      // Fully-masked row is all-zero; the output may be a
                      // dirty arena slice, so write the zeros explicitly.
                      for (int64_t j = 0; j < n; ++j) {
                        crow[j] = 0.0f;
                      }
                      continue;
                    }
                    float sum = 0.0f;
                    for (int64_t j = 0; j < n; ++j) {
                      const float v = (mrow && mrow[j] == 0.0f) ? kNegInf : arow[j];
                      const float e = v == kNegInf ? 0.0f : std::exp(v - maxv);
                      crow[j] = e;
                      sum += e;
                    }
                    for (int64_t j = 0; j < n; ++j) {
                      crow[j] /= sum;
                    }
                    continue;
                  }
                  // Span path: process the row as its maximal runs of
                  // unmasked columns (one [0, n) span when unmasked); the
                  // fully-masked gaps write zeros without touching exp.
                  spans.clear();
                  if (mrow == nullptr) {
                    spans.emplace_back(0, n);
                  } else {
                    for (int64_t j = 0; j < n;) {
                      while (j < n && mrow[j] == 0.0f) {
                        ++j;
                      }
                      const int64_t s = j;
                      while (j < n && mrow[j] != 0.0f) {
                        ++j;
                      }
                      if (j > s) {
                        spans.emplace_back(s, j);
                      }
                    }
                  }
                  float maxv = kNegInf;
                  for (const auto& [s, e] : spans) {
                    if (rk != nullptr) {
                      maxv = std::max(maxv, rk->row_max(arow + s, e - s));
                    } else {
                      for (int64_t j = s; j < e; ++j) {
                        maxv = std::max(maxv, arow[j]);
                      }
                    }
                  }
                  if (maxv == kNegInf) {
                    // Fully masked (or all unmasked scores -inf): all-zero
                    // row, written explicitly for dirty arena slices.
                    for (int64_t j = 0; j < n; ++j) {
                      crow[j] = 0.0f;
                    }
                    continue;
                  }
                  float sum = 0.0f;
                  int64_t prev = 0;
                  for (const auto& [s, e] : spans) {
                    for (int64_t j = prev; j < s; ++j) {
                      crow[j] = 0.0f;
                    }
                    if (rk != nullptr) {
                      sum += rk->exp_sum(arow + s, e - s, maxv, crow + s);
                    } else {
                      for (int64_t j = s; j < e; ++j) {
                        const float ev =
                            arow[j] == kNegInf ? 0.0f : std::exp(arow[j] - maxv);
                        crow[j] = ev;
                        sum += ev;
                      }
                    }
                    prev = e;
                  }
                  for (int64_t j = prev; j < n; ++j) {
                    crow[j] = 0.0f;
                  }
                  for (const auto& [s, e] : spans) {
                    if (rk != nullptr) {
                      rk->div_inplace(crow + s, e - s, sum);
                    } else {
                      for (int64_t j = s; j < e; ++j) {
                        crow[j] /= sum;
                      }
                    }
                  }
                }
              });
}

Tensor Softmax(const Tensor& a, const Tensor* mask) {
  PIT_CHECK_EQ(a.rank(), 2);
  Tensor c(a.shape());
  if (mask != nullptr) {
    const ConstTensorView mask_view(*mask);
    SoftmaxInto(a, &mask_view, c);
  } else {
    SoftmaxInto(a, nullptr, c);
  }
  return c;
}

void LayerNormInto(ConstTensorView a, ConstTensorView gamma, ConstTensorView beta, TensorView c,
                   float eps) {
  PIT_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  PIT_CHECK_EQ(gamma.size(), n);
  PIT_CHECK_EQ(beta.size(), n);
  PIT_CHECK_EQ(c.dim(0), m);
  PIT_CHECK_EQ(c.dim(1), n);
  const float* pg = gamma.data();
  const float* pb = beta.data();
  // Vector path per row: lane-grouped sum / squared-diff-sum reductions and
  // an fma normalize — tolerance vs the scalar loops (reassociated mean and
  // variance), deterministic for a fixed row length.
  const simd::RowKernels* rk = ActiveRowKernels();
  ParallelFor(m, GrainOrSerial(m, std::max<int64_t>(1, kElemGrain / (4 * std::max<int64_t>(1, n)))),
              [&](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i) {
                  const float* arow = a.data() + i * n;
                  float* crow = c.data() + i * n;
                  if (rk != nullptr) {
                    const float mean = rk->sum(arow, n) / static_cast<float>(n);
                    const float var = rk->sqdiff_sum(arow, n, mean) / static_cast<float>(n);
                    const float inv = 1.0f / std::sqrt(var + eps);
                    rk->normalize(arow, n, mean, inv, pg, pb, crow);
                    continue;
                  }
                  float mean = 0.0f;
                  for (int64_t j = 0; j < n; ++j) {
                    mean += arow[j];
                  }
                  mean /= static_cast<float>(n);
                  float var = 0.0f;
                  for (int64_t j = 0; j < n; ++j) {
                    const float d = arow[j] - mean;
                    var += d * d;
                  }
                  var /= static_cast<float>(n);
                  const float inv = 1.0f / std::sqrt(var + eps);
                  for (int64_t j = 0; j < n; ++j) {
                    crow[j] = (arow[j] - mean) * inv * pg[j] + pb[j];
                  }
                }
              });
}

void SegmentAttentionInto(ConstTensorView q, ConstTensorView k, ConstTensorView v, int64_t heads,
                          std::span<const AttentionSegment> segments, TensorView ctx) {
  PIT_CHECK(q.rank() == 2 && q.ShapeEquals(k) && q.ShapeEquals(v) && q.ShapeEquals(ctx))
      << "attention q/k/v/ctx must share one [tokens, hidden] shape";
  const int64_t tokens = q.dim(0), hidden = q.dim(1);
  PIT_CHECK(heads > 0 && hidden % heads == 0) << "hidden " << hidden << " not split by " << heads;
  const int64_t dk = hidden / heads;
  const auto blocks = [](int64_t t) { return (t + kAttentionRowBlock - 1) / kAttentionRowBlock; };
  int64_t end = 0;    // one past the previous segment's last row
  int64_t units = 0;  // (segment, head, row block) work units
  for (const AttentionSegment& s : segments) {
    PIT_CHECK(s.length > 0 && s.offset >= end && s.offset + s.length <= tokens)
        << "attention segment [" << s.offset << ", " << s.offset + s.length
        << ") must be non-empty, sorted, disjoint and inside [0, " << tokens << ")";
    PIT_CHECK(s.mask.data() == nullptr ||
              (s.mask.rank() == 2 && s.mask.dim(0) == s.length && s.mask.dim(1) == s.length))
        << "attention segment mask must be [length, length]";
    // Rows in no segment attend to nothing.
    std::fill(ctx.data() + end * hidden, ctx.data() + s.offset * hidden, 0.0f);
    end = s.offset + s.length;
    units += heads * blocks(s.length);
  }
  std::fill(ctx.data() + end * hidden, ctx.data() + tokens * hidden, 0.0f);

  // Units are ordered segment-major, then head, then row block, so a run of
  // units walks each (segment, head) pair's blocks in turn. walk calls
  // fn(unit, segment, local) for the units from `u` on, `local` being the
  // unit's index among its segment's units, until fn returns false.
  const auto walk = [&](int64_t u, auto&& fn) {
    size_t seg = 0;
    int64_t first = 0;  // first unit of segment `seg`
    for (; u < units; ++u) {
      while (u >= first + heads * blocks(segments[seg].length)) {
        first += heads * blocks(segments[seg++].length);
      }
      if (!fn(u, seg, u - first)) {
        return;
      }
    }
  };
  const auto cost = [&](size_t seg, int64_t local) {  // ~rows * t
    const int64_t t = segments[seg].length;
    return std::min(kAttentionRowBlock, t - local % blocks(t) * kAttentionRowBlock) * t;
  };
  const auto run_units = [&](int64_t u0, int64_t u1) {
    // Per-thread scratch: the pair's k_h^T [dk, t] and one block's [rows, t]
    // scores, which the softmax turns into probabilities in place. The shape
    // is reused too, so a warm call allocates nothing.
    thread_local std::vector<float> buf;
    thread_local Shape rows_t(2);
    int64_t packed = -1;  // pair whose k_h^T is in buf
    walk(u0, [&](int64_t u, size_t seg, int64_t local) {
      if (u >= u1) {
        return false;
      }
      const AttentionSegment& s = segments[seg];
      const int64_t t = s.length;
      const int64_t head = local / blocks(t);
      const int64_t r0 = local % blocks(t) * kAttentionRowBlock;
      const int64_t rows = std::min(kAttentionRowBlock, t - r0);
      const int64_t col = head * dk;
      const size_t need = static_cast<size_t>(t * dk + kAttentionRowBlock * t);
      if (buf.size() < need) {
        buf.resize(need);
      }
      float* kt = buf.data();
      float* scores = kt + t * dk;
      const int64_t pair = static_cast<int64_t>(seg) * heads + head;
      if (pair != packed) {
        for (int64_t r = 0; r < t; ++r) {
          const float* krow = k.data() + (s.offset + r) * hidden + col;
          for (int64_t d = 0; d < dk; ++d) {
            kt[d * t + r] = krow[d];
          }
        }
        packed = pair;
      }
      // scores = q_h[r0:r0+rows] k_h^T, read in place from q.
      const int64_t row = s.offset + r0;
      std::fill(scores, scores + rows * t, 0.0f);
      MatMulAccumulate(rows, t, dk, q.data() + row * hidden + col, hidden, kt, t, scores, t);
      rows_t = {rows, t};
      const TensorView score_view(scores, rows_t);
      if (s.mask.data() != nullptr) {
        const ConstTensorView mask_rows(s.mask.data() + r0 * t, rows_t);
        SoftmaxInto(score_view, &mask_rows, score_view);
      } else {
        SoftmaxInto(score_view, nullptr, score_view);
      }
      // ctx[rows, head cols] = p v_h, accumulated in place from zero.
      float* out = ctx.data() + row * hidden + col;
      for (int64_t r = 0; r < rows; ++r) {
        std::fill(out + r * hidden, out + r * hidden + dk, 0.0f);
      }
      MatMulAccumulate(rows, dk, t, scores, t, v.data() + s.offset * hidden + col, hidden, out,
                       hidden);
      return true;
    });
  };
  // The units run in rounds, each sized from the intra-op width read when it
  // starts: a serving stream's width grows as other streams finish
  // (parallel_for.h), and a long request's attention must pick that up. At
  // width 1 a round is the rest of one pair, run here. Otherwise its units go
  // to the chunk their midpoint on the prefix sum of cost falls in
  // (contiguous, as balanced as whole units allow), so a long request's
  // blocks spread over every chunk; a round takes every remaining unit when
  // the width cannot grow past what it can use, else about half the
  // remaining work. Units write disjoint rows and columns of ctx from the same
  // inputs, so neither rounds nor chunks change a bit; a chunk packs k_h^T
  // once per pair it touches.
  std::vector<int64_t> cut;
  int64_t u = 0;
  while (u < units) {
    const int chunks = ParallelChunkCount(units - u, 1);
    if (chunks <= 1) {
      int64_t pair_end = units;
      walk(u, [&](int64_t v, size_t seg, int64_t local) {
        const int64_t nb = blocks(segments[seg].length);
        pair_end = v - local % nb + nb;
        return false;
      });
      run_units(u, pair_end);
      u = pair_end;
      continue;
    }
    int64_t rest = 0;
    walk(u, [&](int64_t, size_t seg, int64_t local) {
      rest += cost(seg, local);
      return true;
    });
    const int64_t budget = chunks >= NumThreads() || chunks == units - u ? rest : (rest + 1) / 2;
    cut.assign(static_cast<size_t>(chunks) + 1, units);
    cut[0] = u;
    int next = 1;
    int64_t before = 0;
    walk(u, [&](int64_t v, size_t seg, int64_t local) {
      const int64_t c = cost(seg, local);
      const int64_t chunk = std::min<int64_t>(chunks - 1, (2 * before + c) * chunks / (2 * budget));
      while (next <= chunk) {
        cut[static_cast<size_t>(next++)] = v;
      }
      before += c;
      if (before < budget) {
        return true;
      }
      std::fill(cut.begin() + next, cut.end(), v + 1);
      return false;
    });
    ParallelForChunks(chunks, chunks, [&](int /*chunk*/, int64_t c0, int64_t c1) {
      for (int64_t c = c0; c < c1; ++c) {
        run_units(cut[static_cast<size_t>(c)], cut[static_cast<size_t>(c) + 1]);
      }
    });
    u = cut.back();
  }
}

Tensor LayerNorm(const Tensor& a, const Tensor& gamma, const Tensor& beta, float eps) {
  PIT_CHECK_EQ(a.rank(), 2);
  Tensor c({a.dim(0), a.dim(1)});
  LayerNormInto(a, gamma, beta, c, eps);
  return c;
}

Tensor ReduceSumAxis1(const Tensor& a) {
  PIT_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor c({m});
  ParallelFor(m, GrainOrSerial(m, std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, n))),
              [&](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i) {
                  const float* arow = a.data() + i * n;
                  float s = 0.0f;
                  for (int64_t j = 0; j < n; ++j) {
                    s += arow[j];
                  }
                  c[i] = s;
                }
              });
  return c;
}

void ApplyMaskInto(ConstTensorView a, ConstTensorView mask, TensorView c) {
  PIT_CHECK(a.ShapeEquals(mask));
  PIT_CHECK_EQ(a.size(), c.size());
  const float* pa = a.data();
  const float* pm = mask.data();
  float* pc = c.data();
  ParallelFor(a.size(), GrainOrSerial(a.size(), kElemGrain), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      pc[i] = pm[i] != 0.0f ? pa[i] : 0.0f;
    }
  });
}

Tensor ApplyMask(const Tensor& a, const Tensor& mask) {
  PIT_CHECK(a.shape() == mask.shape());
  Tensor c(a.shape());
  ApplyMaskInto(a, mask, c);
  return c;
}

Tensor Conv2D(const Tensor& input, const Tensor& weight) {
  PIT_CHECK_EQ(input.rank(), 4);   // N, C, H, W
  PIT_CHECK_EQ(weight.rank(), 4);  // F, C, KH, KW
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int64_t f = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  PIT_CHECK_EQ(c, weight.dim(1));
  const int64_t oh = h - kh + 1, ow = w - kw + 1;
  PIT_CHECK_GT(oh, 0);
  PIT_CHECK_GT(ow, 0);
  Tensor out({n, f, oh, ow});
  if (UseBlockedBackend()) {
    // im2col + GEMM: the weight [F, C*KH*KW] is already a contiguous row-major
    // matrix; lowering each image to a column panel [C*KH*KW, OH*OW] turns the
    // convolution into one GemmF32 per image whose output IS the [F, OH*OW]
    // output plane block — no post-hoc permutation. The GEMM's ascending-k
    // accumulation order equals the naive kernel's (ch, i, j) order, so the
    // two backends agree to the last bit.
    const int64_t ckk = c * kh * kw;
    const int64_t plane = oh * ow;
    // Per-call scratch (not thread_local): the panel is C*KH*KW x OH*OW and
    // pinning the largest-ever size per thread would hoard memory on big
    // activations; one allocation per conv call is noise next to the GEMM.
    std::vector<float> col(static_cast<size_t>(ckk * plane));
    float* pcol = col.data();
    for (int64_t b = 0; b < n; ++b) {
      // Each col row (ch, i, j) is OH shifted row-segments of the input — all
      // contiguous memcpys. Rows are disjoint: parallel across them.
      ParallelFor(ckk, GrainOrSerial(ckk, std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, plane))),
                  [&](int64_t r0, int64_t r1) {
                    for (int64_t r = r0; r < r1; ++r) {
                      const int64_t ch = r / (kh * kw);
                      const int64_t i = (r / kw) % kh;
                      const int64_t j = r % kw;
                      const float* src = input.data() + ((b * c + ch) * h + i) * w + j;
                      float* dst = pcol + r * plane;
                      for (int64_t y = 0; y < oh; ++y) {
                        std::memcpy(dst + y * ow, src + y * w,
                                    static_cast<size_t>(ow) * sizeof(float));
                      }
                    }
                  });
      GemmF32(f, plane, ckk, weight.data(), ckk, pcol, plane, out.data() + b * f * plane, plane);
    }
    return out;
  }
  auto in_at = [&](int64_t b, int64_t ch, int64_t y, int64_t x) {
    return input[((b * c + ch) * h + y) * w + x];
  };
  auto w_at = [&](int64_t ff, int64_t ch, int64_t y, int64_t x) {
    return weight[((ff * c + ch) * kh + y) * kw + x];
  };
  // Reference oracle: the naive 6-loop kernel, serial per output plane.
  const int64_t work_per_plane = oh * ow * c * kh * kw;
  ParallelFor(n * f,
              GrainOrSerial(n * f, std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, work_per_plane))),
              [&](int64_t lo, int64_t hi) {
                for (int64_t bf = lo; bf < hi; ++bf) {
                  const int64_t b = bf / f, ff = bf % f;
                  for (int64_t y = 0; y < oh; ++y) {
                    for (int64_t x = 0; x < ow; ++x) {
                      float acc = 0.0f;
                      for (int64_t ch = 0; ch < c; ++ch) {
                        for (int64_t i = 0; i < kh; ++i) {
                          for (int64_t j = 0; j < kw; ++j) {
                            acc += in_at(b, ch, y + i, x + j) * w_at(ff, ch, i, j);
                          }
                        }
                      }
                      out[((b * f + ff) * oh + y) * ow + x] = acc;
                    }
                  }
                }
              });
  return out;
}

}  // namespace pit

// Register-blocked, cache-tiled f32 GEMM — the compute core of the blocked
// backend.
//
// The kernel walks C in 4x16 register tiles (small enough to live entirely in
// vector registers under -O3 auto-vectorisation), streams B a k-panel at a
// time so the panel stays hot in L2 across row blocks, and parallelises over
// 4-row blocks of C. Chunk boundaries are aligned to the 4-row register tile,
// so every output element sees the exact same floating-point operation order
// regardless of the thread count — outputs are bitwise reproducible.
#ifndef PIT_COMMON_GEMM_MICROKERNEL_H_
#define PIT_COMMON_GEMM_MICROKERNEL_H_

#include <cstdint>

namespace pit {

// C[m,n] += A[m,k] * B[k,n], all row-major with leading dimensions lda/ldb/ldc
// (elements, not bytes). C must be initialised by the caller; the kernel
// accumulates into it. If `bias` is non-null it points at n floats added to
// every row of C in the epilogue of the final k-panel — fused so C is written
// exactly once (no second pass). If `relu` is true the epilogue additionally
// clamps each written element at zero (x > 0 ? x : 0, the exact ReluInto
// formula) after the bias add, so a fused matmul(+bias)+relu is bitwise
// identical to the two separate passes. Runs on the ParallelFor pool; safe to
// call from inside another ParallelFor (it then runs inline or fans out to
// the caller's width budget). Once B is large enough that its panels thrash
// L2 (>= 2 MiB), each worker packs the current k-panel of B into contiguous
// 16-wide tiles before streaming it through the register kernels; packing
// copies values only, so the result is bit-identical either way.
void GemmF32(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda, const float* b,
             int64_t ldb, float* c, int64_t ldc, const float* bias = nullptr,
             bool relu = false);

}  // namespace pit

#endif  // PIT_COMMON_GEMM_MICROKERNEL_H_

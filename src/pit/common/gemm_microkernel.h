// Register-blocked, cache-tiled f32 GEMM — the compute core of the blocked
// backend.
//
// The kernel walks C in register tiles, streams B a k-panel at a time so the
// panel stays hot in L2 across row blocks, and parallelises over row units of
// C. The scalar and AVX2 tiers walk 4-row blocks in 4x16 tiles, and their
// ragged rows and columns take a scalar fma edge tile. The AVX-512 tier walks
// 8-row units in 32-column strips: full strips take an 8x32 tile (16
// accumulator chains, enough to keep both fma ports busy) and every ragged
// strip — a short last unit or leftover columns — an 8x32 tile with lane
// masks, so no part of C falls back to scalar code. Chunk boundaries are
// aligned to the row units, and every tile runs the same ascending-p
// per-element chain and epilogue, so every output element sees the exact
// same floating-point operation order regardless of the thread count or
// which tile covered it — outputs are bitwise reproducible, and the AVX-512
// tier equals the AVX2 tier bit for bit.
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

#include "pit/common/gemm_microkernel.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "pit/common/backend.h"
#include "pit/common/gemm_scalar_kernels.h"
#include "pit/common/parallel_for.h"
#include "pit/common/simd_kernels.h"

namespace pit {
namespace {

// Scalar register-tile kernels (the kScalar tier / differential oracle) live
// in gemm_scalar_kernels.cc, compiled with auto-vectorization off.
using scalar_kernels::Kernel4x16;
using scalar_kernels::KernelEdge;
using scalar_kernels::kMr;
using scalar_kernels::kNr;

constexpr int64_t kKc = 256;  // k-panel depth: panel of B stays hot in L2

// A chunk must reuse the packed panel across at least this many 4-row blocks
// before the pack pass (one read + one write of the panel) pays for itself.
constexpr int64_t kMinRowBlocksToPack = 4;

// Pack only when B no longer fits in a typical L2: below this the strided
// rows stay resident anyway and the pack pass is pure overhead.
constexpr int64_t kMinBBytesToPack = 2ll << 20;

// Cap on the per-worker thread_local pack scratch (one k-panel across the
// full width of B): extremely wide GEMMs fall back to strided access instead
// of pinning tens of MiB per pool thread for the process lifetime.
constexpr int64_t kMaxPackScratchBytes = 8ll << 20;

// Packs B[p0:p1, 0:n] into `out` as consecutive 16-wide tiles, each tile laid
// out p-major with dense kNr rows (ragged last tile zero-padded). Tile jt
// starts at out + jt * (p1 - p0) * kNr.
void PackBPanel(const float* b, int64_t ldb, int64_t n, int64_t p0, int64_t p1, float* out) {
  const int64_t rows = p1 - p0;
  for (int64_t j = 0, jt = 0; j < n; j += kNr, ++jt) {
    const int64_t nr = std::min(kNr, n - j);
    float* dst = out + jt * rows * kNr;
    const float* src = b + p0 * ldb + j;
    if (nr == kNr) {
      for (int64_t p = 0; p < rows; ++p) {
        std::memcpy(dst + p * kNr, src + p * ldb, static_cast<size_t>(kNr) * sizeof(float));
      }
    } else {
      for (int64_t p = 0; p < rows; ++p) {
        std::memcpy(dst + p * kNr, src + p * ldb, static_cast<size_t>(nr) * sizeof(float));
        std::memset(dst + p * kNr + nr, 0, static_cast<size_t>(kNr - nr) * sizeof(float));
      }
    }
  }
}

}  // namespace

void GemmF32(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda, const float* b,
             int64_t ldb, float* c, int64_t ldc, const float* bias, bool relu) {
  if (m <= 0 || n <= 0) {
    return;
  }
  if (k <= 0) {
    if (bias != nullptr || relu) {
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          float v = c[i * ldc + j] + (bias ? bias[j] : 0.0f);
          c[i * ldc + j] = relu ? (v > 0.0f ? v : 0.0f) : v;
        }
      }
    }
    return;
  }
  // Resolve the ISA tier's kernel table once per call: every chunk of this
  // GEMM — and the scalar edge kernel inside it — then contracts with the
  // same fma chain, so results are independent of tiling, packing, and
  // thread count within the tier. Null table = scalar blocked kernels (the
  // differential oracle).
  const simd::GemmKernels* sk = UseSimd() ? simd::GemmKernelsFor(ActiveIsa()) : nullptr;
  // The AVX-512 tier covers C in 8-row units of 32-column strips: full strips
  // take the 8x32 tile, every ragged one (short last unit, leftover columns)
  // the masked 8x32 tile. The other tiers walk 4-row blocks in 16-column
  // tiles, and their ragged edges take the edge tile. Which kernel covers an
  // element never changes its bits, so this only decides how C is walked.
  const bool wide = sk != nullptr && sk->tile8x32 != nullptr;
  const int64_t unit_blocks = wide ? 2 : 1;
  const int64_t unit_rows = unit_blocks * kMr;
  const int64_t strip = wide ? 2 * kNr : kNr;
  // Parallel over row units of C (disjoint outputs, chunk boundaries on unit
  // boundaries => bitwise-identical results for any thread count). Grain
  // keeps at least ~1 MFLOP per dispatched chunk.
  const int64_t row_blocks = (m + kMr - 1) / kMr;
  const int64_t units = (row_blocks + unit_blocks - 1) / unit_blocks;
  const int64_t flops_per_unit = 2 * unit_rows * n * k;
  const int64_t grain = (1 << 20) / std::max<int64_t>(1, flops_per_unit) + 1;
  ParallelFor(units, grain, [&](int64_t u0, int64_t u1) {
    const int64_t blk0 = u0 * unit_blocks;
    const int64_t blk1 = std::min(row_blocks, u1 * unit_blocks);
    // Pack the k-panel of B once per chunk when enough row blocks reuse it.
    // The packed tiles are read in the exact same (p, j) order as the strided
    // original, so packing never changes the floating-point result.
    const int64_t n_tiles = (n + kNr - 1) / kNr;
    const int64_t scratch_elems = kKc * n_tiles * kNr;
    const bool pack = blk1 - blk0 >= kMinRowBlocksToPack &&
                      k * n * static_cast<int64_t>(sizeof(float)) >= kMinBBytesToPack &&
                      scratch_elems * static_cast<int64_t>(sizeof(float)) <= kMaxPackScratchBytes;
    thread_local std::vector<float> bpack;
    if (pack && static_cast<int64_t>(bpack.size()) < scratch_elems) {
      bpack.resize(static_cast<size_t>(scratch_elems));
    }
    for (int64_t pc = 0; pc < k; pc += kKc) {  // k-panels: B panel reused across row blocks
      const int64_t p1 = std::min(k, pc + kKc);
      const float* panel_bias = (p1 == k) ? bias : nullptr;  // epilogue on final panel only
      const bool panel_relu = (p1 == k) && relu;
      if (pack) {
        PackBPanel(b, ldb, n, pc, p1, bpack.data());
      }
      // Packed tile rows are [0, panel_rows) at ldb kNr; rebase the A pointer
      // by pc so the kernels' shared p index [q0, q1) walks both operands in
      // lockstep. Unpacked B is read in place over [pc, p1).
      const int64_t panel_rows = p1 - pc;
      const int64_t a_off = pack ? pc : 0;
      const int64_t ldb_k = pack ? kNr : ldb;
      const int64_t q0 = pack ? 0 : pc;
      const int64_t q1 = pack ? panel_rows : p1;
      // B's 16-wide tile starting at column j (a multiple of kNr).
      auto btile = [&](int64_t j) {
        return pack ? bpack.data() + (j / kNr) * panel_rows * kNr : b + j;
      };
      for (int64_t u = u0; u < u1; ++u) {
        const int64_t i0 = u * unit_rows;
        const int64_t mr = std::min(unit_rows, m - i0);
        const float* atile = a + i0 * lda + a_off;
        float* ctile = c + i0 * ldc;
        for (int64_t j = 0; j < n; j += strip) {
          const int64_t nr = std::min(strip, n - j);
          const float* bias_j = panel_bias ? panel_bias + j : nullptr;
          const bool full = mr == unit_rows && nr == strip;
          if (wide && full) {
            sk->tile8x32(atile, lda, btile(j), btile(j + kNr), ldb_k, ctile + j, ldc, q0, q1,
                         bias_j, panel_relu);
          } else if (wide) {
            const float* b1 = nr > kNr ? btile(j + kNr) : nullptr;
            sk->tile8x32_masked(atile, lda, btile(j), b1, ldb_k, ctile + j, ldc, mr, nr, q0, q1,
                                bias_j, panel_relu);
          } else if (full && sk) {
            sk->tile4x16(atile, lda, btile(j), ldb_k, ctile + j, ldc, q0, q1, bias_j,
                         panel_relu);
          } else if (full) {
            Kernel4x16(atile, lda, btile(j), ldb_k, ctile + j, ldc, q0, q1, bias_j, panel_relu);
          } else if (sk) {
            sk->edge(atile, lda, btile(j), ldb_k, ctile + j, ldc, mr, nr, q0, q1, bias_j,
                     panel_relu);
          } else {
            KernelEdge(atile, lda, btile(j), ldb_k, ctile + j, ldc, mr, nr, q0, q1, bias_j,
                       panel_relu);
          }
        }
      }
    }
  });
}

}  // namespace pit

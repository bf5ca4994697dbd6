// Runtime selection between the two compute backends.
//
//  - kReference: the original single-threaded scalar loops, kept verbatim as
//    the ground-truth oracle every optimised kernel is differential-tested
//    against.
//  - kBlocked: the register-blocked, cache-tiled, multi-threaded backend
//    (gemm_microkernel + parallel_for). Default.
//
// The active backend is process-global and defaults to kBlocked. The
// reference oracle is selected in code, with SetBackend() or the
// ScopedBackend RAII guard (differential tests and benches); no environment
// variable reaches it.
#ifndef PIT_COMMON_BACKEND_H_
#define PIT_COMMON_BACKEND_H_

#include <cstdint>

namespace pit {

enum class ComputeBackend {
  kReference,  // scalar single-threaded oracle
  kBlocked,    // cache-blocked + multi-threaded
};

// The backend hot paths dispatch on (kBlocked unless SetBackend chose
// otherwise).
ComputeBackend ActiveBackend();

void SetBackend(ComputeBackend backend);

// True when the blocked backend is active — the common dispatch predicate.
inline bool UseBlockedBackend() { return ActiveBackend() == ComputeBackend::kBlocked; }

// ParallelFor grain under the active backend: the given grain when blocked,
// the whole range (one sequential chunk) under the reference oracle. Every
// kernel that parallelises via grain uses this so the reference backend never
// spawns pool work.
inline int64_t GrainOrSerial(int64_t n, int64_t grain) {
  return UseBlockedBackend() ? grain : (n > 1 ? n : 1);
}

// RAII backend override for differential tests.
class ScopedBackend {
 public:
  explicit ScopedBackend(ComputeBackend backend) : saved_(ActiveBackend()) {
    SetBackend(backend);
  }
  ~ScopedBackend() { SetBackend(saved_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  ComputeBackend saved_;
};

// ---- SIMD instruction-set tier ---------------------------------------------
//
// Orthogonal to the backend choice: within the blocked backend, the hot inner
// loops (GEMM 4x16 microkernel, softmax, layernorm, elementwise, row gathers,
// the detector's span scan) dispatch to explicit vector microkernels when the
// CPU supports them.
//  - kScalar: the portable scalar blocked loops — the differential oracle for
//    every vector kernel. Forced whenever the reference backend is active.
//  - kAvx2:   AVX2 + FMA vector microkernels.
//  - kAvx512: AVX-512F GEMM microkernel (wider accumulator tile); every other
//    kernel shares the AVX2 paths, so non-GEMM results are bitwise identical
//    across the two SIMD tiers — and the GEMM per-element fma chain is too.
//
// Correctness contract: vector kernels lane across the n/column dimension, so
// kernels without a reduction or contraction (relu/add/scale, the detector
// scan, row gathers) are bitwise equal to the scalar tier. GEMM contracts with
// fma (one rounding instead of two per multiply-add) and softmax/layernorm
// use a vector exp polynomial / reassociated row reductions — those differ
// from scalar within documented tolerance but stay bitwise deterministic
// across threads x streams at a fixed tier, because every
// per-element operation chain is independent of tiling, packing, row
// position, and thread count.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PIT_SIMD_X86 1
#else
#define PIT_SIMD_X86 0
#endif

enum class IsaTier {
  kScalar,  // portable scalar blocked loops (oracle)
  kAvx2,    // AVX2 + FMA microkernels
  kAvx512,  // AVX-512F GEMM, AVX2 elsewhere
};

// Best tier this build + CPU supports (cached CPUID probe). kScalar on
// non-x86 builds or CPUs without AVX2+FMA.
IsaTier DetectedIsa();

// The tier SIMD-dispatching kernels run at: SetIsa() override > PIT_ISA env >
// DetectedIsa(). First call resolves PIT_ISA.
IsaTier ActiveIsa();

// Strict parser behind the PIT_ISA resolution: exactly "auto", "avx2", or
// "scalar". A typo'd tier must fail loudly (PIT_CHECK abort), not silently
// run the default while the operator believes the oracle is active. "avx2" on
// hardware without AVX2+FMA also aborts — a forced tier that silently
// downgraded would invalidate every downstream bench number. ("avx512" is not
// spellable: the widest tier is only reachable through "auto" detection.)
IsaTier ParseIsaEnv(const char* value);

void SetIsa(IsaTier tier);

// Human-readable tier name ("scalar", "avx2", "avx512") for logs and bench
// metadata.
const char* IsaName(IsaTier tier);

// True when vector microkernels should dispatch: blocked backend AND a SIMD
// tier. The reference backend always runs scalar — it is the ground-truth
// oracle and must not share code with the kernels under test.
bool UseSimd();

// RAII tier override for differential tests and benches.
class ScopedIsa {
 public:
  explicit ScopedIsa(IsaTier tier) : saved_(ActiveIsa()) { SetIsa(tier); }
  ~ScopedIsa() { SetIsa(saved_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  IsaTier saved_;
};

}  // namespace pit

#endif  // PIT_COMMON_BACKEND_H_

#include "pit/core/compiler.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <mutex>

#include "pit/common/check.h"
#include "pit/tensor/ops.h"

namespace pit {

PitCompiler::PitCompiler(DeviceSpec device, Precision precision)
    : model_(std::move(device), precision), db_(TileDatabase::BuildDefault(model_)) {}

PitCompiler::CacheKey PitCompiler::MakeKey(int64_t m, int64_t k, int64_t n,
                                           double sparsity) const {
  // Bucket rows on the power-of-two grid (floor 16): m is the token axis, a
  // PIT-axis absorbed at run time (§3.2), so every kernel runs at any m and a
  // packed batch's exact row count must not cost a fresh selection.
  // Bucket sparsity at 5% steps: a kernel selected at 90% sparsity stays
  // optimal in a neighbourhood, so re-selection would be wasted work.
  const int64_t m_bucket =
      std::max<int64_t>(16, static_cast<int64_t>(std::bit_ceil(static_cast<uint64_t>(m))));
  return {m_bucket, k, n, static_cast<int>(std::lround(sparsity * 20.0))};
}

SelectionResult PitCompiler::Plan(const SparsityPattern& pattern, int64_t m, int64_t k, int64_t n,
                                  const SelectionOptions& opts) {
  return SelectKernel(model_, db_, {&pattern}, m, k, n, opts);
}

PitExecution PitCompiler::SparseMatmul(const Tensor& a, const Tensor& b) {
  PIT_CHECK_EQ(a.rank(), 2);
  PIT_CHECK_EQ(b.rank(), 2);
  Tensor out({a.dim(0), b.dim(1)});
  const PitDispatch dispatch = SparseMatmulInto(a, b, out);
  PitExecution exec;
  exec.output = std::move(out);
  exec.plan = dispatch.plan;
  exec.cache_hit = dispatch.cache_hit;
  return exec;
}

PitDispatch PitCompiler::SparseMatmulInto(ConstTensorView a, ConstTensorView b, TensorView out) {
  PIT_CHECK_EQ(a.rank(), 2);
  PIT_CHECK_EQ(b.rank(), 2);
  PIT_CHECK_EQ(a.dim(1), b.dim(0));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  PIT_CHECK_EQ(out.dim(0), m);
  PIT_CHECK_EQ(out.dim(1), n);

  PitDispatch dispatch;
  MaskPattern pattern(a);
  const CacheKey key = MakeKey(m, k, n, a.SparsityRatio());
  const int64_t exec = exec_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  const bool resample = resample_every_ > 0 && exec % resample_every_ == 0;

  // The selected plan is copied out, so no lock outlives the lookup.
  PitMatmulPlan best;
  bool cached = false;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      best = it->second.best;
      cached = true;
    }
  }
  if (!cached) {
    // Algorithm 1 runs unlocked; the first result published for the key wins.
    SelectionResult selected = SelectKernel(model_, db_, {&pattern}, m, k, n);
    std::unique_lock<std::shared_mutex> lock(mu_);
    const auto [it, inserted] = cache_.try_emplace(key, std::move(selected));
    if (inserted) {
      kernels_compiled_.fetch_add(1, std::memory_order_relaxed);
    } else {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      dispatch.cache_hit = true;
    }
    best = it->second.best;
  } else if (resample) {
    // Periodic sample (Fig. 5): re-run Algorithm 1 on this input and replace
    // the cached kernel if the pattern has drifted to a different optimum.
    SelectionResult fresh = SelectKernel(model_, db_, {&pattern}, m, k, n);
    if (fresh.best.rule.axis != best.rule.axis ||
        !(fresh.best.rule.dense_tile == best.rule.dense_tile) ||
        fresh.best.fallback_dense != best.fallback_dense) {
      best = fresh.best;
      std::unique_lock<std::shared_mutex> lock(mu_);
      cache_[key] = std::move(fresh);
      reselections_.fetch_add(1, std::memory_order_relaxed);
    } else {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      dispatch.cache_hit = true;
    }
  } else {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    dispatch.cache_hit = true;
  }
  dispatch.plan = best;
  // Re-price for this exact tensor's sparsity (the cached rule is reused; the
  // cost always reflects the current input).
  if (!best.fallback_dense) {
    dispatch.plan = PlanSparseMatmul(model_, best.rule, m, k, n, pattern);
  }

  if (best.fallback_dense) {
    MatMulInto(a, b, out);
  } else if (best.rule.axis == MatmulAxis::kK) {
    PitKGatherMatmulInto(a, b, best.rule.dense_tile.m, out);
  } else {
    PitRowGatherMatmulInto(a, b, out);
  }
  return dispatch;
}

}  // namespace pit

#include "pit/core/compiler.h"

#include <algorithm>
#include <bit>
#include <cmath>

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

PitDispatch PitCompiler::SparseMatmulInto(ConstTensorView a, ConstTensorView b, TensorView out,
                                          PitKernelHandle* handle) {
  PIT_CHECK_EQ(a.rank(), 2);
  PIT_CHECK_EQ(b.rank(), 2);
  PIT_CHECK_EQ(a.dim(1), b.dim(0));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  PIT_CHECK_EQ(out.dim(0), m);
  PIT_CHECK_EQ(out.dim(1), n);

  PitDispatch dispatch;
  MaskPattern pattern(a);
  const double sparsity = a.SparsityRatio();
  const CacheKey key = MakeKey(m, k, n, sparsity);
  const int64_t m_bucket = std::get<0>(key);
  const int bucket = std::get<3>(key);
  ++exec_count_;
  const bool resample = resample_every_ > 0 && exec_count_ % resample_every_ == 0;

  const SelectionResult* sel = nullptr;
  if (handle != nullptr && handle->valid && handle->compiler == this && !resample &&
      handle->m == m_bucket && handle->k == k && handle->n == n &&
      handle->sparsity_bucket == bucket && handle->generation == selection_generation_) {
    // Plan-site hit: same cache key as when this step's kernel was selected —
    // reuse it without consulting the cache map.
    ++cache_hits_;
    dispatch.cache_hit = true;
    sel = &handle->selection;
  } else {
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      SelectionResult selected = SelectKernel(model_, db_, {&pattern}, m, k, n);
      it = cache_.emplace(key, std::move(selected)).first;
      ++kernels_compiled_;
    } else if (resample) {
      // Periodic sample (Fig. 5): re-run Algorithm 1 on this input and replace
      // the cached kernel if the pattern has drifted to a different optimum.
      SelectionResult fresh = SelectKernel(model_, db_, {&pattern}, m, k, n);
      if (fresh.best.rule.axis != it->second.best.rule.axis ||
          !(fresh.best.rule.dense_tile == it->second.best.rule.dense_tile) ||
          fresh.best.fallback_dense != it->second.best.fallback_dense) {
        it->second = std::move(fresh);
        ++reselections_;
        // Compiler-global invalidation: every plan-site handle re-validates
        // against the map on its next dispatch (cheap, and reselections are
        // rare — a per-key generation would only save those lookups).
        ++selection_generation_;
      } else {
        ++cache_hits_;
        dispatch.cache_hit = true;
      }
    } else {
      ++cache_hits_;
      dispatch.cache_hit = true;
    }
    if (handle != nullptr) {
      handle->valid = true;
      handle->compiler = this;
      handle->m = m_bucket;
      handle->k = k;
      handle->n = n;
      handle->sparsity_bucket = bucket;
      handle->generation = selection_generation_;
      handle->selection = it->second;
      sel = &handle->selection;  // stable even if the map rehashes later
    } else {
      sel = &it->second;
    }
  }
  dispatch.plan = sel->best;
  // Re-price for this exact tensor's sparsity (the cached rule is reused; the
  // cost always reflects the current input).
  if (!sel->best.fallback_dense) {
    dispatch.plan = PlanSparseMatmul(model_, sel->best.rule, m, k, n, pattern);
  }

  if (sel->best.fallback_dense) {
    MatMulInto(a, b, out);
  } else if (sel->best.rule.axis == MatmulAxis::kK) {
    PitKGatherMatmulInto(a, b, sel->best.rule.dense_tile.m, out);
  } else {
    PitRowGatherMatmulInto(a, b, out);
  }
  return dispatch;
}

}  // namespace pit

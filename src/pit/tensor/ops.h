// Reference dense operators. These are the "ground truth" implementations that
// every sparse execution path in the repository is validated against, and the
// functional building blocks of the nn substrate.
#ifndef PIT_TENSOR_OPS_H_
#define PIT_TENSOR_OPS_H_

#include <span>

#include "pit/tensor/tensor.h"

namespace pit {

// C[m,n] = A[m,k] * B[k,n].
Tensor MatMul(const Tensor& a, const Tensor& b);
// C[b,m,n] = A[b,m,k] * B[b,k,n].
Tensor BatchMatMul(const Tensor& a, const Tensor& b);
// C[m,n] = A[m,k] * B[k,n] with an additive row-broadcast bias[n].
Tensor MatMulBias(const Tensor& a, const Tensor& b, const Tensor& bias);

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);  // element-wise (Hadamard)
Tensor Relu(const Tensor& a);
Tensor Gelu(const Tensor& a);  // tanh approximation
Tensor Transpose2D(const Tensor& a);

// Row-wise softmax over the last axis of a 2-D tensor. Entries where
// mask (same shape, 0/1) is zero are excluded (set to -inf before softmax);
// pass nullptr for an unmasked softmax.
Tensor Softmax(const Tensor& a, const Tensor* mask = nullptr);

// out = a * factor, element-wise.
Tensor Scale(const Tensor& a, float factor);

// LayerNorm over the last axis with per-feature gain/bias.
Tensor LayerNorm(const Tensor& a, const Tensor& gamma, const Tensor& beta, float eps = 1e-5f);

// Sum over axis 1 of a 2-D tensor: out[m] = sum_k a[m,k].
Tensor ReduceSumAxis1(const Tensor& a);

// out[i,j] = a[i,j] if mask[i,j] != 0 else 0 — the paper's dynamic masking.
Tensor ApplyMask(const Tensor& a, const Tensor& mask);

// 2-D convolution, NCHW activations x FCHW weights, stride 1, no padding.
// Used by the expr tests to exercise the non-PIT axes of convolution.
// Reference backend: the naive 6-loop kernel (the oracle). Blocked backend:
// per-image im2col into a reused scratch panel + one GemmF32 per image, whose
// k order (channel, kh, kw) matches the naive accumulation order exactly.
Tensor Conv2D(const Tensor& input, const Tensor& weight);

// ---- View-based kernels ----------------------------------------------------
//
// The planned graph executor dispatches these: identical math to the Tensor
// wrappers above (the wrappers call them), but the caller owns the output
// storage — typically a slice of the execution arena. Output views must not
// alias inputs except where noted; every function fully defines the output
// (MatMul*Into zero-fill before accumulating, SoftmaxInto writes zeros for
// fully-masked rows).
void MatMulInto(ConstTensorView a, ConstTensorView b, TensorView c);
void MatMulBiasInto(ConstTensorView a, ConstTensorView b, ConstTensorView bias, TensorView c);
// Fused matmul(+bias)+relu — the planned executor's fused-epilogue step for a
// matmul whose only consumer is a ReLU. Bitwise identical to the separate
// MatMul(Bias)Into followed by ReluInto for either backend: the blocked GEMM
// clamps in its (final-panel) epilogue with the exact ReluInto formula, the
// reference path runs the two scalar passes verbatim.
void MatMulReluInto(ConstTensorView a, ConstTensorView b, TensorView c);
void MatMulBiasReluInto(ConstTensorView a, ConstTensorView b, ConstTensorView bias,
                        TensorView c);
// C[b,m,n] = A[b,m,k] * B[b,k,n], one independent GEMM per batch slice.
// `c` must not alias the inputs.
void BatchMatMulInto(ConstTensorView a, ConstTensorView b, TensorView c);
// Element-wise kernels; `c` may alias any input (read-then-write per element).
void AddInto(ConstTensorView a, ConstTensorView b, TensorView c);
// c[i, :] += bias for every row of the rank-2 `c`: one IEEE add per element
// (the row add kernel). The bias epilogue of a PIT matmul, whose sparse
// kernels carry no fused bias.
void AddBiasRowsInto(ConstTensorView bias, TensorView c);
void ReluInto(ConstTensorView a, TensorView c);
void ApplyMaskInto(ConstTensorView a, ConstTensorView mask, TensorView c);
void ScaleInto(ConstTensorView a, float factor, TensorView c);
// Axis-swap copy. Supported: rank-2 with (axis0, axis1) == (0, 1); rank-3
// with (0, 1) ([a,b,c] -> [b,a,c], the head split/merge move) or (1, 2)
// (batched 2-D transpose). `c` must not alias `a`.
void TransposeInto(ConstTensorView a, int axis0, int axis1, TensorView c);
// Row-wise softmax over the last axis of a rank-2 or rank-3 tensor; `mask`
// may be null. A rank-2 mask under a rank-3 input broadcasts over axis 0
// (one [tokens, tokens] attention mask shared by every head). `c` may alias
// `a` but must not alias the mask. Under the blocked backend each masked row
// runs as its maximal runs of unmasked columns: fully-masked spans skip the
// max/exp/sum work and write zeros (block-diagonal ragged-batch masks zero
// most of every row). Skipping is exact, so the scalar tier is bitwise equal
// to the reference backend's full-row loop.
void SoftmaxInto(ConstTensorView a, const ConstTensorView* mask, TensorView c);
// LayerNorm over the last axis of a 2-D tensor; gamma/beta are [n]. `c` may
// alias `a` (each row's statistics are read before the row is rewritten).
void LayerNormInto(ConstTensorView a, ConstTensorView gamma, ConstTensorView beta, TensorView c,
                   float eps = 1e-5f);

// One request's rows inside a packed attention operand: rows
// [offset, offset + length) attend only to each other, through `mask`
// ([length, length]; zero entries are excluded) or fully when the view is
// null. The mask view borrows: its storage must outlive the call.
struct AttentionSegment {
  int64_t offset = 0;
  int64_t length = 0;
  ConstTensorView mask;
};

// Segment-aware multi-head attention over packed [T, hidden] operands: `q`
// (already scaled), `k` and `v`, head h in columns [h*dk, (h+1)*dk). For each
// (segment, head) pair it computes MultiHeadAttention::ForwardEager's
// per-head q_h k_h^T, softmax with the segment's mask or none, and p v_h,
// into ctx[offset:offset+t, h*dk:(h+1)*dk]; rows in no segment are zeroed.
// It runs in place: q_h and v_h are read from `q` and `v` at leading
// dimension `hidden`, the head context accumulates straight into `ctx`, and
// only k_h^T is packed. Each pair's query rows run in blocks of 32: the
// score GEMM, SoftmaxInto over the block's [rows, t] scores (with the
// matching rows of the mask) and the context GEMM, so no [t, t] tile is ever
// held. Every score and context element keeps its ascending-p chain from
// +0 and the softmax is per row, so each segment's rows are bitwise equal to
// its request attended alone, on both backends, and a packed tile costs
// sum(t_i^2) score entries, not T^2. Segments must be non-empty, sorted,
// disjoint and inside [0, T). The (pair, row block) units are split across
// the pool in contiguous chunks of about equal work, so a single long pair
// still fills the pool; a chunk packs each pair's k_h^T once. Inside a
// serving task the split is redone in rounds as the task's width grows
// (parallel_for.h), so threads freed mid-call join the rest. Per-thread
// scratch is t*dk + 32*t floats and grows to the largest segment seen, so
// warm calls allocate nothing on one thread. `ctx` must not alias q/k/v.
void SegmentAttentionInto(ConstTensorView q, ConstTensorView k, ConstTensorView v, int64_t heads,
                          std::span<const AttentionSegment> segments, TensorView ctx);

}  // namespace pit

#endif  // PIT_TENSOR_OPS_H_

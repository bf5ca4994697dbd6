#include "pit/graph/execution_plan.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "pit/common/check.h"
#include "pit/common/fault_injection.h"
#include "pit/graph/plan_verifier.h"
#include "pit/tensor/ops.h"

namespace pit {

namespace {

// Arena offsets are aligned to 16 floats (one 64-byte cache line) so reused
// slots never split a vector register's load across two lines.
constexpr int64_t kAlignElems = 16;

int64_t AlignUp(int64_t elems) {
  return (elems + kAlignElems - 1) / kAlignElems * kAlignElems;
}

// Best-fit free-list planner with coalescing. Works entirely at compile
// time: the plan's arena is sized to the high-water extent once, and
// execution never allocates. Replay runs the steps in order and every step
// allocates its output before its dying inputs are freed, so a recycled
// block is only ever handed to a step that runs after its last reader.
class ArenaPlanner {
 public:
  int64_t Allocate(int64_t elems) {
    const int64_t need = AlignUp(std::max<int64_t>(elems, 1));
    auto best = free_.end();
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->second >= need && (best == free_.end() || it->second < best->second)) {
        best = it;
      }
    }
    int64_t offset;
    if (best != free_.end()) {
      offset = best->first;
      const int64_t leftover = best->second - need;
      free_.erase(best);
      if (leftover > 0) {
        free_.emplace(offset + need, leftover);
      }
    } else {
      offset = extent_;
      extent_ += need;
    }
    live_.emplace(offset, need);
    return offset;
  }

  void Free(int64_t offset) {
    auto it = live_.find(offset);
    PIT_CHECK(it != live_.end()) << "double free at arena offset " << offset;
    int64_t size = it->second;
    live_.erase(it);
    // Coalesce with the next and previous free blocks.
    auto next = free_.lower_bound(offset);
    if (next != free_.end() && offset + size == next->first) {
      size += next->second;
      next = free_.erase(next);
    }
    if (next != free_.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second == offset) {
        prev->second += size;
        return;
      }
    }
    free_.emplace(offset, size);
  }

  int64_t extent() const { return extent_; }

 private:
  std::map<int64_t, int64_t> free_;  // offset -> size
  std::map<int64_t, int64_t> live_;  // offset -> size
  int64_t extent_ = 0;
};

Shape InferShape(const Graph& g, const GraphNode& n) {
  switch (n.kind) {
    case OpKind::kInput:
    case OpKind::kWeight:
      return n.shape;
    case OpKind::kMatmul:
    case OpKind::kMatmulBias: {
      const Shape& a = g.node(n.inputs[0]).shape;
      const Shape& b = g.node(n.inputs[1]).shape;
      PIT_CHECK_EQ(a.size(), 2u);
      PIT_CHECK_EQ(b.size(), 2u);
      PIT_CHECK_EQ(a[1], b[0]);
      if (n.kind == OpKind::kMatmulBias) {
        const Shape& bias = g.node(n.inputs[2]).shape;
        PIT_CHECK_EQ(bias.size(), 1u);
        PIT_CHECK_EQ(bias[0], b[1]);
      }
      return {a[0], b[1]};
    }
    case OpKind::kRelu:
      return g.node(n.inputs[0]).shape;
    case OpKind::kSoftmax: {
      const Shape& x = g.node(n.inputs[0]).shape;
      if (n.inputs.size() == 2) {
        const Shape& mask = g.node(n.inputs[1]).shape;
        PIT_CHECK_EQ(mask.size(), 2u);
        PIT_CHECK_EQ(mask[0], x[x.size() - 2]);
        PIT_CHECK_EQ(mask[1], x[x.size() - 1]);
      }
      return x;
    }
    case OpKind::kAdd:
    case OpKind::kMask:
      PIT_CHECK(g.node(n.inputs[0]).shape == g.node(n.inputs[1]).shape);
      return g.node(n.inputs[0]).shape;
    case OpKind::kLayerNorm: {
      const Shape& x = g.node(n.inputs[0]).shape;
      PIT_CHECK_EQ(x.size(), 2u);
      PIT_CHECK(g.node(n.inputs[1]).shape == Shape{x[1]});
      PIT_CHECK(g.node(n.inputs[2]).shape == Shape{x[1]});
      return x;
    }
    case OpKind::kScale:
      return g.node(n.inputs[0]).shape;
    case OpKind::kTranspose: {
      Shape s = g.node(n.inputs[0]).shape;
      const int rank = static_cast<int>(s.size());
      PIT_CHECK(n.iattr0 >= 0 && n.iattr0 < rank && n.iattr1 >= 0 && n.iattr1 < rank)
          << "transpose axes (" << n.iattr0 << ", " << n.iattr1 << ") out of rank " << rank;
      std::swap(s[static_cast<size_t>(n.iattr0)], s[static_cast<size_t>(n.iattr1)]);
      return s;
    }
    case OpKind::kReshape:
      PIT_CHECK_EQ(NumElements(n.shape), NumElements(g.node(n.inputs[0]).shape));
      return n.shape;
    case OpKind::kBatchMatmul: {
      const Shape& a = g.node(n.inputs[0]).shape;
      const Shape& b = g.node(n.inputs[1]).shape;
      PIT_CHECK_EQ(a.size(), 3u);
      PIT_CHECK_EQ(b.size(), 3u);
      PIT_CHECK_EQ(a[0], b[0]);
      PIT_CHECK_EQ(a[2], b[1]);
      return {a[0], a[1], b[2]};
    }
    case OpKind::kAttention: {
      const Shape& q = g.node(n.inputs[0]).shape;
      PIT_CHECK_EQ(q.size(), 2u);
      PIT_CHECK(g.node(n.inputs[1]).shape == q && g.node(n.inputs[2]).shape == q);
      PIT_CHECK(n.iattr0 > 0 && q[1] % n.iattr0 == 0);
      if (n.inputs.size() == 4) {
        PIT_CHECK(g.node(n.inputs[3]).shape == (Shape{q[0], q[0]}));
      }
      return q;
    }
  }
  PIT_CHECK(false) << "unreachable op kind";
  return {};
}

const MatmulDecision* DecisionFor(const std::vector<MatmulDecision>* decisions, int id) {
  if (decisions == nullptr) {
    return nullptr;
  }
  for (const auto& d : *decisions) {
    if (d.node_id == id) {
      return &d;
    }
  }
  return nullptr;
}

// Token-row provenance over the IR. A feed is token-major by definition (its
// leading axis is the token axis); a weight, and anything computed from
// weights alone, is constant. A node computed from token data stays
// token-major only if its op keeps the token axis leading and computes each
// output row from the same input row: GEMM rows against constant operands,
// elementwise ops over token-major operands of one shape, row-wise
// layernorm/softmax with constant parameters, and kAttention without a mask
// operand (bound segments drive it; a [T, T] mask indexes tokens on both
// axes). Anything else touching token data (transpose, reshape, batched
// GEMM, a token-dependent right-hand GEMM operand, a mask) makes the plan
// non-polymorphic. Fills `token_major` (all zero unless polymorphic) and the
// token extent (the first feed's leading dim); returns polymorphism.
bool DeriveTokenRows(const Graph& g, std::vector<char>* token_major, int64_t* extent) {
  const int n = g.size();
  std::vector<char> tok(static_cast<size_t>(n), 0);
  *extent = 0;
  bool polymorphic = true;
  bool have_feed = false;
  for (int id = 0; id < n; ++id) {
    const GraphNode& node = g.node(id);
    if (node.kind == OpKind::kInput) {
      if (node.shape.empty()) {
        polymorphic = false;
        continue;
      }
      if (!have_feed) {
        *extent = node.shape[0];
        have_feed = true;
      }
      // Every feed must share the one token axis.
      polymorphic = polymorphic && node.shape[0] == *extent;
      tok[static_cast<size_t>(id)] = 1;
      continue;
    }
    const auto is_tok = [&](size_t i) {
      return tok[static_cast<size_t>(node.inputs[i])] != 0;
    };
    bool any = false;
    bool rest_const = true;  // every operand after the first is constant
    bool all = true;
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      any = any || is_tok(i);
      all = all && is_tok(i);
      rest_const = rest_const && (i == 0 || !is_tok(i));
    }
    if (!any) {
      continue;  // constant (weights only)
    }
    bool row_wise = false;
    switch (node.kind) {
      case OpKind::kMatmul:
      case OpKind::kMatmulBias:
      case OpKind::kLayerNorm:
        row_wise = is_tok(0) && rest_const;
        break;
      case OpKind::kRelu:
      case OpKind::kScale:
      case OpKind::kAdd:
      case OpKind::kMask:
        row_wise = all;
        break;
      case OpKind::kSoftmax:
        row_wise = node.inputs.size() == 1;
        break;
      case OpKind::kAttention:
        row_wise = node.inputs.size() == 3 && all;
        break;
      case OpKind::kInput:
      case OpKind::kWeight:
      case OpKind::kTranspose:
      case OpKind::kReshape:
      case OpKind::kBatchMatmul:
        break;
    }
    polymorphic = polymorphic && row_wise;
    tok[static_cast<size_t>(id)] = 1;
  }
  if (!polymorphic) {
    std::fill(tok.begin(), tok.end(), 0);
  }
  *token_major = std::move(tok);
  return polymorphic;
}

bool ElementwiseInPlaceOk(OpKind kind) {
  // Relu/Add/Mask/Scale read each element before writing it, so the output
  // may alias a dying input; LayerNorm reads a row's statistics before
  // rewriting the row, which is equally safe under exact (same-offset)
  // aliasing. Matmuls read operands while writing C (never safe); transpose
  // permutes positions (never safe); softmax is kept out-of-place
  // conservatively (multi-pass rows).
  return kind == OpKind::kRelu || kind == OpKind::kAdd || kind == OpKind::kMask ||
         kind == OpKind::kScale || kind == OpKind::kLayerNorm;
}

}  // namespace

// ---- ExecutionContext -------------------------------------------------------

ExecutionContext::ExecutionContext(const ExecutionPlan& plan) : plan_(&plan) {
  // Arena storage with headroom so the working base can be rounded up to a
  // 64-byte boundary (block offsets are already 64-byte multiples).
  arena_storage_.assign(static_cast<size_t>(plan.arena_elems_ + kAlignElems), 0.0f);
  const uintptr_t raw = reinterpret_cast<uintptr_t>(arena_storage_.data());
  arena_ = reinterpret_cast<float*>((raw + 63) & ~static_cast<uintptr_t>(63));
  arena_bytes_ = plan.stats_.arena_bytes;
  bound_ = plan.compile_bound_;
  shapes_ = plan.shapes_;
  shaped_rows_ = plan.token_extent_;
}

ExecutionPlan::ExecutionPlan(const Graph& graph, const std::vector<MatmulDecision>* decisions) {
  const int n = graph.size();
  PIT_CHECK_GT(n, 0) << "cannot plan an empty graph";
  compile_bound_.assign(static_cast<size_t>(n), nullptr);
  shapes_.reserve(static_cast<size_t>(n));
  for (int id = 0; id < n; ++id) {
    shapes_.push_back(graph.node(id).shape);
  }

  // Storage roots: a kReshape aliases its input's storage, so lifetimes are
  // tracked per root block, not per node — a block stays live until the last
  // consumer of ANY node viewing it.
  std::vector<int> root(static_cast<size_t>(n));
  for (int id = 0; id < n; ++id) {
    const GraphNode& node = graph.node(id);
    root[static_cast<size_t>(id)] =
        node.kind == OpKind::kReshape ? root[static_cast<size_t>(node.inputs[0])] : id;
  }

  // Liveness: last step consuming each root block. The final node's block is
  // never recycled simply because no allocation happens after the last step,
  // so the result view stays valid until the next Run rewrites the arena.
  std::vector<int> last_use(static_cast<size_t>(n), -1);
  // Consumer counts (duplicates counted: Add(x, x) consumes x twice), for the
  // sole-consumer test behind matmul+relu fusion.
  std::vector<int> consumers(static_cast<size_t>(n), 0);
  for (int id = 0; id < n; ++id) {
    for (int in : graph.node(id).inputs) {
      last_use[static_cast<size_t>(root[static_cast<size_t>(in)])] = id;
      ++consumers[static_cast<size_t>(in)];
    }
  }
  const int final_id = n - 1;

  // Plan-compile fusion: a dense matmul(+bias) whose only consumer is a ReLU
  // collapses into one fused-epilogue GEMM step at the ReLU's position. PIT
  // matmuls are excluded — the sparse path keeps its separate ReLU, so the
  // compiler's detect/select flow is untouched.
  std::vector<int> fused_matmul_of(static_cast<size_t>(n), -1);  // relu id -> matmul id
  std::vector<char> deferred(static_cast<size_t>(n), 0);         // matmul ids elided
  for (int id = 0; id < n; ++id) {
    const GraphNode& node = graph.node(id);
    if (node.kind != OpKind::kRelu) {
      continue;
    }
    const int src = node.inputs[0];
    const GraphNode& mm = graph.node(src);
    if ((mm.kind == OpKind::kMatmul || mm.kind == OpKind::kMatmulBias) &&
        consumers[static_cast<size_t>(src)] == 1) {
      const MatmulDecision* d = DecisionFor(decisions, src);
      if (d == nullptr || !d->use_pit) {
        fused_matmul_of[static_cast<size_t>(id)] = src;
        deferred[static_cast<size_t>(src)] = 1;
        // The fused step reads the matmul's operands at the ReLU's position,
        // not the matmul's: extend their lifetimes to here, or an
        // intermediate consumer that was their nominal last use would alias
        // (or free-and-reuse) a block the fused GEMM still has to read.
        for (int in : mm.inputs) {
          int& lu = last_use[static_cast<size_t>(root[static_cast<size_t>(in)])];
          lu = std::max(lu, id);
        }
      }
    }
  }

  ArenaPlanner planner;
  std::vector<ValueRef> loc(static_cast<size_t>(n));
  // Releases the blocks of `inputs` whose lifetime ends at `consumer_id`
  // (deduped by storage root so two views of one block — x and reshape(x),
  // or Add(x, x) — free it once). `alias_root` (or -1) is the block the
  // consumer's output inherited in place; it is never freed.
  const auto release_dying_inputs = [&](const std::vector<int>& inputs, int consumer_id,
                                        int alias_root) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      const int in = inputs[i];
      const int r_in = root[static_cast<size_t>(in)];
      bool seen = false;
      for (size_t j = 0; j < i; ++j) {
        if (root[static_cast<size_t>(inputs[j])] == r_in) {
          seen = true;
          break;
        }
      }
      if (seen) {
        continue;  // duplicate block; free once
      }
      const ValueRef& r = loc[static_cast<size_t>(in)];
      if (r.loc == ValueLoc::kArena && last_use[static_cast<size_t>(r_in)] == consumer_id &&
          r_in != alias_root) {
        planner.Free(r.offset);
      }
    }
  };
  for (int id = 0; id < n; ++id) {
    const GraphNode& node = graph.node(id);
    // Shape inference over the IR; AddX checked at construction, the plan
    // re-derives so a hand-mutated graph fails here rather than in a kernel.
    const Shape inferred = InferShape(graph, node);
    PIT_CHECK(inferred == node.shape)
        << "shape inference mismatch at node " << id << " (" << node.name << ")";

    if (node.kind == OpKind::kInput) {
      loc[static_cast<size_t>(id)] = {ValueLoc::kFeed, id, id, 0};
      feed_bindings_.push_back({id, node.name});
      continue;
    }
    if (node.kind == OpKind::kWeight) {
      loc[static_cast<size_t>(id)] = {ValueLoc::kWeight, id, id, 0};
      compile_bound_[static_cast<size_t>(id)] = graph.weight(id).data();
      continue;
    }
    if (deferred[static_cast<size_t>(id)]) {
      // Emission (output block, input frees) happens at the fused ReLU; the
      // matmul's operands stay live in the planner until then.
      continue;
    }

    if (node.kind == OpKind::kRelu && fused_matmul_of[static_cast<size_t>(id)] >= 0) {
      const int mm_id = fused_matmul_of[static_cast<size_t>(id)];
      const GraphNode& mm = graph.node(mm_id);
      OpCall call;
      call.kind = mm.kind;
      call.fuse_relu = true;
      call.node_id = id;  // the surviving (ReLU) value
      call.num_in = static_cast<int>(mm.inputs.size());
      for (int i = 0; i < call.num_in; ++i) {
        call.in[i] = loc[static_cast<size_t>(mm.inputs[static_cast<size_t>(i)])];
      }
      const int64_t elems = NumElements(node.shape);
      // A GEMM reads its operands while writing C: never in-place.
      call.out = {ValueLoc::kArena, id, id, planner.Allocate(elems)};
      loc[static_cast<size_t>(id)] = call.out;
      // Release the matmul's dying inputs. Their last_use was extended to
      // this ReLU when the pair was fused, so blocks whose final read is the
      // fused GEMM die here — and nothing earlier could alias or recycle
      // them.
      release_dying_inputs(mm.inputs, id, /*alias_root=*/-1);
      // Eager execution materializes both the matmul and the ReLU.
      stats_.sum_temporary_bytes += 2 * elems * static_cast<int64_t>(sizeof(float));
      ++stats_.num_fused;
      steps_.push_back(std::move(call));
      continue;
    }

    OpCall call;
    call.kind = node.kind;
    call.node_id = id;
    call.fattr = node.fattr;
    call.iattr0 = node.iattr0;
    call.iattr1 = node.iattr1;
    call.num_in = static_cast<int>(node.inputs.size());
    PIT_CHECK_LE(call.num_in, kMaxOpInputs);
    for (int i = 0; i < call.num_in; ++i) {
      call.in[i] = loc[static_cast<size_t>(node.inputs[static_cast<size_t>(i)])];
    }

    if (node.kind == OpKind::kReshape) {
      // Pure alias: same storage, new shape. The step itself dispatches no
      // kernel; it exists so observers (Graph::Execute) see the value.
      call.out = call.in[0];
      call.out.shape_id = id;
      loc[static_cast<size_t>(id)] = call.out;
      steps_.push_back(std::move(call));
      continue;
    }

    if (node.kind == OpKind::kMatmul || node.kind == OpKind::kMatmulBias) {
      const MatmulDecision* d = DecisionFor(decisions, id);
      call.use_pit = d != nullptr && d->use_pit;
      if (call.use_pit) {
        ++stats_.num_pit_steps;
      }
    }

    const int64_t elems = NumElements(node.shape);
    // In-place reuse: an elementwise op whose input's lifetime ends here (and
    // whose value is arena-resident, same element count) writes into that
    // input's block instead of claiming a new one. Safe for the final node
    // too — aliasing transfers the block to the result, it never recycles it.
    int alias_root = -1;
    if (ElementwiseInPlaceOk(node.kind)) {
      for (int in : node.inputs) {
        const int r_in = root[static_cast<size_t>(in)];
        const ValueRef& r = loc[static_cast<size_t>(in)];
        if (r.loc == ValueLoc::kArena && last_use[static_cast<size_t>(r_in)] == id &&
            NumElements(shapes_[static_cast<size_t>(in)]) == elems) {
          alias_root = r_in;
          call.out = {ValueLoc::kArena, id, id, r.offset};
          break;
        }
      }
    }
    if (alias_root >= 0) {
      call.inplace = true;
      ++stats_.num_inplace;
    } else {
      call.out = {ValueLoc::kArena, id, id, planner.Allocate(elems)};
    }
    loc[static_cast<size_t>(id)] = call.out;

    // Release dying input blocks (except the one the output inherited).
    release_dying_inputs(node.inputs, id, alias_root);

    stats_.sum_temporary_bytes += elems * static_cast<int64_t>(sizeof(float));
    steps_.push_back(std::move(call));
  }

  result_ = loc[static_cast<size_t>(final_id)];
  token_polymorphic_ = DeriveTokenRows(graph, &token_major_, &token_extent_);
  arena_elems_ = planner.extent();
  stats_.arena_bytes = planner.extent() * static_cast<int64_t>(sizeof(float));
  stats_.num_steps = static_cast<int>(steps_.size());
  // From here on the plan is immutable; all replay state lives in
  // caller-owned execution contexts.

  // Independent static verification of every freshly compiled plan: the
  // verifier re-derives every invariant replay rides on — in-bounds aligned
  // blocks, live-interval integrity, binding coverage — from the compile
  // products alone, and aborts with a structured report on any violation. A
  // plan compiles once and replays many times, so this costs one pass per
  // compile. A planner bug dies here, at compile, not as silently corrupted
  // output.
  VerifyPlanOrDie(*this, "ExecutionPlan compile");
}

void ExecutionPlan::BindTokenRows(ExecutionContext& ctx) const {
  const int64_t rows = ctx.token_rows_ > 0 ? ctx.token_rows_ : token_extent_;
  PIT_CHECK(rows <= token_extent_) << "token rows exceed the plan's capacity:" << rows << ">"
                                   << token_extent_;
  PIT_CHECK(rows == token_extent_ || token_polymorphic_)
      << "plan is not token-polymorphic, so it replays only at its extent of" << token_extent_
      << "rows, not" << rows;
  if (rows == ctx.shaped_rows_) {
    return;
  }
  for (size_t id = 0; id < token_major_.size(); ++id) {
    if (token_major_[id] != 0) {
      ctx.shapes_[id][0] = rows;
    }
  }
  ctx.shaped_rows_ = rows;
}

const float* ExecutionPlan::ResolveConst(const ValueRef& ref, const ExecutionContext& ctx) const {
  switch (ref.loc) {
    case ValueLoc::kArena:
      return ctx.arena_ + ref.offset;
    case ValueLoc::kFeed:
    case ValueLoc::kWeight:
      return ctx.bound_[static_cast<size_t>(ref.node_id)];
  }
  return nullptr;
}

float* ExecutionPlan::ResolveArena(const ValueRef& ref, ExecutionContext& ctx) const {
  PIT_CHECK(ref.loc == ValueLoc::kArena);
  return ctx.arena_ + ref.offset;
}

void ExecutionPlan::Dispatch(int step_index, ExecutionContext& ctx, PitCompiler* compiler) const {
  const OpCall& call = steps_[static_cast<size_t>(step_index)];
  if (call.kind == OpKind::kReshape) {
    return;  // alias-only: the value is its input's storage, reinterpreted
  }
  const Shape& out_shape = ctx.shapes_[static_cast<size_t>(call.out.shape_id)];
  TensorView out(ResolveArena(call.out, ctx), out_shape);
  auto in = [&](int i) {
    return ConstTensorView(ResolveConst(call.in[i], ctx),
                           ctx.shapes_[static_cast<size_t>(call.in[i].shape_id)]);
  };
  switch (call.kind) {
    case OpKind::kInput:
    case OpKind::kWeight:
    case OpKind::kReshape:
      PIT_CHECK(false) << "inputs/weights/reshapes are bindings, not kernels";
      break;
    case OpKind::kMatmul:
      if (call.use_pit) {
        PIT_CHECK(compiler != nullptr) << "PIT decision requires a compiler";
        compiler->SparseMatmulInto(in(0), in(1), out);
      } else if (call.fuse_relu) {
        MatMulReluInto(in(0), in(1), out);
      } else {
        MatMulInto(in(0), in(1), out);
      }
      break;
    case OpKind::kMatmulBias:
      if (call.use_pit) {
        PIT_CHECK(compiler != nullptr) << "PIT decision requires a compiler";
        compiler->SparseMatmulInto(in(0), in(1), out);
        // Bias applied after the sparse kernel, as on the eager sparse
        // Linear path.
        AddBiasRowsInto(in(2), out);
      } else if (call.fuse_relu) {
        MatMulBiasReluInto(in(0), in(1), in(2), out);
      } else {
        MatMulBiasInto(in(0), in(1), in(2), out);
      }
      break;
    case OpKind::kRelu:
      ReluInto(in(0), out);
      break;
    case OpKind::kAdd:
      AddInto(in(0), in(1), out);
      break;
    case OpKind::kMask:
      ApplyMaskInto(in(0), in(1), out);
      break;
    case OpKind::kSoftmax:
      if (call.num_in == 2) {
        const ConstTensorView mask = in(1);
        SoftmaxInto(in(0), &mask, out);
      } else {
        SoftmaxInto(in(0), nullptr, out);
      }
      break;
    case OpKind::kLayerNorm:
      LayerNormInto(in(0), in(1), in(2), out, call.fattr);
      break;
    case OpKind::kScale:
      ScaleInto(in(0), call.fattr, out);
      break;
    case OpKind::kTranspose:
      TransposeInto(in(0), call.iattr0, call.iattr1, out);
      break;
    case OpKind::kBatchMatmul:
      BatchMatMulInto(in(0), in(1), out);
      break;
    case OpKind::kAttention:
      if (ctx.segments_.empty()) {
        // The whole tile is one request, masked by the plan's feed if any.
        const AttentionSegment whole{0, out.dim(0), call.num_in == 4 ? in(3) : ConstTensorView()};
        SegmentAttentionInto(in(0), in(1), in(2), call.iattr0, {&whole, 1}, out);
      } else {
        PIT_CHECK(call.num_in == 3)
            << "attention segments carry their own masks; bind them on an unmasked plan";
        SegmentAttentionInto(in(0), in(1), in(2), call.iattr0, ctx.segments_, out);
      }
      break;
  }
}

void ExecutionPlan::RunSequential(ExecutionContext& ctx, PitCompiler* compiler,
                                  const StepObserver* observer) const {
  const CancelToken* cancel = ctx.cancel_;
  for (int s = 0; s < static_cast<int>(steps_.size()); ++s) {
    // Injected kernel-dispatch faults abandon the replay here, on the
    // submitting thread; the serving engine consumes the pending fault and
    // owns the retry/fallback ladder. Near-free when injection is disarmed.
    if (FaultStepProbe()) {
      return;
    }
    // Cooperative cancellation at step granularity: kernels never stop
    // mid-flight, but a fired token (drain or lapsed batch deadline) stops
    // the replay before the next step. Checked after the fault probe so an
    // injected fault keeps its established precedence.
    if (cancel != nullptr && cancel->cancelled()) {
      ctx.replay_status_ = ReplayStatus::kCancelled;
      return;
    }
    HeartbeatTick();
    Dispatch(s, ctx, compiler);
    if (observer != nullptr && *observer) {
      const OpCall& step = steps_[static_cast<size_t>(s)];
      (*observer)(step.node_id,
                  ConstTensorView(ResolveConst(step.out, ctx),
                                  ctx.shapes_[static_cast<size_t>(step.out.shape_id)]));
    }
  }
}

namespace {

const Tensor& DerefFeed(const Tensor& t) { return t; }
const Tensor& DerefFeed(const Tensor* t) {
  PIT_CHECK(t != nullptr) << "null feed tensor";
  return *t;
}

}  // namespace

template <typename FeedMap>
ConstTensorView ExecutionPlan::RunImpl(ExecutionContext& ctx, const FeedMap& feeds,
                                       PitCompiler* compiler,
                                       const StepObserver* observer) const {
  PIT_CHECK(ctx.plan_ == this) << "execution context belongs to a different plan";
  ctx.replay_status_ = ReplayStatus::kOk;
  BindTokenRows(ctx);
  const auto result = [&] {
    return ConstTensorView(ResolveConst(result_, ctx),
                           ctx.shapes_[static_cast<size_t>(result_.shape_id)]);
  };
  if (FaultPending()) {
    // An injected dispatch fault already aborted this forward (multi-plan
    // forwards replay one plan per layer): skip the remaining replays fast.
    // The returned view is dead data; the engine discards the whole attempt
    // when it consumes the pending fault.
    return result();
  }
  if (ctx.cancel_ != nullptr && ctx.cancel_->cancelled()) {
    // Already-cancelled token (drain cut in, or the batch deadline lapsed
    // during an earlier layer of a multi-plan forward): skip the whole
    // replay. The returned view is dead data, flagged by replay_status().
    ctx.replay_status_ = ReplayStatus::kCancelled;
    return result();
  }
  for (const FeedBinding& binding : feed_bindings_) {
    auto it = feeds.find(binding.name);
    PIT_CHECK(it != feeds.end()) << "missing feed: " << binding.name;
    const Tensor& feed = DerefFeed(it->second);
    const Shape& want = ctx.shapes_[static_cast<size_t>(binding.node_id)];
    // A token feed may carry more rows than the bound row count (capacity
    // staging feeding the next layer); only its first rows are read.
    const bool shape_ok =
        token_major(binding.node_id)
            ? feed.rank() == static_cast<int>(want.size()) && feed.dim(0) >= want[0] &&
                  std::equal(want.begin() + 1, want.end(), feed.shape().begin() + 1)
            : feed.shape() == want;
    PIT_CHECK(shape_ok) << "feed shape mismatch for " << binding.name << ": got "
                        << ShapeToString(feed.shape()) << ", plan reads " << ShapeToString(want);
    ctx.bound_[static_cast<size_t>(binding.node_id)] = feed.data();
  }
  RunSequential(ctx, compiler, observer != nullptr && *observer ? observer : nullptr);
  return result();
}

ConstTensorView ExecutionPlan::RunWith(ExecutionContext& ctx,
                                       const std::map<std::string, Tensor>& feeds,
                                       PitCompiler* compiler,
                                       const StepObserver* observer) const {
  return RunImpl(ctx, feeds, compiler, observer);
}

ConstTensorView ExecutionPlan::RunWith(ExecutionContext& ctx,
                                       const std::map<std::string, const Tensor*>& feeds,
                                       PitCompiler* compiler,
                                       const StepObserver* observer) const {
  return RunImpl(ctx, feeds, compiler, observer);
}

}  // namespace pit

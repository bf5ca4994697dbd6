#include "pit/graph/plan_verifier.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "pit/common/check.h"

namespace pit {

namespace {

// The arena alignment contract, restated independently of the planner: one
// 64-byte cache line of floats. The planner's own kAlignElems lives in
// execution_plan.cc; the verifier re-declares the *contract* (every block
// starts on a cache line) rather than importing the planner's
// constant, so a planner-side alignment regression cannot silently relax the
// check along with the code under test.
constexpr int64_t kLineElems = 64 / static_cast<int64_t>(sizeof(float));

// Half-open element interval in the arena (verifier-local; deliberately not
// the planner's).
struct Span {
  int64_t lo = 0;
  int64_t hi = 0;  // lo == hi: empty
  bool Overlaps(const Span& o) const { return lo < o.hi && o.lo < hi; }
  Span Intersect(const Span& o) const {
    return {std::max(lo, o.lo), std::min(hi, o.hi)};
  }
};

// Per-step arena footprint re-derived straight from the compiled ValueRefs.
// Compiled refs are already storage-root resolved (a kReshape's out keeps its
// input's node_id/offset and only changes shape_id), so plain interval
// arithmetic is exact — no alias chasing.
struct Footprint {
  bool dispatched = false;  // false: kReshape no-op (nothing read or written)
  Span write;
};

// Expected operand count per dispatched kind; {lo, hi} inclusive.
void ExpectedInputs(OpKind kind, int* lo, int* hi) {
  switch (kind) {
    case OpKind::kInput:
    case OpKind::kWeight:
      *lo = *hi = 0;
      break;
    case OpKind::kRelu:
    case OpKind::kScale:
    case OpKind::kTranspose:
    case OpKind::kReshape:
      *lo = *hi = 1;
      break;
    case OpKind::kMatmul:
    case OpKind::kAdd:
    case OpKind::kMask:
    case OpKind::kBatchMatmul:
      *lo = *hi = 2;
      break;
    case OpKind::kSoftmax:
      *lo = 1;
      *hi = 2;  // optional attention mask operand
      break;
    case OpKind::kMatmulBias:
    case OpKind::kLayerNorm:
      *lo = *hi = 3;
      break;
    case OpKind::kAttention:
      *lo = 3;
      *hi = 4;  // optional attention mask operand
      break;
  }
}

class Verifier {
 public:
  explicit Verifier(const ExecutionPlan& plan) : plan_(plan) {}

  PlanVerifyReport Run() {
    CheckStructure();
    BuildFootprints();
    CheckArenaRefs();
    CheckProducersAndBindings();
    CheckClobberedReads();
    CheckStats();
    CheckTokenRows();
    report_.steps_checked = static_cast<int>(plan_.steps().size());
    return std::move(report_);
  }

 private:
  void Add(PlanViolationKind kind, int step_a, int step_b, Span bytes, std::string message) {
    ++report_.violations_total;
    if (static_cast<int64_t>(report_.violations.size()) >= PlanVerifyReport::kMaxRecorded) {
      return;
    }
    PlanViolation v;
    v.kind = kind;
    v.step_a = step_a;
    v.step_b = step_b;
    v.byte_lo = bytes.lo * static_cast<int64_t>(sizeof(float));
    v.byte_hi = bytes.hi * static_cast<int64_t>(sizeof(float));
    v.message = std::move(message);
    report_.violations.push_back(std::move(v));
  }

  bool ShapeIdOk(int id) const {
    return id >= 0 && id < static_cast<int>(plan_.shapes().size());
  }

  int64_t Elems(int shape_id) const {
    return NumElements(plan_.shapes()[static_cast<size_t>(shape_id)]);
  }

  // Every ref's ids must index the shape table before any interval math can
  // trust them; refs that fail here are excluded from later passes.
  bool RefIdsOk(const ValueRef& ref) const {
    return ShapeIdOk(ref.node_id) && ShapeIdOk(ref.shape_id);
  }

  // ---- (A) per-step structural sanity --------------------------------------
  void CheckStructure() {
    const auto& steps = plan_.steps();
    for (int s = 0; s < static_cast<int>(steps.size()); ++s) {
      const OpCall& c = steps[static_cast<size_t>(s)];
      if (c.kind == OpKind::kInput || c.kind == OpKind::kWeight) {
        Add(PlanViolationKind::kMalformedStep, s, -1, {},
            "binding kind emitted as a dispatch step");
        continue;
      }
      if (!ShapeIdOk(c.node_id) || !RefIdsOk(c.out)) {
        Add(PlanViolationKind::kMalformedStep, s, -1, {}, "node/shape id out of range");
        continue;
      }
      int lo = 0;
      int hi = 0;
      ExpectedInputs(c.kind, &lo, &hi);
      if (c.num_in < lo || c.num_in > hi) {
        Add(PlanViolationKind::kMalformedStep, s, -1, {},
            "operand count " + std::to_string(c.num_in) + " outside [" + std::to_string(lo) +
                ", " + std::to_string(hi) + "] for kind");
        continue;
      }
      bool ids_ok = true;
      for (int i = 0; i < c.num_in; ++i) {
        if (!RefIdsOk(c.in[i])) {
          Add(PlanViolationKind::kMalformedStep, s, -1, {},
              "input " + std::to_string(i) + " node/shape id out of range");
          ids_ok = false;
        }
      }
      if (!ids_ok) {
        continue;
      }
      const bool is_matmul = c.kind == OpKind::kMatmul || c.kind == OpKind::kMatmulBias;
      if (c.use_pit && !is_matmul) {
        Add(PlanViolationKind::kMalformedStep, s, -1, {}, "use_pit on a non-matmul step");
      }
      if (c.fuse_relu && (!is_matmul || c.use_pit)) {
        // The fusion pass only collapses dense matmul(+bias)+ReLU pairs; a
        // fused PIT step would route the epilogue around the sparse kernel.
        Add(PlanViolationKind::kFusedStep, s, -1, {},
            "fuse_relu on a non-matmul or PIT step");
      }
      if (c.kind == OpKind::kReshape) {
        // Pure alias: same storage location, new shape id.
        if (c.out.loc != c.in[0].loc || c.out.node_id != c.in[0].node_id ||
            c.out.offset != c.in[0].offset) {
          Add(PlanViolationKind::kMalformedStep, s, -1, {},
              "reshape output does not alias its input's storage");
        }
        if (c.inplace || c.use_pit || c.fuse_relu) {
          Add(PlanViolationKind::kMalformedStep, s, -1, {}, "reshape with kernel flags set");
        }
        continue;
      }
      if (c.out.loc != ValueLoc::kArena) {
        Add(PlanViolationKind::kMalformedStep, s, -1, {},
            "dispatched step writes a non-arena location");
        continue;
      }
      if (c.inplace) {
        bool aliases_input = false;
        for (int i = 0; i < c.num_in; ++i) {
          aliases_input = aliases_input || (c.in[i].loc == ValueLoc::kArena &&
                                            c.in[i].offset == c.out.offset);
        }
        if (!aliases_input) {
          Add(PlanViolationKind::kMalformedStep, s, -1, {},
              "inplace step whose output aliases no input block");
        }
      }
    }
  }

  // ---- footprints ----------------------------------------------------------
  void BuildFootprints() {
    const auto& steps = plan_.steps();
    fp_.assign(steps.size(), Footprint{});
    for (size_t s = 0; s < steps.size(); ++s) {
      const OpCall& c = steps[s];
      if (c.kind == OpKind::kReshape || c.kind == OpKind::kInput || c.kind == OpKind::kWeight) {
        continue;
      }
      Footprint& f = fp_[s];
      f.dispatched = true;
      if (c.out.loc == ValueLoc::kArena && RefIdsOk(c.out)) {
        f.write = {c.out.offset, c.out.offset + Elems(c.out.shape_id)};
      }
    }
  }

  // ---- (B) arena bounds + alignment ----------------------------------------
  void CheckArenaRef(int s, const ValueRef& ref, const char* role) {
    if (ref.loc != ValueLoc::kArena || !RefIdsOk(ref)) {
      return;
    }
    const int64_t elems = Elems(ref.shape_id);
    const Span span{ref.offset, ref.offset + elems};
    if (ref.offset < 0 || ref.offset + elems > plan_.arena_elems()) {
      Add(PlanViolationKind::kArenaOutOfBounds, s, -1, span,
          std::string(role) + " block outside the arena extent (" +
              std::to_string(plan_.arena_elems() * static_cast<int64_t>(sizeof(float))) +
              " bytes)");
    }
    if (ref.offset % kLineElems != 0) {
      Add(PlanViolationKind::kMisalignedOffset, s, -1, span,
          std::string(role) + " offset not 64-byte aligned");
    }
  }

  void CheckArenaRefs() {
    const auto& steps = plan_.steps();
    std::set<int64_t> block_offsets;
    for (int s = 0; s < static_cast<int>(steps.size()); ++s) {
      const OpCall& c = steps[static_cast<size_t>(s)];
      if (c.kind == OpKind::kReshape) {
        continue;  // aliases were checked against their defining refs
      }
      CheckArenaRef(s, c.out, "output");
      if (c.out.loc == ValueLoc::kArena) {
        block_offsets.insert(c.out.offset);
      }
      for (int i = 0; i < c.num_in && i < kMaxOpInputs; ++i) {
        CheckArenaRef(s, c.in[i], "input");
      }
    }
    CheckArenaRef(-1, plan_.result(), "result");
    report_.blocks_checked = static_cast<int>(block_offsets.size());
  }

  // ---- (C) producers, dangling storage, feed/weight bindings ---------------
  void CheckProducersAndBindings() {
    const auto& steps = plan_.steps();
    const int num_nodes = static_cast<int>(plan_.shapes().size());
    // Storage producer: the dispatched step that writes node_id's arena
    // block. A fused matmul+relu pair elides the matmul node entirely — no
    // step produces it, so any surviving reference to it is dangling (the
    // fused-step value-map leak the verifier exists to catch).
    producer_of_.assign(static_cast<size_t>(num_nodes), -1);
    for (int s = 0; s < static_cast<int>(steps.size()); ++s) {
      const OpCall& c = steps[static_cast<size_t>(s)];
      if (!fp_[static_cast<size_t>(s)].dispatched || c.out.loc != ValueLoc::kArena ||
          !RefIdsOk(c.out)) {
        continue;
      }
      int& slot = producer_of_[static_cast<size_t>(c.out.node_id)];
      if (slot >= 0) {
        Add(PlanViolationKind::kFusedStep, slot, s, {},
            "two steps claim node " + std::to_string(c.out.node_id) + " as output");
      }
      slot = s;
    }

    // Feed bindings: exactly one per distinct feed node, unique names.
    std::set<int> bound_feeds;
    std::set<std::string> bound_names;
    for (const auto& b : plan_.feed_bindings()) {
      if (!ShapeIdOk(b.node_id) || !bound_feeds.insert(b.node_id).second) {
        Add(PlanViolationKind::kFeedBinding, -1, -1, {},
            "feed binding \"" + b.name + "\" has a duplicate or out-of-range node");
      }
      if (!bound_names.insert(b.name).second) {
        Add(PlanViolationKind::kFeedBinding, -1, -1, {},
            "duplicate feed binding name \"" + b.name + "\"");
      }
    }

    auto check_read = [&](int s, const ValueRef& r, const char* role) {
      if (!RefIdsOk(r)) {
        return;
      }
      switch (r.loc) {
        case ValueLoc::kFeed:
          if (bound_feeds.count(r.node_id) == 0) {
            Add(PlanViolationKind::kFeedBinding, s, -1, {},
                std::string(role) + " reads feed node " + std::to_string(r.node_id) +
                    " that no binding covers");
          }
          break;
        case ValueLoc::kWeight:
          if (plan_.compile_binding(r.node_id) == nullptr) {
            Add(PlanViolationKind::kFeedBinding, s, -1, {},
                std::string(role) + " reads weight node " + std::to_string(r.node_id) +
                    " with no compile-time binding");
          }
          break;
        case ValueLoc::kArena: {
          const int prod = producer_of_[static_cast<size_t>(r.node_id)];
          const Span span{r.offset, r.offset + Elems(r.shape_id)};
          if (prod < 0 || (s >= 0 && prod >= s)) {
            Add(PlanViolationKind::kDanglingStorage, s, prod, span,
                std::string(role) + " reads arena storage of node " +
                    std::to_string(r.node_id) + " that no earlier step produces");
            break;
          }
          const Span& produced = fp_[static_cast<size_t>(prod)].write;
          if (span.lo < produced.lo || span.hi > produced.hi) {
            Add(PlanViolationKind::kDanglingStorage, s, prod, span,
                std::string(role) + " reads outside node " + std::to_string(r.node_id) +
                    "'s produced block");
          }
          break;
        }
      }
    };

    for (int s = 0; s < static_cast<int>(steps.size()); ++s) {
      const OpCall& c = steps[static_cast<size_t>(s)];
      if (c.kind == OpKind::kInput || c.kind == OpKind::kWeight) {
        continue;
      }
      // Reshape inputs resolve like reads (the alias must view produced
      // storage) but carry no runtime access; dispatched inputs are reads.
      for (int i = 0; i < c.num_in && i < kMaxOpInputs; ++i) {
        check_read(s, c.in[i], "input");
      }
    }
    // The result ref must resolve after the whole step list ran.
    check_read(static_cast<int>(steps.size()), plan_.result(), "result");
  }

  // ---- (D) claimed liveness: no write lands between producer and reader ----
  void CheckClobberedReads() {
    const auto& steps = plan_.steps();
    const int n = static_cast<int>(steps.size());
    auto check_interval = [&](int producer, int reader, const Span& span, int node_id) {
      for (int u = producer + 1; u < reader && u < n; ++u) {
        const Footprint& fu = fp_[static_cast<size_t>(u)];
        if (!fu.dispatched || !fu.write.Overlaps(span)) {
          continue;
        }
        // The reader itself may legally overwrite its input (in-place); any
        // other intervening writer clobbers a block the planner claimed live.
        Add(PlanViolationKind::kClobberedRead, u, reader, fu.write.Intersect(span),
            "step overwrites node " + std::to_string(node_id) +
                "'s bytes before step " + std::to_string(reader) + " reads them");
      }
    };
    auto check_reads_of = [&](int reader, const OpCall& c) {
      for (int i = 0; i < c.num_in && i < kMaxOpInputs; ++i) {
        const ValueRef& r = c.in[i];
        if (r.loc != ValueLoc::kArena || !RefIdsOk(r)) {
          continue;
        }
        const int prod = producer_of_[static_cast<size_t>(r.node_id)];
        if (prod < 0 || prod >= reader) {
          continue;  // dangling: reported by (C)
        }
        check_interval(prod, reader, {r.offset, r.offset + Elems(r.shape_id)}, r.node_id);
      }
    };
    // A step that reads its operands while it writes (kAttention reads the
    // q/k/v rows of every head tile it writes) clobbers its own reads when
    // its output aliases one of them.
    auto check_no_self_alias = [&](int t, const OpCall& c) {
      const Span& write = fp_[static_cast<size_t>(t)].write;
      for (int i = 0; i < c.num_in && i < kMaxOpInputs; ++i) {
        const ValueRef& r = c.in[i];
        if (r.loc != ValueLoc::kArena || !RefIdsOk(r)) {
          continue;
        }
        const Span read{r.offset, r.offset + Elems(r.shape_id)};
        if (write.Overlaps(read)) {
          Add(PlanViolationKind::kClobberedRead, t, t, write.Intersect(read),
              "step's output aliases its input " + std::to_string(i) + " (node " +
                  std::to_string(r.node_id) + ") while it still reads it");
        }
      }
    };
    for (int t = 0; t < n; ++t) {
      const OpCall& c = steps[static_cast<size_t>(t)];
      if (fp_[static_cast<size_t>(t)].dispatched) {
        check_reads_of(t, c);
        if (c.kind == OpKind::kAttention) {
          check_no_self_alias(t, c);
        }
      }
    }
    // The result block must survive from its producer to the end of replay.
    const ValueRef& res = plan_.result();
    if (res.loc == ValueLoc::kArena && RefIdsOk(res)) {
      const int prod = producer_of_[static_cast<size_t>(res.node_id)];
      if (prod >= 0) {
        check_interval(prod, n, {res.offset, res.offset + Elems(res.shape_id)}, res.node_id);
      }
    }
  }

  // ---- (E) stats vs. re-derived counts -------------------------------------
  void CheckStats() {
    const auto& steps = plan_.steps();
    const PlanStats& st = plan_.stats();
    int num_inplace = 0;
    int num_pit = 0;
    int num_fused = 0;
    for (const OpCall& c : steps) {
      num_inplace += c.inplace ? 1 : 0;
      num_pit += c.use_pit ? 1 : 0;
      num_fused += c.fuse_relu ? 1 : 0;
    }
    auto expect = [&](int64_t got, int64_t claimed, const char* what) {
      if (got != claimed) {
        Add(PlanViolationKind::kStatsMismatch, -1, -1, {},
            std::string(what) + ": stats claim " + std::to_string(claimed) +
                ", plan re-derives " + std::to_string(got));
      }
    };
    expect(static_cast<int64_t>(steps.size()), st.num_steps, "num_steps");
    expect(num_inplace, st.num_inplace, "num_inplace");
    expect(num_pit, st.num_pit_steps, "num_pit_steps");
    expect(num_fused, st.num_fused, "num_fused");
    expect(plan_.arena_elems() * static_cast<int64_t>(sizeof(float)), st.arena_bytes,
           "arena_bytes");
  }

  // ---- (F) token polymorphism ----------------------------------------------
  // A plan that claims token polymorphism replays with T < extent rows, so
  // every step on token data must keep the token axis leading and compute
  // each output row from the same input row (kAttention reads across rows
  // only within its bound segments). Re-derived from the step list by shape
  // id — feeds are token data, weights are constant — independently of the
  // compile-time provenance pass, whose per-node marks must then agree.
  void CheckTokenRows() {
    if (!plan_.token_polymorphic()) {
      return;  // replays only at the extent: nothing to prove
    }
    const auto& steps = plan_.steps();
    const size_t num_nodes = plan_.shapes().size();
    std::vector<char> tok(num_nodes, 0);
    std::vector<char> seen(num_nodes, 0);  // touched by a binding or a step
    for (const auto& b : plan_.feed_bindings()) {
      if (ShapeIdOk(b.node_id)) {
        tok[static_cast<size_t>(b.node_id)] = 1;
        seen[static_cast<size_t>(b.node_id)] = 1;
      }
    }
    for (int s = 0; s < static_cast<int>(steps.size()); ++s) {
      const OpCall& c = steps[static_cast<size_t>(s)];
      if (!RefIdsOk(c.out) || c.num_in < 0 || c.num_in > kMaxOpInputs) {
        continue;  // malformed: reported by (A)
      }
      bool first = false;  // operand 0 is token data
      bool any = false;
      bool all = true;
      bool rest_const = true;  // every operand after the first is constant
      for (int i = 0; i < c.num_in; ++i) {
        const ValueRef& r = c.in[i];
        if (!RefIdsOk(r)) {
          continue;  // malformed: reported by (A)
        }
        seen[static_cast<size_t>(r.shape_id)] = 1;
        const bool t = r.loc == ValueLoc::kFeed ||
                       (r.loc == ValueLoc::kArena && tok[static_cast<size_t>(r.shape_id)] != 0);
        first = first || (i == 0 && t);
        any = any || t;
        all = all && t;
        rest_const = rest_const && (i == 0 || !t);
      }
      seen[static_cast<size_t>(c.out.shape_id)] = 1;
      if (!any) {
        continue;
      }
      bool row_wise = false;
      switch (c.kind) {
        case OpKind::kMatmul:
        case OpKind::kMatmulBias:
        case OpKind::kLayerNorm:
          row_wise = first && rest_const;
          break;
        case OpKind::kRelu:
        case OpKind::kScale:
        case OpKind::kAdd:
        case OpKind::kMask:
          row_wise = all;
          break;
        case OpKind::kSoftmax:
          row_wise = c.num_in == 1;
          break;
        case OpKind::kAttention:
          row_wise = c.num_in == 3 && all;
          break;
        case OpKind::kInput:
        case OpKind::kWeight:
        case OpKind::kTranspose:
        case OpKind::kReshape:
        case OpKind::kBatchMatmul:
          break;
      }
      if (!row_wise) {
        Add(PlanViolationKind::kTokenRows, s, -1, {},
            std::string(OpKindName(c.kind)) +
                " step on token data moves the token axis or reads across rows in a plan "
                "claiming token polymorphism");
      }
      tok[static_cast<size_t>(c.out.shape_id)] = 1;
    }
    for (size_t id = 0; id < num_nodes; ++id) {
      if (seen[id] != 0 && (tok[id] != 0) != plan_.token_major(static_cast<int>(id))) {
        Add(PlanViolationKind::kTokenRows, -1, -1, {},
            "node " + std::to_string(id) + (tok[id] != 0 ? " descends from a feed but is not"
                                                          : " is constant but is") +
                " marked token-major");
      }
    }
  }

  const ExecutionPlan& plan_;
  PlanVerifyReport report_;
  std::vector<Footprint> fp_;
  std::vector<int> producer_of_;  // node id -> producing step (-1: none)
};

}  // namespace

const char* PlanViolationKindName(PlanViolationKind kind) {
  switch (kind) {
    case PlanViolationKind::kMalformedStep:
      return "malformed-step";
    case PlanViolationKind::kArenaOutOfBounds:
      return "arena-out-of-bounds";
    case PlanViolationKind::kMisalignedOffset:
      return "misaligned-offset";
    case PlanViolationKind::kClobberedRead:
      return "clobbered-read";
    case PlanViolationKind::kDanglingStorage:
      return "dangling-storage";
    case PlanViolationKind::kFeedBinding:
      return "feed-binding";
    case PlanViolationKind::kFusedStep:
      return "fused-step";
    case PlanViolationKind::kStatsMismatch:
      return "stats-mismatch";
    case PlanViolationKind::kTokenRows:
      return "token-rows";
  }
  return "unknown";
}

bool PlanVerifyReport::Has(PlanViolationKind kind) const {
  for (const PlanViolation& v : violations) {
    if (v.kind == kind) {
      return true;
    }
  }
  return false;
}

std::string PlanVerifyReport::ToString() const {
  std::ostringstream os;
  os << "plan verify: " << violations_total << " violation(s) over " << steps_checked
     << " steps, " << blocks_checked << " blocks";
  for (const PlanViolation& v : violations) {
    os << "\n  [" << PlanViolationKindName(v.kind) << "]";
    if (v.step_a >= 0) {
      os << " step " << v.step_a;
    }
    if (v.step_b >= 0) {
      os << " vs step " << v.step_b;
    }
    if (v.byte_lo != v.byte_hi) {
      os << " bytes [" << v.byte_lo << ", " << v.byte_hi << ")";
    }
    os << ": " << v.message;
  }
  if (violations_total > static_cast<int64_t>(violations.size())) {
    os << "\n  ... " << (violations_total - static_cast<int64_t>(violations.size()))
       << " more violation(s) suppressed";
  }
  return os.str();
}

PlanVerifyReport VerifyPlan(const ExecutionPlan& plan) { return Verifier(plan).Run(); }

void VerifyPlanOrDie(const ExecutionPlan& plan, const char* what) {
  const PlanVerifyReport report = VerifyPlan(plan);
  PIT_CHECK(report.ok()) << what << " failed plan verification\n" << report.ToString();
}

}  // namespace pit

// Static verifier for compiled ExecutionPlans: an independent analysis pass
// that re-derives, from first principles, every invariant plan replay rides
// on — and reports where a compiled plan breaks them.
//
// In-order replay and multi-stream serving silently assume properties the
// planner is *supposed* to guarantee: arena blocks are in-bounds and 64-byte
// aligned, a block is never recycled while a later step still has to read it,
// reshape aliases resolve to storage some step actually produced, and fused
// matmul+relu steps leave no dangling references to the elided node, and a
// plan replayed below its compiled row count really is row-wise. A
// planner bug in any of these ships straight into a silent miscompilation.
// This pass proves them deterministically, per plan. Replay dispatches the
// steps strictly in order, so every RAW/WAR/WAW hazard and every PIT step is
// ordered by construction; the clobbered-read check carries the whole
// liveness proof.
//
// Independence contract: the verifier deliberately does NOT reuse the
// planner's analyses. Liveness is re-derived from producer/consumer arena
// element intervals (aliases are already root-resolved in compiled
// ValueRefs, so interval arithmetic is exact), not from the arena planner's
// free list. The only shared inputs are the compiled artifacts themselves
// (steps, shapes, bindings) — the things being verified.
//
// The verifier runs in two ways:
//   * on every plan compile, in every build, aborting loudly on any
//     violation (a plan compiles once and replays many times, so this is one
//     pass per compiled plan, never one per replay),
//   * on demand through VerifyPlan() (tests/plan_verifier_test.cc).
#ifndef PIT_GRAPH_PLAN_VERIFIER_H_
#define PIT_GRAPH_PLAN_VERIFIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pit/graph/execution_plan.h"

namespace pit {

// One invariant class per enumerator: the negative suite corrupts a plan per
// class and asserts the verifier reports exactly that class.
enum class PlanViolationKind {
  kMalformedStep,     // out-of-range ids, bad flag combinations, bad num_in
  kArenaOutOfBounds,  // block extends past the arena extent (or offset < 0)
  kMisalignedOffset,  // arena offset not on a 64-byte boundary
  kClobberedRead,     // a step's input bytes overwritten between producer
                      // and reader — the planner's claimed liveness is wrong
  kDanglingStorage,  // arena ref whose storage node no step produces (e.g. a
                     // reshape alias without a live storage root)
  kFeedBinding,      // feed ref without a binding, duplicate bindings, or an
                     // unbound weight ref
  kFusedStep,        // fused-step inconsistency: duplicate node producer or
                     // fuse_relu on a non-matmul / PIT step
  kStatsMismatch,    // PlanStats disagree with re-derived counts
  kTokenRows,        // a plan claiming token polymorphism has a step that
                     // moves the token axis or reads across rows, or marks
                     // token-major values its provenance disagrees with
};
const char* PlanViolationKindName(PlanViolationKind kind);

struct PlanViolation {
  PlanViolationKind kind = PlanViolationKind::kMalformedStep;
  int step_a = -1;  // offending step indices (-1: not step-specific)
  int step_b = -1;
  int64_t byte_lo = 0;  // offending arena byte range, half-open (0,0: none)
  int64_t byte_hi = 0;
  std::string message;
};

struct PlanVerifyReport {
  // Stored violations, capped at kMaxRecorded (the total keeps counting so
  // ok() stays exact on pathologically corrupted plans).
  std::vector<PlanViolation> violations;
  int64_t violations_total = 0;
  // Coverage counters: what the pass actually examined.
  int steps_checked = 0;
  int blocks_checked = 0;  // distinct produced arena blocks
  static constexpr int64_t kMaxRecorded = 64;

  bool ok() const { return violations_total == 0; }
  bool Has(PlanViolationKind kind) const;
  // Multi-line human-readable report (summary line + one line per stored
  // violation), the payload of verification aborts and test-failure messages.
  std::string ToString() const;
};

// Runs every check over the compiled plan. Pure: no plan state is touched,
// no context is created; safe on any thread.
PlanVerifyReport VerifyPlan(const ExecutionPlan& plan);

// VerifyPlan + loud PIT_CHECK abort on any violation, with the full report in
// the failure message. `what` names the plan for the abort message (e.g. the
// compile site). ExecutionPlan's constructor calls it on every compile.
void VerifyPlanOrDie(const ExecutionPlan& plan, const char* what);

// Test-only mutation seam: hands the negative suite mutable references into a
// compiled plan's (otherwise immutable) internals so each invariant class can
// be violated in isolation and the verifier proven to catch it. Never use
// outside tests — a mutated plan is exactly the corruption the verifier
// exists to reject.
struct PlanCorruptor {
  static std::vector<OpCall>& steps(ExecutionPlan& plan) { return plan.steps_; }
  static std::vector<Shape>& shapes(ExecutionPlan& plan) { return plan.shapes_; }
  static std::vector<ExecutionPlan::FeedBinding>& feed_bindings(ExecutionPlan& plan) {
    return plan.feed_bindings_;
  }
  static ValueRef& result(ExecutionPlan& plan) { return plan.result_; }
  static int64_t& arena_elems(ExecutionPlan& plan) { return plan.arena_elems_; }
  static PlanStats& stats(ExecutionPlan& plan) { return plan.stats_; }
  static bool& token_polymorphic(ExecutionPlan& plan) { return plan.token_polymorphic_; }
  static std::vector<char>& token_major(ExecutionPlan& plan) { return plan.token_major_; }
};

}  // namespace pit

#endif  // PIT_GRAPH_PLAN_VERIFIER_H_

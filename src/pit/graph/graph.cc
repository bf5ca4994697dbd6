#include "pit/graph/graph.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "pit/common/check.h"
#include "pit/graph/execution_plan.h"
#include "pit/tensor/ops.h"

namespace pit {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInput:
      return "input";
    case OpKind::kWeight:
      return "weight";
    case OpKind::kMatmul:
      return "matmul";
    case OpKind::kMatmulBias:
      return "matmul_bias";
    case OpKind::kRelu:
      return "relu";
    case OpKind::kAdd:
      return "add";
    case OpKind::kMask:
      return "mask";
    case OpKind::kSoftmax:
      return "softmax";
    case OpKind::kLayerNorm:
      return "layernorm";
    case OpKind::kScale:
      return "scale";
    case OpKind::kTranspose:
      return "transpose";
    case OpKind::kReshape:
      return "reshape";
    case OpKind::kBatchMatmul:
      return "batch_matmul";
    case OpKind::kAttention:
      return "attention";
  }
  return "?";
}

// Cached plans: one per distinct decision set (nullptr = dense). Decision
// vectors are compared by content (sans the human-readable reason) so a
// recomputed-but-identical PitPass result reuses the compiled plan. Entries
// are shared_ptr-held so an eviction (or another thread's compile) never
// destroys a plan mid-replay: executors keep their handle until they finish.
// Plans are immutable, so replays of one entry never contend on it.
struct Graph::PlanCacheEntry {
  bool dense = true;
  std::vector<MatmulDecision> decisions;
  std::unique_ptr<ExecutionPlan> plan;
};

struct Graph::PlanCache {
  std::mutex mu;
  std::vector<std::shared_ptr<PlanCacheEntry>> entries;
};

namespace {

bool SameDecisions(const std::vector<MatmulDecision>& a, const std::vector<MatmulDecision>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].node_id != b[i].node_id || a[i].use_pit != b[i].use_pit ||
        a[i].sparse_operand != b[i].sparse_operand || a[i].axis != b[i].axis ||
        a[i].piggyback_layout_flip != b[i].piggyback_layout_flip) {
      return false;
    }
  }
  return true;
}

}  // namespace

Graph::Graph() : plans_(std::make_unique<PlanCache>()) {}
Graph::~Graph() = default;

Graph::Graph(Graph&& other) noexcept
    : nodes_(std::move(other.nodes_)),
      weights_(std::move(other.weights_)),
      weight_refs_(std::move(other.weight_refs_)),
      plans_(std::make_unique<PlanCache>()) {
  other.plans_ = std::make_unique<PlanCache>();
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    nodes_ = std::move(other.nodes_);
    weights_ = std::move(other.weights_);
    weight_refs_ = std::move(other.weight_refs_);
    plans_ = std::make_unique<PlanCache>();  // old plans point into the old nodes
    other.plans_ = std::make_unique<PlanCache>();
  }
  return *this;
}

const char* SparsitySourceName(SparsitySource source) {
  switch (source) {
    case SparsitySource::kNone:
      return "none";
    case SparsitySource::kExternal:
      return "external";
    case SparsitySource::kActivation:
      return "activation";
    case SparsitySource::kMasked:
      return "masked";
    case SparsitySource::kPropagated:
      return "propagated";
  }
  return "?";
}

int Graph::Add(GraphNode node) {
  {
    // Mutating the graph invalidates compiled plans (their liveness, arena
    // offsets, and result node all assume the old node list).
    std::lock_guard<std::mutex> lock(plans_->mu);
    plans_->entries.clear();
  }
  node.id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

int Graph::AddInput(std::string name, Shape shape, double expected_sparsity) {
  GraphNode n;
  n.kind = OpKind::kInput;
  n.name = std::move(name);
  n.shape = std::move(shape);
  if (expected_sparsity > 0.0) {
    n.sparsity = SparsitySource::kExternal;
    n.expected_sparsity = expected_sparsity;
  }
  return Add(std::move(n));
}

int Graph::AddWeight(std::string name, Tensor value) {
  GraphNode n;
  n.kind = OpKind::kWeight;
  n.name = std::move(name);
  n.shape = value.shape();
  const int id = Add(std::move(n));
  weights_.emplace(id, std::move(value));
  return id;
}

int Graph::AddWeightRef(std::string name, const Tensor* value) {
  PIT_CHECK(value != nullptr);
  GraphNode n;
  n.kind = OpKind::kWeight;
  n.name = std::move(name);
  n.shape = value->shape();
  const int id = Add(std::move(n));
  weight_refs_.emplace(id, value);
  return id;
}

const Tensor& Graph::weight(int id) const {
  auto it = weights_.find(id);
  if (it != weights_.end()) {
    return it->second;
  }
  auto ref = weight_refs_.find(id);
  PIT_CHECK(ref != weight_refs_.end()) << "node " << id << " is not a weight";
  return *ref->second;
}

int Graph::AddMatmul(std::string name, int a, int b) {
  const GraphNode& na = node(a);
  const GraphNode& nb = node(b);
  PIT_CHECK_EQ(na.shape.size(), 2u);
  PIT_CHECK_EQ(nb.shape.size(), 2u);
  PIT_CHECK_EQ(na.shape[1], nb.shape[0]);
  GraphNode n;
  n.kind = OpKind::kMatmul;
  n.name = std::move(name);
  n.inputs = {a, b};
  n.shape = {na.shape[0], nb.shape[1]};
  return Add(std::move(n));
}

int Graph::AddMatmulBias(std::string name, int a, int b, int bias) {
  const GraphNode& na = node(a);
  const GraphNode& nb = node(b);
  const GraphNode& nbias = node(bias);
  PIT_CHECK_EQ(na.shape.size(), 2u);
  PIT_CHECK_EQ(nb.shape.size(), 2u);
  PIT_CHECK_EQ(na.shape[1], nb.shape[0]);
  PIT_CHECK_EQ(nbias.shape.size(), 1u);
  PIT_CHECK_EQ(nbias.shape[0], nb.shape[1]);
  GraphNode n;
  n.kind = OpKind::kMatmulBias;
  n.name = std::move(name);
  n.inputs = {a, b, bias};
  n.shape = {na.shape[0], nb.shape[1]};
  return Add(std::move(n));
}

int Graph::AddRelu(std::string name, int x) {
  GraphNode n;
  n.kind = OpKind::kRelu;
  n.name = std::move(name);
  n.inputs = {x};
  n.shape = node(x).shape;
  return Add(std::move(n));
}

int Graph::AddAdd(std::string name, int a, int b) {
  PIT_CHECK(node(a).shape == node(b).shape);
  GraphNode n;
  n.kind = OpKind::kAdd;
  n.name = std::move(name);
  n.inputs = {a, b};
  n.shape = node(a).shape;
  return Add(std::move(n));
}

int Graph::AddMask(std::string name, int x, int mask) {
  PIT_CHECK(node(x).shape == node(mask).shape);
  GraphNode n;
  n.kind = OpKind::kMask;
  n.name = std::move(name);
  n.inputs = {x, mask};
  n.shape = node(x).shape;
  return Add(std::move(n));
}

int Graph::AddSoftmax(std::string name, int x, int mask) {
  const GraphNode& nx = node(x);
  PIT_CHECK(nx.shape.size() == 2 || nx.shape.size() == 3);
  GraphNode n;
  n.kind = OpKind::kSoftmax;
  n.name = std::move(name);
  n.inputs = {x};
  if (mask >= 0) {
    const GraphNode& nm = node(mask);
    // The mask matches the input's trailing two axes; a rank-3 input
    // broadcasts a rank-2 mask over its leading (head) axis.
    PIT_CHECK_EQ(nm.shape.size(), 2u);
    PIT_CHECK_EQ(nm.shape[0], nx.shape[nx.shape.size() - 2]);
    PIT_CHECK_EQ(nm.shape[1], nx.shape[nx.shape.size() - 1]);
    n.inputs.push_back(mask);
  }
  n.shape = nx.shape;
  return Add(std::move(n));
}

int Graph::AddLayerNorm(std::string name, int x, int gamma, int beta, float eps) {
  const GraphNode& nx = node(x);
  PIT_CHECK_EQ(nx.shape.size(), 2u);
  PIT_CHECK_EQ(node(gamma).shape.size(), 1u);
  PIT_CHECK_EQ(node(gamma).shape[0], nx.shape[1]);
  PIT_CHECK_EQ(node(beta).shape.size(), 1u);
  PIT_CHECK_EQ(node(beta).shape[0], nx.shape[1]);
  GraphNode n;
  n.kind = OpKind::kLayerNorm;
  n.name = std::move(name);
  n.inputs = {x, gamma, beta};
  n.shape = nx.shape;
  n.fattr = eps;
  return Add(std::move(n));
}

int Graph::AddScale(std::string name, int x, float factor) {
  GraphNode n;
  n.kind = OpKind::kScale;
  n.name = std::move(name);
  n.inputs = {x};
  n.shape = node(x).shape;
  n.fattr = factor;
  return Add(std::move(n));
}

int Graph::AddTranspose(std::string name, int x, int axis0, int axis1) {
  const GraphNode& nx = node(x);
  const size_t rank = nx.shape.size();
  PIT_CHECK((rank == 2 && axis0 == 0 && axis1 == 1) ||
            (rank == 3 && ((axis0 == 0 && axis1 == 1) || (axis0 == 1 && axis1 == 2))))
      << "unsupported transpose axes (" << axis0 << ", " << axis1 << ") at rank " << rank;
  GraphNode n;
  n.kind = OpKind::kTranspose;
  n.name = std::move(name);
  n.inputs = {x};
  n.shape = nx.shape;
  std::swap(n.shape[static_cast<size_t>(axis0)], n.shape[static_cast<size_t>(axis1)]);
  n.iattr0 = axis0;
  n.iattr1 = axis1;
  return Add(std::move(n));
}

int Graph::AddReshape(std::string name, int x, Shape shape) {
  PIT_CHECK_EQ(NumElements(shape), NumElements(node(x).shape));
  GraphNode n;
  n.kind = OpKind::kReshape;
  n.name = std::move(name);
  n.inputs = {x};
  n.shape = std::move(shape);
  return Add(std::move(n));
}

int Graph::AddBatchMatmul(std::string name, int a, int b) {
  const GraphNode& na = node(a);
  const GraphNode& nb = node(b);
  PIT_CHECK_EQ(na.shape.size(), 3u);
  PIT_CHECK_EQ(nb.shape.size(), 3u);
  PIT_CHECK_EQ(na.shape[0], nb.shape[0]);
  PIT_CHECK_EQ(na.shape[2], nb.shape[1]);
  GraphNode n;
  n.kind = OpKind::kBatchMatmul;
  n.name = std::move(name);
  n.inputs = {a, b};
  n.shape = {na.shape[0], na.shape[1], nb.shape[2]};
  return Add(std::move(n));
}

int Graph::AddAttention(std::string name, int q, int k, int v, int64_t heads, int mask) {
  const Shape& s = node(q).shape;
  PIT_CHECK_EQ(s.size(), 2u);
  PIT_CHECK(node(k).shape == s && node(v).shape == s) << "q/k/v shapes differ";
  PIT_CHECK(heads > 0 && s[1] % heads == 0) << "hidden " << s[1] << " not split by " << heads;
  GraphNode n;
  n.kind = OpKind::kAttention;
  n.name = std::move(name);
  n.inputs = {q, k, v};
  if (mask >= 0) {
    PIT_CHECK(node(mask).shape == (Shape{s[0], s[0]})) << "attention mask must be [tokens, tokens]";
    n.inputs.push_back(mask);
  }
  n.shape = s;
  n.iattr0 = static_cast<int>(heads);
  return Add(std::move(n));
}

void Graph::PropagateSparsity() {
  // Forward pass in construction (= topological) order.
  for (auto& n : nodes_) {
    switch (n.kind) {
      case OpKind::kInput:
      case OpKind::kWeight:
        break;  // inputs keep their declared annotation; weights dense
      case OpKind::kRelu: {
        // Trained-transformer ReLU activations are 95-99.9% zero (§2.1; the
        // OPT evaluation exploits 99%, §5.1). The annotation only steers
        // kernel pre-selection — the runtime detector always measures the
        // real ratio per input and can still fall back dense.
        const GraphNode& src = nodes_[static_cast<size_t>(n.inputs[0])];
        n.sparsity = SparsitySource::kActivation;
        n.expected_sparsity = std::max(0.99, src.expected_sparsity);
        break;
      }
      case OpKind::kMask: {
        const GraphNode& mask = nodes_[static_cast<size_t>(n.inputs[1])];
        n.sparsity = SparsitySource::kMasked;
        // The output is at least as sparse as the mask.
        n.expected_sparsity =
            std::max(mask.expected_sparsity,
                     nodes_[static_cast<size_t>(n.inputs[0])].expected_sparsity);
        break;
      }
      case OpKind::kAdd: {
        // Sum of sparse tensors: zero only where both are zero.
        const GraphNode& a = nodes_[static_cast<size_t>(n.inputs[0])];
        const GraphNode& b = nodes_[static_cast<size_t>(n.inputs[1])];
        if (a.MaybeSparse() && b.MaybeSparse()) {
          n.sparsity = SparsitySource::kPropagated;
          n.expected_sparsity = std::min(a.expected_sparsity, b.expected_sparsity);
        }
        break;
      }
      case OpKind::kSoftmax: {
        if (n.inputs.size() == 2) {
          // Masked softmax zeroes exactly the masked-out entries, like kMask.
          const GraphNode& mask = nodes_[static_cast<size_t>(n.inputs[1])];
          n.sparsity = SparsitySource::kMasked;
          n.expected_sparsity = mask.expected_sparsity;
          break;
        }
        // Softmax preserves structural zeros only for fully-masked entries;
        // row-sparse inputs (padding) stay row-sparse.
        const GraphNode& src = nodes_[static_cast<size_t>(n.inputs[0])];
        if (src.sparsity == SparsitySource::kMasked ||
            src.sparsity == SparsitySource::kExternal) {
          n.sparsity = SparsitySource::kPropagated;
          n.expected_sparsity = src.expected_sparsity;
        }
        break;
      }
      case OpKind::kScale:
      case OpKind::kTranspose:
      case OpKind::kReshape: {
        // Zero-preserving data movement (scale by a nonzero constant, axis
        // permutation, reinterpretation): the annotation rides along.
        const GraphNode& src = nodes_[static_cast<size_t>(n.inputs[0])];
        if (src.MaybeSparse()) {
          n.sparsity = SparsitySource::kPropagated;
          n.expected_sparsity = src.expected_sparsity;
        }
        break;
      }
      case OpKind::kLayerNorm:
        // Mean subtraction + beta shift destroy structural zeros.
        break;
      case OpKind::kMatmul:
      case OpKind::kMatmulBias:
      case OpKind::kBatchMatmul:
      case OpKind::kAttention:
        // Dense output: a contraction densifies (unless both operands are
        // extremely sparse, which the runtime detector would catch anyway);
        // attention ends in the probs x v contraction.
        break;
    }
  }
}

std::vector<MatmulDecision> Graph::PitPass(double min_sparsity) const {
  std::vector<MatmulDecision> decisions;
  for (const auto& n : nodes_) {
    if (n.kind != OpKind::kMatmul && n.kind != OpKind::kMatmulBias) {
      continue;
    }
    MatmulDecision d;
    d.node_id = n.id;
    const GraphNode& a = node(n.inputs[0]);
    if (a.MaybeSparse() && a.expected_sparsity >= min_sparsity) {
      d.use_pit = true;
      d.sparse_operand = 0;
      // Heuristic mirror of §3.2: row-level sparsity sources (padding,
      // routing) keep the m axis (micro-tile [1, k], row-major friendly);
      // element-level sources (ReLU, fine masks) use the k axis, whose
      // [m, 1] micro-tile needs the operand column-major — the producer
      // piggybacks the flip at its output for free.
      if (a.sparsity == SparsitySource::kActivation ||
          a.sparsity == SparsitySource::kMasked) {
        d.axis = MatmulAxis::kK;
        d.piggyback_layout_flip = true;  // A is produced row-major
        d.reason = std::string("operand '") + a.name + "' " + SparsitySourceName(a.sparsity) +
                   "-sparse; k-axis micro-tile, layout flip piggybacked at producer";
      } else {
        d.axis = MatmulAxis::kM;
        d.reason = std::string("operand '") + a.name + "' " + SparsitySourceName(a.sparsity) +
                   "-sparse; m-axis row gather";
      }
    } else {
      d.reason = a.MaybeSparse() ? "expected sparsity below threshold; dense kernel"
                                 : "no sparse operand; dense kernel";
    }
    decisions.push_back(std::move(d));
  }
  return decisions;
}

std::shared_ptr<Graph::PlanCacheEntry> Graph::EntryFor(
    const std::vector<MatmulDecision>* decisions) const {
  std::lock_guard<std::mutex> lock(plans_->mu);
  for (auto& entry : plans_->entries) {
    if (decisions == nullptr ? entry->dense
                             : (!entry->dense && SameDecisions(entry->decisions, *decisions))) {
      return entry;
    }
  }
  // Bound the cache: distinct decision sets per graph are few in practice; a
  // runaway caller cycling through many just recompiles. Evicted entries are
  // only dropped from the cache — executors mid-Run keep theirs alive.
  constexpr size_t kMaxPlans = 8;
  if (plans_->entries.size() >= kMaxPlans) {
    plans_->entries.erase(plans_->entries.begin());
  }
  auto entry = std::make_shared<PlanCacheEntry>();
  entry->dense = decisions == nullptr;
  if (decisions != nullptr) {
    entry->decisions = *decisions;
  }
  entry->plan = std::make_unique<ExecutionPlan>(*this, decisions);
  plans_->entries.push_back(entry);
  return entry;
}

std::shared_ptr<ExecutionPlan> Graph::PlanShared(
    const std::vector<MatmulDecision>* decisions) const {
  std::shared_ptr<PlanCacheEntry> entry = EntryFor(decisions);
  // Aliasing constructor: the handle shares the entry's lifetime, so cache
  // eviction or AddX invalidation cannot destroy a plan an executor holds.
  return std::shared_ptr<ExecutionPlan>(entry, entry->plan.get());
}

std::map<int, Tensor> Graph::Execute(const std::map<std::string, Tensor>& feeds,
                                     const std::vector<MatmulDecision>* decisions,
                                     PitCompiler* compiler) const {
  std::shared_ptr<ExecutionPlan> plan = PlanShared(decisions);
  std::map<int, Tensor> values;
  // Inputs and weights are pass-throughs; compute values are copied out of
  // the arena step by step (a slot may be reused by a later step).
  for (const auto& n : nodes_) {
    if (n.kind == OpKind::kInput) {
      auto it = feeds.find(n.name);
      PIT_CHECK(it != feeds.end()) << "missing feed: " << n.name;
      values.emplace(n.id, it->second);
    } else if (n.kind == OpKind::kWeight) {
      values.emplace(n.id, weight(n.id));
    }
  }
  const StepObserver copy_out = [&](int node_id, ConstTensorView value) {
    Tensor copy(node(node_id).shape);
    std::copy(value.data(), value.data() + value.size(), copy.data());
    values.emplace(node_id, std::move(copy));
  };
  ExecutionContext ctx(*plan);
  plan->RunWith(ctx, feeds, compiler, &copy_out);
  return values;
}

Tensor Graph::Run(const std::map<std::string, Tensor>& feeds,
                  const std::vector<MatmulDecision>* decisions, PitCompiler* compiler) const {
  std::shared_ptr<ExecutionPlan> plan = PlanShared(decisions);
  ExecutionContext ctx(*plan);
  ConstTensorView out = plan->RunWith(ctx, feeds, compiler);
  Tensor result(node(size() - 1).shape);
  std::copy(out.data(), out.data() + out.size(), result.data());
  return result;
}

Graph BuildFfnGraph(int64_t tokens, int64_t hidden, int64_t ffn_hidden, Rng& rng) {
  Graph g;
  const int x = g.AddInput("x", {tokens, hidden});
  const int w_up = g.AddWeight("w_up", Tensor::Random({hidden, ffn_hidden}, rng));
  const int w_down = g.AddWeight("w_down", Tensor::Random({ffn_hidden, hidden}, rng));
  const int up = g.AddMatmul("up_proj", x, w_up);
  const int act = g.AddRelu("relu", up);
  g.AddMatmul("down_proj", act, w_down);
  g.PropagateSparsity();
  return g;
}

}  // namespace pit

#include "pit/graph/graph_cost.h"

#include "pit/common/check.h"
#include "pit/core/kernel_selection.h"
#include "pit/sparse/coverage.h"

namespace pit {

namespace {

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

}  // namespace

GraphCostReport EstimateGraphCost(const Graph& graph, const CostModel& model,
                                  const TileDatabase& db,
                                  const std::vector<MatmulDecision>* decisions) {
  GraphCostReport report;
  // One dense GEMM per batch slice, launched together.
  const auto batch_matmul = [&](int64_t bs, int64_t m, int64_t k, int64_t nn) {
    const TileEntry& tile = db.BestDenseTile(model, m, k, nn);
    CostBreakdown per = model.DenseMatmul(m, k, nn, tile.shape, tile.tensor_core);
    per.compute_us *= static_cast<double>(bs);
    per.memory_us *= static_cast<double>(bs);
    report.total += per;
    report.matmuls_dense += static_cast<int>(bs);
  };
  // Memory-bound elementwise kernel moving `elems` elements.
  const auto elementwise = [&](int64_t elems) {
    CostBreakdown c;
    c.memory_us = model.MemoryTime(elems * model.ElemBytes());
    c.launch_us = model.device().launch_overhead_us;
    report.total += c;
  };
  for (int id = 0; id < graph.size(); ++id) {
    const GraphNode& n = graph.node(id);
    switch (n.kind) {
      case OpKind::kInput:
      case OpKind::kWeight:
        break;
      case OpKind::kMatmul:
      case OpKind::kMatmulBias: {  // fused bias epilogue prices like the matmul
        const GraphNode& a = graph.node(n.inputs[0]);
        const int64_t m = a.shape[0], k = a.shape[1], nn = n.shape[1];
        const MatmulDecision* d = DecisionFor(decisions, id);
        if (d != nullptr && d->use_pit && a.MaybeSparse()) {
          // Analytic pattern per sparsity source (see header).
          const int64_t gm = 1;
          const int64_t gn = a.sparsity == SparsitySource::kExternal ? k : 1;
          AnalyticPattern pattern(m, k, gm, gn, a.expected_sparsity);
          SelectionOptions opts;
          opts.axes = {d->axis};
          SelectionResult sel = SelectKernel(model, db, {&pattern}, m, k, nn, opts);
          report.total += sel.best.cost;
          ++report.matmuls_sparse;
        } else {
          const TileEntry& tile = db.BestDenseTile(model, m, k, nn);
          report.total += model.DenseMatmul(m, k, nn, tile.shape, tile.tensor_core);
          ++report.matmuls_dense;
        }
        break;
      }
      case OpKind::kReshape:
        break;  // zero-cost alias: no data moves, no kernel launches
      case OpKind::kBatchMatmul: {
        const GraphNode& a = graph.node(n.inputs[0]);
        batch_matmul(a.shape[0], a.shape[1], a.shape[2], n.shape[2]);
        break;
      }
      case OpKind::kAttention: {
        // Priced as the chain it replaces over one [0, T) segment (the
        // graph cannot know the segments a replay binds): the q/k/v head
        // splits, k's inner transpose and the context merge (five
        // transposes), the score and context batched GEMMs, and the
        // [heads, T, T] softmax with its optional mask.
        const int64_t t = n.shape[0], hidden = n.shape[1], heads = n.iattr0;
        const int64_t dk = hidden / heads;
        for (int i = 0; i < 5; ++i) {
          elementwise(2 * t * hidden);
        }
        batch_matmul(heads, t, dk, t);
        batch_matmul(heads, t, t, dk);
        elementwise(2 * heads * t * t + (n.inputs.size() == 4 ? t * t : 0));
        break;
      }
      case OpKind::kRelu:
      case OpKind::kAdd:
      case OpKind::kMask:
      case OpKind::kSoftmax:
      case OpKind::kLayerNorm:
      case OpKind::kScale:
      case OpKind::kTranspose: {
        // Memory-bound elementwise: read inputs + write output.
        int64_t elems = NumElements(n.shape);
        for (int in : n.inputs) {
          elems += NumElements(graph.node(in).shape);
        }
        elementwise(elems);
        break;
      }
    }
  }
  return report;
}

}  // namespace pit

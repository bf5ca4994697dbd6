// ShapePlanCache: a module's compiled blocks, one graph per input shape.
//
// Plans are shape-specialized, so a planned module (FeedForward, attention,
// an encoder layer, an FFN stack layer) keeps one Graph per distinct shape
// key — token count, plus mask presence where the block takes one — built
// on first use by the module's builder over its weights (referenced, not
// copied), together with the block's PIT-pass decisions. Each graph keeps
// its own per-decision-set plan cache (Graph::PlanShared); this class only
// picks the graph.
//
// The cache is bounded: a serving stream with highly variable shapes must
// not pin a graph and its plans per distinct length forever, so reaching
// kMaxEntries flushes every entry. Plan returns a co-owning handle, so a
// replay in flight survives any flush. The lock covers lookup, graph build
// and plan compile; it is never held across a replay.
#ifndef PIT_GRAPH_SHAPE_PLAN_CACHE_H_
#define PIT_GRAPH_SHAPE_PLAN_CACHE_H_

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "pit/graph/execution_plan.h"
#include "pit/graph/graph.h"

namespace pit {

template <typename Key>
class ShapePlanCache {
 public:
  // Builds the block for `key` into an empty graph, inputs included.
  using Builder = std::function<void(Graph& g, const Key& key)>;

  explicit ShapePlanCache(Builder build) : build_(std::move(build)) {}
  ShapePlanCache(const ShapePlanCache&) = delete;
  ShapePlanCache& operator=(const ShapePlanCache&) = delete;

  // The compiled plan for `key`: dense, or with the block's PIT-pass
  // decisions when `pit`. Builds the graph on first use of the key.
  std::shared_ptr<ExecutionPlan> Plan(const Key& key, bool pit = false) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      if (entries_.size() >= kMaxEntries) {
        entries_.clear();
      }
      it = entries_.try_emplace(key).first;
      Entry& entry = it->second;
      build_(entry.graph, key);
      entry.graph.PropagateSparsity();
      entry.decisions = entry.graph.PitPass();
    }
    const Entry& entry = it->second;
    return entry.graph.PlanShared(pit ? &entry.decisions : nullptr);
  }

 private:
  static constexpr size_t kMaxEntries = 16;

  struct Entry {
    Graph graph;
    std::vector<MatmulDecision> decisions;  // PIT pass result for this graph
  };

  Builder build_;
  mutable std::mutex mu_;
  mutable std::map<Key, Entry> entries_;
};

}  // namespace pit

#endif  // PIT_GRAPH_SHAPE_PLAN_CACHE_H_

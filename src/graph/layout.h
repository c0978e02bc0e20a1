#ifndef GTHINKER_GRAPH_LAYOUT_H_
#define GTHINKER_GRAPH_LAYOUT_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace gthinker {

/// An old<->new vertex ID bijection produced by a layout policy.
///
/// The hub-last policy renumbers vertices degree-ascending (ties broken by
/// original ID) so the hot hub adjacency rows land contiguously at the
/// HIGHEST IDs: contiguous in memory, contiguous in the renumbered-ID
/// segments the VertexCache routes by. Under the Γ_> trimmed orientation
/// (keep neighbors with larger IDs) this turns every edge into a
/// low-degree -> high-degree arc — the classic degeneracy orientation:
///
///  - every task's candidate set |Γ_>(v)| is bounded by the core number,
///    never by a hub's full degree, so the superlinear mining kernels get
///    no giant straggler tasks;
///  - the rows that ARE pulled constantly (hubs, by all their low-degree
///    neighbors) store only their higher-degree peers after trimming — a
///    few entries instead of thousands — so re-shipping them is cheap and
///    they stay resident in T_cache (hit rates roughly double in
///    bench/layout_micro).
///
/// The opposite direction (hub-first / degree-descending) was measured and
/// rejected: it hands every hub its entire neighborhood as candidates,
/// blowing up kernel work 2-3x on the Table V(a) MCF workload.
///
/// The map is applied once at load time; everything downstream (tasks,
/// cache, wire format) speaks new IDs, and results are mapped back to
/// original IDs before they reach the caller.
class VertexLayout {
 public:
  VertexLayout() = default;

  /// The identity layout over n vertices (ToNew(v) == v).
  static VertexLayout Identity(VertexId n);

  /// Hub-last layout: degree-ascending, ties by original ID ascending.
  static VertexLayout HubLast(const Graph& g);

  /// True for a default-constructed (no-op) layout.
  bool empty() const { return to_new_.empty(); }

  VertexId NumVertices() const {
    return static_cast<VertexId>(to_new_.size());
  }

  VertexId ToNew(VertexId old_id) const { return to_new_[old_id]; }
  VertexId ToOld(VertexId new_id) const { return to_old_[new_id]; }

  /// Rebuilds g under the new numbering (finalized: sorted, deduped rows).
  Graph Apply(const Graph& g) const;

  /// Permutes a per-vertex label array into the new numbering.
  std::vector<Label> ApplyLabels(const std::vector<Label>& labels) const;

 private:
  std::vector<VertexId> to_new_;
  std::vector<VertexId> to_old_;
};

/// Derives the VertexCache bucket-router segment shift for a renumbered
/// graph: consecutive new IDs whose adjacency rows together span roughly
/// llc_segment_bytes share one cache bucket (route = Mix64(id >> shift)).
/// Returns 0 (plain Mix64 routing, bit-identical to the unsegmented router)
/// when the graph is too small for at least a few segments per bucket.
int DeriveCacheSegmentShift(const Graph& g, int64_t llc_segment_bytes,
                            int num_buckets);

}  // namespace gthinker

#endif  // GTHINKER_GRAPH_LAYOUT_H_

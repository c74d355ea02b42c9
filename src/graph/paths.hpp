// All-pairs path cache holding, for every source, both the shortest-delay
// tree (P_sl paths) and the least-cost tree (P_lc paths). The paper's DCDM
// algorithm consults exactly these 2m candidate paths per join (§III-D), and
// the m-router is assumed to have them precomputed from its global topology DB.
//
// Layout. The weights live in one n x n pair table, dest-major: entry
// [v * n + u] holds the four weights of the paths u..v side by side —
// {sl_delay, sl_cost, lc_delay, lc_cost}, the optimized and the companion
// metric of P_sl and of P_lc (see dijkstra.hpp's dual weights). A join of
// member s scores every on-tree node t from row s alone (weights_to(s)):
// one contiguous read per join. The cached per-source runs keep only what
// path materialization and the dirty-source test need: the canonical parent
// and hop count per destination. Each weight is stored exactly once; a pair
// costs 32 table bytes plus 2 x 8 run bytes, 48 in all.
//
// The database is rebuildable in place. rebuild() recomputes every source —
// optionally fanning the per-source Dijkstra runs out over a caller-supplied
// parallel-for executor (one source per task; the m-router's TreeComputePool
// provides one). Each run's distances land in reused thread-local scratch
// and are scattered into the source's table column. apply_link_event()
// handles a single changed/failed/added link incrementally: a source is
// re-run only when the edge lies on its cached shortest-path tree
// (parent-edge membership) or, for a present edge, when relaxing it would
// improve or re-canonicalize a path — every other source's cached run is
// provably still the canonical answer.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"

namespace scmp::graph {

/// Parallel-for executor shape: pf(count, fn) must invoke fn(i) exactly once
/// for every i in [0, count), in any order, on any threads, and return only
/// after all invocations finished. An empty function means "run serially".
using ParallelFor =
    std::function<void(std::size_t, const std::function<void(std::size_t)>&)>;

/// The four weights of one (source, destination) pair. Unreachable pairs
/// hold kUnreachable in all four.
struct PairWeights {
  double sl_delay;  ///< delay of the shortest-delay path P_sl
  double sl_cost;   ///< cost of that same path (companion weight)
  double lc_delay;  ///< delay of the least-cost path P_lc (companion weight)
  double lc_cost;   ///< cost of P_lc
};

/// The shape of one cached Dijkstra run; its weights live in the pair table.
struct PathTree {
  std::vector<NodeId> parent;      ///< parent[source] == kInvalidNode
  std::vector<std::int32_t> hops;  ///< edges on the path; -1 unreachable
};

class AllPairsPaths {
 public:
  explicit AllPairsPaths(const Graph& g, const ParallelFor& pf = {});

  /// Recomputes every source from `g` in place (the m-routers' link-state
  /// view reconverged wholesale). With `pf`, sources run in parallel; the
  /// result is bit-identical to a serial rebuild.
  void rebuild(const Graph& g, const ParallelFor& pf = {});

  /// Incremental update after the single link {u, v} changed: failed, came
  /// up, or changed weight. `g` is the post-event graph. Re-runs Dijkstra
  /// only for the (source, metric) runs the event can actually affect and
  /// returns how many runs were recomputed (the paths.rebuild.sources_
  /// recomputed counter tracks the same quantity). The result is always
  /// bit-identical to a from-scratch rebuild on `g`.
  int apply_link_event(const Graph& g, NodeId u, NodeId v,
                       const ParallelFor& pf = {});

  /// Table row of destination `dst`: entry u holds the weights of the
  /// paths u..dst.
  std::span<const PairWeights> weights_to(NodeId dst) const;
  /// The weights of the paths u..v.
  const PairWeights& weights(NodeId u, NodeId v) const {
    SCMP_EXPECTS(u >= 0 && u < n_ && v >= 0 && v < n_);
    return table_[static_cast<std::size_t>(v) * static_cast<std::size_t>(n_) +
                  static_cast<std::size_t>(u)];
  }

  /// Delay of the shortest-delay path u->v (the paper's "unicast delay").
  double sl_delay(NodeId u, NodeId v) const { return weights(u, v).sl_delay; }
  /// Cost of that same shortest-delay path (companion weight).
  double sl_cost(NodeId u, NodeId v) const { return weights(u, v).sl_cost; }
  /// Cost of the least-cost path u->v.
  double lc_cost(NodeId u, NodeId v) const { return weights(u, v).lc_cost; }
  /// Delay of that same least-cost path (companion weight).
  double lc_delay(NodeId u, NodeId v) const { return weights(u, v).lc_delay; }

  /// The P_sl path u..v (shortest delay); empty when v is unreachable.
  std::vector<NodeId> sl_path(NodeId u, NodeId v) const;
  /// The P_lc path u..v (least cost); empty when v is unreachable.
  std::vector<NodeId> lc_path(NodeId u, NodeId v) const;

  /// sl_path()/lc_path() into a caller-owned buffer (no allocation once the
  /// buffer's capacity covers the path).
  void sl_path_into(NodeId u, NodeId v, std::vector<NodeId>& out) const;
  void lc_path_into(NodeId u, NodeId v, std::vector<NodeId>& out) const;

  /// The cached shortest-delay / least-cost run from `u`.
  const PathTree& sl_from(NodeId u) const;
  const PathTree& lc_from(NodeId u) const;

  int num_nodes() const { return n_; }

 private:
  friend struct AllPairsPathsTestPeer;  // corrupts state for audit tests

  /// Re-runs both metrics of every source in `sources` and writes their
  /// weights into the table and their shapes into the cached runs.
  void recompute(const Graph& g, const std::vector<NodeId>& sources,
                 const ParallelFor& pf);
  /// True when the cached `metric` run from `src` must be recomputed after
  /// link {u, v} changed; `attr` is the edge's post-event attributes
  /// (nullptr = gone).
  bool run_dirty(NodeId src, Metric metric, NodeId u, NodeId v,
                 const EdgeAttr* attr) const;

  int n_ = 0;
  std::vector<PairWeights> table_;  ///< [dst * n + src], see the layout note
  std::vector<PathTree> by_delay_;
  std::vector<PathTree> by_cost_;
};

}  // namespace scmp::graph

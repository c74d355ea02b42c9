// Single-source shortest paths under either link metric. Used to build the
// paper's P_sl (shortest-delay) and P_lc (least-cost) paths and the link-state
// unicast forwarding tables every router is assumed to run (paper §II-D).
//
// Every run carries *dual weights*: alongside the optimized distance it
// accumulates, per destination, the companion metric of the same canonical
// path (cost of the shortest-delay path, delay of the least-cost path) and
// the hop count. DCDM's candidate scan (§III-D) scores all 2m precomputed
// paths from these tables alone — no path has to be materialized until the
// winner is grafted — and the companion sums are bit-identical to re-walking
// the path with path_weight(), because both accumulate edge weights in the
// same source-to-destination order.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.hpp"

namespace scmp::graph {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// The metric a run does not optimise but still accumulates.
inline constexpr Metric companion_of(Metric m) {
  return m == Metric::kDelay ? Metric::kCost : Metric::kDelay;
}

/// Result of one Dijkstra run: distance, companion weight, hop count and
/// predecessor per node.
struct ShortestPaths {
  NodeId source = kInvalidNode;
  Metric metric = Metric::kDelay;
  std::vector<double> dist;      ///< dist[v] == kUnreachable when v unreachable
  std::vector<double> companion; ///< companion-metric weight of the same path
  std::vector<std::int32_t> hops;  ///< edges on the canonical path; -1 unreachable
  std::vector<NodeId> parent;    ///< parent[source] == kInvalidNode

  bool reachable(NodeId v) const {
    return dist[static_cast<std::size_t>(v)] < kUnreachable;
  }
  double distance(NodeId v) const { return dist[static_cast<std::size_t>(v)]; }
  /// Companion-metric weight of the canonical path source..v (bit-identical
  /// to path_weight(path_to(v), companion_of(metric))).
  double companion_distance(NodeId v) const {
    return companion[static_cast<std::size_t>(v)];
  }
  /// Edge count of the canonical path source..v; -1 when unreachable.
  std::int32_t hop_count(NodeId v) const {
    return hops[static_cast<std::size_t>(v)];
  }

  /// Path source..dst inclusive; empty when dst is unreachable. Pre-sizes the
  /// result from the stored hop count (exactly one allocation).
  std::vector<NodeId> path_to(NodeId dst) const;

  /// path_to() into a caller-owned buffer: `out` is overwritten with the
  /// path (empty when unreachable); no allocation once `out`'s capacity has
  /// grown to the longest requested path.
  void path_to_into(NodeId dst, std::vector<NodeId>& out) const;
};

/// The canonical path src..dst along `parent` into `out`, sized from
/// `hops` (empty when hops[dst] is -1: unreachable). No allocation once
/// `out`'s capacity covers the path. Shared by ShortestPaths and the path
/// database's cached runs.
void path_along(const std::vector<NodeId>& parent,
                const std::vector<std::int32_t>& hops, NodeId src,
                NodeId dst, std::vector<NodeId>& out);

/// Dijkstra with a binary heap; ties broken by smaller node id so results are
/// deterministic across platforms.
ShortestPaths dijkstra(const Graph& g, NodeId source, Metric metric);

/// dijkstra() into an existing result object, reusing its vectors' capacity
/// (the incremental path-database rebuild re-runs dirty sources in place).
void dijkstra_into(const Graph& g, NodeId source, Metric metric,
                   ShortestPaths& out);

}  // namespace scmp::graph

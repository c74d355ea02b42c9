// Shared fixtures for the test suite: the paper's worked-example topologies
// and deterministic random graphs.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "graph/graph.hpp"
#include "graph/paths.hpp"
#include "topo/waxman.hpp"
#include "util/rng.hpp"

namespace scmp::test {

/// The 6-node topology of the paper's Fig. 5 (DCDM worked example).
/// Node 0 is the m-router; members join in the order g1=4, g2=3, g3=5.
/// Edges (delay, cost): 0-1 (3,6), 1-4 (9,3), 1-2 (3,2), 2-3 (4,1),
/// 0-3 (2,6), 0-2 (4,5), 2-5 (7,2).
inline graph::Graph paper_fig5_topology() {
  graph::Graph g(6);
  g.add_edge(0, 1, 3, 6);
  g.add_edge(1, 4, 9, 3);
  g.add_edge(1, 2, 3, 2);
  g.add_edge(2, 3, 4, 1);
  g.add_edge(0, 3, 2, 6);
  g.add_edge(0, 2, 4, 5);
  g.add_edge(2, 5, 7, 2);
  return g;
}

/// A 4-node diamond: 0-1, 0-2, 1-3, 2-3 with distinct delays/costs so the
/// shortest-delay and least-cost paths 0->3 differ (delay prefers 0-1-3,
/// cost prefers 0-2-3).
inline graph::Graph diamond() {
  graph::Graph g(4);
  g.add_edge(0, 1, 1, 10);
  g.add_edge(0, 2, 5, 1);
  g.add_edge(1, 3, 1, 10);
  g.add_edge(2, 3, 5, 1);
  return g;
}

/// A simple path 0-1-2-...-(n-1) with unit delays and costs.
inline graph::Graph line(int n) {
  graph::Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1, 1, 1);
  return g;
}

/// Deterministic connected random topology.
inline topo::Topology random_topology(std::uint64_t seed, int n = 30,
                                      double alpha = 0.25, double beta = 0.3) {
  Rng rng(seed);
  topo::WaxmanConfig cfg;
  cfg.num_nodes = n;
  cfg.alpha = alpha;
  cfg.beta = beta;
  return topo::waxman(cfg, rng);
}

/// The first difference between two path databases, or "" when they are
/// identical: every pair's four weights compared bit for bit, then both
/// cached runs' parent and hop count per source.
inline std::string path_db_diff(const graph::AllPairsPaths& got,
                                const graph::AllPairsPaths& want) {
  if (got.num_nodes() != want.num_nodes()) return "node count";
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (graph::NodeId s = 0; s < got.num_nodes(); ++s) {
    for (graph::NodeId v = 0; v < got.num_nodes(); ++v) {
      const graph::PairWeights& x = got.weights(s, v);
      const graph::PairWeights& y = want.weights(s, v);
      if (bits(x.sl_delay) != bits(y.sl_delay) ||
          bits(x.sl_cost) != bits(y.sl_cost) ||
          bits(x.lc_delay) != bits(y.lc_delay) ||
          bits(x.lc_cost) != bits(y.lc_cost))
        return "weights " + std::to_string(s) + ".." + std::to_string(v);
    }
    if (got.sl_from(s).parent != want.sl_from(s).parent ||
        got.sl_from(s).hops != want.sl_from(s).hops)
      return "P_sl run from " + std::to_string(s);
    if (got.lc_from(s).parent != want.lc_from(s).parent ||
        got.lc_from(s).hops != want.lc_from(s).hops)
      return "P_lc run from " + std::to_string(s);
  }
  return "";
}

}  // namespace scmp::test

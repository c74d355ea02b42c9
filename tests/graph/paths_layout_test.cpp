// The path database's dest-major pair table against the definition it
// caches: for every source u, a fresh dijkstra() run per metric. After a
// serial rebuild, a rebuild over a parallel-for executor, and every step of
// a random sequence of link failures, recoveries and re-weightings applied
// incrementally, sl_delay/sl_cost/lc_delay/lc_cost(u, v) must equal the
// fresh runs' dist/companion bit for bit, and sl_path/lc_path(u, v) must be
// the fresh runs' path_to(v). Runs on ARPANET, Waxman and the 624-router
// transit-stub internetwork.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/compute_pool.hpp"
#include "graph/dijkstra.hpp"
#include "graph/paths.hpp"
#include "helpers.hpp"
#include "topo/arpanet.hpp"
#include "topo/transit_stub.hpp"
#include "util/rng.hpp"

namespace scmp::graph {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The first (u, v) where `db` differs from fresh Dijkstra runs on `g`, or
/// "" when it matches everywhere.
std::string layout_diff(const AllPairsPaths& db, const Graph& g) {
  if (db.num_nodes() != g.num_nodes()) return "node count";
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const ShortestPaths sl = dijkstra(g, u, Metric::kDelay);
    const ShortestPaths lc = dijkstra(g, u, Metric::kCost);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const std::string at = std::to_string(u) + ".." + std::to_string(v);
      if (bits(db.sl_delay(u, v)) != bits(sl.distance(v)))
        return "sl_delay " + at;
      if (bits(db.sl_cost(u, v)) != bits(sl.companion_distance(v)))
        return "sl_cost " + at;
      if (bits(db.lc_cost(u, v)) != bits(lc.distance(v)))
        return "lc_cost " + at;
      if (bits(db.lc_delay(u, v)) != bits(lc.companion_distance(v)))
        return "lc_delay " + at;
      if (db.sl_path(u, v) != sl.path_to(v)) return "sl_path " + at;
      if (db.lc_path(u, v) != lc.path_to(v)) return "lc_path " + at;
    }
  }
  return "";
}

/// Runs every index, in reverse: the table must not depend on task order.
void reversed_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = count; i-- > 0;) fn(i);
}

void check_rebuilds(const Graph& g) {
  AllPairsPaths db(g);
  EXPECT_EQ(layout_diff(db, g), "") << "serial rebuild";
  db.rebuild(g, reversed_for);
  EXPECT_EQ(layout_diff(db, g), "") << "reversed-order rebuild";
  const core::TreeComputePool pool(g, db, 4);
  const AllPairsPaths pooled(g, pool.parallel_for());
  EXPECT_EQ(layout_diff(pooled, g), "") << "pool rebuild";
}

/// `events` random link events, each applied incrementally (alternately
/// serial and on a 4-thread pool) and checked against fresh runs.
void check_link_events(Graph g, std::uint64_t seed, int events) {
  AllPairsPaths db(g);
  const core::TreeComputePool pool(g, db, 4);
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> down;
  for (int i = 0; i < events; ++i) {
    NodeId u = 0;
    NodeId v = 0;
    const double op = rng.uniform01();
    if (op < 0.3 && !down.empty()) {
      // A failed link comes back up with new weights.
      std::tie(u, v) = down.back();
      down.pop_back();
      g.add_edge(u, v, rng.uniform_real(1, 20), rng.uniform_real(1, 20));
    } else {
      u = static_cast<NodeId>(rng.uniform_int(0, g.num_nodes() - 1));
      const auto& nbs = g.neighbors(u);
      if (nbs.empty()) continue;
      v = nbs[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(nbs.size()) - 1))]
              .to;
      g.remove_edge(u, v);
      if (op < 0.65) {
        down.emplace_back(u, v);  // the link failed
      } else {
        // The link changed weight: one event, edge still present.
        g.add_edge(u, v, rng.uniform_real(1, 20), rng.uniform_real(1, 20));
      }
    }
    db.apply_link_event(g, u, v, i % 2 ? pool.parallel_for() : ParallelFor{});
    ASSERT_EQ(layout_diff(db, g), "")
        << "event " << i << " on {" << u << ", " << v << "}";
  }
}

Graph transit_stub_624() {
  topo::TransitStubConfig cfg;
  cfg.transit_domains = 4;
  cfg.transit_nodes = 6;
  cfg.stub_domains_per_node = 5;
  cfg.stub_nodes = 5;
  Rng rng(7);
  return topo::transit_stub(cfg, rng).graph;
}

TEST(PathsLayout, ArpanetMatchesFreshDijkstra) {
  Rng rng(3);
  const Graph g = topo::arpanet(rng).graph;
  check_rebuilds(g);
  check_link_events(g, 5, 24);
}

TEST(PathsLayout, WaxmanMatchesFreshDijkstra) {
  for (std::uint64_t seed : {2u, 31u}) {
    const Graph g = test::random_topology(seed, 60).graph;
    check_rebuilds(g);
    check_link_events(g, seed + 100, 16);
  }
}

TEST(PathsLayout, TransitStubMatchesFreshDijkstra) {
  const Graph g = transit_stub_624();
  ASSERT_EQ(g.num_nodes(), 624);
  check_rebuilds(g);
  check_link_events(g, 9, 3);
}

}  // namespace
}  // namespace scmp::graph

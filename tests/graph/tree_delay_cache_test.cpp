// Property test of MulticastTree's cached root delays and its O(change)
// mutation reports. Random graft (P_sl and P_lc paths from random on-tree
// nodes, so re-entering paths trigger loop elimination) and leave/prune
// sequences run on ARPANET, Waxman and the 624-router transit-stub
// internetwork. After every step:
//   * every on-tree node's cached delay equals, bit for bit, a from-scratch
//     root-first sum of link delays along path_from_root();
//   * the TreeChange the mutation returned equals the diff of full before/
//     after snapshots (re-parented, removed and re-delayed nodes that were on
//     the tree before the call, and the cut edges below surviving parents
//     in parent-id, then old child-list, order).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "graph/multicast_tree.hpp"
#include "graph/paths.hpp"
#include "helpers.hpp"
#include "topo/arpanet.hpp"
#include "topo/transit_stub.hpp"
#include "util/rng.hpp"

namespace scmp::graph {
namespace {

struct Snapshot {
  std::vector<char> on;
  std::vector<NodeId> parent;
  std::vector<double> delay;
  std::vector<std::vector<NodeId>> children;
};

Snapshot snapshot(const Graph& g, const MulticastTree& t) {
  Snapshot s;
  for (NodeId v = 0; v < t.num_nodes(); ++v) {
    const bool on = t.on_tree(v);
    s.on.push_back(on ? 1 : 0);
    s.parent.push_back(on ? t.parent(v) : kInvalidNode);
    s.delay.push_back(on ? t.node_delay(g, v)
                         : std::numeric_limits<double>::quiet_NaN());
    s.children.push_back(t.children(v));
  }
  return s;
}

TreeChange diff(const Snapshot& before, const Snapshot& after) {
  TreeChange d;
  for (std::size_t i = 0; i < before.on.size(); ++i) {
    if (!before.on[i]) continue;
    const auto v = static_cast<NodeId>(i);
    if (!after.on[i]) {
      d.removed.push_back(v);
      continue;
    }
    if (after.parent[i] != before.parent[i]) d.reparented.push_back(v);
    if (after.delay[i] != before.delay[i]) d.redelayed.push_back(v);
    const auto& kids = after.children[i];
    for (NodeId c : before.children[i]) {
      if (std::find(kids.begin(), kids.end(), c) == kids.end())
        d.lost_edges.emplace_back(v, c);
    }
  }
  return d;
}

/// The definition the cache must reproduce: link delays summed root-first.
double root_first_delay(const Graph& g, const MulticastTree& t, NodeId v) {
  const std::vector<NodeId> path = t.path_from_root(v);
  double d = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i)
    d += g.edge(path[i - 1], path[i])->delay;
  return d;
}

struct Totals {
  int reparents = 0;
  int removals = 0;
  int lost_edges = 0;
};

void check_step(const Graph& g, const MulticastTree& t, const Snapshot& before,
                const TreeChange& got, const std::string& where) {
  ASSERT_TRUE(t.validate(g)) << where;
  for (NodeId v = 0; v < t.num_nodes(); ++v) {
    if (t.on_tree(v)) {
      ASSERT_EQ(t.node_delay(g, v), root_first_delay(g, t, v))
          << where << " node " << v;
    }
  }
  const TreeChange want = diff(before, snapshot(g, t));
  EXPECT_EQ(got.reparented, want.reparented) << where;
  EXPECT_EQ(got.removed, want.removed) << where;
  EXPECT_EQ(got.redelayed, want.redelayed) << where;
  EXPECT_EQ(got.lost_edges, want.lost_edges) << where;
}

Totals churn(const Graph& g, std::uint64_t seed, int steps) {
  const AllPairsPaths paths(g);
  const int n = g.num_nodes();
  Rng rng(seed);
  MulticastTree t(g, 0);
  Totals totals;
  for (int step = 0; step < steps; ++step) {
    const std::string where = "step " + std::to_string(step);
    const Snapshot before = snapshot(g, t);
    const std::vector<NodeId>& members = t.unordered_members();
    if (!members.empty() && rng.uniform01() < 0.3) {
      const NodeId m = members[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(members.size()) - 1))];
      t.set_member(m, false);
      const TreeChange got = t.prune_upward_from(m);
      check_step(g, t, before, got, where + " leave " + std::to_string(m));
      totals.removals += static_cast<int>(got.removed.size());
      totals.lost_edges += static_cast<int>(got.lost_edges.size());
    } else {
      const std::vector<NodeId> on = t.on_tree_nodes();
      const NodeId from = on[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(on.size()) - 1))];
      const auto s = static_cast<NodeId>(rng.uniform_int(1, n - 1));
      const std::vector<NodeId> path = rng.uniform01() < 0.5
                                           ? paths.sl_path(from, s)
                                           : paths.lc_path(from, s);
      const TreeChange got = t.graft_path(path);
      t.set_member(s, true);
      check_step(g, t, before, got, where + " graft to " + std::to_string(s));
      totals.reparents += static_cast<int>(got.reparented.size());
      totals.removals += static_cast<int>(got.removed.size());
      totals.lost_edges += static_cast<int>(got.lost_edges.size());
    }
    if (::testing::Test::HasFailure()) break;
  }
  return totals;
}

TEST(TreeDelayCache, ArpanetChurn) {
  Rng rng(1);
  const topo::Topology topo = topo::arpanet(rng);
  for (std::uint64_t seed : {3u, 17u, 2006u}) {
    const Totals totals = churn(topo.graph, seed, 400);
    EXPECT_GT(totals.reparents, 0) << "seed " << seed;
    EXPECT_GT(totals.removals, 0) << "seed " << seed;
    EXPECT_GT(totals.lost_edges, 0) << "seed " << seed;
  }
}

TEST(TreeDelayCache, WaxmanChurn) {
  for (std::uint64_t seed : {5u, 77u, 90210u}) {
    const topo::Topology topo = test::random_topology(seed, 120);
    const Totals totals = churn(topo.graph, seed ^ 0x5eed, 400);
    EXPECT_GT(totals.reparents, 0) << "seed " << seed;
    EXPECT_GT(totals.removals, 0) << "seed " << seed;
    EXPECT_GT(totals.lost_edges, 0) << "seed " << seed;
  }
}

TEST(TreeDelayCache, TransitStubChurn) {
  // The 624-router internetwork of membench and bench/macro_membership.
  topo::TransitStubConfig cfg;
  cfg.transit_domains = 4;
  cfg.transit_nodes = 6;
  cfg.stub_domains_per_node = 5;
  cfg.stub_nodes = 5;
  Rng rng(7);
  const topo::Topology topo = topo::transit_stub(cfg, rng);
  ASSERT_EQ(topo.graph.num_nodes(), 624);
  const Totals totals = churn(topo.graph, 11, 300);
  EXPECT_GT(totals.reparents, 0);
  EXPECT_GT(totals.removals, 0);
  EXPECT_GT(totals.lost_edges, 0);
}

TEST(TreeDelayCache, GraftedThenPrunedNodesAreNotReported) {
  // 0-1-2 on the tree with member 2; grafting 2-3-1 attaches 3, then hits
  // ancestor 1, so the fresh segment ending at 3 is pruned again: the call
  // changed nothing that was on the tree before it.
  Graph g(4);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 2, 1, 1);
  g.add_edge(2, 3, 1, 1);
  g.add_edge(3, 1, 1, 1);
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 2});
  t.set_member(2, true);
  const TreeChange got = t.graft_path({2, 3, 1});
  EXPECT_FALSE(t.on_tree(3));
  EXPECT_TRUE(got.removed.empty());
  EXPECT_TRUE(got.reparented.empty());
  EXPECT_TRUE(got.redelayed.empty());
  EXPECT_TRUE(got.lost_edges.empty());
  EXPECT_TRUE(t.validate(g));
}

TEST(TreeDelayCache, LostEdgesFollowOldChildListOrder) {
  // Member 1 holds children [5, 3] (attach order, not id order). Grafting
  // 0-2-5-4-3 re-parents 5 and then 3 away from 1, which survives as a
  // member: both cut edges are reported under 1, in its old list order.
  Graph g(6);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 5, 1, 1);
  g.add_edge(1, 3, 1, 1);
  g.add_edge(0, 2, 1, 1);
  g.add_edge(2, 5, 1, 1);
  g.add_edge(5, 4, 1, 1);
  g.add_edge(4, 3, 1, 1);
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 5});
  t.graft_path({1, 3});
  t.set_member(1, true);
  t.set_member(3, true);
  t.set_member(5, true);
  const TreeChange got = t.graft_path({0, 2, 5, 4, 3});
  const std::vector<std::pair<NodeId, NodeId>> want{{1, 5}, {1, 3}};
  EXPECT_EQ(got.lost_edges, want);
  EXPECT_EQ(got.reparented, (std::vector<NodeId>{3, 5}));
  EXPECT_TRUE(got.removed.empty());
  EXPECT_TRUE(t.validate(g));
}

}  // namespace
}  // namespace scmp::graph

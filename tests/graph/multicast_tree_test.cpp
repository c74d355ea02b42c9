#include "graph/multicast_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/dijkstra.hpp"
#include "helpers.hpp"

namespace scmp::graph {
namespace {

TEST(MulticastTree, InitiallyOnlyRoot) {
  const Graph g = test::line(4);
  MulticastTree t(g, 0);
  EXPECT_EQ(t.root(), 0);
  EXPECT_TRUE(t.on_tree(0));
  EXPECT_FALSE(t.on_tree(1));
  EXPECT_EQ(t.tree_size(), 1);
  EXPECT_TRUE(t.validate(g));
}

TEST(MulticastTree, GraftSimplePath) {
  const Graph g = test::line(4);
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 2, 3});
  EXPECT_TRUE(t.on_tree(3));
  EXPECT_EQ(t.parent(3), 2);
  EXPECT_EQ(t.parent(1), 0);
  EXPECT_EQ(t.tree_size(), 4);
  EXPECT_TRUE(t.validate(g));
}

TEST(MulticastTree, GraftOverlappingPathsShareEdges) {
  const Graph g = test::diamond();
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 3});
  t.graft_path({0, 1});  // fully contained: no change
  EXPECT_EQ(t.tree_size(), 3);
  EXPECT_TRUE(t.validate(g));
}

TEST(MulticastTree, MembersTracked) {
  const Graph g = test::line(4);
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 2});
  t.set_member(2, true);
  EXPECT_TRUE(t.is_member(2));
  EXPECT_EQ(t.members(), std::vector<NodeId>{2});
  t.set_member(2, false);
  EXPECT_TRUE(t.members().empty());
}

TEST(MulticastTreeDeath, MemberMustBeOnTree) {
  const Graph g = test::line(4);
  MulticastTree t(g, 0);
  EXPECT_DEATH(t.set_member(3, true), "Precondition");
}

TEST(MulticastTree, PruneRemovesDanglingChain) {
  const Graph g = test::line(5);
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 2, 3, 4});
  t.set_member(4, true);
  t.set_member(4, false);
  t.prune_upward_from(4);
  EXPECT_EQ(t.tree_size(), 1);  // everything back to the root pruned
  EXPECT_TRUE(t.validate(g));
}

TEST(MulticastTree, PruneStopsAtMember) {
  const Graph g = test::line(5);
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 2, 3, 4});
  t.set_member(2, true);
  t.prune_upward_from(4);
  EXPECT_TRUE(t.on_tree(2));
  EXPECT_FALSE(t.on_tree(3));
  EXPECT_FALSE(t.on_tree(4));
  EXPECT_TRUE(t.validate(g));
}

TEST(MulticastTree, PruneStopsAtBranchingNode) {
  Graph g(5);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 2, 1, 1);
  g.add_edge(1, 3, 1, 1);
  g.add_edge(3, 4, 1, 1);
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 2});
  t.graft_path({1, 3, 4});
  t.set_member(2, true);
  t.prune_upward_from(4);
  // 4 and 3 go; 1 stays because it still leads to member 2.
  EXPECT_FALSE(t.on_tree(4));
  EXPECT_FALSE(t.on_tree(3));
  EXPECT_TRUE(t.on_tree(1));
  EXPECT_TRUE(t.validate(g));
}

TEST(MulticastTree, PruneNeverRemovesRoot) {
  const Graph g = test::line(3);
  MulticastTree t(g, 0);
  t.prune_upward_from(0);
  EXPECT_TRUE(t.on_tree(0));
}

TEST(MulticastTree, LoopEliminationReparents) {
  // Paper Fig. 5(c)->(d): grafting 0-2-5 when 2 is on the tree via 1
  // re-parents 2 under 0 and removes edge 1-2; 1 survives (it leads to 4).
  const Graph g = test::paper_fig5_topology();
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 4});
  t.set_member(4, true);
  t.graft_path({1, 2, 3});
  t.set_member(3, true);

  t.graft_path({0, 2, 5});
  t.set_member(5, true);

  EXPECT_EQ(t.parent(2), 0);
  EXPECT_EQ(t.parent(3), 2);  // 2's old subtree stays attached
  EXPECT_EQ(t.parent(5), 2);
  EXPECT_TRUE(t.on_tree(1));
  EXPECT_EQ(t.parent(4), 1);
  // Children of 1 no longer include 2.
  const auto& kids1 = t.children(1);
  EXPECT_EQ(std::count(kids1.begin(), kids1.end(), 2), 0);
  EXPECT_TRUE(t.validate(g));
}

TEST(MulticastTree, LoopEliminationPrunesOldBranch) {
  // Old branch to the re-entered node becomes dangling and is removed.
  Graph g(6);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 2, 1, 1);
  g.add_edge(2, 3, 1, 1);
  g.add_edge(0, 4, 1, 1);
  g.add_edge(4, 3, 1, 1);
  g.add_edge(3, 5, 1, 1);
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 2, 3});
  t.set_member(3, true);
  // New path re-enters at 3; old chain 1-2 carried no members -> pruned.
  t.graft_path({0, 4, 3, 5});
  t.set_member(5, true);
  EXPECT_FALSE(t.on_tree(1));
  EXPECT_FALSE(t.on_tree(2));
  EXPECT_EQ(t.parent(3), 4);
  EXPECT_EQ(t.parent(5), 3);
  EXPECT_TRUE(t.validate(g));
}

TEST(MulticastTree, GraftThroughAncestorDoesNotCycle) {
  // Path that climbs back through an ancestor must not create a cycle.
  const Graph g = test::line(5);
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 2});
  t.set_member(2, true);
  // Path from graft node 2 back through ancestor 1 then descending again is
  // degenerate here, but exercises the ancestor guard.
  t.graft_path({2, 1, 0});
  EXPECT_TRUE(t.validate(g));
  EXPECT_TRUE(t.on_tree(2));
  EXPECT_EQ(t.parent(2), 1);
}

TEST(MulticastTree, CostAndDelay) {
  Graph g(4);
  g.add_edge(0, 1, 2, 10);
  g.add_edge(1, 2, 3, 20);
  g.add_edge(1, 3, 4, 30);
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 2});
  t.graft_path({1, 3});
  t.set_member(2, true);
  t.set_member(3, true);
  EXPECT_DOUBLE_EQ(t.tree_cost(g), 60.0);
  EXPECT_DOUBLE_EQ(t.node_delay(g, 2), 5.0);
  EXPECT_DOUBLE_EQ(t.node_delay(g, 3), 6.0);
  EXPECT_DOUBLE_EQ(t.tree_delay(g), 6.0);
}

TEST(MulticastTree, TreeDelayIgnoresNonMembers) {
  Graph g(3);
  g.add_edge(0, 1, 5, 1);
  g.add_edge(1, 2, 5, 1);
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 2});
  t.set_member(1, true);  // 2 is a non-member leaf (transient state)
  EXPECT_DOUBLE_EQ(t.tree_delay(g), 5.0);
}

TEST(MulticastTree, PathFromRoot) {
  const Graph g = test::line(4);
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 2, 3});
  EXPECT_EQ(t.path_from_root(3), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(t.path_from_root(0), std::vector<NodeId>{0});
}

TEST(MulticastTree, EdgesList) {
  const Graph g = test::line(3);
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 2});
  const auto edges = t.edges();
  EXPECT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (std::pair<NodeId, NodeId>{1, 0}));
  EXPECT_EQ(edges[1], (std::pair<NodeId, NodeId>{2, 1}));
}

TEST(MulticastTree, ValidateDetectsMissingGraphEdge) {
  // Build a tree whose edge does not exist in a *different* graph.
  Graph g1 = test::line(3);
  Graph g2(3);
  g2.add_edge(0, 2, 1, 1);
  MulticastTree t(g1, 0);
  t.graft_path({0, 1});
  EXPECT_TRUE(t.validate(g1));
  EXPECT_FALSE(t.validate(g2));
}

class TreeRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeRandomOps, InvariantsUnderChurn) {
  const auto topo = test::random_topology(GetParam(), 30);
  const Graph& g = topo.graph;
  const ShortestPaths sp = dijkstra(g, 0, Metric::kDelay);
  Rng rng(GetParam() ^ 0xabcdef);
  MulticastTree t(g, 0);
  std::set<NodeId> joined;
  for (int step = 0; step < 200; ++step) {
    const NodeId v =
        static_cast<NodeId>(rng.uniform_int(1, g.num_nodes() - 1));
    if (!joined.contains(v)) {
      if (!t.on_tree(v)) t.graft_path(sp.path_to(v));
      t.set_member(v, true);
      joined.insert(v);
    } else {
      t.set_member(v, false);
      t.prune_upward_from(v);
      joined.erase(v);
    }
    ASSERT_TRUE(t.validate(g)) << "step " << step;
    for (NodeId m : joined) ASSERT_TRUE(t.is_member(m));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeRandomOps,
                         ::testing::Values(2, 9, 77, 555, 90210));

}  // namespace
}  // namespace scmp::graph

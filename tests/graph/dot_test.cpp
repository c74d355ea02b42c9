#include "graph/dot.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace scmp::graph {
namespace {

TEST(Dot, TopologyContainsAllNodesAndEdges) {
  const Graph g = test::diamond();
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("graph topology {"), std::string::npos);
  for (int v = 0; v < 4; ++v)
    EXPECT_NE(dot.find("n" + std::to_string(v)), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("n2 -- n3"), std::string::npos);
  // Edge labels carry (delay, cost).
  EXPECT_NE(dot.find("(1,10)"), std::string::npos);
  EXPECT_NE(dot.find("(5,1)"), std::string::npos);
}

TEST(Dot, EachUndirectedEdgeEmittedOnce) {
  const Graph g = test::line(3);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_EQ(dot.find("n1 -- n0"), std::string::npos);
}

TEST(Dot, TreeOverlayMarksRootMembersAndTreeEdges) {
  const Graph g = test::paper_fig5_topology();
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 4});
  t.set_member(4, true);
  const std::string dot = to_dot(g, t);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);  // root
  EXPECT_NE(dot.find("(m-router)"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=lightgrey"), std::string::npos);  // member
  EXPECT_NE(dot.find("penwidth=3"), std::string::npos);           // tree edge
  EXPECT_NE(dot.find("style=dotted"), std::string::npos);  // non-tree edge
}

TEST(Dot, TreeEdgesMatchTreeStructure) {
  const Graph g = test::line(4);
  MulticastTree t(g, 0);
  t.graft_path({0, 1, 2});
  const std::string dot = to_dot(g, t);
  // 0-1 and 1-2 are tree edges; 2-3 is not.
  const auto pos01 = dot.find("n0 -- n1");
  const auto pos23 = dot.find("n2 -- n3");
  ASSERT_NE(pos01, std::string::npos);
  ASSERT_NE(pos23, std::string::npos);
  EXPECT_NE(dot.find("penwidth=3", pos01), std::string::npos);
  EXPECT_NE(dot.find("style=dotted", pos23), std::string::npos);
}

TEST(DotDeath, TreeMustMatchGraphSize) {
  const Graph g = test::line(4);
  const Graph other = test::line(5);
  MulticastTree t(other, 0);
  EXPECT_DEATH(to_dot(g, t), "Precondition");
}

}  // namespace
}  // namespace scmp::graph

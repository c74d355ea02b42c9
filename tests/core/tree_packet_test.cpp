#include "core/tree_packet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/dijkstra.hpp"
#include "helpers.hpp"

namespace scmp::core {
namespace {

/// The multicast subtree of the paper's Fig. 6, rooted at node 2:
/// 2 -> {4, 5, 6}, 5 -> {7, 8}, 6 -> {9}; grid graph large enough to hold it.
graph::MulticastTree fig6_subtree(graph::Graph& g) {
  g = graph::Graph(11);
  // Chain of real edges so the tree validates.
  g.add_edge(1, 2, 1, 1);
  g.add_edge(2, 4, 1, 1);
  g.add_edge(2, 5, 1, 1);
  g.add_edge(2, 6, 1, 1);
  g.add_edge(5, 7, 1, 1);
  g.add_edge(5, 8, 1, 1);
  g.add_edge(6, 9, 1, 1);
  g.add_edge(4, 10, 1, 1);
  graph::MulticastTree t(g, 1);
  t.graft_path({1, 2, 4});
  t.graft_path({2, 5, 7});
  t.graft_path({5, 8});
  t.graft_path({2, 6, 9});
  return t;
}

TEST(TreePacket, PaperFig6ExactEncoding) {
  graph::Graph g;
  const graph::MulticastTree t = fig6_subtree(g);
  const TreeWords words = encode_subtree(t, 2);
  // Paper §III-E: (3; 4,1,(0); 5,7,(2,7,1,0,8,1,0); 6,4,(1,9,1,0)).
  const TreeWords expected{3, 4, 1, 0, 5, 7, 2, 7, 1, 0, 8, 1, 0,
                           6, 4, 1, 9, 1, 0};
  EXPECT_EQ(words, expected);
}

TEST(TreePacket, PaperFig6SplitAtNode2) {
  graph::Graph g;
  const graph::MulticastTree t = fig6_subtree(g);
  const auto children = split_tree_packet(encode_subtree(t, 2));
  ASSERT_EQ(children.size(), 3u);
  EXPECT_EQ(children[0].id, 4);
  EXPECT_EQ(children[0].subpacket, TreeWords{0});
  EXPECT_EQ(children[1].id, 5);
  EXPECT_EQ(children[1].subpacket, (TreeWords{2, 7, 1, 0, 8, 1, 0}));
  EXPECT_EQ(children[2].id, 6);
  EXPECT_EQ(children[2].subpacket, (TreeWords{1, 9, 1, 0}));
}

TEST(TreePacket, LeafEncodesAsZero) {
  graph::Graph g;
  const graph::MulticastTree t = fig6_subtree(g);
  EXPECT_EQ(encode_subtree(t, 9), TreeWords{0});
  EXPECT_TRUE(split_tree_packet(TreeWords{0}).empty());
}

TEST(TreePacket, DecodeEdgesMatchesTree) {
  graph::Graph g;
  const graph::MulticastTree t = fig6_subtree(g);
  const auto edges = decode_edges(encode_subtree(t, 2), 2);
  const std::set<std::pair<graph::NodeId, graph::NodeId>> expected{
      {4, 2}, {5, 2}, {6, 2}, {7, 5}, {8, 5}, {9, 6}};
  EXPECT_EQ(std::set(edges.begin(), edges.end()), expected);
}

TEST(TreePacket, NodeCount) {
  graph::Graph g;
  const graph::MulticastTree t = fig6_subtree(g);
  EXPECT_EQ(node_count(encode_subtree(t, 2)), 6);
  EXPECT_EQ(node_count(encode_subtree(t, 5)), 2);
  EXPECT_EQ(node_count(TreeWords{0}), 0);
}

TEST(TreePacket, BytesRoundTrip) {
  const TreeWords words{3, 4, 1, 0, 5, 7, 2, 7, 1, 0, 8, 1, 0, 6, 4, 1, 9, 1, 0};
  EXPECT_EQ(from_bytes(to_bytes(words)), words);
  EXPECT_EQ(to_bytes(words).size(), words.size() * 4);
}

TEST(TreePacket, BytesRoundTripLargeValues) {
  const TreeWords words{1, 0xdeadbeef, 1, 0};
  EXPECT_EQ(from_bytes(to_bytes(words)), words);
}

TEST(TreePacketDeath, MalformedLengthAborts) {
  // Claims one child of length 10 but provides fewer words.
  EXPECT_DEATH(split_tree_packet(TreeWords{1, 5, 10, 0}), "Precondition");
}

TEST(TreePacketDeath, TrailingGarbageAborts) {
  EXPECT_DEATH(split_tree_packet(TreeWords{0, 42}), "Precondition");
}

TEST(TreePacketDeath, EmptyPacketAborts) {
  EXPECT_DEATH(split_tree_packet(TreeWords{}), "Precondition");
}

TEST(TreePacketDeath, OddByteCountAborts) {
  EXPECT_DEATH(from_bytes(std::vector<std::uint8_t>{1, 2, 3}), "Precondition");
}

TEST(TreePacketValidation, AcceptsWellFormedPackets) {
  graph::Graph g;
  const graph::MulticastTree t = fig6_subtree(g);
  EXPECT_TRUE(is_well_formed(encode_subtree(t, 2)));
  EXPECT_TRUE(is_well_formed(TreeWords{0}));
  EXPECT_TRUE(is_well_formed(TreeWords{1, 9, 1, 0}));
}

TEST(TreePacketValidation, RejectsStructuralViolations) {
  EXPECT_FALSE(is_well_formed(TreeWords{}));             // empty
  EXPECT_FALSE(is_well_formed(TreeWords{0, 42}));        // trailing garbage
  EXPECT_FALSE(is_well_formed(TreeWords{1, 5, 10, 0}));  // length overruns
  EXPECT_FALSE(is_well_formed(TreeWords{2, 5, 1, 0}));   // missing child
  EXPECT_FALSE(is_well_formed(TreeWords{1, 5}));         // truncated header
  EXPECT_FALSE(is_well_formed(TreeWords{1, 5, 2, 1, 9}));  // bad subpacket
}

class TreePacketFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreePacketFuzz, EncodedTreesAlwaysValidateAndMutationsNeverCrash) {
  const auto topo = test::random_topology(GetParam(), 30);
  const graph::Graph& g = topo.graph;
  const graph::ShortestPaths sp = dijkstra(g, 0, graph::Metric::kDelay);
  Rng rng(GetParam() * 17 + 1);
  graph::MulticastTree t(g, 0);
  for (int v : rng.sample_without_replacement(g.num_nodes() - 1, 10))
    t.graft_path(sp.path_to(v + 1));

  for (graph::NodeId child : t.children(0)) {
    TreeWords words = encode_subtree(t, child);
    ASSERT_TRUE(is_well_formed(words));
    // Single-word mutations: the validator must classify every variant
    // without crashing, and splitting must be safe whenever it accepts.
    for (int trial = 0; trial < 50; ++trial) {
      TreeWords mutated = words;
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(words.size()) - 1));
      mutated[idx] = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 16));
      if (is_well_formed(mutated)) {
        const auto children = split_tree_packet(mutated);  // must not abort
        (void)children;
      }
    }
    // Truncations and extensions are always rejected (word counts encode
    // the exact length).
    TreeWords shorter(words.begin(), words.end() - 1);
    if (!shorter.empty()) {
      EXPECT_FALSE(is_well_formed(shorter));
    }
    TreeWords longer = words;
    longer.push_back(0);
    EXPECT_FALSE(is_well_formed(longer));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreePacketFuzz,
                         ::testing::Values(2, 3, 5, 8, 13, 21));

class TreePacketRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreePacketRoundTrip, RandomTreesEncodeDecode) {
  const auto topo = test::random_topology(GetParam(), 35);
  const graph::Graph& g = topo.graph;
  const graph::ShortestPaths sp = dijkstra(g, 0, graph::Metric::kDelay);
  Rng rng(GetParam() + 99);
  graph::MulticastTree t(g, 0);
  for (int v : rng.sample_without_replacement(g.num_nodes() - 1, 12))
    t.graft_path(sp.path_to(v + 1));

  // Encoding the whole tree below the root and decoding must reproduce the
  // exact edge set.
  std::set<std::pair<graph::NodeId, graph::NodeId>> decoded;
  for (graph::NodeId child : t.children(0)) {
    decoded.insert({child, 0});
    const TreeWords words = from_bytes(to_bytes(encode_subtree(t, child)));
    for (const auto& e : decode_edges(words, child)) decoded.insert(e);
  }
  const auto edges = t.edges();
  EXPECT_EQ(decoded, std::set(edges.begin(), edges.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreePacketRoundTrip,
                         ::testing::Values(1, 5, 12, 33, 64, 128));

}  // namespace
}  // namespace scmp::core

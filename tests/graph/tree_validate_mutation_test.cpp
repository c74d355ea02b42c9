// Mutation test of MulticastTree::validate: each test corrupts one piece of a
// well-formed tree's state through a test peer and requires validate() to
// reject it. Together they cover everything the single DFS-based validate
// must catch — cycles, duplicate or disagreeing child entries, off-tree
// parents, off-tree members, missing graph edges, stale cached delays and a
// wrong size — and show the visit marks are clean again after a rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "graph/multicast_tree.hpp"

namespace scmp::graph {

/// Direct access to the tree's private state, for building corruptions.
struct MulticastTreeTestPeer {
  static std::vector<NodeId>& parent(MulticastTree& t) { return t.parent_; }
  static std::vector<std::vector<NodeId>>& children(MulticastTree& t) {
    return t.children_;
  }
  static std::vector<char>& on_tree(MulticastTree& t) { return t.on_tree_; }
  static std::vector<char>& member(MulticastTree& t) { return t.member_; }
  static std::vector<NodeId>& member_list(MulticastTree& t) {
    return t.member_list_;
  }
  static std::vector<double>& delay(MulticastTree& t) { return t.delay_; }
  static int& tree_size(MulticastTree& t) { return t.tree_size_; }
};

namespace {

using Peer = MulticastTreeTestPeer;

void erase_child(MulticastTree& t, NodeId parent, NodeId child) {
  auto& kids = Peer::children(t)[static_cast<std::size_t>(parent)];
  kids.erase(std::find(kids.begin(), kids.end(), child));
}

class ValidateMutation : public ::testing::Test {
 protected:
  // 0 -- 1 -- 2 -- 3        tree: 0->1->2->3, 1->4, 0->5
  //      |         |        members 3, 4, 5; node 6 off the tree
  //      4 ------- +        non-tree edges 3-4 and 5-6
  // 0 -- 5 -- 6
  ValidateMutation() : g_(7), t_(make_graph(g_), 0) {
    t_.graft_path({0, 1, 2, 3});
    t_.graft_path({1, 4});
    t_.graft_path({0, 5});
    for (NodeId m : {3, 4, 5}) t_.set_member(m, true);
  }

  static const Graph& make_graph(Graph& g) {
    g.add_edge(0, 1, 1.5, 1);
    g.add_edge(1, 2, 2.25, 1);
    g.add_edge(2, 3, 0.1, 1);
    g.add_edge(1, 4, 3, 1);
    g.add_edge(3, 4, 1, 1);
    g.add_edge(0, 5, 0.7, 1);
    g.add_edge(5, 6, 1, 1);
    return g;
  }

  /// Applies `corrupt`, requires rejection, then applies `repair` and
  /// requires acceptance again: a rejected validate leaves no marks behind.
  void expect_rejected(const std::function<void(MulticastTree&)>& corrupt,
                       const std::function<void(MulticastTree&)>& repair) {
    ASSERT_TRUE(t_.validate(g_));
    corrupt(t_);
    EXPECT_FALSE(t_.validate(g_));
    repair(t_);
    EXPECT_TRUE(t_.validate(g_));
  }

  Graph g_;
  MulticastTree t_;
};

TEST_F(ValidateMutation, Cycle) {
  // Detach 2 from 1 and hang it under 3, its own child: 2 <-> 3 is a cycle
  // with consistent parent pointers and child lists, unreachable from root.
  expect_rejected(
      [](MulticastTree& t) {
        erase_child(t, 1, 2);
        Peer::parent(t)[2] = 3;
        Peer::children(t)[3].push_back(2);
      },
      [](MulticastTree& t) {
        erase_child(t, 3, 2);
        Peer::parent(t)[2] = 1;
        Peer::children(t)[1].push_back(2);
      });
}

TEST_F(ValidateMutation, DuplicateChildEntry) {
  expect_rejected([](MulticastTree& t) { Peer::children(t)[1].push_back(2); },
                  [](MulticastTree& t) { Peer::children(t)[1].pop_back(); });
}

TEST_F(ValidateMutation, ChildListDisagreesWithParent) {
  // 4 moves to 0's child list while its parent pointer still says 1.
  expect_rejected(
      [](MulticastTree& t) {
        erase_child(t, 1, 4);
        Peer::children(t)[0].push_back(4);
      },
      [](MulticastTree& t) {
        erase_child(t, 0, 4);
        Peer::children(t)[1].push_back(4);
      });
}

TEST_F(ValidateMutation, OnTreeNodeWithOffTreeParent) {
  // 5 re-hung under the off-tree node 6 over the real edge 5-6.
  expect_rejected(
      [](MulticastTree& t) {
        erase_child(t, 0, 5);
        Peer::parent(t)[5] = 6;
        Peer::children(t)[6].push_back(5);
      },
      [](MulticastTree& t) {
        erase_child(t, 6, 5);
        Peer::parent(t)[5] = 0;
        Peer::children(t)[0].push_back(5);
      });
}

TEST_F(ValidateMutation, MemberOffTree) {
  expect_rejected(
      [](MulticastTree& t) {
        Peer::member(t)[6] = 1;
        Peer::member_list(t).push_back(6);
      },
      [](MulticastTree& t) {
        Peer::member(t)[6] = 0;
        Peer::member_list(t).pop_back();
      });
}

TEST_F(ValidateMutation, MemberListDuplicate) {
  expect_rejected([](MulticastTree& t) { Peer::member_list(t).push_back(3); },
                  [](MulticastTree& t) { Peer::member_list(t).pop_back(); });
}

TEST_F(ValidateMutation, ParentEdgeMissingFromGraph) {
  // 3 re-hung directly under the root, consistently in every field but the
  // graph, which has no edge 0-3.
  double old_delay = 0.0;
  expect_rejected(
      [&](MulticastTree& t) {
        old_delay = Peer::delay(t)[3];
        erase_child(t, 2, 3);
        Peer::parent(t)[3] = 0;
        Peer::children(t)[0].push_back(3);
        Peer::delay(t)[3] = 1.0;
      },
      [&](MulticastTree& t) {
        erase_child(t, 0, 3);
        Peer::parent(t)[3] = 2;
        Peer::children(t)[2].push_back(3);
        Peer::delay(t)[3] = old_delay;
      });
}

TEST_F(ValidateMutation, StaleCachedDelay) {
  // One ulp off is already stale: the cache must match bit for bit.
  expect_rejected(
      [](MulticastTree& t) {
        double& d = Peer::delay(t)[3];
        d = std::nextafter(d, 1e9);
      },
      [](MulticastTree& t) {
        double& d = Peer::delay(t)[3];
        d = std::nextafter(d, 0.0);
      });
}

TEST_F(ValidateMutation, StaleRootDelay) {
  expect_rejected([](MulticastTree& t) { Peer::delay(t)[0] = 0.5; },
                  [](MulticastTree& t) { Peer::delay(t)[0] = 0.0; });
}

TEST_F(ValidateMutation, WrongTreeSize) {
  expect_rejected([](MulticastTree& t) { ++Peer::tree_size(t); },
                  [](MulticastTree& t) { --Peer::tree_size(t); });
}

TEST_F(ValidateMutation, OffTreeNodeWithParent) {
  expect_rejected([](MulticastTree& t) { Peer::parent(t)[6] = 5; },
                  [](MulticastTree& t) { Peer::parent(t)[6] = kInvalidNode; });
}

}  // namespace
}  // namespace scmp::graph

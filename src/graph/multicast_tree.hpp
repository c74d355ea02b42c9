// Rooted shared multicast tree, the central data structure the m-router
// maintains per group (paper §III). Supports the paper's dynamic operations:
// grafting a path for a joining member (including the loop-elimination rule of
// Fig. 5(c)-(d), where hitting an on-tree node re-parents it and prunes its
// old upstream branch) and pruning dangling branches after a member leaves.
//
// Delay. The tree is bound to its Graph and caches one root delay per
// on-tree node: the link delays along the tree path summed root-first,
// delay(v) = delay(parent(v)) + delay of edge {v, parent(v)}. That is the
// source-to-destination order Dijkstra accumulates the path database's
// sl_delay in, and it is the tree's only delay definition: node_delay() is
// O(1) and tree_delay() is O(members). Both take the graph the tree was
// built on, like tree_cost() and validate(), and require exactly it.
//
// Mutation contract. graft_path() and prune_upward_from() cost O(change):
// the path, the pruned nodes and the re-parented subtrees, whose cached
// delays are refreshed with one Graph::edge lookup per node. Each returns a
// TreeChange naming the nodes that were on the tree before the call and that
// the call re-parented, removed or moved to a different root delay, so
// callers never diff whole-tree snapshots.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace scmp::graph {

/// What one mutation changed, relative to the tree before the call. Only
/// nodes that were on the tree before the call appear: a node the call
/// attached (and perhaps pruned again) is not reported. Each list ascends.
struct TreeChange {
  std::vector<NodeId> reparented;  ///< still on the tree, different parent
  std::vector<NodeId> removed;     ///< no longer on the tree
  std::vector<NodeId> redelayed;   ///< still on the tree, different delay
};

class MulticastTree {
 public:
  /// An empty tree over `g` containing only `root` (the m-router's tree
  /// anchor). The tree keeps a pointer to `g`, which must outlive it.
  MulticastTree(const Graph& g, NodeId root);

  NodeId root() const { return root_; }
  int num_nodes() const { return static_cast<int>(parent_.size()); }

  bool on_tree(NodeId v) const;
  /// Parent of an on-tree node; kInvalidNode for the root.
  NodeId parent(NodeId v) const;
  const std::vector<NodeId>& children(NodeId v) const;

  bool is_member(NodeId v) const;
  /// Marks/unmarks group membership. A node must be on the tree to be a member.
  void set_member(NodeId v, bool member);
  /// Members in ascending id order.
  std::vector<NodeId> members() const;
  /// Members in no particular order, without allocating.
  const std::vector<NodeId>& unordered_members() const { return member_list_; }

  std::vector<NodeId> on_tree_nodes() const;
  /// Number of nodes currently on the tree (including the root).
  int tree_size() const { return tree_size_; }
  bool is_leaf(NodeId v) const;

  /// Grafts `path` onto the tree. path[0] must already be on the tree; the
  /// remaining nodes are attached in order. When the path re-enters the tree
  /// at a node x, x is re-parented onto the new path and the branch that used
  /// to lead into x is pruned upward (paper Fig. 5 loop elimination) —
  /// unless re-parenting would create a cycle (x is the root or an ancestor
  /// of the new segment), in which case the redundant new segment is pruned
  /// instead. The returned report stays valid until the next mutation.
  const TreeChange& graft_path(const std::vector<NodeId>& path);

  /// Removes `v` and then its ancestors while they remain non-member leaves
  /// (never removes the root). Models the hop-by-hop PRUNE of §III-C.
  const TreeChange& prune_upward_from(NodeId v);

  /// Path root..v along tree edges. Requires v on tree.
  std::vector<NodeId> path_from_root(NodeId v) const;

  /// Sum of link costs in `g` over all tree edges.
  double tree_cost(const Graph& g) const;
  /// Delay of the tree path root->v (the paper's multicast delay "ml"): the
  /// cached root delay. `g` must be the graph the tree was built on.
  double node_delay(const Graph& g, NodeId v) const;
  /// Longest multicast delay over all members (the paper's tree delay).
  /// `g` must be the graph the tree was built on.
  double tree_delay(const Graph& g) const;

  /// All tree edges as (child, parent) pairs.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// Calls visit(child, parent) for every tree edge below `top` in preorder
  /// over children(), descending into a child only when its call returns
  /// true; a false return stops the walk and is returned. Stackless — it
  /// climbs back through parent() — so it never allocates; it costs
  /// O(subtree · degree).
  template <class Visit>
  bool walk_below(NodeId top, Visit visit) const;

  /// Structural invariants against `g`: root on tree, every child entry
  /// reached exactly once from the root and agreeing with its parent pointer,
  /// parent edges present in g, cached delays equal to parent delay plus edge
  /// delay, members on tree, off-tree nodes carrying no tree state, and
  /// tree_size() matching. O(V + tree); never allocates. It uses the
  /// tree's mark bytes as scratch, so one tree must not be validated from
  /// two threads at once.
  bool validate(const Graph& g) const;

 private:
  friend struct MulticastTreeTestPeer;  // corrupts state for validate tests

  /// Per-node mark, clean between calls. A mutation marks the nodes it
  /// attached (kFresh) and the pre-existing nodes it logged (kLogged);
  /// validate() sets the bits kVisited (reached from the root) and kListed
  /// (named in the member list).
  enum Mark : char {
    kClean = 0,
    kFresh = 1,
    kLogged = 2,
    kVisited = 1,
    kListed = 2,
  };
  /// Pre-call state of a node the current mutation touched.
  struct Touched {
    NodeId v;
    NodeId old_parent;
    double old_delay;
  };

  void attach(NodeId child, NodeId parent);
  void detach(NodeId child);
  void remove_node(NodeId v);
  void prune_from(NodeId v);
  /// Recomputes the cached delays of every node strictly below `top`.
  void refresh_below(NodeId top);
  /// Records v's pre-call state the first time the current mutation
  /// touches it; nodes the mutation itself attached are not recorded.
  void log_touch(NodeId v);
  /// Turns the touch log into change_ and clears every mark the mutation
  /// set; `fresh` holds every node it may have attached (the grafted path).
  const TreeChange& finish_change(const std::vector<NodeId>& fresh);
  bool is_ancestor(NodeId anc, NodeId v) const;

  const Graph* g_;
  NodeId root_;
  std::vector<NodeId> parent_;          ///< kInvalidNode when off-tree or root
  std::vector<char> on_tree_;
  std::vector<char> member_;
  std::vector<NodeId> member_list_;     ///< the members, unordered
  std::vector<double> delay_;           ///< cached root delay of on-tree nodes
  std::vector<std::vector<NodeId>> children_;
  mutable std::vector<char> mark_;      ///< Mark per node (see above)
  std::vector<Touched> touched_;        ///< current mutation's touch log
  TreeChange change_;                   ///< last mutation's report
  int tree_size_ = 0;
};

template <class Visit>
bool MulticastTree::walk_below(NodeId top, Visit visit) const {
  NodeId v = top;
  std::size_t next = 0;  // index into children_[v] of the next child to enter
  for (;;) {
    const auto& kids = children_[static_cast<std::size_t>(v)];
    if (next < kids.size()) {
      const NodeId c = kids[next];
      if (!visit(c, v)) return false;
      v = c;
      next = 0;
    } else if (v == top) {
      return true;
    } else {
      const NodeId p = parent_[static_cast<std::size_t>(v)];
      const auto& sib = children_[static_cast<std::size_t>(p)];
      next = static_cast<std::size_t>(
                 std::find(sib.begin(), sib.end(), v) - sib.begin()) + 1;
      v = p;
    }
  }
}

}  // namespace scmp::graph

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
// the call re-parented, removed or moved to a different root delay, plus the
// tree edges it cut, so callers never diff whole-tree snapshots. To report
// cut edges in child-list order, a mutation copies a pre-existing node's
// child list the first time it modifies it; that costs O(degree) per
// modified list.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace scmp::graph {

/// What one mutation changed, relative to the tree before the call. Only
/// nodes that were on the tree before the call appear: a node the call
/// attached (and perhaps pruned again) is not reported. The node lists
/// ascend.
struct TreeChange {
  std::vector<NodeId> reparented;  ///< still on the tree, different parent
  std::vector<NodeId> removed;     ///< no longer on the tree
  std::vector<NodeId> redelayed;   ///< still on the tree, different delay
  /// Tree edges (old parent, child) the call cut whose old parent is still
  /// on the tree: the child left the tree or hangs elsewhere now. Ordered by
  /// parent id, then by the child's position in the parent's child list
  /// before the call.
  std::vector<std::pair<NodeId, NodeId>> lost_edges;
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

  /// Calls visit(child, parent) for every tree edge below `top`, each
  /// parent's edges before its children's and each child list in order; a
  /// false return stops the walk and is returned. An explicit-stack DFS over
  /// the child lists: O(subtree), and its stack is per-thread scratch that
  /// stops allocating once it has grown to the deepest frontier. `visit`
  /// must not change the tree's structure.
  template <class Visit>
  bool walk_below(NodeId top, Visit visit) const;

  /// Structural invariants against `g`: root on tree, every child entry
  /// reached exactly once from the root and agreeing with its parent pointer,
  /// parent edges present in g, cached delays equal to parent delay plus edge
  /// delay, members on tree, off-tree nodes carrying no tree state, and
  /// tree_size() matching. O(V + tree): one walk_below() DFS whose parent
  /// edges come from g's CSR rows (warm g.csr() before validating from
  /// several threads), plus one flag pass over V; no allocation once the
  /// walk stack has grown. It uses the tree's mark bytes as scratch, so one
  /// tree must not be validated from two threads at once.
  bool validate(const Graph& g) const;

 private:
  friend struct MulticastTreeTestPeer;  // corrupts state for validate tests

  /// Per-node mark bits, clean between calls. A mutation marks the nodes it
  /// attached (kFresh), the pre-existing nodes it logged (kLogged) and the
  /// pre-existing nodes whose child list it saved (kSaved); validate() sets
  /// kVisited (reached from the root) and kListed (named in the member
  /// list).
  enum Mark : char {
    kClean = 0,
    kFresh = 1,
    kLogged = 2,
    kSaved = 4,
    kVisited = 1,
    kListed = 2,
  };
  /// Pre-call state of a node the current mutation touched.
  struct Touched {
    NodeId v;
    NodeId old_parent;
    double old_delay;
  };
  /// Pre-call child list of `parent`: saved_kids_[first, first + count).
  struct SavedList {
    NodeId parent;
    std::size_t first;
    std::size_t count;
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
  /// Saves v's pre-call child list the first time the current mutation is
  /// about to modify it; lists of nodes the mutation attached start empty
  /// and are not saved.
  void save_children(NodeId v);
  /// Turns the touch log into change_ and clears every mark the mutation
  /// set; `fresh` holds every node it may have attached (the grafted path).
  const TreeChange& finish_change(const std::vector<NodeId>& fresh);
  bool is_ancestor(NodeId anc, NodeId v) const;
  /// walk_below()'s per-thread stack.
  static std::vector<NodeId>& walk_stack();

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
  std::vector<SavedList> saved_;        ///< current mutation's saved lists
  std::vector<NodeId> saved_kids_;      ///< their entries
  TreeChange change_;                   ///< last mutation's report
  int tree_size_ = 0;
};

template <class Visit>
bool MulticastTree::walk_below(NodeId top, Visit visit) const {
  std::vector<NodeId>& stack = walk_stack();
  const std::size_t base = stack.size();  // a nested walk stacks above us
  stack.push_back(top);
  while (stack.size() > base) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (const NodeId c : children_[static_cast<std::size_t>(v)]) {
      if (!visit(c, v)) {
        stack.resize(base);
        return false;
      }
      stack.push_back(c);
    }
  }
  return true;
}

}  // namespace scmp::graph

#include "graph/multicast_tree.hpp"

#include <algorithm>

namespace scmp::graph {

namespace {

std::size_t idx(NodeId v) { return static_cast<std::size_t>(v); }

}  // namespace

MulticastTree::MulticastTree(const Graph& g, NodeId root)
    : g_(&g), root_(root) {
  const int num_nodes = g.num_nodes();
  SCMP_EXPECTS(num_nodes > 0 && root >= 0 && root < num_nodes);
  parent_.assign(idx(num_nodes), kInvalidNode);
  on_tree_.assign(idx(num_nodes), 0);
  member_.assign(idx(num_nodes), 0);
  delay_.assign(idx(num_nodes), 0.0);
  children_.resize(idx(num_nodes));
  mark_.assign(idx(num_nodes), kClean);
  on_tree_[idx(root)] = 1;
  tree_size_ = 1;
}

bool MulticastTree::on_tree(NodeId v) const {
  SCMP_EXPECTS(v >= 0 && v < num_nodes());
  return on_tree_[idx(v)] != 0;
}

NodeId MulticastTree::parent(NodeId v) const {
  SCMP_EXPECTS(on_tree(v));
  return parent_[idx(v)];
}

const std::vector<NodeId>& MulticastTree::children(NodeId v) const {
  SCMP_EXPECTS(v >= 0 && v < num_nodes());
  return children_[idx(v)];
}

bool MulticastTree::is_member(NodeId v) const {
  SCMP_EXPECTS(v >= 0 && v < num_nodes());
  return member_[idx(v)] != 0;
}

void MulticastTree::set_member(NodeId v, bool member) {
  SCMP_EXPECTS(!member || on_tree(v));
  char& flag = member_[idx(v)];
  if (member && !flag) {
    member_list_.push_back(v);
  } else if (!member && flag) {
    const auto it = std::find(member_list_.begin(), member_list_.end(), v);
    SCMP_ASSERT(it != member_list_.end());
    *it = member_list_.back();
    member_list_.pop_back();
  }
  flag = member ? 1 : 0;
}

std::vector<NodeId> MulticastTree::members() const {
  std::vector<NodeId> out = member_list_;
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> MulticastTree::on_tree_nodes() const {
  std::vector<NodeId> out;
  out.reserve(idx(tree_size_));
  for (NodeId v = 0; v < num_nodes(); ++v)
    if (on_tree_[idx(v)]) out.push_back(v);
  return out;
}

bool MulticastTree::is_leaf(NodeId v) const {
  return on_tree(v) && children(v).empty();
}

void MulticastTree::log_touch(NodeId v) {
  char& mark = mark_[idx(v)];
  if (mark & (kFresh | kLogged)) return;  // attached by this call, or logged
  mark = static_cast<char>(mark | kLogged);
  touched_.push_back({v, parent_[idx(v)], delay_[idx(v)]});
}

void MulticastTree::save_children(NodeId v) {
  char& mark = mark_[idx(v)];
  if (mark & (kFresh | kSaved)) return;  // attached by this call, or saved
  mark = static_cast<char>(mark | kSaved);
  const auto& kids = children_[idx(v)];
  saved_.push_back({v, saved_kids_.size(), kids.size()});
  saved_kids_.insert(saved_kids_.end(), kids.begin(), kids.end());
}

std::vector<NodeId>& MulticastTree::walk_stack() {
  thread_local std::vector<NodeId> stack;
  return stack;
}

void MulticastTree::attach(NodeId child, NodeId parent) {
  SCMP_EXPECTS(on_tree(parent));
  SCMP_EXPECTS(child != root_);
  const EdgeAttr* e = g_->edge(child, parent);
  SCMP_EXPECTS(e != nullptr);
  if (!on_tree_[idx(child)]) {
    // Off-tree and unlogged means off-tree before this call too.
    if ((mark_[idx(child)] & kLogged) == 0) mark_[idx(child)] = kFresh;
    on_tree_[idx(child)] = 1;
    ++tree_size_;
  }
  parent_[idx(child)] = parent;
  save_children(parent);
  children_[idx(parent)].push_back(child);
  delay_[idx(child)] = delay_[idx(parent)] + e->delay;
  refresh_below(child);
}

void MulticastTree::refresh_below(NodeId top) {
  walk_below(top, [this](NodeId c, NodeId p) {
    log_touch(c);
    const EdgeAttr* e = g_->edge(c, p);
    SCMP_EXPECTS(e != nullptr);
    delay_[idx(c)] = delay_[idx(p)] + e->delay;
    return true;
  });
}

void MulticastTree::detach(NodeId child) {
  const NodeId p = parent_[idx(child)];
  if (p == kInvalidNode) return;
  save_children(p);
  auto& sib = children_[idx(p)];
  sib.erase(std::remove(sib.begin(), sib.end(), child), sib.end());
  parent_[idx(child)] = kInvalidNode;
}

void MulticastTree::remove_node(NodeId v) {
  SCMP_EXPECTS(v != root_ && on_tree(v) && children(v).empty() &&
               !is_member(v));
  log_touch(v);
  detach(v);
  on_tree_[idx(v)] = 0;
  --tree_size_;
}

bool MulticastTree::is_ancestor(NodeId anc, NodeId v) const {
  for (NodeId cur = v; cur != kInvalidNode; cur = parent_[idx(cur)]) {
    if (cur == anc) return true;
  }
  return false;
}

const TreeChange& MulticastTree::graft_path(const std::vector<NodeId>& path) {
  SCMP_EXPECTS(!path.empty());
  SCMP_EXPECTS(on_tree(path.front()));
  NodeId prev = path.front();
  for (std::size_t i = 1; i < path.size(); ++i) {
    const NodeId cur = path[i];
    SCMP_EXPECTS(cur >= 0 && cur < num_nodes());
    if (cur == prev) continue;
    if (!on_tree(cur)) {
      attach(cur, prev);
    } else if (parent_[idx(cur)] == prev) {
      // Path segment already coincides with a tree edge.
    } else if (cur == root_ || is_ancestor(cur, prev)) {
      // Re-parenting cur under prev would create a cycle; the new segment
      // ending at prev is the redundant branch, so prune it instead.
      prune_from(prev);
    } else {
      // Loop elimination (paper Fig. 5): cur joins the new path, and the old
      // branch that led into it is pruned upward.
      const NodeId old_parent = parent_[idx(cur)];
      log_touch(cur);
      detach(cur);
      attach(cur, prev);
      if (old_parent != kInvalidNode) prune_from(old_parent);
    }
    prev = cur;
  }
  return finish_change(path);
}

const TreeChange& MulticastTree::prune_upward_from(NodeId v) {
  prune_from(v);
  return finish_change({});
}

void MulticastTree::prune_from(NodeId v) {
  NodeId cur = v;
  while (cur != root_ && on_tree(cur) && children(cur).empty() &&
         !is_member(cur)) {
    const NodeId p = parent_[idx(cur)];
    remove_node(cur);
    cur = p;
  }
}

const TreeChange& MulticastTree::finish_change(
    const std::vector<NodeId>& fresh) {
  change_.reparented.clear();
  change_.removed.clear();
  change_.redelayed.clear();
  change_.lost_edges.clear();
  for (const Touched& t : touched_) {
    if (!on_tree_[idx(t.v)]) {
      change_.removed.push_back(t.v);
      continue;
    }
    if (parent_[idx(t.v)] != t.old_parent) change_.reparented.push_back(t.v);
    const double delay = delay_[idx(t.v)];
    // determinism: allow(change detection: old_delay is a copy of the same
    // cached root-first sum, so an unchanged delay is bit-identical and a
    // changed one differs in value, not in rounding)
    if (delay != t.old_delay) change_.redelayed.push_back(t.v);
  }
  // A saved list's entries are exactly the parent's pre-call children; the
  // ones that no longer hang below it are the cut edges.
  std::sort(saved_.begin(), saved_.end(),
            [](const SavedList& a, const SavedList& b) {
              return a.parent < b.parent;
            });
  for (const SavedList& l : saved_) {
    mark_[idx(l.parent)] = kClean;
    if (!on_tree_[idx(l.parent)]) continue;
    for (std::size_t k = l.first; k < l.first + l.count; ++k) {
      const NodeId c = saved_kids_[k];
      if (!on_tree_[idx(c)] || parent_[idx(c)] != l.parent)
        change_.lost_edges.emplace_back(l.parent, c);
    }
  }
  for (const Touched& t : touched_) mark_[idx(t.v)] = kClean;
  // Marks of nodes this call attached fresh; they all lie on the path.
  for (NodeId v : fresh) mark_[idx(v)] = kClean;
  touched_.clear();
  saved_.clear();
  saved_kids_.clear();
  std::sort(change_.reparented.begin(), change_.reparented.end());
  std::sort(change_.removed.begin(), change_.removed.end());
  std::sort(change_.redelayed.begin(), change_.redelayed.end());
  return change_;
}

std::vector<NodeId> MulticastTree::path_from_root(NodeId v) const {
  SCMP_EXPECTS(on_tree(v));
  std::vector<NodeId> path;
  for (NodeId cur = v; cur != kInvalidNode; cur = parent_[idx(cur)])
    path.push_back(cur);
  std::reverse(path.begin(), path.end());
  SCMP_ENSURES(path.front() == root_);
  return path;
}

double MulticastTree::tree_cost(const Graph& g) const {
  double total = 0.0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (!on_tree_[idx(v)] || v == root_) continue;
    const EdgeAttr* e = g.edge(v, parent_[idx(v)]);
    SCMP_EXPECTS(e != nullptr);
    total += e->cost;
  }
  return total;
}

double MulticastTree::node_delay(const Graph& g, NodeId v) const {
  SCMP_EXPECTS(&g == g_ && on_tree(v));
  return delay_[idx(v)];
}

double MulticastTree::tree_delay(const Graph& g) const {
  SCMP_EXPECTS(&g == g_);
  double worst = 0.0;
  for (NodeId m : member_list_) worst = std::max(worst, delay_[idx(m)]);
  return worst;
}

std::vector<std::pair<NodeId, NodeId>> MulticastTree::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (on_tree_[idx(v)] && v != root_) out.emplace_back(v, parent_[idx(v)]);
  }
  return out;
}

bool MulticastTree::validate(const Graph& g) const {
  const Graph::CsrView& csr = g.csr();
  const std::size_t r = idx(root_);
  const double root_delay = delay_[r];
  // determinism: allow(cache check: the root's delay is the literal 0.0 the
  // constructor stores, never a computed sum)
  bool ok = on_tree_[r] && parent_[r] == kInvalidNode && root_delay == 0.0;
  // One DFS from the root over the child lists. The visit mark makes a
  // duplicate child entry or a second route into a node fail; the parent
  // check makes every reached node's parent chain end at the root, so no
  // reached node lies on a cycle.
  int reached = 1;
  if (ok) {
    mark_[r] = kVisited;
    ok = walk_below(root_, [&](NodeId c, NodeId p) {
      if (c < 0 || c >= num_nodes()) return false;
      const std::size_t ci = idx(c);
      if (!on_tree_[ci] || mark_[ci] != kClean || parent_[ci] != p)
        return false;
      // The parent edge from the flat CSR row: the same first match, and
      // the same attributes, as Graph::edge(c, p).
      const Graph::CsrView::Row row = csr.row(c);
      const Graph::Neighbor* e = std::find_if(
          row.begin(), row.end(),
          [p](const Graph::Neighbor& nb) { return nb.to == p; });
      if (e == row.end()) return false;
      const double cached = delay_[ci];
      const double expected = delay_[idx(p)] + e->attr.delay;
      // determinism: allow(cache check: the cached delay was computed by
      // this exact parent-plus-edge sum, so a recomputed one is bit-identical)
      if (cached != expected) return false;
      mark_[ci] = kVisited;
      ++reached;
      return true;
    });
  }
  // The member list names each flagged member exactly once.
  for (NodeId m : member_list_) {
    if (m < 0 || m >= num_nodes() || (mark_[idx(m)] & kListed) != 0) {
      ok = false;
      continue;
    }
    mark_[idx(m)] = static_cast<char>(mark_[idx(m)] | kListed);
  }
  // One flag pass over every node: clears the visit marks, and checks that
  // every on-tree node was reached, that off-tree nodes carry no tree state
  // and that members are on the tree.
  int counted = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    const std::size_t i = idx(v);
    const bool visited = (mark_[i] & kVisited) != 0;
    const bool listed = (mark_[i] & kListed) != 0;
    mark_[i] = kClean;
    if ((member_[i] != 0) != listed) ok = false;
    if (member_[i] && !on_tree_[i]) ok = false;
    if (on_tree_[i]) {
      ++counted;
      if (!visited) ok = false;
    } else if (parent_[i] != kInvalidNode || !children_[i].empty()) {
      ok = false;
    }
  }
  return ok && counted == tree_size_ && reached == tree_size_;
}

}  // namespace scmp::graph

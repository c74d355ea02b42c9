#include "graph/steiner.hpp"

#include <algorithm>

#include "graph/mst.hpp"

namespace scmp::graph {

namespace {

double pair_distance(const AllPairsPaths& paths, Metric metric, NodeId u,
                     NodeId v) {
  return metric == Metric::kCost ? paths.lc_cost(u, v) : paths.sl_delay(u, v);
}

std::vector<NodeId> pair_path(const AllPairsPaths& paths, Metric metric,
                              NodeId u, NodeId v) {
  return metric == Metric::kCost ? paths.lc_path(u, v) : paths.sl_path(u, v);
}

}  // namespace

MulticastTree kmb_steiner(const Graph& g, const AllPairsPaths& paths,
                          NodeId root, const std::vector<NodeId>& members,
                          Metric metric) {
  SCMP_EXPECTS(g.valid(root));

  // Terminal set: root plus members, deduplicated, deterministic order.
  std::vector<NodeId> terminals{root};
  terminals.insert(terminals.end(), members.begin(), members.end());
  std::sort(terminals.begin() + 1, terminals.end());
  terminals.erase(std::unique(terminals.begin() + 1, terminals.end()),
                  terminals.end());
  terminals.erase(
      std::remove_if(terminals.begin() + 1, terminals.end(),
                     [root](NodeId v) { return v == root; }),
      terminals.end());

  const int t = static_cast<int>(terminals.size());

  // Step 1: complete distance graph over the terminals.
  std::vector<std::vector<double>> dist(
      static_cast<std::size_t>(t),
      std::vector<double>(static_cast<std::size_t>(t), kUnreachable));
  for (int i = 0; i < t; ++i) {
    for (int j = i + 1; j < t; ++j) {
      const double d = pair_distance(paths, metric, terminals[static_cast<std::size_t>(i)],
                                     terminals[static_cast<std::size_t>(j)]);
      dist[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = d;
      dist[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = d;
    }
  }

  // Step 2: MST of the distance graph.
  const std::vector<int> closure_parent = prim_mst_dense(dist, 0);

  // Step 3: expand every closure edge into its underlying path; the union
  // forms a connected subgraph of g.
  Graph sub(g.num_nodes());
  auto add_path_edges = [&](const std::vector<NodeId>& path) {
    for (std::size_t i = 1; i < path.size(); ++i) {
      if (!sub.has_edge(path[i - 1], path[i])) {
        const EdgeAttr* e = g.edge(path[i - 1], path[i]);
        SCMP_EXPECTS(e != nullptr);
        sub.add_edge(path[i - 1], path[i], e->delay, e->cost);
      }
    }
  };
  for (int i = 1; i < t; ++i) {
    const int p = closure_parent[static_cast<std::size_t>(i)];
    SCMP_EXPECTS(p != kInvalidNode);  // g is connected => closure is connected
    add_path_edges(pair_path(paths, metric, terminals[static_cast<std::size_t>(p)],
                             terminals[static_cast<std::size_t>(i)]));
  }

  // Step 4: MST of the expanded subgraph, rooted at the multicast root.
  const std::vector<NodeId> sub_parent = prim_mst(sub, root, metric);

  MulticastTree tree(g, root);
  std::vector<char> is_terminal(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId v : terminals) is_terminal[static_cast<std::size_t>(v)] = 1;

  // Attach every subgraph node reachable from root, in BFS-from-root order so
  // each parent is on the tree before its children.
  {
    std::vector<std::vector<NodeId>> kids(
        static_cast<std::size_t>(g.num_nodes()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const NodeId p = sub_parent[static_cast<std::size_t>(v)];
      if (p != kInvalidNode) kids[static_cast<std::size_t>(p)].push_back(v);
    }
    std::vector<NodeId> queue{root};
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const NodeId u = queue[qi];
      for (NodeId c : kids[static_cast<std::size_t>(u)]) {
        tree.graft_path({u, c});
        queue.push_back(c);
      }
    }
  }

  // Mark members first so leaf pruning cannot remove a terminal that happens
  // to sit on a dangling chain (prune_upward_from stops at members).
  for (NodeId v : members)
    if (tree.on_tree(v)) tree.set_member(v, true);

  // Step 5: repeatedly delete non-terminal leaves.
  for (NodeId v : tree.on_tree_nodes()) {
    if (tree.on_tree(v) && tree.is_leaf(v) &&
        !is_terminal[static_cast<std::size_t>(v)])
      tree.prune_upward_from(v);
  }
  SCMP_ENSURES(tree.validate(g));
  return tree;
}

}  // namespace scmp::graph

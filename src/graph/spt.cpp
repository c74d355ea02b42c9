#include "graph/spt.hpp"

#include "graph/dijkstra.hpp"

namespace scmp::graph {

MulticastTree shortest_path_tree(const Graph& g, NodeId root,
                                 const std::vector<NodeId>& members,
                                 Metric metric) {
  const ShortestPaths sp = dijkstra(g, root, metric);
  MulticastTree tree(g, root);
  for (NodeId m : members) {
    SCMP_EXPECTS(sp.reachable(m));
    tree.graft_path(sp.path_to(m));
    tree.set_member(m, true);
  }
  SCMP_ENSURES(tree.validate(g));
  return tree;
}

}  // namespace scmp::graph

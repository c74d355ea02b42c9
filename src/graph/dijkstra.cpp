#include "graph/dijkstra.hpp"

#include <algorithm>
#include <queue>
#include <tuple>

namespace scmp::graph {

void path_along(const std::vector<NodeId>& parent,
                const std::vector<std::int32_t>& hops, NodeId src,
                NodeId dst, std::vector<NodeId>& out) {
  SCMP_EXPECTS(dst >= 0 && static_cast<std::size_t>(dst) < hops.size());
  out.clear();
  const std::int32_t h = hops[static_cast<std::size_t>(dst)];
  if (h < 0) return;  // unreachable
  out.reserve(static_cast<std::size_t>(h) + 1);
  for (NodeId v = dst; v != kInvalidNode;
       v = parent[static_cast<std::size_t>(v)])
    out.push_back(v);
  std::reverse(out.begin(), out.end());
  SCMP_ENSURES(out.front() == src);
}

std::vector<NodeId> ShortestPaths::path_to(NodeId dst) const {
  std::vector<NodeId> path;
  path_to_into(dst, path);
  return path;
}

void ShortestPaths::path_to_into(NodeId dst, std::vector<NodeId>& out) const {
  path_along(parent, hops, source, dst, out);
}

void dijkstra_into(const Graph& g, NodeId source, Metric metric,
                   ShortestPaths& out) {
  SCMP_EXPECTS(g.valid(source));
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const Metric comp = companion_of(metric);
  out.source = source;
  out.metric = metric;
  out.dist.assign(n, kUnreachable);
  out.companion.assign(n, kUnreachable);
  out.hops.assign(n, -1);
  out.parent.assign(n, kInvalidNode);
  out.dist[static_cast<std::size_t>(source)] = 0.0;
  out.companion[static_cast<std::size_t>(source)] = 0.0;
  out.hops[static_cast<std::size_t>(source)] = 0;

  // (distance, node); the node id in the key makes pop order deterministic.
  using Entry = std::pair<double, NodeId>;
  // hot-path: allow(one-time per-run setup, outside the relaxation loop)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, source);
  // hot-path: allow(one-time per-run setup, outside the relaxation loop)
  std::vector<char> done(n, 0);

  // Relax over the flat CSR rows: the whole frontier's neighbours live in
  // one contiguous array instead of n separate vectors.
  const Graph::CsrView& csr = g.csr();

  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (done[static_cast<std::size_t>(u)]) continue;
    done[static_cast<std::size_t>(u)] = 1;
    const double cu = out.companion[static_cast<std::size_t>(u)];
    const std::int32_t hu = out.hops[static_cast<std::size_t>(u)];
    for (const auto& nb : csr.row(u)) {
      // A finalized node never re-parents: with positive weights no later
      // relaxation can match its distance anyway, and for zero-weight edges
      // the guard keeps every descendant's companion/hops consistent with
      // the parent pointers (a post-finalization flip would desynchronize
      // the accumulated sums from the canonical path).
      if (done[static_cast<std::size_t>(nb.to)]) continue;
      const double nd = d + weight_of(nb.attr, metric);
      auto& cur = out.dist[static_cast<std::size_t>(nb.to)];
      auto& par = out.parent[static_cast<std::size_t>(nb.to)];
      // Strict improvement, or equal distance via a smaller parent id: the
      // second clause pins down one canonical shortest-path tree. The
      // companion weight and hop count follow the parent choice, so they
      // always describe the same canonical path as dist/parent.
      // determinism: allow(canonical-SPT tie-break: equal distances reached
      // by the same left-to-right relaxation sums on one platform; ties
      // resolve by parent id, pinned by the golden traces)
      if (nd < cur || (nd == cur && par != kInvalidNode && u < par)) {
        cur = nd;
        par = u;
        out.companion[static_cast<std::size_t>(nb.to)] =
            cu + weight_of(nb.attr, comp);
        out.hops[static_cast<std::size_t>(nb.to)] = hu + 1;
        heap.emplace(nd, nb.to);
      }
    }
  }
}

ShortestPaths dijkstra(const Graph& g, NodeId source, Metric metric) {
  ShortestPaths out;
  dijkstra_into(g, source, metric, out);
  return out;
}

}  // namespace scmp::graph

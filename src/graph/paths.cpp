#include "graph/paths.hpp"

#include <numeric>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace scmp::graph {

namespace {

obs::Counter& sources_recomputed_counter() {
  static obs::Counter& c = obs::counter("paths.rebuild.sources_recomputed");
  return c;
}

}  // namespace

AllPairsPaths::AllPairsPaths(const Graph& g, const ParallelFor& pf) {
  rebuild(g, pf);
}

void AllPairsPaths::rebuild(const Graph& g, const ParallelFor& pf) {
  OBS_SPAN("paths.rebuild");
  n_ = g.num_nodes();
  const auto n = static_cast<std::size_t>(n_);
  table_.resize(n * n);
  by_delay_.resize(n);
  by_cost_.resize(n);
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});
  recompute(g, all, pf);
}

void AllPairsPaths::recompute(const Graph& g,
                              const std::vector<NodeId>& sources,
                              const ParallelFor& pf) {
  sources_recomputed_counter().inc(sources.size());
  // Warm the CSR cache before fanning out: the lazy build mutates the
  // graph's cache under const, so it must happen on this thread, not raced
  // by the pool workers' first g.csr() calls.
  g.csr();
  const auto n = static_cast<std::size_t>(n_);
  const auto recompute_source = [&](std::size_t k) {
    // Per-thread scratch runs: their distance vectors are allocated once
    // per thread, not once per source.
    thread_local ShortestPaths sd;
    thread_local ShortestPaths sc;
    const NodeId s = sources[k];
    const auto si = static_cast<std::size_t>(s);
    dijkstra_into(g, s, Metric::kDelay, sd);
    dijkstra_into(g, s, Metric::kCost, sc);
    by_delay_[si].parent = sd.parent;
    by_delay_[si].hops = sd.hops;
    by_cost_[si].parent = sc.parent;
    by_cost_[si].hops = sc.hops;
    // Column si of the table: tasks own disjoint sources, so concurrent
    // tasks write disjoint entries.
    for (std::size_t v = 0; v < n; ++v)
      table_[v * n + si] = {sd.dist[v], sd.companion[v], sc.companion[v],
                            sc.dist[v]};
  };
  if (pf) {
    pf(sources.size(), recompute_source);
  } else {
    for (std::size_t k = 0; k < sources.size(); ++k) recompute_source(k);
  }
}

bool AllPairsPaths::run_dirty(NodeId src, Metric metric, NodeId u, NodeId v,
                              const EdgeAttr* attr) const {
  const auto su = static_cast<std::size_t>(u);
  const auto sv = static_cast<std::size_t>(v);
  const PathTree& run = metric == Metric::kDelay
                            ? by_delay_[static_cast<std::size_t>(src)]
                            : by_cost_[static_cast<std::size_t>(src)];
  // The cached canonical SPT routed through {u, v}: any removal or weight
  // change invalidates the paths through it.
  if (run.parent[su] == v || run.parent[sv] == u) return true;
  // The edge is gone and the cached tree never used it: every cached path
  // still exists with unchanged weight, and the canonical parent choice
  // (minimum id among predecessors achieving the distance) cannot gain or
  // lose a candidate.
  if (attr == nullptr) return false;
  const double w = weight_of(*attr, metric);
  const PairWeights& to_u = weights(src, u);
  const PairWeights& to_v = weights(src, v);
  const double du = metric == Metric::kDelay ? to_u.sl_delay : to_u.lc_cost;
  const double dv = metric == Metric::kDelay ? to_v.sl_delay : to_v.lc_cost;
  // A present (new or re-weighted) edge affects the run iff relaxing it would
  // improve an endpoint's distance — any path through the edge crosses it, so
  // an improvement anywhere implies one at an endpoint first — ...
  if (du + w < dv || dv + w < du) return true;
  // ... or ties an endpoint's distance via a smaller parent id, which would
  // re-canonicalize the SPT without changing any distance.
  // determinism: allow(canonical-SPT tie test: the sum mirrors the exact
  // relaxation Dijkstra performs, so a tie here is the same bit-identical
  // tie the rebuild would break by parent id)
  if (du + w == dv && run.parent[sv] != kInvalidNode && u < run.parent[sv])
    return true;
  // determinism: allow(canonical-SPT tie test: the sum mirrors the exact
  // relaxation Dijkstra performs, so a tie here is the same bit-identical
  // tie the rebuild would break by parent id)
  if (dv + w == du && run.parent[su] != kInvalidNode && v < run.parent[su])
    return true;
  return false;
}

int AllPairsPaths::apply_link_event(const Graph& g, NodeId u, NodeId v,
                                    const ParallelFor& pf) {
  OBS_SPAN("paths.link_event");
  SCMP_EXPECTS(g.valid(u) && g.valid(v) && u != v);
  SCMP_EXPECTS(g.num_nodes() == n_);
  const EdgeAttr* attr = g.edge(u, v);

  // Dirty-source scan: O(n) lookups in the table rows of u and v. A source
  // is recomputed (both metrics) when either of its runs can be affected;
  // every clean source's cached runs are provably the canonical answer on
  // the new graph already.
  std::vector<NodeId> dirty;
  for (NodeId s = 0; s < n_; ++s) {
    if (run_dirty(s, Metric::kDelay, u, v, attr) ||
        run_dirty(s, Metric::kCost, u, v, attr)) {
      dirty.push_back(s);
    }
  }
  recompute(g, dirty, pf);
  return static_cast<int>(dirty.size());
}

std::span<const PairWeights> AllPairsPaths::weights_to(NodeId dst) const {
  SCMP_EXPECTS(dst >= 0 && dst < n_);
  const auto n = static_cast<std::size_t>(n_);
  return {table_.data() + static_cast<std::size_t>(dst) * n, n};
}

std::vector<NodeId> AllPairsPaths::sl_path(NodeId u, NodeId v) const {
  std::vector<NodeId> out;
  sl_path_into(u, v, out);
  return out;
}

std::vector<NodeId> AllPairsPaths::lc_path(NodeId u, NodeId v) const {
  std::vector<NodeId> out;
  lc_path_into(u, v, out);
  return out;
}

void AllPairsPaths::sl_path_into(NodeId u, NodeId v,
                                 std::vector<NodeId>& out) const {
  path_along(sl_from(u).parent, sl_from(u).hops, u, v, out);
}

void AllPairsPaths::lc_path_into(NodeId u, NodeId v,
                                 std::vector<NodeId>& out) const {
  path_along(lc_from(u).parent, lc_from(u).hops, u, v, out);
}

const PathTree& AllPairsPaths::sl_from(NodeId u) const {
  SCMP_EXPECTS(u >= 0 && u < num_nodes());
  return by_delay_[static_cast<std::size_t>(u)];
}

const PathTree& AllPairsPaths::lc_from(NodeId u) const {
  SCMP_EXPECTS(u >= 0 && u < num_nodes());
  return by_cost_[static_cast<std::size_t>(u)];
}

}  // namespace scmp::graph

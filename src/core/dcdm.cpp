#include "core/dcdm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace scmp::core {

DcdmTree::DcdmTree(const graph::Graph& g, const graph::AllPairsPaths& paths,
                   graph::NodeId root, DcdmConfig cfg)
    : g_(&g),
      paths_(&paths),
      cfg_(cfg),
      tree_(g, root),
      admitted_bound_(static_cast<std::size_t>(g.num_nodes()),
                      std::numeric_limits<double>::quiet_NaN()) {
  SCMP_EXPECTS(cfg.delay_slack >= 1.0);
  scratch_graft_.reserve(static_cast<std::size_t>(g.num_nodes()));
}

double DcdmTree::admitted_bound(graph::NodeId m) const {
  SCMP_EXPECTS(tree_.is_member(m));
  const double b = admitted_bound_[static_cast<std::size_t>(m)];
  SCMP_ASSERT(!std::isnan(b));
  return b;
}

void DcdmTree::record_admission(graph::NodeId m, double bound) {
  admitted_bound_[static_cast<std::size_t>(m)] = bound;
}

double DcdmTree::unicast_delay(graph::NodeId v) const {
  return paths_->sl_delay(tree_.root(), v);
}

double DcdmTree::delay_bound_for(graph::NodeId joining) const {
  // determinism: allow(sentinel compare: kLoosest is copied into
  // cfg_.delay_slack verbatim, never computed, so the bits match exactly)
  if (cfg_.delay_slack == kLoosest) return kLoosest;
  const double max_ul = std::max(unicast_delay(joining), max_member_ul_);
  return std::max(cfg_.delay_slack * max_ul, tree_.tree_delay(*g_));
}

JoinResult DcdmTree::join(graph::NodeId s) {
  SCMP_EXPECTS(g_->valid(s));
  OBS_SPAN("dcdm.join");
  JoinResult result;
  if (tree_.is_member(s)) return result;  // duplicate join
  result.is_new_member = true;
  if (tree_.on_tree(s)) {
    // s is already a relay on the tree: membership flips, topology unchanged.
    // Its existing path is feasible by construction (every relay lies on a
    // member's admitted path), so it is admitted at the current bound.
    result.already_on_tree = true;
    tree_.set_member(s, true);
    max_member_ul_ = std::max(max_member_ul_, unicast_delay(s));
    record_admission(s, delay_bound_for(s));
    return result;
  }

  const double bound = delay_bound_for(s);

  // Candidate selection over the 2m precomputed paths (P_sl and P_lc from
  // every on-tree node t to s): cheapest feasible, ties broken by smaller
  // multicast delay, then by smaller graft-node id (deterministic). Every
  // candidate is scored from the dual-weight tables — the same source-to-
  // destination accumulation Dijkstra ran, so bit-identical to re-walking
  // the materialized path — and only the winner is materialized below.
  double best_cost = 0.0;
  double best_ml = 0.0;
  graph::NodeId best_graft = graph::kInvalidNode;
  bool best_is_sl = false;
  bool have_best = false;
  std::uint64_t candidates = 0;
  const auto consider = [&](graph::NodeId t, double td, double pd, double pc,
                            bool is_sl) {
    if (std::isinf(pd)) return;  // s unreachable from t
    ++candidates;
    const double ml = td + pd;
    if (ml > bound) return;
    const bool better =
        !have_best || pc < best_cost ||
        // determinism: allow(canonical cost -> ml -> graft-id tie-break; both
        // sides come from the same path-DB sums on one platform, and the
        // golden traces pin the resulting order)
        (pc == best_cost &&
         // determinism: allow(canonical cost -> ml -> graft-id tie-break;
         // both sides come from the same path-DB sums on one platform, and
         // the golden traces pin the resulting order)
         (ml < best_ml || (ml == best_ml && t < best_graft)));
    if (better) {
      best_cost = pc;
      best_ml = ml;
      best_graft = t;
      best_is_sl = is_sl;
      have_best = true;
    }
  };
  // The winner is the minimum of a total order, so the walk order over the
  // tree does not matter; each node offers P_sl before P_lc. Every weight
  // comes from s's row of the path database: one contiguous read.
  const std::span<const graph::PairWeights> to_s = paths_->weights_to(s);
  const auto score = [&](graph::NodeId t) {
    const double td = tree_.node_delay(*g_, t);
    const graph::PairWeights& w = to_s[static_cast<std::size_t>(t)];
    consider(t, td, w.sl_delay, w.sl_cost, true);
    consider(t, td, w.lc_delay, w.lc_cost, false);
    return true;
  };
  score(tree_.root());
  tree_.walk_below(tree_.root(),
                   [&](graph::NodeId t, graph::NodeId) { return score(t); });
  static obs::Counter& candidates_scanned = obs::counter("dcdm.join.candidates");
  candidates_scanned.inc(candidates);
  // The shortest-delay path from the root is always feasible
  // (ml = ul(s) <= slack * max_ul <= bound), so a candidate must exist.
  SCMP_ASSERT(have_best);
  if (best_is_sl) {
    paths_->sl_path_into(best_graft, s, scratch_graft_);
  } else {
    paths_->lc_path_into(best_graft, s, scratch_graft_);
  }

  const graph::TreeChange& change = tree_.graft_path(scratch_graft_);
  tree_.set_member(s, true);
  max_member_ul_ = std::max(max_member_ul_, unicast_delay(s));
  record_admission(s, bound);
  // A loop-eliminating restructure moved these members' root paths:
  // re-admit each at its new multicast delay.
  for (graph::NodeId m : change.redelayed) {
    if (tree_.is_member(m))
      record_admission(m, std::max(admitted_bound_[static_cast<std::size_t>(m)],
                                   tree_.node_delay(*g_, m)));
  }
  result.graft_path = scratch_graft_;
  result.removed_nodes = change.removed;
  result.lost_edges = change.lost_edges;
  result.restructured = !change.removed.empty() || !change.reparented.empty();
  if (result.restructured) {
    static obs::Counter& restructures = obs::counter("dcdm.restructures");
    restructures.inc();
  }
  SCMP_ENSURES(tree_.validate(*g_));
  return result;
}

LeaveResult DcdmTree::leave(graph::NodeId s) {
  SCMP_EXPECTS(g_->valid(s));
  OBS_SPAN("dcdm.leave");
  LeaveResult result;
  if (!tree_.is_member(s)) return result;
  result.was_member = true;
  tree_.set_member(s, false);
  admitted_bound_[static_cast<std::size_t>(s)] =
      std::numeric_limits<double>::quiet_NaN();
  // A max over the same set is exact whatever the order, so only a leaver
  // that held the max forces a recount.
  const double leaver_ul = unicast_delay(s);
  // determinism: allow(max bookkeeping: max_member_ul_ is a copy of one
  // member's path-database ul, so the member holding it matches bit for bit)
  if (leaver_ul == max_member_ul_) {
    max_member_ul_ = -std::numeric_limits<double>::infinity();
    for (graph::NodeId m : tree_.unordered_members())
      max_member_ul_ = std::max(max_member_ul_, unicast_delay(m));
  }

  result.removed_nodes = tree_.prune_upward_from(s).removed;
  SCMP_ENSURES(tree_.validate(*g_));
  return result;
}

}  // namespace scmp::core

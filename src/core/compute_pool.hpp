// Parallel multicast-task engine for the m-router (paper §II-B: "Many tasks
// in the m-router, such as managing multicast group membership, generating
// multicast trees, scheduling, routing and transmission, are relatively
// independent, which can be performed in parallel. Thus, the m-router can
// adopt a multiprocessor or a cluster computer architecture").
//
// Per-group work (tree computation) is embarrassingly parallel: each group's
// DCDM tree depends only on that group's membership. The pool partitions the
// groups over a fixed set of worker threads; results are written into
// per-group slots, so the outcome is bit-identical to a serial run
// regardless of thread count or scheduling.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "core/dcdm.hpp"
#include "graph/graph.hpp"
#include "graph/paths.hpp"

namespace scmp::core {

using GroupId = int;

/// Membership snapshot for one group: the routers whose hosts subscribed,
/// in join order (DCDM is order-sensitive).
struct GroupMembership {
  GroupId group = -1;
  std::vector<graph::NodeId> join_order;
};

/// Builds the DCDM tree of each group into its own slot: slot i is rooted
/// at roots[i] and joins groups[i].join_order in order (an empty order
/// leaves the bare root). `pf` runs the per-group builds, serially when
/// empty; each build writes only its own slot, so the trees do not depend
/// on the executor. The graph's lazy CSR view is built on the calling
/// thread first, so the builds only ever read it.
std::vector<DcdmTree> build_group_trees(
    const graph::Graph& g, const graph::AllPairsPaths& paths,
    const std::vector<graph::NodeId>& roots,
    const std::vector<GroupMembership>& groups, const DcdmConfig& cfg,
    const graph::ParallelFor& pf);

/// Thread-safety: the pool is share-nothing by construction. Workers
/// receive disjoint index ranges and write only into caller-provided
/// per-index slots; the only cross-thread state is the read-only graph and
/// path database plus the caller's `fn`, which must itself be safe to
/// invoke concurrently on distinct indices. There is consequently no mutex
/// to annotate (util/thread_annotations.hpp policy); the `tsa` preset and
/// the compute_pool_race_test TSan stress pin this property.
class TreeComputePool {
 public:
  /// `threads` <= 0 selects an automatic thread count: the SCMP_THREADS
  /// environment variable when set to a positive integer (so CI runs are
  /// reproducible across runners with different core counts), otherwise the
  /// hardware concurrency (which may report 0 on some platforms — treated
  /// as 1). Results never depend on the choice, only wall-clock does.
  TreeComputePool(const graph::Graph& g, const graph::AllPairsPaths& paths,
                  int threads = 0);

  int thread_count() const { return threads_; }

  /// Builds the DCDM tree of every (non-empty) group concurrently with
  /// build_group_trees. Deterministic: the result for a group depends only
  /// on (root, cfg, join_order).
  std::map<GroupId, DcdmTree> build_trees(
      graph::NodeId root, const std::vector<GroupMembership>& groups,
      const DcdmConfig& cfg) const;

  /// Generic parallel-for over group indices with static partitioning
  /// (deterministic assignment of work to slots; used by build_trees and
  /// exposed for other per-group m-router tasks such as accounting rollups).
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& fn) const;

  /// Adapter exposing the pool as the graph layer's ParallelFor executor, so
  /// AllPairsPaths::rebuild / apply_link_event can run one Dijkstra source
  /// per task on the pool's workers. The returned closure references `this`;
  /// the pool must outlive it.
  graph::ParallelFor parallel_for() const {
    return [this](std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
      for_each_index(count, fn);
    };
  }

 private:
  const graph::Graph* g_;
  const graph::AllPairsPaths* paths_;
  int threads_;
};

}  // namespace scmp::core

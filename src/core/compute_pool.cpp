#include "core/compute_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/contracts.hpp"

namespace scmp::core {

namespace {

/// Automatic worker count for `threads <= 0`: the SCMP_THREADS environment
/// override when set to a positive integer, else the detected hardware
/// concurrency. hardware_concurrency() is allowed to return 0 ("not
/// computable"); that must degrade to a serial pool, not a zero-thread one.
int auto_thread_count() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once at pool construction,
  // before any worker exists; nothing writes the environment concurrently.
  if (const char* env = std::getenv("SCMP_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0 && parsed <= 1 << 16)
      return static_cast<int>(parsed);
  }
  // determinism: allow(thread count shapes work partitioning only; results
  // are bit-identical at any count — pinned by PoolDeterminism/
  // ParallelEqualsSerial and
  // ComputePoolRace.BitIdenticalDigestAcrossThreadCounts)
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

TreeComputePool::TreeComputePool(const graph::Graph& g,
                                 const graph::AllPairsPaths& paths,
                                 int threads)
    : g_(&g), paths_(&paths) {
  if (threads <= 0) threads = auto_thread_count();
  threads_ = std::max(threads, 1);
}

void TreeComputePool::for_each_index(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  if (count == 0) return;
  OBS_SPAN("pool.for_each");
  static obs::Counter& tasks = obs::counter("pool.tasks");
  tasks.inc(count);
  const auto workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads_), count);
  if (workers == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Static block partitioning: worker w handles [w*chunk, min((w+1)*chunk, n)).
  // Each index is touched by exactly one worker, so no synchronisation is
  // needed beyond the joins, and the result cannot depend on scheduling.
  const std::size_t chunk = (count + workers - 1) / workers;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = w * chunk;
    const std::size_t end = std::min(begin + chunk, count);
    if (begin >= end) break;
    pool.emplace_back([&fn, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    });
  }
  for (auto& t : pool) t.join();
}

std::vector<DcdmTree> build_group_trees(
    const graph::Graph& g, const graph::AllPairsPaths& paths,
    const std::vector<graph::NodeId>& roots,
    const std::vector<GroupMembership>& groups, const DcdmConfig& cfg,
    const graph::ParallelFor& pf) {
  SCMP_EXPECTS(roots.size() == groups.size());
  // Index-addressed slots: the builds never touch shared structures.
  std::vector<DcdmTree> slots;
  slots.reserve(groups.size());
  for (graph::NodeId root : roots) slots.emplace_back(g, paths, root, cfg);
  // Each join's validate() reads the CSR view: build it before any worker.
  g.csr();
  const auto build = [&](std::size_t i) {
    for (graph::NodeId member : groups[i].join_order) slots[i].join(member);
  };
  if (pf) {
    pf(groups.size(), build);
  } else {
    for (std::size_t i = 0; i < groups.size(); ++i) build(i);
  }
  return slots;
}

std::map<GroupId, DcdmTree> TreeComputePool::build_trees(
    graph::NodeId root, const std::vector<GroupMembership>& groups,
    const DcdmConfig& cfg) const {
  OBS_SPAN("pool.build_trees");
  SCMP_EXPECTS(g_->valid(root));
  for (const GroupMembership& gm : groups) {
    SCMP_EXPECTS(gm.group >= 0);
    SCMP_EXPECTS(!gm.join_order.empty());
    for (graph::NodeId member : gm.join_order) SCMP_EXPECTS(g_->valid(member));
  }

  std::vector<DcdmTree> slots = build_group_trees(
      *g_, *paths_, std::vector<graph::NodeId>(groups.size(), root), groups,
      cfg, parallel_for());
  std::map<GroupId, DcdmTree> out;
  for (std::size_t i = 0; i < groups.size(); ++i)
    out.emplace(groups[i].group, std::move(slots[i]));
  return out;
}

}  // namespace scmp::core

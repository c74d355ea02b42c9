// Differential test of the m-router's restructure CLEARs. A join whose graft
// loop-eliminates is installed as a minimal diff: a CLEAR to every router
// that fell off the tree, then one detach CLEAR per tree edge the join cut
// below a surviving router. Scmp::mrouter_handle_join derives them from
// DCDM's lost-edge report. The oracle here derives them from full before/
// after snapshots of the authoritative tree's child lists, and random
// join/leave sequences on Waxman and the 624-router transit-stub
// internetwork, at delay slack 1 and 2, must send the same CLEAR targets,
// detach lists and order.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/scmp.hpp"
#include "helpers.hpp"
#include "igmp/igmp.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "topo/transit_stub.hpp"
#include "util/rng.hpp"

namespace scmp::core {
namespace {

constexpr proto::GroupId kGroup = 1;
constexpr graph::NodeId kRoot = 0;

/// One CLEAR as the m-router sent it: target and detach list.
using Clear = std::pair<graph::NodeId, std::vector<graph::NodeId>>;

struct TreeSnapshot {
  std::vector<char> on;
  std::vector<std::vector<graph::NodeId>> children;
};

TreeSnapshot snapshot(const Scmp& scmp, int n) {
  TreeSnapshot s;
  s.on.assign(static_cast<std::size_t>(n), 0);
  s.children.resize(static_cast<std::size_t>(n));
  const DcdmTree* tree = scmp.group_tree(kGroup);
  if (tree == nullptr) return s;
  for (graph::NodeId v : tree->tree().on_tree_nodes()) {
    s.on[static_cast<std::size_t>(v)] = 1;
    s.children[static_cast<std::size_t>(v)] = tree->tree().children(v);
  }
  return s;
}

/// The snapshot diff: entry CLEARs to routers that left the tree, in
/// ascending id, then detach CLEARs for every child a surviving non-root
/// router lost, by router id and then by its old child-list order.
std::vector<Clear> expected_clears(const TreeSnapshot& before,
                                   const TreeSnapshot& after) {
  std::vector<Clear> out;
  const auto n = before.on.size();
  for (std::size_t v = 0; v < n; ++v) {
    if (before.on[v] && !after.on[v])
      out.push_back({static_cast<graph::NodeId>(v), {}});
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (static_cast<graph::NodeId>(v) == kRoot || !after.on[v]) continue;
    const auto& kids = after.children[v];
    for (graph::NodeId c : before.children[v]) {
      if (std::find(kids.begin(), kids.end(), c) == kids.end())
        out.push_back({static_cast<graph::NodeId>(v), {c}});
    }
  }
  return out;
}

/// Runs `steps` random joins and leaves and checks every join's CLEARs
/// against the oracle; returns how many joins sent any. A member leaves with
/// probability members/`capacity`, so membership churns around capacity/2:
/// loop elimination is most frequent on small trees.
int run_differential(const graph::Graph& graph, double slack,
                     std::uint64_t seed, int steps, std::size_t capacity) {
  graph::Graph g = graph;
  sim::EventQueue queue;
  sim::Network net(g, queue);
  igmp::IgmpDomain igmp(queue, g.num_nodes());
  Scmp::Config cfg;
  cfg.mrouter = kRoot;
  cfg.dcdm.delay_slack = slack;
  Scmp scmp(net, igmp, cfg);
  std::vector<Clear> sent;
  net.add_transmit_observer([&](graph::NodeId from, graph::NodeId,
                                const sim::Packet& pkt, sim::SimTime) {
    if (from == kRoot && pkt.type == sim::PacketType::kClear)
      sent.push_back({pkt.dst, pkt.path});
  });

  Rng rng(seed);
  std::set<graph::NodeId> members;
  int restructuring_joins = 0;
  for (int step = 0; step < steps; ++step) {
    const TreeSnapshot before = snapshot(scmp, g.num_nodes());
    sent.clear();
    const double leave_p =
        static_cast<double>(members.size()) / static_cast<double>(capacity);
    if (rng.uniform01() < leave_p) {
      auto it = members.begin();
      std::advance(it, rng.uniform_int(
                           0, static_cast<std::int64_t>(members.size()) - 1));
      const graph::NodeId m = *it;
      members.erase(it);
      scmp.host_leave(m, kGroup);
      queue.run_all();
      EXPECT_TRUE(sent.empty()) << "step " << step << " leave " << m;
      continue;
    }
    graph::NodeId m = graph::kInvalidNode;
    while (m == graph::kInvalidNode || members.contains(m))
      m = static_cast<graph::NodeId>(rng.uniform_int(1, g.num_nodes() - 1));
    members.insert(m);
    scmp.host_join(m, kGroup);
    queue.run_all();
    const std::vector<Clear> want =
        expected_clears(before, snapshot(scmp, g.num_nodes()));
    EXPECT_EQ(sent, want) << "step " << step << " join " << m;
    if (!want.empty()) ++restructuring_joins;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_TRUE(scmp.network_state_consistent(kGroup));
  return restructuring_joins;
}

graph::Graph transit_stub_624() {
  topo::TransitStubConfig cfg;
  cfg.transit_domains = 4;
  cfg.transit_nodes = 6;
  cfg.stub_domains_per_node = 5;
  cfg.stub_nodes = 5;
  Rng rng(7);
  return topo::transit_stub(cfg, rng).graph;
}

class RestructureClear : public ::testing::TestWithParam<double> {};

TEST_P(RestructureClear, MatchesSnapshotDiffOnWaxman) {
  int restructures = 0;
  for (std::uint64_t seed : {3u, 19u, 2006u}) {
    restructures += run_differential(test::random_topology(seed, 80).graph,
                                     GetParam(), seed + 1, 1500, 20);
  }
  EXPECT_GT(restructures, 0);
}

TEST_P(RestructureClear, MatchesSnapshotDiffOnTransitStub) {
  const graph::Graph g = transit_stub_624();
  EXPECT_GT(run_differential(g, GetParam(), 11, 3000, 20), 0);
}

INSTANTIATE_TEST_SUITE_P(Slack, RestructureClear, ::testing::Values(1.0, 2.0),
                         [](const auto& info) {
                           return "slack" +
                                  std::to_string(static_cast<int>(info.param));
                         });

}  // namespace
}  // namespace scmp::core

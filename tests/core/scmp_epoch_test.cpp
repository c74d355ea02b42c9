// Epoch-batched membership (Scmp::Config::epoch_interval) and the sharded
// service database: the batched pipeline must be *equivalent* to per-request
// processing — identical database membership and tree member sets at every
// quiescent point, full invariant catalog clean in both worlds — and its
// full distributed state must be bit-identical across database shard counts
// and compute-pool thread counts at any fixed interval. An epoch close
// replays each group's net delta through the per-request leave/join code:
// its trees match a model replay, it installs with BRANCH packets and
// restructure CLEARs only, and the installed state is consistent right
// after it without reconciliation, even when a restructure and other
// grafts share one close. Plus the join-leave-burst regressions: a
// JOIN immediately followed by a LEAVE of the same member must converge to
// the no-member fixpoint with no orphan installed state on either path
// (per-request, and net-resolved at the epoch close), a LEAVE followed by a
// rejoin within one epoch must reinstall the pruned path, a DR awaiting the
// close sends one JOIN however many interfaces join, and a lossy join
// storm must drain the retransmission table back to zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/scmp.hpp"
#include "helpers.hpp"
#include "igmp/igmp.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "topo/transit_stub.hpp"
#include "topo/workload.hpp"
#include "util/rng.hpp"
#include "verify/auditor.hpp"
#include "verify/snapshot.hpp"

namespace scmp::core {
namespace {

struct Fixture {
  explicit Fixture(const graph::Graph& graph, Scmp::Config cfg = {})
      : g(graph), net(g, queue), igmp(queue, g.num_nodes()) {
    cfg.mrouter = 0;
    scmp = std::make_unique<Scmp>(net, igmp, cfg);
  }

  void drain() { queue.run_all(); }

  graph::Graph g;
  sim::EventQueue queue;
  sim::Network net;
  igmp::IgmpDomain igmp;
  std::unique_ptr<Scmp> scmp;
};

Scmp::Config config(double epoch_interval, int db_shards = 8) {
  Scmp::Config cfg;
  cfg.epoch_interval = epoch_interval;
  cfg.db_shards = db_shards;
  return cfg;
}

/// A deterministic churn stream chunked into bursts: every burst is applied
/// without draining in between, so a batched world folds it into one epoch.
std::vector<std::vector<topo::MemberEvent>> bursts(int num_routers,
                                                   int num_events,
                                                   int burst_size) {
  topo::ZipfChurnConfig cfg;
  cfg.num_groups = 5;
  cfg.num_events = num_events;
  cfg.horizon = 10.0;
  cfg.leave_fraction = 0.4;
  Rng rng(42);
  const std::vector<topo::MemberEvent> events =
      topo::zipf_churn(cfg, num_routers, rng);
  std::vector<std::vector<topo::MemberEvent>> out;
  for (std::size_t i = 0; i < events.size();
       i += static_cast<std::size_t>(burst_size)) {
    out.emplace_back(
        events.begin() + static_cast<std::ptrdiff_t>(i),
        events.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(i + static_cast<std::size_t>(burst_size),
                         events.size())));
  }
  return out;
}

void apply_burst(Fixture& f, const std::vector<topo::MemberEvent>& burst) {
  for (const topo::MemberEvent& ev : burst) {
    if (ev.join)
      f.scmp->host_join(ev.router, ev.group, ev.iface, ev.host);
    else
      f.scmp->host_leave(ev.router, ev.group, ev.iface, ev.host);
  }
  f.drain();
}

std::vector<graph::NodeId> tree_members(const Scmp& scmp, GroupId group) {
  const DcdmTree* tree = scmp.group_tree(group);
  return tree == nullptr ? std::vector<graph::NodeId>{}
                         : tree->tree().members();
}

void expect_no_violations(const Scmp& scmp, const char* what) {
  const verify::InvariantAuditor auditor(scmp);
  for (const verify::Violation& v : auditor.audit())
    ADD_FAILURE() << what << ": " << v.invariant << ": " << v.detail;
}

// ---- equivalence property: batched vs sequential ---------------------------

TEST(ScmpEpoch, BatchedMatchesSequentialAtEveryQuiescentPoint) {
  const auto topo = test::random_topology(17, 30);
  for (const double interval : {0.25, 1.0, 5.0}) {
    Fixture batched(topo.graph, config(interval));
    Fixture sequential(topo.graph, config(0.0));
    int step = 0;
    for (const auto& burst : bursts(topo.graph.num_nodes(), 160, 7)) {
      apply_burst(batched, burst);
      apply_burst(sequential, burst);
      ++step;
      EXPECT_EQ(batched.scmp->epoch_pending(), 0u);
      std::set<GroupId> groups;
      for (GroupId g : batched.scmp->active_groups()) groups.insert(g);
      for (GroupId g : sequential.scmp->active_groups()) groups.insert(g);
      for (GroupId g : groups) {
        EXPECT_EQ(batched.scmp->database().members_of(g),
                  sequential.scmp->database().members_of(g))
            << "interval " << interval << " burst " << step << " group " << g;
        EXPECT_EQ(tree_members(*batched.scmp, g),
                  tree_members(*sequential.scmp, g))
            << "interval " << interval << " burst " << step << " group " << g;
      }
    }
    expect_no_violations(*batched.scmp, "batched");
    expect_no_violations(*sequential.scmp, "sequential");
  }
}

// ---- strict invariance: shards and pool threads are pure layout -----------

TEST(ScmpEpoch, SnapshotBitIdenticalAcrossShardAndThreadCounts) {
  const auto topo = test::random_topology(23, 30);
  const auto all_bursts = bursts(topo.graph.num_nodes(), 120, 9);
  constexpr double kInterval = 0.5;

  auto run = [&](int shards, int threads) {
    Fixture f(topo.graph, config(kInterval, shards));
    std::unique_ptr<TreeComputePool> pool;
    if (threads > 0) {
      pool = std::make_unique<TreeComputePool>(f.net.graph(),
                                               f.scmp->paths(), threads);
      f.scmp->set_compute_pool(pool.get());
    }
    for (std::size_t i = 0; i < all_bursts.size(); ++i) {
      apply_burst(f, all_bursts[i]);
      // Epoch closes never rebuild a tree; a failover midway rebuilds every
      // group, on the pool's workers when one is given.
      if (i == all_bursts.size() / 2) {
        f.scmp->fail_over_to(topo.graph.num_nodes() - 1, pool.get());
        f.drain();
      }
    }
    return verify::take_snapshot(*f.scmp);
  };

  const verify::ScmpSnapshot reference = run(1, 0);
  EXPECT_FALSE(reference.groups.empty());
  for (const int shards : {4, 16}) {
    EXPECT_TRUE(run(shards, 0) == reference) << "shards=" << shards;
  }
  EXPECT_TRUE(run(8, 2) == reference) << "pooled rebuilds diverged";
  EXPECT_TRUE(run(8, 4) == reference) << "pooled rebuilds diverged";
}

// ---- join-leave burst regressions -----------------------------------------

TEST(ScmpEpoch, JoinThenLeaveSameBurstConvergesToNoMemberFixpoint) {
  // Per-request path: the LEAVE chases the JOIN through the m-router, so the
  // tree is built and then torn down — no installed state may survive.
  Fixture f(test::line(5), config(0.0));
  f.scmp->host_join(3, 1);
  f.scmp->host_leave(3, 1);
  f.drain();
  EXPECT_TRUE(f.scmp->database().members_of(1).empty());
  EXPECT_TRUE(tree_members(*f.scmp, 1).empty());
  const verify::GroupSnapshot snap = verify::take_group_snapshot(*f.scmp, 1);
  EXPECT_TRUE(snap.entries.empty()) << "orphan installed state survived";
  expect_no_violations(*f.scmp, "per-request join+leave");
}

TEST(ScmpEpoch, JoinThenLeaveSameEpochNetResolvesToNoOp) {
  // Batched path: both requests land in one epoch; the close net-resolves
  // them (members wanted == members on tree == none) and must not emit any
  // install wave at all.
  Fixture f(test::line(5), config(0.5));
  f.scmp->host_join(3, 1);
  f.scmp->host_leave(3, 1);
  f.drain();
  EXPECT_EQ(f.scmp->epoch_pending(), 0u);
  EXPECT_TRUE(f.scmp->database().members_of(1).empty());
  EXPECT_TRUE(tree_members(*f.scmp, 1).empty());
  const verify::GroupSnapshot snap = verify::take_group_snapshot(*f.scmp, 1);
  EXPECT_TRUE(snap.entries.empty()) << "net no-op still installed state";
  expect_no_violations(*f.scmp, "batched join+leave");
}

TEST(ScmpEpoch, LeaveThenRejoinSameEpochReinstallsPrunedPath) {
  // The leaving DR prunes its installed path at once (§III-C), so a rejoin
  // inside the same epoch is a leave plus a join at the close, not a net
  // no-op: the path must be grafted and installed again.
  Fixture f(test::line(5), config(0.5));
  f.scmp->host_join(3, 1);
  f.drain();
  f.scmp->host_leave(3, 1);
  f.queue.run_until(f.queue.now() + 0.1);
  EXPECT_EQ(f.scmp->epoch_pending(), 1u);
  f.scmp->host_join(3, 1);
  f.drain();
  EXPECT_EQ(tree_members(*f.scmp, 1), (std::vector<graph::NodeId>{3}));
  EXPECT_TRUE(f.scmp->network_state_consistent(1));
  expect_no_violations(*f.scmp, "leave then rejoin in one epoch");
}

TEST(ScmpEpoch, FurtherInterfaceSendsNoJoinWhileInstallAwaitsClose) {
  // A DR whose JOIN waits for the epoch close holds no entry yet; a second
  // member interface adds nothing the m-router needs, so it sends no second
  // JOIN, and the close's BRANCH marks both interfaces.
  Fixture f(test::line(5), config(0.5));
  int joins_from_dr = 0;
  f.net.add_transmit_observer([&](graph::NodeId from, graph::NodeId,
                                  const sim::Packet& p, sim::SimTime) {
    if (p.type == sim::PacketType::kJoin && from == 3) ++joins_from_dr;
  });
  f.scmp->host_join(3, 1, /*iface=*/0);
  f.queue.run_until(f.queue.now() + 0.1);
  f.scmp->host_join(3, 1, /*iface=*/1);
  f.drain();
  EXPECT_EQ(joins_from_dr, 1);
  const Scmp::Entry* e = f.scmp->entry_at(3, 1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->downstream_ifaces, (std::set<int>{0, 1}));
  EXPECT_TRUE(f.scmp->network_state_consistent(1));
  expect_no_violations(*f.scmp, "second interface before the close");
}

// ---- the close installs exactly the replayed delta ------------------------

TEST(ScmpEpoch, CloseInstallsOnlyTheNetDeltaOnTransitStub) {
  // Zero loss and no reconciliation on the 624-router internetwork: every
  // burst lands in one epoch, and once its close drains, each group's
  // installed state must already match its tree. A model replays each
  // group's net delta on a copy of its pre-close tree — joined relays, then
  // the members the database dropped or whose LEAVE went out, then the
  // missing members in JOIN arrival order — and must reach the same tree.
  // The close may send no TREE packet, and no more CLEARs than the model's
  // restructuring joins would (none when no join restructures).
  topo::TransitStubConfig tcfg;
  tcfg.transit_domains = 4;
  tcfg.transit_nodes = 6;
  tcfg.stub_domains_per_node = 5;
  tcfg.stub_nodes = 5;
  Rng trng(7);
  const topo::Topology topo = topo::transit_stub(tcfg, trng);
  Fixture f(topo.graph, config(0.5));

  std::uint64_t trees = 0;
  std::uint64_t clears = 0;
  std::map<GroupId, std::set<graph::NodeId>> left;  // LEAVEs of this burst
  std::map<GroupId, std::vector<graph::NodeId>> joined;  // JOIN arrivals
  f.net.add_transmit_observer([&](graph::NodeId from, graph::NodeId to,
                                  const sim::Packet& p, sim::SimTime) {
    if (p.type == sim::PacketType::kTree) ++trees;
    // Unicast packets are counted once, at their first or last hop.
    if (from == p.src && p.type == sim::PacketType::kClear) ++clears;
    if (from == p.src && p.type == sim::PacketType::kLeave)
      left[p.group].insert(p.src);
    if (to == p.dst && p.type == sim::PacketType::kJoin)
      joined[p.group].push_back(p.src);
  });

  int restructures = 0;
  for (const auto& burst : bursts(topo.graph.num_nodes(), 600, 12)) {
    std::map<GroupId, DcdmTree> model;
    for (GroupId g : f.scmp->active_groups())
      model.emplace(g, *f.scmp->group_tree(g));
    left.clear();
    joined.clear();
    clears = 0;
    // The m-router's own hosts join at once, before any JOIN arrives.
    for (const topo::MemberEvent& ev : burst)
      if (ev.join && ev.router == f.scmp->mrouter_of(ev.group))
        joined[ev.group].push_back(ev.router);
    apply_burst(f, burst);
    std::uint64_t restructure_clears = 0;
    for (GroupId g : f.scmp->active_groups()) {
      const graph::NodeId root = f.scmp->mrouter_of(g);
      DcdmTree& tree =
          model.try_emplace(g, f.net.graph(), f.scmp->paths(), root)
              .first->second;
      const std::set<graph::NodeId>& want =
          f.scmp->database().members_of(g);
      const std::vector<graph::NodeId> members = tree.tree().members();
      for (graph::NodeId m : want)
        if (!tree.tree().is_member(m) && tree.tree().on_tree(m)) tree.join(m);
      for (graph::NodeId m : members)
        if (!want.contains(m) || left[g].contains(m)) tree.leave(m);
      for (graph::NodeId m : joined[g]) {
        if (!want.contains(m) || tree.tree().is_member(m)) continue;
        const JoinResult res = tree.join(m);
        if (!res.restructured) continue;
        ++restructures;
        restructure_clears += res.removed_nodes.size();
        restructure_clears += static_cast<std::uint64_t>(std::count_if(
            res.lost_edges.begin(), res.lost_edges.end(),
            [root](const auto& edge) { return edge.first != root; }));
      }
      EXPECT_EQ(tree.tree().edges(), f.scmp->group_tree(g)->tree().edges())
          << "group " << g;
      EXPECT_TRUE(f.scmp->network_state_consistent(g)) << "group " << g;
    }
    EXPECT_LE(clears, restructure_clears);
  }
  EXPECT_GT(restructures, 0) << "no restructuring join: the CLEAR bound is "
                                "inert";
  EXPECT_EQ(trees, 0u);
  expect_no_violations(*f.scmp, "delta closes on transit-stub");
}

TEST(ScmpEpoch, RuntimeIntervalChangeTakesEffect) {
  Fixture f(test::line(6), config(0.0));
  f.scmp->host_join(3, 1);
  f.drain();
  EXPECT_EQ(tree_members(*f.scmp, 1), (std::vector<graph::NodeId>{3}));

  f.scmp->set_epoch_interval(100.0);
  f.scmp->host_join(4, 1);
  // Run far enough for the JOIN to reach the m-router but short of the
  // epoch close: the request must sit deferred, not on the tree yet.
  f.queue.run_until(f.queue.now() + 50.0);
  EXPECT_EQ(f.scmp->epoch_pending(), 1u);
  EXPECT_EQ(tree_members(*f.scmp, 1), (std::vector<graph::NodeId>{3}));
  f.drain();  // runs the epoch close
  EXPECT_EQ(f.scmp->epoch_pending(), 0u);
  EXPECT_EQ(tree_members(*f.scmp, 1), (std::vector<graph::NodeId>{3, 4}));
  expect_no_violations(*f.scmp, "runtime interval change");
}

// ---- retransmission-table high-water mark under a lossy join storm --------

TEST(ScmpEpoch, RetxTableDrainsToZeroAfterLossyJoinStorm) {
  Rng trng(5);
  const auto topo = topo::waxman_with_degree(40, 3.0, trng);
  Scmp::Config cfg = config(0.0);
  cfg.reliability.enabled = true;
  Fixture f(topo.graph, cfg);

  // Seeded coin drops 30% of control packets at egress; retransmission and
  // the reconciliation sweep must repair everything the storm lost.
  auto loss_rng = std::make_shared<Rng>(99);
  f.net.set_drop_filter(
      [loss_rng](graph::NodeId, graph::NodeId, const sim::Packet&) {
        return loss_rng->chance(0.3);
      });

  for (graph::NodeId r = 1; r <= 30; ++r)
    f.scmp->host_join(r, /*group=*/1, /*iface=*/0, /*host=*/0);
  f.drain();
  EXPECT_GT(f.scmp->retx().pending_hwm(), 0u)
      << "storm never grew the table — the regression guard is inert";

  for (int pass = 0; pass < 64; ++pass) {
    const int repairs = f.scmp->reconcile_all();
    f.drain();
    if (repairs == 0) break;
  }
  EXPECT_EQ(f.scmp->retx().pending_count(), 0u)
      << "pending retransmissions leaked past reconciliation";
  EXPECT_TRUE(f.scmp->network_state_consistent(1));
  expect_no_violations(*f.scmp, "lossy join storm");
}

}  // namespace
}  // namespace scmp::core

// membench — the end-to-end benchmark of SCMP's membership pipeline: what a
// JOIN/LEAVE costs from arrival through DCDM to installed state, on the
// 624-router transit-stub internetwork, with a per-layer ledger.
//
//   membench --workload <flash_crowd|zipf_epoch_lossy|steady_data>
//            --seed <n> --seconds <s> --trace <0|1>
//
// Every run makes one *verification pass* and then as many *timed passes* as
// fit in --seconds. Each pass builds a fresh world from the seed (that is the
// set-up, timed as setup_s) and replays the same generated input.
//
//   verification pass  metrics and the flight recorder on, audits at the
//                      workload's quiescent points and at the end; yields the
//                      deterministic sim-time metrics (join latency, control
//                      packets, tree quality, data overhead) and failed_frac.
//   timed pass         metrics and tracing off, no observers: the replay is
//                      driven by EventQueue::run_until in fixed sim-time
//                      slices, giving replay_s and stall_ms_p99. With
//                      --trace 1, traced passes (spans + metrics on) alternate
//                      with untraced ones and give the per-layer ledger.
//
// Every pass must reproduce the verification pass's network statistics bit
// for bit, and traced passes must agree on every registry count; any
// difference, invariant violation or dropped span fails the run.
//
// Output: a ledger line (all deterministic values, sample counts) and, last,
// the result line {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/mrouter_node.hpp"
#include "core/scmp.hpp"
#include "igmp/igmp.hpp"
#include "ledger.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "topo/transit_stub.hpp"
#include "topo/workload.hpp"
#include "util/rng.hpp"
#include "verify/auditor.hpp"

namespace {

using namespace scmp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads: fixed shapes, inputs drawn from the seed.
// ---------------------------------------------------------------------------

enum class Workload { kFlashCrowd, kZipfEpochLossy, kSteadyData };

constexpr int kSlices = 1200;      ///< run_until slices per replay
constexpr int kCheckpoints = 20;   ///< tree-quality / probe instants
constexpr std::uint64_t kTopologySeed = 7;
/// Network delay scale: link delays are topology units times this (the
/// Network default), so tree delays convert to seconds the same way.
constexpr double kDelayScale = 1e-6;

// flash_crowd: 10k joins on 20 hot groups in a 5 s window, mirrored leaves.
constexpr int kFlashGroups = 20;
constexpr int kFlashCrowd = 10000;

// zipf_epoch_lossy: Zipf churn over 500 groups, replayed in rounds of
// kZipfActive seconds of churn followed by kZipfGap quiet seconds, so every
// round ends at a quiescent instant the auditor can check.
constexpr int kZipfGroups = 500;
constexpr int kZipfEvents = 6000;
constexpr int kZipfRounds = 10;
constexpr double kZipfActive = 2.0;
constexpr double kZipfGap = 3.0;
constexpr double kZipfEpoch = 0.5;
constexpr double kZipfLoss = 0.02;
constexpr double kReconcileInterval = 1.0;

// steady_data: 200 Zipf groups built before timing, then a data phase with
// two sources per group (one member, one off-tree) and light churn.
constexpr int kSteadyGroups = 200;
constexpr int kSteadyWarmJoins = 2000;
constexpr int kSteadyChurn = 2500;
constexpr double kSteadyStart = 2.0;    ///< data phase begins
constexpr double kSteadyPhase = 4.0;    ///< data phase length
constexpr double kSteadyPeriod = 0.05;  ///< per-source send interval
constexpr int kFabricPorts = 512;
constexpr double kFabricStageSeconds = 1e-6;

struct DataSend {
  double time = 0.0;
  int group = 0;
  bool member_source = true;  ///< else the group's off-tree source
};

struct Input {
  std::vector<topo::MemberEvent> warm;    ///< applied during set-up
  std::vector<topo::MemberEvent> events;  ///< the replayed membership input
  std::vector<DataSend> data;             ///< steady_data source sends
  std::vector<double> checkpoints;
  std::vector<int> probe_offsets;    ///< per checkpoint: probe source draw
  std::vector<int> source_offsets;   ///< per group: off-tree source draw
  std::vector<double> audit_times;   ///< quiescent instants inside the replay
  double start = 0.0;
  double end = 0.0;  ///< last slice boundary; the queue is drained after it
};

topo::Topology make_topology() {
  // 4 transit domains x 6 routers, 5 stub domains of 5 routers per transit
  // node: the 624-router internetwork of bench/macro_membership.
  topo::TransitStubConfig cfg;
  cfg.transit_domains = 4;
  cfg.transit_nodes = 6;
  cfg.stub_domains_per_node = 5;
  cfg.stub_nodes = 5;
  Rng rng(kTopologySeed);
  return topo::transit_stub(cfg, rng);
}

void add_checkpoints(Input& in, Rng& rng, int n) {
  for (int k = 0; k < kCheckpoints; ++k) {
    in.checkpoints.push_back(in.start + (in.end - in.start) * (k + 0.5) /
                                            kCheckpoints);
    in.probe_offsets.push_back(static_cast<int>(rng.uniform_int(0, n - 1)));
  }
}

Input make_input(Workload w, std::uint64_t seed, int n) {
  Input in;
  Rng rng(seed);
  switch (w) {
    case Workload::kFlashCrowd: {
      topo::FlashCrowdConfig cfg;
      cfg.num_groups = kFlashGroups;
      cfg.crowd = kFlashCrowd;
      cfg.depart = true;
      in.events = topo::flash_crowd(cfg, n, rng);
      in.start = 0.0;
      in.end = cfg.start + 2.0 * cfg.window + 1.0;
      break;
    }
    case Workload::kZipfEpochLossy: {
      topo::ZipfChurnConfig cfg;
      cfg.num_groups = kZipfGroups;
      cfg.num_events = kZipfEvents;
      cfg.horizon = kZipfActive * kZipfRounds;
      in.events = topo::zipf_churn(cfg, n, rng);
      // Stretch the churn into rounds: round k's slice of the horizon plays
      // in [k*(A+G), k*(A+G)+A), then the domain gets G quiet seconds. The
      // map is monotone, so every leave still follows its join.
      for (topo::MemberEvent& ev : in.events) {
        const double round = std::min<double>(
            kZipfRounds - 1, std::floor(ev.time / kZipfActive));
        ev.time += round * kZipfGap;
      }
      const double period = kZipfActive + kZipfGap;
      // Audit just before the next round, clear of the reconciliation tick
      // on the round boundary.
      for (int k = 1; k < kZipfRounds; ++k)
        in.audit_times.push_back(k * period - 0.25);
      in.start = 0.0;
      in.end = kZipfRounds * period - 0.25;
      break;
    }
    case Workload::kSteadyData: {
      topo::ZipfChurnConfig warm;
      warm.num_groups = kSteadyGroups;
      warm.num_events = kSteadyWarmJoins;
      warm.horizon = 1.0;
      warm.leave_fraction = 0.0;
      in.warm = topo::zipf_churn(warm, n, rng);
      topo::ZipfChurnConfig churn;
      churn.num_groups = kSteadyGroups;
      churn.num_events = kSteadyChurn;
      churn.start = kSteadyStart;
      churn.horizon = kSteadyStart + kSteadyPhase;
      in.events = topo::zipf_churn(churn, n, rng);
      // Churn hosts get their own (iface, host) ids, past the warm ones.
      for (topo::MemberEvent& ev : in.events) {
        ev.iface += kSteadyWarmJoins;
        ev.host += kSteadyWarmJoins;
      }
      for (int g = 0; g < kSteadyGroups; ++g) {
        in.source_offsets.push_back(
            static_cast<int>(rng.uniform_int(0, n - 1)));
        for (int s = 0; s < 2; ++s) {
          const double phase = rng.uniform_real(0.0, kSteadyPeriod);
          for (double t = kSteadyStart + phase;
               t < kSteadyStart + kSteadyPhase; t += kSteadyPeriod)
            in.data.push_back(DataSend{t, g, s == 0});
        }
      }
      in.start = kSteadyStart;
      in.end = kSteadyStart + kSteadyPhase + 0.5;
      break;
    }
  }
  add_checkpoints(in, rng, n);
  return in;
}

// ---------------------------------------------------------------------------
// One world: the network, IGMP and the m-router for one pass.
// ---------------------------------------------------------------------------

struct World {
  explicit World(const topo::Topology& topo)
      : net(topo.graph, queue, /*bandwidth_bps=*/1e9, kDelayScale),
        igmp(queue, topo.graph.num_nodes()) {}

  sim::EventQueue queue;
  sim::Network net;
  igmp::IgmpDomain igmp;
  std::unique_ptr<core::MRouterNode> node;  ///< steady_data's m-router
  std::unique_ptr<core::Scmp> own;          ///< the other workloads'
  core::Scmp* scmp = nullptr;
  Rng loss_rng{0};
  /// steady_data: per group, the member source and the off-tree source.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> sources;
};

bool is_control(sim::PacketType t) {
  switch (t) {
    case sim::PacketType::kJoin:
    case sim::PacketType::kLeave:
    case sim::PacketType::kTree:
    case sim::PacketType::kBranch:
    case sim::PacketType::kPrune:
    case sim::PacketType::kClear:
    case sim::PacketType::kAck:
      return true;
    default:
      return false;
  }
}

/// A pass's world plus its input; building it is the timed set-up.
struct Prepared {
  Input input;
  std::unique_ptr<World> world;
  double setup_s = 0.0;
  double paths_build_s = 0.0;  ///< traced passes: paths.rebuild span time
  std::uint64_t sources_recomputed = 0;
};

void apply_member_event(core::Scmp& scmp, const topo::MemberEvent& ev) {
  if (ev.join)
    scmp.host_join(ev.router, ev.group, ev.iface, ev.host);
  else
    scmp.host_leave(ev.router, ev.group, ev.iface, ev.host);
}

/// Topology, input generation, m-router construction (path database) and,
/// for steady_data, the warm membership and source choice.
Prepared prepare(Workload w, std::uint64_t seed) {
  Prepared p;
  const auto t0 = Clock::now();
  const topo::Topology topo = make_topology();
  const int n = topo.graph.num_nodes();
  p.input = make_input(w, seed, n);
  p.world = std::make_unique<World>(topo);
  World& wd = *p.world;

  core::Scmp::Config cfg;
  cfg.mrouter = 0;
  if (w == Workload::kZipfEpochLossy) {
    cfg.epoch_interval = kZipfEpoch;
    cfg.reliability.enabled = true;
    cfg.reliability.timeout = 0.1;
  }
  if (w == Workload::kSteadyData) {
    wd.node = std::make_unique<core::MRouterNode>(wd.net, wd.igmp, cfg,
                                                  kFabricPorts, /*threads=*/1);
    wd.scmp = &wd.node->protocol();
  } else {
    wd.own = std::make_unique<core::Scmp>(wd.net, wd.igmp, cfg);
    wd.scmp = wd.own.get();
  }

  if (w == Workload::kZipfEpochLossy) {
    wd.loss_rng = Rng(seed ^ 0x9e3779b97f4a7c15ULL);
    World* wp = &wd;
    wd.net.set_drop_filter(
        [wp](graph::NodeId, graph::NodeId, const sim::Packet& pkt) {
          return is_control(pkt.type) && wp->loss_rng.chance(kZipfLoss);
        });
    wd.scmp->start_reconciliation(kReconcileInterval, p.input.end);
  }

  if (w == Workload::kSteadyData) {
    core::Scmp& scmp = *wd.scmp;
    for (const topo::MemberEvent& ev : p.input.warm)
      wd.queue.schedule_at(ev.time, [&scmp, ev] { apply_member_event(scmp, ev); });
    wd.queue.run_all();
    // Sources: the group's first warm member, and the first router at or
    // after a seeded offset that is neither a member nor on the tree.
    for (int g = 0; g < kSteadyGroups; ++g) {
      const auto& members = scmp.database().members_of(g);
      const graph::NodeId member =
          members.empty() ? scmp.mrouter_of(g) : *members.begin();
      graph::NodeId off = graph::kInvalidNode;
      for (int i = 0; i < n && off == graph::kInvalidNode; ++i) {
        const graph::NodeId r = (p.input.source_offsets[g] + i) % n;
        if (r != scmp.mrouter_of(g) && !wd.igmp.router_is_member(r, g) &&
            scmp.entry_at(r, g) == nullptr)
          off = r;
      }
      wd.sources.emplace_back(member, off);
    }
    wd.node->enable_fabric_transit(kFabricStageSeconds);
  }
  p.setup_s = seconds_since(t0);
  return p;
}

// ---------------------------------------------------------------------------
// The verification probe: read-only hooks on the verification pass.
// ---------------------------------------------------------------------------

struct Verdict {
  membench::FailureTally tally;
  std::uint64_t hard_violations = 0;  ///< fail the run (exit 1)
  std::vector<double> join_latency_ms;
  double tree_cost_per_member = 0.0;
  double tree_delay_ms = 0.0;
  double data_overhead_per_delivery = 0.0;
  double data_delay_max_ms = 0.0;
  std::uint64_t ctrl_pkts = 0;
  std::uint64_t ctrl_bytes = 0;
  std::uint64_t clears_sent = 0;
  std::uint64_t clears_useful = 0;
  std::uint64_t member_additions = 0;  ///< members the trees gained
  std::vector<double> audit_s;
  std::uint64_t flight_dropped = 0;
  std::vector<std::string> violation_samples;
};

class Probe {
 public:
  explicit Probe(World& w) : w_(&w) {
    obs::flight().clear();
    for (core::GroupId g : w.scmp->active_groups())  // steady_data's warm trees
      members_[g] = w.scmp->group_tree(g)->tree().members();
    auditor_ = std::make_unique<verify::InvariantAuditor>(
        *w.scmp, w.node != nullptr ? &w.node->fabric() : nullptr);
    w.net.add_transmit_observer([this](graph::NodeId from, graph::NodeId,
                                       const sim::Packet& pkt, sim::SimTime) {
      // One count per CLEAR the m-router originates (not per hop, not per
      // retransmission); useful when the target still holds state.
      if (pkt.type != sim::PacketType::kClear || from != pkt.src) return;
      if (pkt.req != 0 && !clear_reqs_.insert(pkt.req).second) return;
      ++v_.clears_sent;
      if (w_->scmp->entry_at(pkt.dst, pkt.group) != nullptr) ++v_.clears_useful;
    });
  }

  void before_join(const topo::MemberEvent& ev) {
    drain_flight();
    const core::Scmp& s = *w_->scmp;
    // Only membership transitions that need an install are timed: the
    // router is not yet a member, is not the anchor, and holds no state.
    if (w_->igmp.router_is_member(ev.router, ev.group)) return;
    if (ev.router == s.mrouter_of(ev.group)) return;
    if (s.entry_at(ev.router, ev.group) != nullptr) return;
    pending_[{ev.router, ev.group}] = w_->queue.now();
  }

  void after_leave(const topo::MemberEvent& ev) {
    drain_flight();
    if (!w_->igmp.router_is_member(ev.router, ev.group))
      pending_.erase({ev.router, ev.group});  // no longer wanted
  }

  void slice_end() {
    drain_flight();
    // Members the authoritative trees gained since the last slice: the
    // useful outcome a DCDM join can have.
    for (core::GroupId g : w_->scmp->active_groups()) {
      const std::vector<graph::NodeId> now =
          w_->scmp->group_tree(g)->tree().members();
      std::vector<graph::NodeId>& before = members_[g];
      std::vector<graph::NodeId> added;
      std::set_difference(now.begin(), now.end(), before.begin(), before.end(),
                          std::back_inserter(added));
      v_.member_additions += added.size();
      before = now;
    }
  }

  void checkpoint() {
    const core::Scmp& s = *w_->scmp;
    const graph::Graph& g = w_->net.graph();
    double cost = 0.0, delay = 0.0;
    std::size_t members = 0, groups = 0;
    for (core::GroupId grp : s.active_groups()) {
      const core::DcdmTree* t = s.group_tree(grp);
      const std::size_t m = t->tree().members().size();
      if (m == 0) continue;
      cost += t->tree().tree_cost(g);
      delay += t->tree().tree_delay(g);
      members += m;
      ++groups;
    }
    if (groups == 0) return;
    cost_samples_.push_back(cost / static_cast<double>(members));
    delay_samples_.push_back(1e3 * kDelayScale * delay /
                             static_cast<double>(groups));
  }

  /// Audits the domain. Installed i-router state is soft state: until the
  /// run's closing reconciliation pass, a group whose installed state lags
  /// its tree is a failed operation (counted, reported), not a broken run.
  /// The m-router's own state must be right at every audit, and after the
  /// closing reconciliation (`reconciled`) everything must be.
  void audit(bool reconciled) {
    const auto t0 = Clock::now();
    const std::vector<verify::Violation> found = auditor_->audit();
    v_.audit_s.push_back(seconds_since(t0));
    for (const verify::Violation& v : found) {
      const bool soft = v.invariant == verify::kForwardingSymmetry ||
                        v.invariant == verify::kNoOrphanState;
      fail(v_.tally.violations, !soft || reconciled,
           v.invariant + ": " + v.detail);
    }
    const core::Scmp& s = *w_->scmp;
    for (core::GroupId g : s.active_groups()) {
      const std::vector<graph::NodeId> tree = s.group_tree(g)->tree().members();
      const auto& db = s.database().members_of(g);
      if (!std::equal(tree.begin(), tree.end(), db.begin(), db.end()))
        fail(v_.tally.violations, true,
             "member-set: group " + std::to_string(g) +
                 " DCDM members differ from the database");
      if (!s.network_state_consistent(g))
        fail(v_.tally.timeouts, reconciled,
             "not-converged: group " + std::to_string(g));
    }
  }

  /// The input is over and the domain quiet, before the closing
  /// reconciliation: audit, and fail every join still wanted but never
  /// installed.
  void end_of_input() {
    drain_flight();
    audit(/*reconciled=*/false);
    for (const auto& [key, t0] : pending_) {
      if (w_->igmp.router_is_member(key.first, key.second))
        fail(v_.tally.never_installed, false,
             "never-installed: router " + std::to_string(key.first) +
                 " group " + std::to_string(key.second));
    }
    pending_.clear();
  }

  Verdict finish(std::uint64_t attempted) {
    audit(/*reconciled=*/true);
    v_.tally.attempted = attempted;
    v_.tree_cost_per_member = mean(cost_samples_);
    v_.tree_delay_ms = mean(delay_samples_);
    const sim::NetStats& st = w_->net.stats();
    v_.data_overhead_per_delivery = membench::ratio(
        st.data_overhead, static_cast<double>(st.deliveries));
    v_.data_delay_max_ms = 1e3 * st.max_end_to_end_delay;
    for (const char* type :
         {"JOIN", "LEAVE", "TREE", "BRANCH", "PRUNE", "CLEAR", "ACK"}) {
      v_.ctrl_pkts += obs::counter("net.tx.packets", type).value();
      v_.ctrl_bytes += obs::counter("net.tx.bytes", type).value();
    }
    v_.flight_dropped = obs::flight().dropped() + flight_dropped_;
    return std::move(v_);
  }

 private:
  static double mean(const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return membench::ratio(sum, static_cast<double>(v.size()));
  }

  /// Counts one failure into `tally_field`; `hard` ones also fail the run.
  void fail(std::uint64_t& tally_field, bool hard, std::string what) {
    ++tally_field;
    if (hard) ++v_.hard_violations;
    if (v_.violation_samples.size() < 8)
      v_.violation_samples.push_back((hard ? "" : "failed: ") + what);
  }

  /// Resolves pending joins against the "installed" flight records the
  /// i-routers emitted since the last drain.
  void drain_flight() {
    obs::FlightRecorder& fr = obs::flight();
    const std::vector<obs::FlightRecord> recs = fr.snapshot();
    flight_dropped_ += fr.dropped();
    fr.clear();
    for (const obs::FlightRecord& r : recs) {
      if (r.kind != obs::FlightEventKind::kInstalled) continue;
      const auto it = pending_.find({r.to, r.group});
      if (it == pending_.end() || r.t < it->second) continue;
      v_.join_latency_ms.push_back(1e3 * (r.t - it->second));
      pending_.erase(it);
    }
  }

  World* w_;
  std::unique_ptr<verify::InvariantAuditor> auditor_;
  std::map<std::pair<graph::NodeId, int>, double> pending_;
  std::map<core::GroupId, std::vector<graph::NodeId>> members_;
  std::set<std::uint64_t> clear_reqs_;
  std::vector<double> cost_samples_, delay_samples_;
  std::uint64_t flight_dropped_ = 0;
  Verdict v_;
};

// ---------------------------------------------------------------------------
// Replay.
// ---------------------------------------------------------------------------

/// Schedules the pass's input. `probe` is null on timed passes.
void schedule_input(Workload w, Prepared& p, Probe* probe) {
  World& wd = *p.world;
  core::Scmp* scmp = wd.scmp;
  for (const topo::MemberEvent& ev : p.input.events) {
    wd.queue.schedule_at(ev.time, [scmp, probe, ev] {
      if (probe != nullptr && ev.join) probe->before_join(ev);
      apply_member_event(*scmp, ev);
      if (probe != nullptr && !ev.join) probe->after_leave(ev);
    });
  }
  if (w == Workload::kSteadyData) {
    World* wp = &wd;
    for (const DataSend& d : p.input.data) {
      wd.queue.schedule_at(d.time, [wp, d] {
        const auto& src = wp->sources[static_cast<std::size_t>(d.group)];
        wp->scmp->send_data(d.member_source ? src.first : src.second, d.group);
      });
    }
  }
  // Every replay closes with one soft-state reconciliation pass once the
  // input is over, then drains: SCMP's own repair for installed state that
  // racing installs left behind.
  wd.queue.schedule_at(p.input.end + 1e-3, [scmp] { scmp->reconcile_all(); });
  const int n = wd.net.graph().num_nodes();
  World* wp = &wd;
  for (std::size_t k = 0; k < p.input.checkpoints.size(); ++k) {
    const int offset = p.input.probe_offsets[k];
    wd.queue.schedule_at(p.input.checkpoints[k], [wp, w, probe, offset, n] {
      if (probe != nullptr) probe->checkpoint();
      if (w == Workload::kSteadyData) {
        wp->node->sync_fabric();
        return;
      }
      // One probe packet per group with members, so the data-plane metrics
      // are measured on every workload's live trees.
      for (core::GroupId g : wp->scmp->active_groups()) {
        if (wp->scmp->database().members_of(g).empty()) continue;
        wp->scmp->send_data((offset + 37 * g) % n, g);
      }
    });
  }
}

struct Timing {
  double replay_s = 0.0;
  std::vector<double> slice_ms;
};

/// Runs the scheduled input to the end of the window in kSlices fixed
/// sim-time slices, then drains the queue (the drain is the last slice).
/// The probe, when present, audits at the workload's quiescent instants.
Timing replay(Prepared& p, Probe* probe) {
  Timing t;
  t.slice_ms.reserve(kSlices + 1);
  sim::EventQueue& q = p.world->queue;
  const Input& in = p.input;
  std::size_t next_audit = 0;
  const auto t_all = Clock::now();
  for (int i = 1; i <= kSlices + 1; ++i) {
    const double until =
        in.start + (in.end - in.start) * static_cast<double>(i) / kSlices;
    if (i > kSlices && probe != nullptr) probe->end_of_input();
    const auto t0 = Clock::now();
    if (i <= kSlices)
      q.run_until(until);
    else
      q.run_all();
    t.slice_ms.push_back(1e3 * seconds_since(t0));
    if (probe == nullptr) continue;
    probe->slice_end();
    // Audit at the first slice boundary at or after each audit instant.
    while (next_audit < in.audit_times.size() &&
           in.audit_times[next_audit] <= q.now()) {
      probe->audit(/*reconciled=*/false);
      ++next_audit;
    }
  }
  t.replay_s = seconds_since(t_all);
  return t;
}

/// The network-level outcome of a pass; every pass must reproduce it.
struct Fingerprint {
  std::uint64_t deliveries = 0, data_crossings = 0, ctrl_crossings = 0,
                queue_drops = 0, injected_drops = 0;
  double data_overhead = 0.0, protocol_overhead = 0.0, max_delay = 0.0,
         end_time = 0.0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const World& w) {
  const sim::NetStats& s = w.net.stats();
  Fingerprint f;
  f.deliveries = s.deliveries;
  f.data_crossings = s.data_link_crossings;
  f.ctrl_crossings = s.protocol_link_crossings;
  f.queue_drops = s.queue_drops;
  f.injected_drops = s.injected_drops;
  f.data_overhead = s.data_overhead;
  f.protocol_overhead = s.protocol_overhead;
  f.max_delay = s.max_end_to_end_delay;
  f.end_time = w.queue.now();
  return f;
}

// ---------------------------------------------------------------------------
// Traced passes: registry counts and span self times.
// ---------------------------------------------------------------------------

/// The --trace 1 output, in order (BENCHMARK.json's per_layer list).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"paths.build_s", "s"},
    {"paths.sources_recomputed", "count"},
    {"dcdm.joins", "count"},
    {"dcdm.leaves", "count"},
    {"dcdm.candidates", "count"},
    {"dcdm.restructures", "count"},
    {"scmp.joins", "count"},
    {"scmp.leaves", "count"},
    {"scmp.epoch.flushes", "count"},
    {"scmp.epoch.recomputes", "count"},
    {"scmp.epoch.coalesced", "count"},
    {"dcdm.candidates_per_join", "ratio"},
    {"dcdm.joins_per_event", "ratio"},
    {"scmp.epoch.useful_ratio", "ratio"},
    {"dcdm.self_s", "s"},
    {"scmp.join.self_s", "s"},
    {"scmp.flush.self_s", "s"},
    {"install.self_s", "s"},
    {"reconcile.self_s", "s"},
    {"fabric.configure_s", "s"},
    {"sim.self_s", "s"},
    {"install.pkts.TREE", "count"},
    {"install.bytes.TREE", "bytes"},
    {"install.pkts.BRANCH", "count"},
    {"install.bytes.BRANCH", "bytes"},
    {"install.pkts.PRUNE", "count"},
    {"install.bytes.PRUNE", "bytes"},
    {"install.pkts.CLEAR", "count"},
    {"install.bytes.CLEAR", "bytes"},
    {"install.clear_useful_ratio", "ratio"},
    {"retx.packets", "count"},
    {"retx.acked", "count"},
    {"retx.exhausted", "count"},
    {"retx.duplicates", "count"},
    {"retx.pending_hwm", "count"},
    {"reconcile.repairs", "count"},
    {"sim.events", "count"},
    {"sim.pkts_tx", "count"},
    {"sim.drops.injected", "count"},
    {"sim.drops.queue", "count"},
    {"wfq.enqueued", "count"},
    {"fabric.sessions", "count"},
    {"retx.amplification", "ratio"},
    {"sim.packet_reuse_ratio", "ratio"},
    {"sim.ns_per_event", "ns"},
    {"wfq.queue_delay_p99_ms", "ms"},
    {"audit.s", "s"},
    {"audit.violations", "count"},
    {"failed_frac", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.self_sum_ratio", "ratio"},
    {"spans.dropped", "count"},
};

struct Ledger {
  std::map<std::string, double> counts;   ///< deterministic
  std::map<std::string, double> seconds;  ///< host time, this pass
};

std::uint64_t cval(const char* name, const char* tag = "") {
  return obs::counter(name, tag).value();
}

std::vector<membench::SpanView> span_views() {
  std::vector<membench::SpanView> out;
  for (const obs::SpanRecord& r : obs::span_sink().snapshot())
    out.push_back({r.name, r.dur_ns, r.tid, r.depth});
  return out;
}

Ledger collect_ledger(const Prepared& p, const Timing& t,
                      const membench::SelfTimes& self) {
  Ledger l;
  auto& c = l.counts;
  const auto events = static_cast<double>(p.input.events.size());
  c["paths.sources_recomputed"] = static_cast<double>(p.sources_recomputed);
  c["dcdm.joins"] = static_cast<double>(obs::span_stats("dcdm.join").count());
  c["dcdm.leaves"] =
      static_cast<double>(obs::span_stats("dcdm.leave").count());
  c["dcdm.candidates"] = static_cast<double>(cval("dcdm.join.candidates"));
  c["dcdm.candidates_per_join"] =
      membench::ratio(c["dcdm.candidates"], c["dcdm.joins"]);
  c["dcdm.restructures"] = static_cast<double>(cval("dcdm.restructures"));
  c["dcdm.joins_per_event"] = membench::ratio(c["dcdm.joins"], events);
  c["scmp.joins"] = static_cast<double>(cval("scmp.joins"));
  c["scmp.leaves"] = static_cast<double>(cval("scmp.leaves"));
  c["scmp.epoch.flushes"] = static_cast<double>(cval("scmp.epoch.flushes"));
  c["scmp.epoch.recomputes"] =
      static_cast<double>(cval("scmp.epoch.recomputes"));
  c["scmp.epoch.coalesced"] =
      static_cast<double>(cval("scmp.epoch.coalesced"));
  double ctrl = 0.0, pkts = 0.0;
  for (const char* type : {"TREE", "BRANCH", "PRUNE", "CLEAR"}) {
    c[std::string("install.pkts.") + type] =
        static_cast<double>(cval("net.tx.packets", type));
    c[std::string("install.bytes.") + type] =
        static_cast<double>(cval("net.tx.bytes", type));
  }
  for (const char* type :
       {"JOIN", "LEAVE", "TREE", "BRANCH", "PRUNE", "CLEAR", "ACK"})
    ctrl += static_cast<double>(cval("net.tx.packets", type));
  for (const char* type : {"DATA", "DATA_ENCAP", "JOIN", "LEAVE", "TREE",
                           "BRANCH", "PRUNE", "CLEAR", "ACK"})
    pkts += static_cast<double>(cval("net.tx.packets", type));
  c["retx.packets"] = static_cast<double>(cval("scmp.retx.packets"));
  c["retx.acked"] = static_cast<double>(cval("scmp.retx.acked"));
  c["retx.exhausted"] = static_cast<double>(cval("scmp.retx.exhausted"));
  c["retx.duplicates"] = static_cast<double>(cval("scmp.retx.duplicates"));
  c["retx.pending_hwm"] = obs::gauge("scmp.retx.pending_hwm").value();
  c["retx.amplification"] = membench::ratio(c["retx.packets"], ctrl);
  c["reconcile.repairs"] = static_cast<double>(cval("scmp.reconcile.repairs"));
  c["sim.events"] = static_cast<double>(cval("sim.events.executed"));
  c["sim.pkts_tx"] = pkts;
  c["sim.packet_reuse_ratio"] = membench::ratio(
      static_cast<double>(cval("sim.pool.packets.reuse")), pkts);
  c["sim.drops.injected"] = static_cast<double>(cval("net.drops.injected"));
  c["sim.drops.queue"] = static_cast<double>(cval("net.drops.queue"));
  c["wfq.enqueued"] = static_cast<double>(cval("wfq.enqueued"));
  c["wfq.queue_delay_p99_ms"] =
      1e3 * obs::histogram("wfq.queue_delay.seconds").quantile(0.99);
  c["fabric.sessions"] = static_cast<double>(cval("fabric.sessions"));

  auto self_s = [&self](std::initializer_list<const char*> names) {
    double s = 0.0;
    for (const char* n : names) {
      const auto it = self.self_ns.find(n);
      if (it != self.self_ns.end()) s += 1e-9 * static_cast<double>(it->second);
    }
    return s;
  };
  auto& s = l.seconds;
  s["paths.build_s"] = p.paths_build_s;
  s["dcdm.self_s"] = self_s({"dcdm.join", "dcdm.leave"});
  s["scmp.join.self_s"] = self_s({"scmp.join", "scmp.leave"});
  s["scmp.flush.self_s"] = self_s({"scmp.epoch.flush", "scmp.rebuild"});
  s["install.self_s"] = self_s({"scmp.install.branch", "scmp.install.tree"});
  s["reconcile.self_s"] = self_s({"scmp.reconcile"});
  s["fabric.configure_s"] = self_s({"fabric.configure"});
  // Everything outside a span: the event core, Network::transmit, IGMP,
  // data forwarding and the unspanned protocol handlers.
  const double top = 1e-9 * static_cast<double>(self.top_level_ns);
  s["sim.self_s"] = t.replay_s > top ? t.replay_s - top : 0.0;
  s["sim.ns_per_event"] =
      1e9 * membench::ratio(s["sim.self_s"], c["sim.events"]);
  // The layers above must partition the traced replay: 1 unless a span
  // outside them (or time outside the replay) shows up.
  double layers = 0.0;
  for (const char* k : {"dcdm.self_s", "scmp.join.self_s", "scmp.flush.self_s",
                        "install.self_s", "reconcile.self_s",
                        "fabric.configure_s", "sim.self_s"})
    layers += s[k];
  s["trace.self_sum_ratio"] = membench::ratio(layers, t.replay_s);
  return l;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name, ms[i].value,
                  ms[i].unit);
    out += buf;
  }
  return out + "}";
}

std::string json_numbers(const std::map<std::string, double>& m) {
  std::string out = "{";
  char buf[256];
  bool first = true;
  for (const auto& [k, v] : m) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", first ? "" : ", ",
                  k.c_str(), v);
    out += buf;
    first = false;
  }
  return out + "}";
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6g", i == 0 ? "" : ", ", v[i]);
    out += buf;
  }
  return out + "]";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Command line and main.
// ---------------------------------------------------------------------------

struct Options {
  Workload workload = Workload::kFlashCrowd;
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "membench: %s\nusage: membench --workload "
               "<flash_crowd|zipf_epoch_lossy|steady_data> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string val = argv[++i];
    if (key == "--workload") {
      o.name = val;
      have_workload = true;
      if (val == "flash_crowd")
        o.workload = Workload::kFlashCrowd;
      else if (val == "zipf_epoch_lossy")
        o.workload = Workload::kZipfEpochLossy;
      else if (val == "steady_data")
        o.workload = Workload::kSteadyData;
      else
        usage("unknown workload");
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else {
      usage("unknown option");
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

/// The verification pass: metrics and the flight recorder on, audits.
Verdict verify_pass(const Options& o, Fingerprint& fp) {
  obs::reset_values();
  obs::set_metrics_enabled(true);
  obs::set_flight_enabled(true);
  obs::flight().set_capacity(1 << 19);
  Prepared p = prepare(o.workload, o.seed);
  obs::reset_values();
  Probe probe(*p.world);
  schedule_input(o.workload, p, &probe);
  replay(p, &probe);
  Verdict v = probe.finish(p.input.events.size());
  fp = fingerprint(*p.world);
  obs::set_flight_enabled(false);
  obs::flight().set_capacity(1);
  obs::set_metrics_enabled(false);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const auto run_start = Clock::now();

  Fingerprint expected;
  const Verdict v = verify_pass(o, expected);
  bool correct = v.hard_violations == 0 && v.flight_dropped == 0;
  std::vector<std::string> problems = v.violation_samples;
  if (v.flight_dropped != 0) problems.push_back("flight records dropped");

  std::vector<double> setup_s, replay_s, traced_s;
  std::vector<std::vector<double>> slice_ms;  // per untraced pass
  std::vector<Ledger> ledgers;
  std::size_t spans_dropped = 0;
  bool sized = false;
  const auto measure_start = Clock::now();
  for (int pass = 0;
       seconds_since(measure_start) < o.seconds || replay_s.size() < 3;
       ++pass) {
    // With --trace 1, even passes are traced (the first only sizes the span
    // ring and is discarded) and odd passes are the untraced reference.
    const bool traced = o.trace && pass % 2 == 0;
    obs::reset_values();
    obs::span_sink().clear();
    obs::set_metrics_enabled(traced);
    obs::set_tracing_enabled(traced);
    Prepared p = prepare(o.workload, o.seed);
    if (traced) {
      for (const obs::SpanRecord& r : obs::span_sink().snapshot())
        if (std::strcmp(r.name, "paths.rebuild") == 0)
          p.paths_build_s += 1e-9 * static_cast<double>(r.dur_ns);
      p.sources_recomputed = cval("paths.rebuild.sources_recomputed");
      obs::reset_values();
      obs::span_sink().clear();
    }
    schedule_input(o.workload, p, nullptr);
    const Timing t = replay(p, nullptr);
    obs::set_tracing_enabled(false);
    obs::set_metrics_enabled(false);
    if (!(fingerprint(*p.world) == expected)) {
      correct = false;
      problems.push_back("pass " + std::to_string(pass) +
                         " diverged from the verification pass");
    }
    if (!traced) {
      setup_s.push_back(p.setup_s);
      replay_s.push_back(t.replay_s);
      slice_ms.push_back(t.slice_ms);
      continue;
    }
    const std::uint64_t total = obs::span_sink().total_recorded();
    if (!sized) {
      // Size the ring from the first traced pass so no span is overwritten.
      obs::span_sink().set_capacity(static_cast<std::size_t>(total) * 5 / 4 +
                                    1024);
      sized = true;
      continue;
    }
    spans_dropped += obs::span_sink().dropped();
    traced_s.push_back(t.replay_s);
    ledgers.push_back(collect_ledger(p, t, membench::self_times(span_views())));
  }

  // Determinism: every traced pass reports the same counts.
  for (std::size_t i = 1; i < ledgers.size(); ++i) {
    if (ledgers[i].counts != ledgers[0].counts) {
      correct = false;
      problems.push_back("traced passes disagree on per-layer counts");
      break;
    }
  }
  if (spans_dropped != 0) {
    correct = false;
    problems.push_back("spans dropped");
  }

  const double events = static_cast<double>(v.tally.attempted);
  const membench::Tail lat50 =
      membench::tail_percentile(v.join_latency_ms, 0.5);
  const membench::Tail lat99 =
      membench::tail_percentile(v.join_latency_ms, 0.99);
  const double replay_med = membench::median(replay_s);
  // Stall: each slice's median host time over the passes (the same sim-time
  // slice is the same work in every pass, so this drops one-off host noise),
  // then the tail over the slices.
  std::vector<double> slice_median(slice_ms.front().size());
  for (std::size_t i = 0; i < slice_median.size(); ++i) {
    std::vector<double> across;
    for (const std::vector<double>& pass : slice_ms) across.push_back(pass[i]);
    slice_median[i] = membench::median(across);
  }
  const membench::Tail stall = membench::tail_percentile(slice_median, 0.99);

  std::map<std::string, double> det;  // deterministic values
  det["attempted"] = events;
  det["join_latency.samples"] = static_cast<double>(lat99.n);
  det["join_latency_p50_ms"] = lat50.value;
  det["join_latency_p99_ms"] = lat99.value;
  det["join_latency_tail_q"] = lat99.q;
  det["ctrl_pkts"] = static_cast<double>(v.ctrl_pkts);
  det["ctrl_bytes"] = static_cast<double>(v.ctrl_bytes);
  det["tree_cost_per_member"] = v.tree_cost_per_member;
  det["tree_delay_ms"] = v.tree_delay_ms;
  det["data_overhead_per_delivery"] = v.data_overhead_per_delivery;
  det["data_delay_max_ms"] = v.data_delay_max_ms;
  det["failed.never_installed"] = static_cast<double>(v.tally.never_installed);
  det["failed.timeouts"] = static_cast<double>(v.tally.timeouts);
  det["failed.violations"] = static_cast<double>(v.tally.violations);
  det["failed_frac"] = v.tally.frac();
  det["audits"] = static_cast<double>(v.audit_s.size());
  det["install.clears_sent"] = static_cast<double>(v.clears_sent);
  det["install.clears_useful"] = static_cast<double>(v.clears_useful);
  det["scmp.member_additions"] = static_cast<double>(v.member_additions);
  if (!ledgers.empty())
    for (const auto& [k, val] : ledgers[0].counts) det[k] = val;

  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = {
        {"setup_s", membench::median(setup_s), "s"},
        {"replay_s", replay_med, "s"},
        {"stall_ms_p99", stall.value, "ms"},
        {"join_latency_p50_ms", lat50.value, "ms"},
        {"join_latency_p99_ms", lat99.value, "ms"},
        {"ctrl_pkts_per_event",
         membench::ratio(static_cast<double>(v.ctrl_pkts), events), "count"},
        {"ctrl_bytes_per_event",
         membench::ratio(static_cast<double>(v.ctrl_bytes), events), "bytes"},
        {"tree_cost_per_member", v.tree_cost_per_member, "cost"},
        {"tree_delay_ms", v.tree_delay_ms, "ms"},
        {"data_overhead_per_delivery", v.data_overhead_per_delivery, "cost"},
        {"data_delay_max_ms", v.data_delay_max_ms, "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    // Counts are identical across traced passes; host times are medians.
    std::map<std::string, double> layer = ledgers.front().counts;
    std::map<std::string, std::vector<double>> secs;
    for (const Ledger& l : ledgers)
      for (const auto& [k, val] : l.seconds) secs[k].push_back(val);
    for (const auto& [k, vals] : secs) layer[k] = membench::median(vals);
    layer["scmp.epoch.useful_ratio"] = membench::ratio(
        static_cast<double>(v.member_additions), layer["dcdm.joins"]);
    layer["install.clear_useful_ratio"] =
        membench::ratio(static_cast<double>(v.clears_useful),
                        static_cast<double>(v.clears_sent));
    layer["audit.s"] = membench::median(v.audit_s);
    layer["audit.violations"] = static_cast<double>(v.tally.violations);
    layer["failed_frac"] = v.tally.frac();
    layer["trace.overhead_ratio"] =
        membench::ratio(membench::median(traced_s), replay_med);
    layer["spans.dropped"] = static_cast<double>(spans_dropped);
    for (const LayerMetric& m : kLayerMetrics)
      metrics.push_back({m.name, layer.at(m.name), m.unit});
  }

  // The ledger line: everything deterministic plus the sample counts, for
  // tools and for the determinism check (run.py --check-determinism).
  std::string notes = "[";
  for (std::size_t i = 0; i < problems.size(); ++i)
    notes += (i == 0 ? "\"" : ", \"") + json_escape(problems[i]) + "\"";
  notes += "]";
  std::printf(
      "{\"ledger\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"timed_passes\": %zu, \"traced_passes\": %zu, \"slices\": %d, "
      "\"stall_tail_q\": %.6g, \"run_s\": %.3f, \"problems\": %s, "
      "\"replay_s\": %s, \"deterministic\": %s}}\n",
      o.name.c_str(), static_cast<unsigned long long>(o.seed),
      o.trace ? 1 : 0, replay_s.size(), traced_s.size(), kSlices + 1, stall.q,
      seconds_since(run_start), notes.c_str(), json_list(replay_s).c_str(),
      json_numbers(det).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(v.tally.attempted),
      static_cast<unsigned long long>(v.tally.failed()),
      json_metrics(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

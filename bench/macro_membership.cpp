// Macro benchmark for the epoch-batched membership pipeline: how many DCDM
// recomputations does the control plane pay per membership event, and how
// fast does it chew through a membership storm?
//
// Two workloads on a GT-ITM-style transit-stub internetwork (624 routers):
//
//   flash  — 10k joins hit 20 hot groups inside a 5-second window (the
//            flash-crowd regime the ISSUE targets). Per-request processing
//            recomputes a tree for every single join; epoch batching folds
//            the whole window into a handful of net-resolved recomputations.
//   zipf   — 20k Zipf-popular join/leave churn events over 50 seconds across
//            500 groups (the steady-state regime).
//
// Each workload sweeps the epoch close interval; x = interval seconds.
// Emitted series (BENCH_macro_membership.json, schema scmp-bench-v1):
//
//   <wl>/recomputes_per_event — tree recomputations per membership event:
//       m-router JOIN/LEAVE requests at interval 0, net-changed groups per
//       epoch close otherwise. Deterministic (pure counter arithmetic) and
//       committed to bench/baseline/: lower is better, so bench_diff.py
//       flags a batching regression as a slowdown.
//   <wl>/dcdm_joins_per_event — DcdmTree::join calls per membership event
//       (the DCDM work itself). Deterministic, committed.
//   <wl>/ctrl_pkts_per_event — SCMP control-packet link transmissions
//       (JOIN, LEAVE, TREE, BRANCH, PRUNE, CLEAR, ACK) per membership
//       event. Deterministic, committed.
//   <wl>/seconds_per_event — wall-clock per event. Machine-dependent, NOT
//       committed to the baseline (bench_diff reports it informally as
//       "new").
//
// The binary also enforces two bars and exits non-zero if either fails: at
// the flash crowd, interval=0.5 must spend at least 10x fewer
// recomputations per event than interval=0; and on both workloads, every
// interval > 0 must spend no more DCDM joins and no more control packets
// per event than interval=0 (batching may only save work).
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

#include "core/scmp.hpp"
#include "igmp/igmp.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "topo/transit_stub.hpp"
#include "topo/workload.hpp"
#include "util/rng.hpp"

namespace {

using namespace scmp;

struct RunResult {
  int events = 0;
  std::uint64_t recomputes = 0;  ///< DCDM tree computations performed
  std::uint64_t flushes = 0;     ///< epoch closes (0 in per-request mode)
  std::uint64_t coalesced = 0;   ///< groups skipped as net no-ops at a close
  std::uint64_t dcdm_joins = 0;  ///< DcdmTree::join calls
  std::uint64_t ctrl_pkts = 0;   ///< SCMP control-packet link transmissions
  double seconds = 0.0;          ///< wall clock for the whole storm
};

constexpr const char* kControlTypes[] = {"JOIN",  "LEAVE", "TREE", "BRANCH",
                                         "PRUNE", "CLEAR", "ACK"};

std::uint64_t control_packets() {
  std::uint64_t total = 0;
  for (const char* type : kControlTypes)
    total += obs::counter("net.tx.packets", type).value();
  return total;
}

/// Replays `events` through a fresh world at the given epoch interval.
RunResult run_storm(const topo::Topology& topo,
                    const std::vector<topo::MemberEvent>& events,
                    double interval) {
  sim::EventQueue queue;
  sim::Network net(topo.graph, queue);
  igmp::IgmpDomain igmp(queue, topo.graph.num_nodes());
  core::Scmp::Config cfg;
  cfg.mrouter = 0;
  cfg.epoch_interval = interval;
  core::Scmp scmp(net, igmp, cfg);

  for (const topo::MemberEvent& ev : events) {
    queue.schedule_in(ev.time, [&scmp, ev] {
      if (ev.join)
        scmp.host_join(ev.router, ev.group, ev.iface, ev.host);
      else
        scmp.host_leave(ev.router, ev.group, ev.iface, ev.host);
    });
  }

  // Per-request mode recomputes on every m-router membership request; the
  // epoch pipeline counts its own recomputations at each close.
  const obs::Counter& joins = obs::counter("scmp.joins");
  const obs::Counter& leaves = obs::counter("scmp.leaves");
  const obs::Counter& epoch_recomputes = obs::counter("scmp.epoch.recomputes");
  const obs::Counter& epoch_flushes = obs::counter("scmp.epoch.flushes");
  const obs::Counter& epoch_coalesced = obs::counter("scmp.epoch.coalesced");
  const std::uint64_t joins0 = joins.value();
  const std::uint64_t leaves0 = leaves.value();
  const std::uint64_t recomputes0 = epoch_recomputes.value();
  const std::uint64_t flushes0 = epoch_flushes.value();
  const std::uint64_t coalesced0 = epoch_coalesced.value();
  const std::uint64_t dcdm0 = obs::span_stats("dcdm.join").count();
  const std::uint64_t ctrl0 = control_packets();

  const auto t0 = std::chrono::steady_clock::now();
  queue.run_all();
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.events = static_cast<int>(events.size());
  r.recomputes = interval > 0.0
                     ? epoch_recomputes.value() - recomputes0
                     : (joins.value() - joins0) + (leaves.value() - leaves0);
  r.flushes = epoch_flushes.value() - flushes0;
  r.coalesced = epoch_coalesced.value() - coalesced0;
  r.dcdm_joins = obs::span_stats("dcdm.join").count() - dcdm0;
  r.ctrl_pkts = control_packets() - ctrl0;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

double per_event_of(const RunResult& r, std::uint64_t count) {
  return r.events == 0 ? 0.0 : static_cast<double>(count) / r.events;
}

/// Batching may only save work: at each interval > 0, DCDM joins and
/// control packets per event must not exceed the interval-0 run's.
bool no_more_work_than_per_request(const char* workload,
                                   const std::vector<double>& intervals,
                                   const std::vector<RunResult>& runs) {
  bool ok = true;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const bool joins_ok = runs[i].dcdm_joins <= runs[0].dcdm_joins;
    const bool ctrl_ok = runs[i].ctrl_pkts <= runs[0].ctrl_pkts;
    std::printf(
        "%s interval=%g vs 0: DCDM joins/event %.4f vs %.4f %s, "
        "ctrl pkts/event %.3f vs %.3f %s\n",
        workload, intervals[i], per_event_of(runs[i], runs[i].dcdm_joins),
        per_event_of(runs[0], runs[0].dcdm_joins),
        joins_ok ? "(PASS)" : "(FAIL)",
        per_event_of(runs[i], runs[i].ctrl_pkts),
        per_event_of(runs[0], runs[0].ctrl_pkts),
        ctrl_ok ? "(PASS)" : "(FAIL)");
    ok = ok && joins_ok && ctrl_ok;
  }
  return ok;
}

RunningStats single(double v) {
  RunningStats s;
  s.add(v);
  return s;
}

void report(bench::BenchJson& json, const char* workload,
            const topo::Topology& topo,
            const std::vector<topo::MemberEvent>& events, double interval,
            RunResult& out) {
  out = run_storm(topo, events, interval);
  const double per_event =
      out.events == 0 ? 0.0
                      : static_cast<double>(out.recomputes) / out.events;
  std::printf(
      "  %-5s interval=%-4g  %6d events  %6llu recomputes  (%7.4f/event)  "
      "%7.4f DCDM joins/event  %8.3f ctrl pkts/event  %4llu flush(es)  "
      "%5llu coalesced  %7.3fs wall  (%.0f events/s)\n",
      workload, interval, out.events,
      static_cast<unsigned long long>(out.recomputes), per_event,
      per_event_of(out, out.dcdm_joins), per_event_of(out, out.ctrl_pkts),
      static_cast<unsigned long long>(out.flushes),
      static_cast<unsigned long long>(out.coalesced), out.seconds,
      out.seconds > 0.0 ? out.events / out.seconds : 0.0);
  const std::string prefix = std::string(workload) + "/";
  json.add_point(prefix + "recomputes_per_event", interval,
                 single(per_event));
  json.add_point(prefix + "dcdm_joins_per_event", interval,
                 single(per_event_of(out, out.dcdm_joins)));
  json.add_point(prefix + "ctrl_pkts_per_event", interval,
                 single(per_event_of(out, out.ctrl_pkts)));
  json.add_point(prefix + "seconds_per_event", interval,
                 single(out.events == 0 ? 0.0 : out.seconds / out.events));
}

}  // namespace

int main(int argc, char** argv) {
  obs::set_metrics_enabled(true);
  bench::BenchJson json("macro_membership", argc, argv);

  // 4 transit domains x 6 routers, 5 stub domains of 5 routers per transit
  // node: 624 routers, the ROADMAP's "large internetwork" scale.
  topo::TransitStubConfig tcfg;
  tcfg.transit_domains = 4;
  tcfg.transit_nodes = 6;
  tcfg.stub_domains_per_node = 5;
  tcfg.stub_nodes = 5;
  Rng topo_rng(7);
  const topo::Topology topo = topo::transit_stub(tcfg, topo_rng);
  const int n = topo.graph.num_nodes();
  std::printf("macro_membership: %s (%d routers, %d edges)\n\n",
              topo.name.c_str(), n, topo.graph.num_edges());

  topo::FlashCrowdConfig fcfg;  // 10k joins, 20 hot groups, 5 s window
  fcfg.num_groups = 20;
  fcfg.crowd = 10000;
  Rng flash_rng(11);
  const std::vector<topo::MemberEvent> flash =
      topo::flash_crowd(fcfg, n, flash_rng);

  topo::ZipfChurnConfig zcfg;  // 20k churn events, 500 groups, 50 s horizon
  zcfg.num_groups = 500;
  zcfg.num_events = 20000;
  zcfg.horizon = 50.0;
  Rng zipf_rng(13);
  const std::vector<topo::MemberEvent> zipf =
      topo::zipf_churn(zcfg, n, zipf_rng);

  const std::vector<double> flash_intervals = {0.0, 0.5, 1.0, 2.0};
  const std::vector<double> zipf_intervals = {0.0, 0.5};
  std::vector<RunResult> flash_runs(flash_intervals.size());
  std::vector<RunResult> zipf_runs(zipf_intervals.size());
  for (std::size_t i = 0; i < flash_intervals.size(); ++i)
    report(json, "flash", topo, flash, flash_intervals[i], flash_runs[i]);
  std::printf("\n");
  for (std::size_t i = 0; i < zipf_intervals.size(); ++i)
    report(json, "zipf", topo, zipf, zipf_intervals[i], zipf_runs[i]);

  // Acceptance bar: the flash crowd must see >= 10x fewer recomputations
  // per event at interval=0.5 than per-request processing pays.
  const double base = static_cast<double>(flash_runs[0].recomputes);
  const double batched = static_cast<double>(flash_runs[1].recomputes);
  const double ratio = batched > 0.0 ? base / batched : 0.0;
  std::printf("\nflash recompute reduction at interval=0.5: %.1fx %s\n",
              ratio, ratio >= 10.0 ? "(PASS, bar is 10x)" : "(FAIL)");
  const bool flash_ok =
      no_more_work_than_per_request("flash", flash_intervals, flash_runs);
  const bool zipf_ok =
      no_more_work_than_per_request("zipf", zipf_intervals, zipf_runs);
  return ratio >= 10.0 && flash_ok && zipf_ok ? 0 : 1;
}

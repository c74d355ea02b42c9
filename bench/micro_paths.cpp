// Micro-benchmarks of the dual-weight path database: full rebuilds (serial
// and on the compute pool), incremental single-link updates, path
// materialization into a reused buffer, and — on the 624-router
// transit-stub internetwork — the build and one join's candidate read.
#include <benchmark/benchmark.h>

#include "core/compute_pool.hpp"
#include "core/dcdm.hpp"
#include "graph/paths.hpp"
#include "topo/transit_stub.hpp"
#include "topo/waxman.hpp"

namespace {

using namespace scmp;

topo::Topology make_topo(int n) {
  Rng rng(42);
  topo::WaxmanConfig cfg;
  cfg.num_nodes = n;
  cfg.alpha = 0.25;
  cfg.beta = 0.2;
  return topo::waxman(cfg, rng);
}

void BM_PathsRebuildSerial(benchmark::State& state) {
  const auto topo = make_topo(static_cast<int>(state.range(0)));
  graph::AllPairsPaths paths(topo.graph);
  for (auto _ : state) {
    paths.rebuild(topo.graph);
    benchmark::DoNotOptimize(paths);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PathsRebuildSerial)->Arg(50)->Arg(100)->Arg(200)->Complexity();

// Arg pair: (nodes, threads). On a single-core host the parallel numbers
// track the serial ones plus thread overhead; the thread axis is what CI
// machines with real parallelism exercise.
void BM_PathsRebuildPool(benchmark::State& state) {
  const auto topo = make_topo(static_cast<int>(state.range(0)));
  graph::AllPairsPaths paths(topo.graph);
  const core::TreeComputePool pool(topo.graph, paths,
                                   static_cast<int>(state.range(1)));
  const graph::ParallelFor pf = pool.parallel_for();
  for (auto _ : state) {
    paths.rebuild(topo.graph, pf);
    benchmark::DoNotOptimize(paths);
  }
}
BENCHMARK(BM_PathsRebuildPool)
    ->Args({100, 1})
    ->Args({100, 2})
    ->Args({100, 4})
    ->Args({100, 8})
    ->Args({200, 8});

// One link fails, then comes back, alternately: each iteration is one
// incremental apply_link_event on the dirty-source subset. Compare against
// BM_PathsRebuildSerial at the same node count for the incremental win.
void BM_PathsLinkEvent(benchmark::State& state) {
  auto topo = make_topo(static_cast<int>(state.range(0)));
  // A mid-degree node's first edge: representative, deterministic.
  const graph::NodeId u = 1;
  const auto& nbs = topo.graph.neighbors(u);
  const graph::NodeId v = nbs.front().to;
  const graph::EdgeAttr attr = nbs.front().attr;
  graph::AllPairsPaths paths(topo.graph);
  bool present = true;
  for (auto _ : state) {
    if (present) {
      topo.graph.remove_edge(u, v);
    } else {
      topo.graph.add_edge(u, v, attr.delay, attr.cost);
    }
    present = !present;
    benchmark::DoNotOptimize(paths.apply_link_event(topo.graph, u, v));
  }
}
BENCHMARK(BM_PathsLinkEvent)->Arg(50)->Arg(100)->Arg(200);

void BM_PathToInto(benchmark::State& state) {
  const auto topo = make_topo(100);
  const graph::AllPairsPaths paths(topo.graph);
  std::vector<graph::NodeId> buf;
  graph::NodeId dst = 1;
  for (auto _ : state) {
    paths.sl_path_into(0, dst, buf);
    benchmark::DoNotOptimize(buf);
    dst = dst % 99 + 1;
  }
}
BENCHMARK(BM_PathToInto);

/// The 624-router transit-stub internetwork (4 transit domains x 6 routers,
/// 5 stub domains of 5 routers per transit router), the topology the
/// membership benchmark replays on.
topo::Topology transit_stub_624() {
  topo::TransitStubConfig cfg;
  cfg.transit_domains = 4;
  cfg.transit_nodes = 6;
  cfg.stub_domains_per_node = 5;
  cfg.stub_nodes = 5;
  Rng rng(7);
  return topo::transit_stub(cfg, rng);
}

void BM_PathsRebuildTransitStub(benchmark::State& state) {
  const auto topo = transit_stub_624();
  graph::AllPairsPaths paths(topo.graph);
  for (auto _ : state) {
    paths.rebuild(topo.graph);
    benchmark::DoNotOptimize(paths);
  }
}
BENCHMARK(BM_PathsRebuildTransitStub)->Unit(benchmark::kMillisecond);

/// One join's 2m-candidate read: walks a DCDM tree of about 400 routers and
/// reads the four weights of every on-tree node's P_sl and P_lc paths to an
/// off-tree joiner, as DcdmTree::join's scan does before any graft.
void BM_JoinCandidateReadTransitStub(benchmark::State& state) {
  const auto topo = transit_stub_624();
  const graph::AllPairsPaths paths(topo.graph);
  core::DcdmTree tree(topo.graph, paths, 0, core::DcdmConfig{2.0});
  graph::NodeId next = 1;
  for (; next < topo.graph.num_nodes() && tree.tree().tree_size() < 400;
       ++next)
    tree.join(next);
  std::vector<graph::NodeId> joiners;
  for (graph::NodeId v = next; v < topo.graph.num_nodes(); ++v)
    if (!tree.tree().on_tree(v)) joiners.push_back(v);
  std::size_t k = 0;
  for (auto _ : state) {
    const auto row = paths.weights_to(joiners[k]);
    double sum = 0.0;
    const auto read = [&](graph::NodeId t, graph::NodeId) {
      const graph::PairWeights& w = row[static_cast<std::size_t>(t)];
      sum += w.sl_delay + w.sl_cost + w.lc_delay + w.lc_cost;
      return true;
    };
    read(tree.root(), graph::kInvalidNode);
    tree.tree().walk_below(tree.root(), read);
    benchmark::DoNotOptimize(sum);
    k = (k + 1) % joiners.size();
  }
  state.counters["tree_size"] = tree.tree().tree_size();
}
BENCHMARK(BM_JoinCandidateReadTransitStub);

}  // namespace

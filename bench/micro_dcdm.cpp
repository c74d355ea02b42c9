// Micro-benchmarks of the DCDM dynamic tree algorithm: join-storm throughput
// (the m-router's hot path) and single join/leave latency, on a 100-node
// Waxman graph and on the 624-router transit-stub internetwork that membench
// and bench/macro_membership run.
#include <benchmark/benchmark.h>

#include "core/dcdm.hpp"
#include "topo/transit_stub.hpp"
#include "topo/waxman.hpp"

namespace {

using namespace scmp;

struct Env {
  topo::Topology topo;
  graph::AllPairsPaths paths;
  std::vector<graph::NodeId> members;

  Env(int n, int group)
      : topo([n] {
          Rng rng(11);
          topo::WaxmanConfig cfg;
          cfg.num_nodes = n;
          cfg.alpha = 0.25;
          cfg.beta = 0.2;
          return topo::waxman(cfg, rng);
        }()),
        paths(topo.graph) {
    Rng rng(13);
    for (int v : rng.sample_without_replacement(n - 1, group))
      members.push_back(v + 1);
  }
};

void BM_DcdmJoinStorm(benchmark::State& state) {
  const Env env(100, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    core::DcdmTree tree(env.topo.graph, env.paths, 0, core::DcdmConfig{1.0});
    for (graph::NodeId m : env.members) tree.join(m);
    benchmark::DoNotOptimize(tree.tree_cost());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(env.members.size()));
}
BENCHMARK(BM_DcdmJoinStorm)->Arg(10)->Arg(50)->Arg(90);

void BM_DcdmChurn(benchmark::State& state) {
  const Env env(100, 40);
  for (auto _ : state) {
    core::DcdmTree tree(env.topo.graph, env.paths, 0, core::DcdmConfig{2.0});
    for (graph::NodeId m : env.members) tree.join(m);
    for (std::size_t i = 0; i < env.members.size(); i += 2)
      tree.leave(env.members[i]);
    for (std::size_t i = 0; i < env.members.size(); i += 2)
      tree.join(env.members[i]);
    benchmark::DoNotOptimize(tree.tree_delay());
  }
}
BENCHMARK(BM_DcdmChurn);

void BM_DcdmLoosestVsTightest(benchmark::State& state) {
  const Env env(100, 50);
  const double slack = state.range(0) == 0 ? 1.0 : core::kLoosest;
  for (auto _ : state) {
    core::DcdmTree tree(env.topo.graph, env.paths, 0, core::DcdmConfig{slack});
    for (graph::NodeId m : env.members) tree.join(m);
    benchmark::DoNotOptimize(tree.tree_cost());
  }
}
BENCHMARK(BM_DcdmLoosestVsTightest)->Arg(0)->Arg(1);

/// The 624-router transit-stub internetwork (4 transit domains x 6 routers,
/// 5 stub domains of 5 routers per transit router), rooted at transit router
/// 0, with a fixed random order of stub-router members. Built once: the
/// path database over 624 routers is the expensive part.
struct TransitStubEnv {
  static topo::TransitStubConfig config() {
    topo::TransitStubConfig cfg;
    cfg.transit_domains = 4;
    cfg.transit_nodes = 6;
    cfg.stub_domains_per_node = 5;
    cfg.stub_nodes = 5;
    return cfg;
  }

  topo::Topology topo;
  graph::AllPairsPaths paths;
  std::vector<graph::NodeId> members;

  TransitStubEnv()
      : topo([] {
          Rng rng(7);
          return topo::transit_stub(config(), rng);
        }()),
        paths(topo.graph) {
    Rng rng(13);
    const int transit = topo::num_transit_nodes(config());
    const int stubs = topo::num_stub_nodes(config());
    for (int v : rng.sample_without_replacement(stubs, stubs))
      members.push_back(v + transit);
  }

  static const TransitStubEnv& get() {
    static const TransitStubEnv env;
    return env;
  }
};

void BM_DcdmJoinStormTransitStub(benchmark::State& state) {
  const TransitStubEnv& env = TransitStubEnv::get();
  const auto group = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::DcdmTree tree(env.topo.graph, env.paths, 0, core::DcdmConfig{1.0});
    for (std::size_t i = 0; i < group; ++i) tree.join(env.members[i]);
    benchmark::DoNotOptimize(tree.tree_cost());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(group));
}
BENCHMARK(BM_DcdmJoinStormTransitStub)->Arg(50)->Arg(200)->Arg(500);

void BM_DcdmChurnTransitStub(benchmark::State& state) {
  // A 300-member tree; half the members leave and rejoin, so the timed loop
  // is dominated by joins onto (and leaves from) a large existing tree.
  const TransitStubEnv& env = TransitStubEnv::get();
  const std::size_t group = 300;
  for (auto _ : state) {
    core::DcdmTree tree(env.topo.graph, env.paths, 0, core::DcdmConfig{2.0});
    for (std::size_t i = 0; i < group; ++i) tree.join(env.members[i]);
    for (std::size_t i = 0; i < group; i += 2) tree.leave(env.members[i]);
    for (std::size_t i = 0; i < group; i += 2) tree.join(env.members[i]);
    benchmark::DoNotOptimize(tree.tree_delay());
  }
}
BENCHMARK(BM_DcdmChurnTransitStub);

}  // namespace

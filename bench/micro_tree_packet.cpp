// Micro-benchmarks of the self-routing TREE packet codec: encode, split (the
// per-hop i-router operation) and byte serialisation.
#include <benchmark/benchmark.h>

#include "core/tree_packet.hpp"
#include "graph/dijkstra.hpp"
#include "topo/waxman.hpp"

namespace {

using namespace scmp;

/// The 200-router Waxman graph every tree here spans, and the generator
/// state right after drawing it. Static: a tree points at its graph.
struct Fixture {
  Rng rng{17};
  topo::Topology topo;
  Fixture()
      : topo([this] {
          topo::WaxmanConfig cfg;
          cfg.num_nodes = 200;
          cfg.alpha = 0.25;
          cfg.beta = 0.2;
          return topo::waxman(cfg, rng);
        }()) {}
};

graph::MulticastTree make_tree(int members) {
  static const Fixture fixture;
  Rng rng = fixture.rng;
  const graph::Graph& g = fixture.topo.graph;
  const graph::ShortestPaths sp = dijkstra(g, 0, graph::Metric::kDelay);
  graph::MulticastTree tree(g, 0);
  for (int v : rng.sample_without_replacement(g.num_nodes() - 1, members))
    tree.graft_path(sp.path_to(v + 1));
  return tree;
}

void BM_EncodeSubtree(benchmark::State& state) {
  const auto tree = make_tree(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (graph::NodeId child : tree.children(0))
      benchmark::DoNotOptimize(core::encode_subtree(tree, child));
  }
}
BENCHMARK(BM_EncodeSubtree)->Arg(20)->Arg(100)->Arg(180);

void BM_SplitTreePacket(benchmark::State& state) {
  const auto tree = make_tree(static_cast<int>(state.range(0)));
  std::vector<core::TreeWords> packets;
  for (graph::NodeId child : tree.children(0))
    packets.push_back(core::encode_subtree(tree, child));
  for (auto _ : state) {
    for (const auto& words : packets)
      benchmark::DoNotOptimize(core::split_tree_packet(words));
  }
}
BENCHMARK(BM_SplitTreePacket)->Arg(100)->Arg(180);

void BM_BytesRoundTrip(benchmark::State& state) {
  const auto tree = make_tree(180);
  core::TreeWords biggest;
  for (graph::NodeId child : tree.children(0)) {
    auto words = core::encode_subtree(tree, child);
    if (words.size() > biggest.size()) biggest = std::move(words);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::from_bytes(core::to_bytes(biggest)));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(biggest.size() * 4));
}
BENCHMARK(BM_BytesRoundTrip);

}  // namespace

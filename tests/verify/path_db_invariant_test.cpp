// The path-db-consistent invariant: check_path_db holds an (incrementally
// maintained) AllPairsPaths to a from-scratch rebuild, and the churn
// model-checker — whose link-failure events now go through the incremental
// Scmp::handle_link_event — audits it at every stride.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>

#include "helpers.hpp"
#include "verify/churn.hpp"
#include "verify/invariants.hpp"

namespace scmp::graph {

/// Reaches into the path database to corrupt single entries.
struct AllPairsPathsTestPeer {
  static PairWeights& weights(AllPairsPaths& db, NodeId u, NodeId v) {
    return db.table_[static_cast<std::size_t>(v) *
                         static_cast<std::size_t>(db.n_) +
                     static_cast<std::size_t>(u)];
  }
  static PathTree& run(AllPairsPaths& db, bool least_cost, NodeId u) {
    return least_cost ? db.by_cost_[static_cast<std::size_t>(u)]
                      : db.by_delay_[static_cast<std::size_t>(u)];
  }
};

}  // namespace scmp::graph

namespace scmp::verify {
namespace {

using Peer = graph::AllPairsPathsTestPeer;

TEST(PathDbInvariant, FreshDatabasePasses) {
  const auto topo = test::random_topology(5, 25);
  const graph::AllPairsPaths db(topo.graph);
  std::vector<Violation> out;
  check_path_db(db, topo.graph, out);
  EXPECT_TRUE(out.empty()) << format(out);
}

TEST(PathDbInvariant, StaleDatabaseIsFlagged) {
  auto topo = test::random_topology(5, 25);
  const graph::AllPairsPaths db(topo.graph);
  // Fail a link without telling the database: the stale runs must be caught.
  const graph::NodeId u = 0;
  const graph::NodeId v = topo.graph.neighbors(0).front().to;
  topo.graph.remove_edge(u, v);
  std::vector<Violation> out;
  check_path_db(db, topo.graph, out);
  ASSERT_FALSE(out.empty());
  for (const Violation& viol : out)
    EXPECT_EQ(viol.invariant, kPathDbConsistent);
}

TEST(PathDbInvariant, CorruptTableWeightIsFlagged) {
  // One weight of one pair moved by a single ulp: the audit compares bit
  // for bit, and names the run the weight belongs to.
  const auto topo = test::random_topology(5, 25);
  const struct {
    double graph::PairWeights::*field;
    const char* run;
  } cases[] = {{&graph::PairWeights::sl_delay, "P_sl"},
               {&graph::PairWeights::sl_cost, "P_sl"},
               {&graph::PairWeights::lc_delay, "P_lc"},
               {&graph::PairWeights::lc_cost, "P_lc"}};
  for (const auto& c : cases) {
    graph::AllPairsPaths db(topo.graph);
    graph::PairWeights& w = Peer::weights(db, 3, 17);
    w.*c.field = std::nextafter(w.*c.field, graph::kUnreachable);
    std::vector<Violation> out;
    check_path_db(db, topo.graph, out);
    ASSERT_EQ(out.size(), 1u) << c.run;
    EXPECT_EQ(out[0].invariant, kPathDbConsistent);
    EXPECT_EQ(out[0].detail.rfind(std::string(c.run) + " run from", 0), 0u)
        << out[0].detail;
  }
}

TEST(PathDbInvariant, CorruptRunShapeIsFlagged) {
  const auto topo = test::random_topology(5, 25);
  for (const bool least_cost : {false, true}) {
    graph::AllPairsPaths db(topo.graph);
    ++Peer::run(db, least_cost, 4).hops[9];
    std::vector<Violation> out;
    check_path_db(db, topo.graph, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].invariant, kPathDbConsistent);

    graph::AllPairsPaths other(topo.graph);
    Peer::run(other, least_cost, 4).parent[9] = graph::kInvalidNode;
    out.clear();
    check_path_db(other, topo.graph, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].invariant, kPathDbConsistent);
  }
}

TEST(PathDbInvariant, SizeMismatchIsFlagged) {
  const graph::Graph small = test::line(4);
  const graph::Graph big = test::line(6);
  const graph::AllPairsPaths db(small);
  std::vector<Violation> out;
  check_path_db(db, big, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].invariant, kPathDbConsistent);
}

TEST(PathDbInvariant, RegisteredInCatalog) {
  const auto* end = std::end(kInvariantIds);
  EXPECT_NE(std::find_if(std::begin(kInvariantIds), end,
                         [](const char* id) {
                           return std::string_view(id) == kPathDbConsistent;
                         }),
            end);
}

// Churn scenario with link failures leaning hard on the incremental update:
// every audit stride re-derives a from-scratch AllPairsPaths and requires
// bit-identity with the Scmp-held database (plus the whole regular catalog).
TEST(PathDbInvariant, ChurnWithLinkFailuresStaysConsistent) {
  ChurnConfig cfg;
  cfg.topo = ChurnTopo::kArpanet;
  cfg.num_events = 160;
  cfg.num_groups = 3;
  cfg.max_link_failures = 8;
  cfg.audit_stride = 4;
  cfg.event_seed = 12;
  const ChurnModelChecker checker(cfg);
  const CheckOutcome outcome = checker.run();
  EXPECT_TRUE(outcome.ok) << format(outcome.violations);
  EXPECT_GT(outcome.audits, 0);
}

TEST(PathDbInvariant, ChurnOnWaxmanStaysConsistent) {
  ChurnConfig cfg;
  cfg.topo = ChurnTopo::kWaxman;
  cfg.waxman_nodes = 40;
  cfg.num_events = 120;
  cfg.max_link_failures = 6;
  cfg.audit_stride = 5;
  cfg.topo_seed = 4;
  cfg.event_seed = 9;
  const ChurnModelChecker checker(cfg);
  const CheckOutcome outcome = checker.run();
  EXPECT_TRUE(outcome.ok) << format(outcome.violations);
}

}  // namespace
}  // namespace scmp::verify

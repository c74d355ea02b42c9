// Unit tests for the benchmark's arithmetic (ledger.hpp).
#include "ledger.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace {

std::vector<double> iota_samples(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(membench::median({}), 0.0);
  EXPECT_EQ(membench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(membench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(TailPercentile, P99WithEnoughSamplesIsNearestRank) {
  // 2000 samples: rank ceil(0.99 * 2000) = 1980 leaves 20 beyond.
  const membench::Tail t = membench::tail_percentile(iota_samples(2000), 0.99);
  EXPECT_EQ(t.value, 1980.0);
  EXPECT_DOUBLE_EQ(t.q, 0.99);
  EXPECT_EQ(t.n, 2000u);
}

TEST(TailPercentile, ExactlyTenBeyondAtOneThousand) {
  const membench::Tail t = membench::tail_percentile(iota_samples(1000), 0.99);
  EXPECT_EQ(t.value, 990.0);  // samples 991..1000 lie beyond
}

TEST(TailPercentile, LowersTheQuantileToKeepTenBeyond) {
  // 200 samples cannot support a p99: the highest rank with ten samples
  // above it is 190, i.e. p95.
  const membench::Tail t = membench::tail_percentile(iota_samples(200), 0.99);
  EXPECT_EQ(t.value, 190.0);
  EXPECT_DOUBLE_EQ(t.q, 0.95);
}

TEST(TailPercentile, FallsBackToTheMedianOnTinySamples) {
  const membench::Tail t = membench::tail_percentile(iota_samples(10), 0.99);
  EXPECT_EQ(t.value, 5.0);
  EXPECT_DOUBLE_EQ(t.q, 0.5);
  // Just above the median but with too few beyond: never below the median.
  const membench::Tail u = membench::tail_percentile(iota_samples(14), 0.99);
  EXPECT_EQ(u.value, 7.0);
}

TEST(TailPercentile, UnsortedInputAndEmpty) {
  std::vector<double> v = iota_samples(1000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(membench::tail_percentile(v, 0.99).value, 990.0);
  EXPECT_EQ(membench::tail_percentile(v, 0.5).value, 500.0);
  const membench::Tail e = membench::tail_percentile({}, 0.99);
  EXPECT_EQ(e.value, 0.0);
  EXPECT_EQ(e.n, 0u);
}

TEST(SelfTimes, SubtractsChildrenUsingDepth) {
  // Completion order on one thread:
  //   scmp.join [100]            depth 1
  //     dcdm.join [60]           depth 2
  //     scmp.install.branch [15] depth 2
  //   scmp.epoch.flush [200]     depth 1
  //     scmp.rebuild [150]       depth 2
  //       dcdm.join [40]         depth 3
  //       dcdm.join [50]         depth 3
  //       scmp.install.tree [20] depth 3
  const std::vector<membench::SpanView> spans = {
      {"dcdm.join", 60, 0, 2},       {"scmp.install.branch", 15, 0, 2},
      {"scmp.join", 100, 0, 1},      {"dcdm.join", 40, 0, 3},
      {"dcdm.join", 50, 0, 3},       {"scmp.install.tree", 20, 0, 3},
      {"scmp.rebuild", 150, 0, 2},   {"scmp.epoch.flush", 200, 0, 1},
  };
  const membench::SelfTimes s = membench::self_times(spans);
  EXPECT_EQ(s.self_ns.at("scmp.join"), 25u);
  EXPECT_EQ(s.self_ns.at("dcdm.join"), 150u);
  EXPECT_EQ(s.self_ns.at("scmp.install.branch"), 15u);
  EXPECT_EQ(s.self_ns.at("scmp.rebuild"), 40u);
  EXPECT_EQ(s.self_ns.at("scmp.install.tree"), 20u);
  EXPECT_EQ(s.self_ns.at("scmp.epoch.flush"), 50u);
  EXPECT_EQ(s.top_level_ns, 300u);
  // Self times partition the top-level time exactly.
  std::uint64_t sum = 0;
  for (const auto& [name, ns] : s.self_ns) sum += ns;
  EXPECT_EQ(sum, s.top_level_ns);
}

TEST(SelfTimes, ThreadsAreIndependent) {
  const std::vector<membench::SpanView> spans = {
      {"dcdm.join", 30, 1, 2},
      {"dcdm.join", 10, 0, 2},
      {"scmp.join", 50, 0, 1},
      {"pool.for_each", 40, 1, 1},
  };
  const membench::SelfTimes s = membench::self_times(spans);
  EXPECT_EQ(s.self_ns.at("scmp.join"), 40u);
  EXPECT_EQ(s.self_ns.at("pool.for_each"), 10u);
  EXPECT_EQ(s.self_ns.at("dcdm.join"), 40u);
}

TEST(Ratios, PerEventAndUsefulOutcome) {
  EXPECT_DOUBLE_EQ(membench::ratio(30000.0, 20000.0), 1.5);  // pkts/event
  EXPECT_DOUBLE_EQ(membench::ratio(150.0, 600.0), 0.25);     // useful CLEARs
  EXPECT_EQ(membench::ratio(5.0, 0.0), 0.0);  // nothing attempted
}

TEST(FailureTally, FoldsEveryFailureKind) {
  membench::FailureTally t;
  EXPECT_EQ(t.frac(), 0.0);
  t.attempted = 1000;
  EXPECT_EQ(t.failed(), 0u);
  t.never_installed = 3;
  t.timeouts = 1;
  t.violations = 1;
  EXPECT_EQ(t.failed(), 5u);
  EXPECT_DOUBLE_EQ(t.frac(), 0.005);
}

}  // namespace

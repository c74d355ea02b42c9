#include "igmp/igmp.hpp"

#include <gtest/gtest.h>

#include <map>

namespace scmp::igmp {
namespace {

struct RecordingListener final : MembershipListener {
  struct Event {
    bool joined;
    graph::NodeId router;
    GroupId group;
    int iface;
    bool edge_flag;  // first_iface / last_iface
  };
  std::vector<Event> events;

  void interface_joined(graph::NodeId router, GroupId group, int iface,
                        bool first_iface) override {
    events.push_back({true, router, group, iface, first_iface});
  }
  void interface_left(graph::NodeId router, GroupId group, int iface,
                      bool last_iface) override {
    events.push_back({false, router, group, iface, last_iface});
  }
};

class IgmpTest : public ::testing::Test {
 protected:
  IgmpTest() : domain_(queue_, 5) { domain_.set_listener(&listener_); }
  sim::EventQueue queue_;
  IgmpDomain domain_;
  RecordingListener listener_;
};

TEST_F(IgmpTest, FirstHostTriggersFirstIface) {
  domain_.host_join(1, 0, 100, 7);
  ASSERT_EQ(listener_.events.size(), 1u);
  EXPECT_TRUE(listener_.events[0].joined);
  EXPECT_TRUE(listener_.events[0].edge_flag);
  EXPECT_TRUE(domain_.router_is_member(1, 7));
}

TEST_F(IgmpTest, SecondHostSameIfaceIsSilent) {
  domain_.host_join(1, 0, 100, 7);
  domain_.host_join(1, 0, 101, 7);
  EXPECT_EQ(listener_.events.size(), 1u);
  EXPECT_EQ(domain_.host_count(1, 7), 2);
}

TEST_F(IgmpTest, SecondIfaceIsNotFirst) {
  domain_.host_join(1, 0, 100, 7);
  domain_.host_join(1, 1, 200, 7);
  ASSERT_EQ(listener_.events.size(), 2u);
  EXPECT_FALSE(listener_.events[1].edge_flag);
  EXPECT_EQ(domain_.member_ifaces(1, 7), (std::vector<int>{0, 1}));
}

TEST_F(IgmpTest, DuplicateJoinIgnored) {
  domain_.host_join(1, 0, 100, 7);
  domain_.host_join(1, 0, 100, 7);
  EXPECT_EQ(listener_.events.size(), 1u);
  EXPECT_EQ(domain_.host_count(1, 7), 1);
}

TEST_F(IgmpTest, LastHostTriggersLastIface) {
  domain_.host_join(1, 0, 100, 7);
  domain_.host_leave(1, 0, 100, 7);
  ASSERT_EQ(listener_.events.size(), 2u);
  EXPECT_FALSE(listener_.events[1].joined);
  EXPECT_TRUE(listener_.events[1].edge_flag);
  EXPECT_FALSE(domain_.router_is_member(1, 7));
}

TEST_F(IgmpTest, LeaveWithRemainingIfaceNotLast) {
  domain_.host_join(1, 0, 100, 7);
  domain_.host_join(1, 1, 200, 7);
  domain_.host_leave(1, 0, 100, 7);
  ASSERT_EQ(listener_.events.size(), 3u);
  EXPECT_FALSE(listener_.events[2].edge_flag);
  EXPECT_TRUE(domain_.router_is_member(1, 7));
}

TEST_F(IgmpTest, LeaveWithRemainingHostIsSilent) {
  domain_.host_join(1, 0, 100, 7);
  domain_.host_join(1, 0, 101, 7);
  domain_.host_leave(1, 0, 100, 7);
  EXPECT_EQ(listener_.events.size(), 1u);  // only the original join
}

TEST_F(IgmpTest, LeaveOfUnknownHostIgnored) {
  domain_.host_leave(1, 0, 100, 7);
  EXPECT_TRUE(listener_.events.empty());
  EXPECT_EQ(domain_.igmp_message_count(), 0u);
}

TEST_F(IgmpTest, GroupsAreIndependent) {
  domain_.host_join(1, 0, 100, 7);
  domain_.host_join(1, 0, 100, 8);
  EXPECT_EQ(listener_.events.size(), 2u);
  EXPECT_TRUE(domain_.router_is_member(1, 7));
  EXPECT_TRUE(domain_.router_is_member(1, 8));
  domain_.host_leave(1, 0, 100, 7);
  EXPECT_FALSE(domain_.router_is_member(1, 7));
  EXPECT_TRUE(domain_.router_is_member(1, 8));
}

TEST_F(IgmpTest, MemberRouters) {
  domain_.host_join(1, 0, 100, 7);
  domain_.host_join(3, 0, 200, 7);
  EXPECT_EQ(domain_.member_routers(7), (std::vector<graph::NodeId>{1, 3}));
}

TEST_F(IgmpTest, MemberRoutersByGroupMatchesPerGroupQueries) {
  domain_.host_join(3, 0, 200, 7);
  domain_.host_join(1, 0, 100, 7);
  domain_.host_join(1, 1, 101, 8);
  domain_.host_join(2, 0, 102, 9);
  domain_.host_leave(2, 0, 102, 9);  // an emptied group is not listed
  const std::map<GroupId, std::vector<graph::NodeId>> want = {
      {7, {1, 3}}, {8, {1}}};
  EXPECT_EQ(domain_.member_routers_by_group(), want);
  for (const auto& [group, routers] : want)
    EXPECT_EQ(domain_.member_routers(group), routers);
}

TEST_F(IgmpTest, MessageCounting) {
  domain_.host_join(1, 0, 100, 7);   // 1 report
  domain_.host_join(1, 0, 101, 7);   // 1 report
  domain_.host_leave(1, 0, 100, 7);  // 1 leave
  EXPECT_EQ(domain_.igmp_message_count(), 3u);
}

TEST_F(IgmpTest, QueryCycleCountsQueriesAndReports) {
  domain_.host_join(1, 0, 100, 7);
  domain_.host_join(1, 1, 101, 7);
  const auto before = domain_.igmp_message_count();
  domain_.start_query_cycle(1.0, 3.5);
  queue_.run_all();
  // 3 query rounds; each: 1 query + 2 suppressed reports (two ifaces).
  EXPECT_EQ(domain_.igmp_message_count(), before + 3 * 3);
}

TEST_F(IgmpTest, QueryCycleSkipsMemberlessRouters) {
  domain_.start_query_cycle(1.0, 5.0);
  queue_.run_all();
  EXPECT_EQ(domain_.igmp_message_count(), 0u);
}

TEST_F(IgmpTest, ListenerDetachable) {
  domain_.set_listener(nullptr);
  domain_.host_join(1, 0, 100, 7);  // must not crash
  EXPECT_TRUE(domain_.router_is_member(1, 7));
}

// --- Soft-state expiry (failure injection: silently dead hosts) ---

TEST_F(IgmpTest, CrashedHostExpiresAfterHoldtime) {
  domain_.enable_soft_state(/*holdtime=*/2.0);
  domain_.host_join(1, 0, 100, 7);
  domain_.host_crash(1, 0, 100);
  domain_.start_query_cycle(1.0, 10.0);
  queue_.run_until(1.5);  // first tick: crash too recent
  EXPECT_TRUE(domain_.router_is_member(1, 7));
  queue_.run_until(3.5);  // holdtime elapsed by the t=3 tick
  EXPECT_FALSE(domain_.router_is_member(1, 7));
  // The expiry fired the listener's leave transition.
  ASSERT_FALSE(listener_.events.empty());
  EXPECT_FALSE(listener_.events.back().joined);
  EXPECT_TRUE(listener_.events.back().edge_flag);
}

TEST_F(IgmpTest, ExpirySendsNoLeaveMessage) {
  domain_.enable_soft_state(1.5);
  domain_.host_join(1, 0, 100, 7);  // 1 report
  const auto after_join = domain_.igmp_message_count();
  domain_.host_crash(1, 0, 100);
  domain_.start_query_cycle(1.0, 3.5);
  queue_.run_all();
  EXPECT_FALSE(domain_.router_is_member(1, 7));
  // The t=1 tick queried (host not yet expired, and a crashed host sends no
  // Report); the t=2 tick expired it, after which the router has no state.
  // No IGMP Leave is ever counted.
  EXPECT_EQ(domain_.igmp_message_count(), after_join + 1);
}

TEST_F(IgmpTest, LiveHostsKeepCrashedHostsGroupAlive) {
  domain_.enable_soft_state(1.0);
  domain_.host_join(1, 0, 100, 7);
  domain_.host_join(1, 0, 101, 7);  // second, live host
  domain_.host_crash(1, 0, 100);
  domain_.start_query_cycle(1.0, 5.0);
  queue_.run_all();
  EXPECT_TRUE(domain_.router_is_member(1, 7));  // 101 keeps it alive
  EXPECT_EQ(domain_.host_count(1, 7), 1);       // but 100 expired
}

TEST_F(IgmpTest, CrashExpiresMembershipInAllGroups) {
  domain_.enable_soft_state(1.0);
  domain_.host_join(1, 0, 100, 7);
  domain_.host_join(1, 0, 100, 8);
  domain_.host_crash(1, 0, 100);
  domain_.start_query_cycle(1.0, 3.0);
  queue_.run_all();
  EXPECT_FALSE(domain_.router_is_member(1, 7));
  EXPECT_FALSE(domain_.router_is_member(1, 8));
}

TEST_F(IgmpTest, SoftStateDisabledNeverExpires) {
  domain_.host_join(1, 0, 100, 7);
  domain_.host_crash(1, 0, 100);
  domain_.start_query_cycle(1.0, 10.0);
  queue_.run_all();
  EXPECT_TRUE(domain_.router_is_member(1, 7));
}

TEST_F(IgmpTest, CrashBeforeJoinIsHarmless) {
  domain_.enable_soft_state(1.0);
  domain_.host_crash(1, 0, 100);
  domain_.start_query_cycle(1.0, 3.0);
  queue_.run_all();
  EXPECT_FALSE(domain_.router_is_member(1, 7));
}

}  // namespace
}  // namespace scmp::igmp

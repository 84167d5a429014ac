// Tests for net/ — topology, firewall policy, reachability.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/firewall.h"
#include "net/reachability.h"
#include "net/topology.h"

namespace divsec::net {
namespace {

Topology two_zone() {
  Topology t;
  t.add_node("corp", Zone::kCorporate, Role::kWorkstation, true);
  t.add_node("ctl", Zone::kControl, Role::kScadaServer, false);
  t.add_node("plc", Zone::kField, Role::kPlc, false);
  t.connect(0, 1);
  t.connect(1, 2);
  return t;
}

TEST(Topology, AddAndLookup) {
  const Topology t = two_zone();
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_EQ(t.link_count(), 2u);
  EXPECT_EQ(t.node_by_name("ctl"), 1u);
  EXPECT_THROW((void)t.node_by_name("nope"), std::out_of_range);
  EXPECT_EQ(t.node(0).zone, Zone::kCorporate);
  EXPECT_TRUE(t.node(0).usb_exposure);
}

TEST(Topology, DuplicateNamesRejected) {
  Topology t;
  t.add_node("a", Zone::kCorporate, Role::kServer);
  EXPECT_THROW(t.add_node("a", Zone::kDmz, Role::kServer), std::invalid_argument);
  EXPECT_THROW(t.add_node("", Zone::kDmz, Role::kServer), std::invalid_argument);
}

TEST(Topology, LinksAreUndirectedAndIdempotent) {
  Topology t = two_zone();
  EXPECT_TRUE(t.linked(0, 1));
  EXPECT_TRUE(t.linked(1, 0));
  EXPECT_FALSE(t.linked(0, 2));
  t.connect(0, 1);  // idempotent
  EXPECT_EQ(t.link_count(), 2u);
  EXPECT_THROW(t.connect(0, 0), std::invalid_argument);
  EXPECT_THROW(t.connect(0, 9), std::out_of_range);
}

TEST(Topology, RoleAndZoneQueries) {
  const Topology t = two_zone();
  EXPECT_EQ(t.nodes_with_role(Role::kPlc), (std::vector<NodeId>{2}));
  EXPECT_EQ(t.nodes_in_zone(Zone::kControl), (std::vector<NodeId>{1}));
  EXPECT_EQ(t.neighbors(1).size(), 2u);
}

TEST(Topology, CopiesShareStorageUntilMutated) {
  const Topology original = two_zone();
  Topology copy = original;
  EXPECT_NE(original.identity(), nullptr);
  EXPECT_EQ(copy.identity(), original.identity());

  // Copy-on-write: the copy clones before it changes, the original
  // keeps its storage and its value.
  const NodeId extra = copy.add_node("hmi", Zone::kControl, Role::kHmi);
  copy.connect(extra, 1);
  EXPECT_NE(copy.identity(), original.identity());
  EXPECT_EQ(copy.node_count(), 4u);
  EXPECT_EQ(copy.link_count(), 3u);
  EXPECT_EQ(original.node_count(), 3u);
  EXPECT_EQ(original.link_count(), 2u);
  EXPECT_EQ(original.neighbors(1).size(), 2u);
  EXPECT_THROW((void)original.node_by_name("hmi"), std::out_of_range);

  // connect and reserve clone too.
  Topology linked = original;
  linked.connect(0, 2);
  EXPECT_NE(linked.identity(), original.identity());
  EXPECT_FALSE(original.linked(0, 2));
  Topology reserved = original;
  reserved.reserve(16);
  EXPECT_NE(reserved.identity(), original.identity());

  // A sole owner mutates in place.
  const void* before = copy.identity();
  copy.connect(0, 2);
  EXPECT_EQ(copy.identity(), before);
}

TEST(Topology, ConcurrentCopiesMutateIndependently) {
  // Workers copy one shared value, read it, and grow their own copies:
  // each copy clones before it changes, so the shared storage is only
  // ever read (the TSan leg runs this).
  const Topology base = two_zone();
  std::vector<std::size_t> sizes(4);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < sizes.size(); ++w)
    workers.emplace_back([&base, &sizes, w] {
      Topology mine = base;
      for (std::size_t i = 0; i <= w; ++i)
        mine.connect(mine.add_node("w" + std::to_string(w) + "." + std::to_string(i),
                                   Zone::kControl, Role::kHmi),
                     base.node_by_name("ctl"));
      sizes[w] = mine.node_count();
    });
  for (std::thread& t : workers) t.join();
  for (std::size_t w = 0; w < sizes.size(); ++w) EXPECT_EQ(sizes[w], 4 + w);
  EXPECT_EQ(base.node_count(), 3u);
  EXPECT_EQ(base.link_count(), 2u);
}

TEST(Topology, EmptyAndMovedFromReadAsEmpty) {
  const Topology empty;
  EXPECT_EQ(empty.identity(), nullptr);
  EXPECT_EQ(empty.node_count(), 0u);
  EXPECT_EQ(empty.link_count(), 0u);
  EXPECT_TRUE(empty.links().empty());
  EXPECT_THROW((void)empty.node(0), std::out_of_range);
  EXPECT_THROW((void)empty.node_by_name("corp"), std::out_of_range);

  Topology source = two_zone();
  const void* storage = source.identity();
  const Topology moved = std::move(source);
  EXPECT_EQ(moved.identity(), storage);
  EXPECT_EQ(moved.node_count(), 3u);
  EXPECT_EQ(source.node_count(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.identity(), nullptr);
  EXPECT_TRUE(source.nodes_with_role(Role::kPlc).empty());
  // A moved-from topology is usable again.
  EXPECT_EQ(source.add_node("fresh", Zone::kField, Role::kPlc), 0u);
  EXPECT_EQ(moved.node_count(), 3u);
}

TEST(Topology, ToStringCoverage) {
  EXPECT_STREQ(to_string(Zone::kDmz), "dmz");
  EXPECT_STREQ(to_string(Role::kEngineering), "engineering");
  EXPECT_STREQ(to_string(Channel::kPrintSpooler), "spooler");
}

TEST(Firewall, DefaultActionApplies) {
  const Firewall deny(Action::kDeny);
  EXPECT_FALSE(deny.allows(Zone::kCorporate, Zone::kControl, Channel::kHttp));
  const Firewall allow = Firewall::permissive();
  EXPECT_TRUE(allow.allows(Zone::kCorporate, Zone::kControl, Channel::kHttp));
}

TEST(Firewall, SameZoneAlwaysAllowed) {
  const Firewall deny(Action::kDeny);
  EXPECT_TRUE(deny.allows(Zone::kControl, Zone::kControl, Channel::kSmbShare));
}

TEST(Firewall, FirstMatchWins) {
  Firewall fw(Action::kAllow);
  fw.add_rule({Zone::kCorporate, Zone::kControl, std::nullopt, Action::kDeny, ""});
  fw.add_rule({Zone::kCorporate, Zone::kControl, Channel::kHttp, Action::kAllow, ""});
  // The broad deny precedes the specific allow: deny wins.
  EXPECT_FALSE(fw.allows(Zone::kCorporate, Zone::kControl, Channel::kHttp));
}

TEST(Firewall, WildcardsMatchAnything) {
  Firewall fw(Action::kDeny);
  fw.add_rule({std::nullopt, std::nullopt, Channel::kModbus, Action::kAllow, ""});
  EXPECT_TRUE(fw.allows(Zone::kCorporate, Zone::kField, Channel::kModbus));
  EXPECT_FALSE(fw.allows(Zone::kCorporate, Zone::kField, Channel::kHttp));
}

TEST(Firewall, SegmentedIcsPolicyShape) {
  const Firewall fw = Firewall::segmented_ics();
  // Allowed paths.
  EXPECT_TRUE(fw.allows(Zone::kCorporate, Zone::kDmz, Channel::kHttp));
  EXPECT_TRUE(fw.allows(Zone::kControl, Zone::kField, Channel::kModbus));
  EXPECT_TRUE(fw.allows(Zone::kControl, Zone::kField, Channel::kProjectFile));
  // Blocked paths (the ones worms want).
  EXPECT_FALSE(fw.allows(Zone::kCorporate, Zone::kControl, Channel::kSmbShare));
  EXPECT_FALSE(fw.allows(Zone::kCorporate, Zone::kField, Channel::kModbus));
  EXPECT_FALSE(fw.allows(Zone::kDmz, Zone::kControl, Channel::kSmbShare));
  EXPECT_FALSE(fw.allows(Zone::kField, Zone::kCorporate, Channel::kHttp));
}

TEST(Reachability, LinkAndPolicyBothRequired) {
  const Topology t = two_zone();
  const Firewall fw = Firewall::segmented_ics();
  // corp -> ctl linked, but corporate->control smb is denied.
  EXPECT_FALSE(can_reach(t, fw, 0, 1, Channel::kSmbShare));
  // ctl -> plc linked and modbus allowed.
  EXPECT_TRUE(can_reach(t, fw, 1, 2, Channel::kModbus));
  // corp -> plc not linked at all.
  EXPECT_FALSE(can_reach(t, fw, 0, 2, Channel::kModbus));
}

TEST(Reachability, UsbCrossesAirGapsBetweenExposedNodes) {
  Topology t;
  t.add_node("laptop", Zone::kCorporate, Role::kWorkstation, true);
  t.add_node("eng", Zone::kControl, Role::kEngineering, true);
  t.add_node("locked", Zone::kControl, Role::kScadaServer, false);
  // No links at all: an air gap.
  const Firewall fw(Action::kDeny);
  EXPECT_TRUE(can_reach(t, fw, 0, 1, Channel::kUsb));
  EXPECT_FALSE(can_reach(t, fw, 0, 2, Channel::kUsb));  // no media exposure
}

TEST(Reachability, SelfReachIsFalse) {
  const Topology t = two_zone();
  EXPECT_FALSE(can_reach(t, Firewall::permissive(), 1, 1, Channel::kHttp));
}

}  // namespace
}  // namespace divsec::net

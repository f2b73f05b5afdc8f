#include <gtest/gtest.h>

#include "net/channel.hpp"
#include "net/link.hpp"
#include "net/message.hpp"
#include "net/topology.hpp"
#include "sim/chaos.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace iotml::net {
namespace {

// ---- Link --------------------------------------------------------------------

// A link makes single wire attempts; these tests drive it the way every
// sender does, through a fire-and-forget Channel, which retries within the
// link's own LinkParams budget.

TEST(Link, ReliableDeliveryTiming) {
  Link link("l", {.latency_s = 0.5, .jitter_s = 0.0, .bandwidth_bytes_per_s = 1000.0});
  Channel channel(link, {});
  Rng rng(1);
  ChannelOutcome d = channel.send(0.0, 500, rng);  // 0.5 s serialization + 0.5 s latency
  EXPECT_TRUE(d.delivered);
  EXPECT_DOUBLE_EQ(d.arrival_s, 1.0);
  EXPECT_FALSE(d.duplicated);
  EXPECT_EQ(link.stats().messages, 1u);
  EXPECT_EQ(link.stats().bytes, 500u);
  EXPECT_EQ(link.stats().drops, 0u);
}

TEST(Link, SerialWireQueuesBehindEarlierTransmissions) {
  Link link("l", {.latency_s = 0.0, .bandwidth_bytes_per_s = 1000.0});
  Channel channel(link, {});
  Rng rng(1);
  ChannelOutcome first = channel.send(0.0, 1000, rng);  // wire busy [0, 1]
  EXPECT_DOUBLE_EQ(first.arrival_s, 1.0);
  ChannelOutcome second = channel.send(0.5, 1000, rng);  // must wait for the wire
  EXPECT_DOUBLE_EQ(second.arrival_s, 2.0);
  EXPECT_DOUBLE_EQ(link.busy_until_s(), 2.0);
}

TEST(Link, DownLinkDropsEverything) {
  Link link("l", {});
  Channel channel(link, {});
  link.set_up(false);
  Rng rng(1);
  ChannelOutcome d = channel.send(0.0, 10, rng);
  EXPECT_FALSE(d.delivered);
  EXPECT_EQ(link.stats().drops, 1u);
  link.set_up(true);
  EXPECT_TRUE(channel.send(0.0, 10, rng).delivered);
}

TEST(Link, DropRateMatchesParameterWithoutRetries) {
  Link link("l", {.drop_prob = 0.3, .max_retries = 0});
  Channel channel(link, {});
  Rng rng(2);
  int delivered = 0;
  const int sends = 2000;
  for (int i = 0; i < sends; ++i) {
    if (channel.send(0.0, 10, rng).delivered) ++delivered;
  }
  EXPECT_NEAR(static_cast<double>(delivered) / sends, 0.7, 0.05);
  EXPECT_EQ(link.stats().messages + link.stats().drops,
            static_cast<std::uint64_t>(sends));
  EXPECT_EQ(link.stats().retransmits, 0u);
}

TEST(Link, RetransmitsRecoverMostDrops) {
  Link link("l", {.drop_prob = 0.5, .max_retries = 8});
  Channel channel(link, {});
  Rng rng(3);
  int delivered = 0;
  for (int i = 0; i < 500; ++i) {
    if (channel.send(0.0, 10, rng).delivered) ++delivered;
  }
  EXPECT_GE(delivered, 495);  // survival = 1 - 0.5^9
  EXPECT_GT(link.stats().retransmits, 0u);
}

TEST(Link, RetransmitDelaysArrivalByBackoff) {
  // drop_prob 1 burns every attempt; with p=0 after we can't force exactly one
  // failure, so use a deterministic check instead: max_retries=0 + drop_prob=1
  // never delivers, and retransmit accounting shows in the send outcome.
  Link always_drops("l", {.drop_prob = 1.0, .max_retries = 3});
  Channel channel(always_drops, {});
  Rng rng(4);
  ChannelOutcome d = channel.send(0.0, 10, rng);
  EXPECT_FALSE(d.delivered);
  EXPECT_EQ(d.attempts, 4u);  // the first try plus three retransmits
  EXPECT_EQ(always_drops.stats().retransmits, 3u);
  EXPECT_EQ(always_drops.stats().drops, 1u);
}

TEST(Link, DuplicateIsALateStraggler) {
  Link link("l", {.latency_s = 0.1, .duplicate_prob = 1.0});
  Channel channel(link, {});
  Rng rng(5);
  ChannelOutcome d = channel.send(0.0, 10, rng);
  EXPECT_TRUE(d.delivered);
  EXPECT_TRUE(d.duplicated);
  EXPECT_NEAR(d.duplicate_arrival_s, d.arrival_s + 0.1, 1e-12);
  EXPECT_EQ(link.stats().duplicates, 1u);
}

TEST(Link, JitterStaysWithinBound) {
  Link link("l", {.latency_s = 1.0, .jitter_s = 0.5, .bandwidth_bytes_per_s = 1e9});
  Channel channel(link, {});
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    ChannelOutcome d = channel.send(0.0, 1, rng);
    EXPECT_GE(d.arrival_s, 1.0);
    EXPECT_LT(d.arrival_s, 1.5 + 1e-6);
  }
}

TEST(Link, Validation) {
  EXPECT_THROW(Link("l", {.bandwidth_bytes_per_s = 0.0}), InvalidArgument);
  EXPECT_THROW(Link("l", {.latency_s = -1.0}), InvalidArgument);
  EXPECT_THROW(Link("l", {.drop_prob = 1.5}), InvalidArgument);
  EXPECT_THROW(Link("l", {.duplicate_prob = -0.1}), InvalidArgument);
  EXPECT_THROW(Link("", {}), InvalidArgument);
}

// ---- Wire size ---------------------------------------------------------------

TEST(WireSize, CountsCellsBitmapAndNames) {
  data::Dataset ds;
  auto& a = ds.add_numeric_column("a");
  auto& c = ds.add_categorical_column("cat");
  a.push_numeric(1.0);
  a.push_missing();
  a.push_numeric(2.0);
  c.push_category("x");
  c.push_category("y");
  c.push_missing();
  // 8 (counts) + "a": 1+2 name/tag, 1 bitmap, 2*8 present numeric = 20
  //            + "cat": 3+2, 1 bitmap, 2*2 present categorical = 10
  EXPECT_EQ(wire_size_bytes(ds), 8u + 20u + 10u);

  ds.set_labels({0, 1, 1});
  EXPECT_EQ(wire_size_bytes(ds), 8u + 20u + 10u + 3u);
}

TEST(WireSize, MissingCellsCostOnlyBitmapBits) {
  data::Dataset full;
  auto& f = full.add_numeric_column("v");
  for (int i = 0; i < 16; ++i) f.push_numeric(1.0);
  data::Dataset holes;
  auto& h = holes.add_numeric_column("v");
  for (int i = 0; i < 16; ++i) {
    if (i % 2 == 0) {
      h.push_numeric(1.0);
    } else {
      h.push_missing();
    }
  }
  EXPECT_EQ(wire_size_bytes(full) - wire_size_bytes(holes), 8u * 8u);
}

TEST(WireSize, MessageAddsHeaderAndOrigins) {
  Message m;
  m.origin_s = {1.0, 2.0, 3.0};
  EXPECT_EQ(wire_size_bytes(m),
            kMessageHeaderBytes + wire_size_bytes(m.payload) + 24u);
}

// ---- Topology ----------------------------------------------------------------

TEST(Topology, FleetShape) {
  Topology topo = Topology::fleet(7, 3, {}, {});
  EXPECT_EQ(topo.num_devices(), 7u);
  EXPECT_EQ(topo.num_edges(), 3u);
  EXPECT_EQ(topo.num_nodes(), 11u);
  EXPECT_EQ(topo.num_links(), 10u);  // 7 device uplinks + 3 edge uplinks
  EXPECT_EQ(topo.core(), 10u);
  EXPECT_EQ(topo.node(topo.core()).tier, pipeline::Tier::kCore);
  EXPECT_EQ(topo.node(topo.device(0)).name, "dev0");
  EXPECT_EQ(topo.node(topo.edge(2)).name, "edge2");
}

TEST(Topology, DevicesBalanceAcrossEdgesRoundRobin) {
  Topology topo = Topology::fleet(6, 2, {}, {});
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(topo.next_hop(topo.device(i)), topo.edge(i % 2));
  }
  EXPECT_EQ(topo.next_hop(topo.edge(0)), topo.core());
  EXPECT_EQ(topo.uplink(topo.device(3)).name(), "dev3->edge1");
  EXPECT_EQ(topo.uplink(topo.edge(1)).name(), "edge1->core");
}

TEST(Topology, CoreHasNoUplink) {
  Topology topo = Topology::fleet(2, 1, {}, {});
  EXPECT_THROW(topo.uplink(topo.core()), InvalidArgument);
  EXPECT_THROW(topo.next_hop(topo.core()), InvalidArgument);
}

TEST(Topology, Validation) {
  EXPECT_THROW(Topology::fleet(0, 1, {}, {}), InvalidArgument);
  EXPECT_THROW(Topology::fleet(2, 0, {}, {}), InvalidArgument);
  EXPECT_THROW(Topology::fleet(2, 3, {}, {}), InvalidArgument);
  Topology topo = Topology::fleet(2, 1, {}, {});
  EXPECT_THROW(topo.device(2), InvalidArgument);
  EXPECT_THROW(topo.edge(1), InvalidArgument);
  EXPECT_THROW(topo.node(99), InvalidArgument);
  EXPECT_THROW(topo.link(99), InvalidArgument);
}

// ---- Fault plans -------------------------------------------------------------

using sim::EventKind;
using sim::FaultParams;
using sim::make_fault_plan;

TEST(Faults, PlanIsSortedAndPaired) {
  Topology topo = Topology::fleet(20, 4, {}, {});
  Rng rng(7);
  FaultParams params{.link_outages = 1.5, .link_outage_mean_s = 3.0,
                     .device_churns = 1.0, .device_offtime_mean_s = 5.0};
  std::vector<sim::ChaosEvent> plan = make_fault_plan(topo, params, 60.0, rng);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.size() % 2, 0u);  // every down paired with an up

  std::size_t downs = 0;
  std::size_t ups = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(plan[i].time_s, plan[i - 1].time_s);
    }
    EXPECT_GE(plan[i].time_s, 0.0);
    const bool is_down = plan[i].kind == EventKind::kLinkDown ||
                         plan[i].kind == EventKind::kDeviceDown;
    (is_down ? downs : ups) += 1;
    if (is_down) {
      EXPECT_LT(plan[i].time_s, 60.0);  // downs start inside the window
    }
  }
  EXPECT_EQ(downs, ups);
}

TEST(Faults, PlanIsReproduciblePerSeed) {
  Topology topo = Topology::fleet(10, 2, {}, {});
  FaultParams params{.link_outages = 2.0, .device_churns = 1.0};
  Rng a(42);
  Rng b(42);
  Rng c(43);
  std::vector<sim::ChaosEvent> plan_a = make_fault_plan(topo, params, 30.0, a);
  std::vector<sim::ChaosEvent> plan_b = make_fault_plan(topo, params, 30.0, b);
  std::vector<sim::ChaosEvent> plan_c = make_fault_plan(topo, params, 30.0, c);
  ASSERT_EQ(plan_a.size(), plan_b.size());
  for (std::size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(plan_a[i].time_s, plan_b[i].time_s);
    EXPECT_EQ(plan_a[i].kind, plan_b[i].kind);
    EXPECT_EQ(plan_a[i].target, plan_b[i].target);
  }
  bool differs = plan_a.size() != plan_c.size();
  for (std::size_t i = 0; !differs && i < plan_a.size(); ++i) {
    differs = plan_a[i].time_s != plan_c[i].time_s;
  }
  EXPECT_TRUE(differs);
}

TEST(Faults, ZeroRatesInjectNothing) {
  Topology topo = Topology::fleet(5, 1, {}, {});
  Rng rng(8);
  EXPECT_TRUE(make_fault_plan(topo, {}, 10.0, rng).empty());
}

TEST(Faults, Validation) {
  Topology topo = Topology::fleet(2, 1, {}, {});
  Rng rng(9);
  EXPECT_THROW(make_fault_plan(topo, {}, 0.0, rng), InvalidArgument);
  EXPECT_THROW(make_fault_plan(topo, {.link_outages = -1.0}, 10.0, rng), InvalidArgument);
}

TEST(Faults, KindNames) {
  EXPECT_EQ(sim::event_kind_name(EventKind::kLinkDown), "link-down");
  EXPECT_EQ(sim::event_kind_name(EventKind::kDeviceUp), "device-up");
}

}  // namespace
}  // namespace iotml::net

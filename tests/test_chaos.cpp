// The chaos harness and the fault-tolerant runtime it exercises: reliable
// transport, crash/recovery with checkpoints and store-and-forward, degraded
// deploy modes, and the determinism discipline every fault schedule obeys.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/channel.hpp"
#include "net/faults.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "sim/chaos.hpp"
#include "sim/fleet.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace iotml::sim {
namespace {

// ---- Link backoff (fire-and-forget retries) ----------------------------------

// A fire-and-forget channel must back off exponentially between the link's
// retries: the incremental wire-busy time contributed by each additional
// retry grows with the attempt index until the cap bites. Total-loss links
// make the schedule observable through busy_until_s without any
// probabilistic slack.
TEST(LinkBackoff, RetryDelayGrowsPerAttempt) {
  net::LinkParams params;
  params.latency_s = 0.0;
  params.jitter_s = 0.0;
  params.bandwidth_bytes_per_s = 1000.0;  // 1000-byte frame = 1s on the wire
  params.drop_prob = 1.0;
  params.retry_backoff_s = 0.1;
  params.retry_backoff_cap_s = 100.0;  // effectively uncapped here

  std::vector<double> busy;
  for (std::size_t retries = 0; retries <= 4; ++retries) {
    params.max_retries = retries;
    net::Link link("l", params);
    net::Channel channel(link, {});
    Rng rng(7);
    const net::ChannelOutcome d = channel.send(0.0, 1000, rng);
    EXPECT_FALSE(d.delivered);
    EXPECT_EQ(d.attempts, retries + 1);
    busy.push_back(link.busy_until_s());
  }
  // Retry k adds one serialization time plus min(base * 2^(k-1), cap) of
  // backoff: 1.1, 1.2, 1.4, 1.8 seconds for base 0.1.
  std::vector<double> deltas;
  for (std::size_t i = 1; i < busy.size(); ++i) deltas.push_back(busy[i] - busy[i - 1]);
  ASSERT_EQ(deltas.size(), 4u);
  EXPECT_NEAR(deltas[0], 1.1, 1e-9);
  EXPECT_NEAR(deltas[1], 1.2, 1e-9);
  EXPECT_NEAR(deltas[2], 1.4, 1e-9);
  EXPECT_NEAR(deltas[3], 1.8, 1e-9);
  for (std::size_t i = 1; i < deltas.size(); ++i) EXPECT_GT(deltas[i], deltas[i - 1]);
}

TEST(LinkBackoff, CapBoundsTheWait) {
  net::LinkParams params;
  params.latency_s = 0.0;
  params.jitter_s = 0.0;
  params.bandwidth_bytes_per_s = 1000.0;
  params.drop_prob = 1.0;
  params.max_retries = 6;
  params.retry_backoff_s = 0.1;
  params.retry_backoff_cap_s = 0.25;

  net::Link link("l", params);
  net::Channel channel(link, {});
  Rng rng(7);
  channel.send(0.0, 1000, rng);
  // 7 serializations + backoffs 0.1, 0.2 then 0.25 four times (capped).
  EXPECT_NEAR(link.busy_until_s(), 7.0 + 0.1 + 0.2 + 4 * 0.25, 1e-9);
}

// ---- Ack/retry channel -------------------------------------------------------

TEST(Channel, RepairsLossTheLinkWouldDrop) {
  net::LinkParams lossy;
  lossy.drop_prob = 0.5;
  lossy.max_retries = 0;

  net::ChannelParams cp;
  cp.mode = net::ChannelMode::kAckRetry;
  cp.max_attempts = 8;

  std::size_t link_delivered = 0;
  std::size_t channel_delivered = 0;
  const std::size_t sends = 200;
  {
    net::Link link("l", lossy);
    net::Channel fire_and_forget(link, {});
    Rng rng(11);
    for (std::size_t i = 0; i < sends; ++i) {
      if (fire_and_forget.send(static_cast<double>(i) * 10.0, 100, rng).delivered) {
        ++link_delivered;
      }
    }
  }
  {
    net::Link link("l", lossy);
    net::Channel channel(link, cp);
    Rng rng(11);
    for (std::size_t i = 0; i < sends; ++i) {
      if (channel.send(static_cast<double>(i) * 10.0, 100, rng).delivered) ++channel_delivered;
    }
    EXPECT_GT(channel.stats().retransmits, 0u);
    EXPECT_GT(channel.stats().acks, 0u);
  }
  EXPECT_GT(channel_delivered, link_delivered);
  EXPECT_GE(channel_delivered, sends * 95 / 100);  // >= 95% at 50% frame loss
}

TEST(Channel, CorruptionIsRejectedAndRepaired) {
  net::LinkParams params;
  params.corrupt_prob = 1.0;  // every frame arrives mangled

  net::Link ff_link("ff", params);
  net::Channel ff(ff_link, {});
  Rng rng_ff(3);
  const net::ChannelOutcome ff_out = ff.send(0.0, 100, rng_ff);
  EXPECT_FALSE(ff_out.delivered);
  EXPECT_TRUE(ff_out.corrupted);  // detected, rejected, not repaired

  net::ChannelParams cp;
  cp.mode = net::ChannelMode::kAckRetry;
  cp.max_attempts = 4;
  net::Link ack_link("ack", params);
  net::Channel ack(ack_link, cp);
  Rng rng_ack(3);
  const net::ChannelOutcome ack_out = ack.send(0.0, 100, rng_ack);
  EXPECT_FALSE(ack_out.delivered);  // nothing intact ever lands
  EXPECT_EQ(ack.stats().corrupt_rejected, cp.max_attempts);
  EXPECT_EQ(ack.stats().timeouts, cp.max_attempts);
}

TEST(Channel, BackpressureDeadLettersWhenQueueFull) {
  net::LinkParams slow;
  slow.bandwidth_bytes_per_s = 1.0;  // each frame busies the wire for ages

  net::ChannelParams cp;
  cp.mode = net::ChannelMode::kAckRetry;
  cp.max_attempts = 1;
  cp.queue_capacity = 2;

  net::Link link("l", slow);
  net::Channel channel(link, cp);
  Rng rng(5);
  EXPECT_TRUE(channel.send(0.0, 100, rng).accepted);
  EXPECT_TRUE(channel.send(0.0, 100, rng).accepted);
  const net::ChannelOutcome third = channel.send(0.0, 100, rng);
  EXPECT_FALSE(third.accepted);
  EXPECT_EQ(channel.stats().dead_letters, 1u);
  EXPECT_EQ(channel.in_flight(0.0), 2u);
}

TEST(Channel, DownLinkTimesOutImmediately) {
  net::Link link("l", {});
  link.set_up(false);
  net::ChannelParams cp;
  cp.mode = net::ChannelMode::kAckRetry;
  net::Channel channel(link, cp);
  Rng rng(1);
  const net::ChannelOutcome out = channel.send(0.0, 100, rng);
  EXPECT_TRUE(out.accepted);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(channel.stats().timeouts, 1u);
  EXPECT_EQ(link.stats().drops, 1u);
}

// ---- Fault and chaos plan determinism ----------------------------------------

TEST(ChaosPlan, DeterministicPerSeedAndPaired) {
  ChaosParams params;
  params.partitions = 2.0;
  params.loss_bursts = 2.0;
  params.corruption_storms = 2.0;

  Rng rng_a(99);
  Rng rng_b(99);
  const std::vector<ChaosEvent> a = make_chaos_plan(params, 60.0, rng_a);
  const std::vector<ChaosEvent> b = make_chaos_plan(params, 60.0, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time_s, b[i].time_s);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].target, b[i].target);
  }

  // Every start has an end, and the plan is time-sorted.
  int depth_partition = 0;
  double last_t = 0.0;
  for (const ChaosEvent& e : a) {
    EXPECT_GE(e.time_s, last_t);
    last_t = e.time_s;
    if (e.kind == EventKind::kPartitionStart) ++depth_partition;
    if (e.kind == EventKind::kPartitionEnd) --depth_partition;
    EXPECT_GE(depth_partition, 0);
  }
  EXPECT_EQ(depth_partition, 0);

  Rng rng_c(100);
  const std::vector<ChaosEvent> c = make_chaos_plan(params, 60.0, rng_c);
  bool identical = a.size() == c.size();
  for (std::size_t i = 0; identical && i < a.size(); ++i) {
    identical = a[i].time_s == c[i].time_s && a[i].kind == c[i].kind;
  }
  EXPECT_FALSE(identical);
}

TEST(FaultPlan, CrashSchedulesDeterministicPerSeed) {
  const net::Topology topo = net::Topology::fleet(8, 2, {}, {});
  net::FaultParams params;
  params.edge_crashes = 2.0;
  params.core_crashes = 1.0;

  Rng rng_a(7);
  Rng rng_b(7);
  const auto a = net::make_fault_plan(topo, params, 60.0, rng_a);
  const auto b = net::make_fault_plan(topo, params, 60.0, rng_b);
  ASSERT_EQ(a.size(), b.size());
  bool any_edge_crash = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time_s, b[i].time_s);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].target, b[i].target);
    if (a[i].kind == net::FaultKind::kEdgeCrash) any_edge_crash = true;
  }
  EXPECT_TRUE(any_edge_crash);
}

TEST(ChaosPlan, Validation) {
  Rng rng(1);
  ChaosParams bad;
  bad.partitions = -1.0;
  EXPECT_THROW(make_chaos_plan(bad, 10.0, rng), InvalidArgument);
  bad = {};
  bad.burst_drop_prob = 1.5;
  EXPECT_THROW(make_chaos_plan(bad, 10.0, rng), InvalidArgument);
  EXPECT_THROW(make_chaos_plan({}, 0.0, rng), InvalidArgument);
}

// ---- Fleet under chaos -------------------------------------------------------

FleetConfig chaos_config(std::uint64_t seed = 42) {
  FleetConfig config;
  config.devices = 20;
  config.edges = 2;
  config.duration_s = 20.0;
  config.seed = seed;
  config.faults.edge_crashes = 1.0;
  config.faults.edge_downtime_mean_s = 3.0;
  config.chaos.partitions = 1.0;
  config.chaos.partition_mean_s = 4.0;
  config.chaos.corruption_storms = 1.0;
  config.chaos.storm_mean_s = 5.0;
  config.chaos.storm_corrupt_prob = 0.1;
  return config;
}

void enable_fault_tolerance(FleetConfig& config) {
  config.channel.mode = net::ChannelMode::kAckRetry;
  config.channel.ack_timeout_s = 0.1;
  config.channel.max_attempts = 6;
  config.checkpoint_interval_s = 2.0;
  config.device_buffer_rows = 4096;
}

TEST(FleetChaos, DeterministicPerSeed) {
  // The chaos schedule, the crash/restart cycle, the ack retransmissions and
  // the recovery paths must all replay byte-exactly from the master seed.
  FleetConfig config = chaos_config();
  enable_fault_tolerance(config);
  FleetSim a(config);
  const FleetReport ra = a.run();
  FleetSim b(config);
  const FleetReport rb = b.run();
  EXPECT_EQ(a.event_log(), b.event_log());
  EXPECT_EQ(ra.to_json(), rb.to_json());

  FleetConfig other = chaos_config(43);
  enable_fault_tolerance(other);
  FleetSim c(other);
  const FleetReport rc = c.run();
  EXPECT_NE(ra.to_json(), rc.to_json());
}

TEST(FleetChaos, CompoundScenarioConservesRows) {
  // Partition + edge crashes + corruption storm: every generated row must
  // land in exactly one ledger bucket (run() also asserts this internally).
  FleetConfig config = chaos_config();
  enable_fault_tolerance(config);
  FleetSim fleet(config);
  const FleetReport r = fleet.run();
  EXPECT_GT(r.rows_generated, 0u);
  EXPECT_EQ(r.rows_accounted(), r.rows_generated);
  EXPECT_TRUE(r.rows_conserved());
  EXPECT_GT(r.faults.edge_crashes + r.faults.partitions + r.faults.corruption_storms, 0u);
}

TEST(FleetChaos, ObservatoryFlightDumpsAreDeterministicAndBounded) {
  // Under compound chaos the fault triggers (crash, partition, dead-letter)
  // dump flight rings into the report. The dumps must replay byte-exactly
  // per seed, stay capped, and leave the event log byte-identical to an
  // observatory-off run.
  FleetConfig config = chaos_config();
  enable_fault_tolerance(config);
  config.observatory.enabled = true;
  FleetSim a(config);
  const FleetReport ra = a.run();
  FleetSim b(config);
  const FleetReport rb = b.run();
  EXPECT_EQ(a.event_log(), b.event_log());
  EXPECT_EQ(ra.to_json(), rb.to_json());

  ASSERT_FALSE(ra.faults.flight_dumps.empty());
  EXPECT_LE(ra.faults.flight_dumps.size(), kMaxFlightDumps);
  for (const FlightDump& dump : ra.faults.flight_dumps) {
    EXPECT_FALSE(dump.entity.empty());
    EXPECT_TRUE(dump.trigger == "edge-crash" || dump.trigger == "core-crash" ||
                dump.trigger == "partition" || dump.trigger == "dead-letter")
        << dump.trigger;
  }
  EXPECT_NE(ra.to_json().find("\"flight_dumps\""), std::string::npos);

  FleetConfig off = chaos_config();
  enable_fault_tolerance(off);
  FleetSim c(off);
  const FleetReport rc = c.run();
  EXPECT_EQ(a.event_log(), c.event_log());
  EXPECT_TRUE(rc.faults.flight_dumps.empty());  // no observatory, no dumps
}

TEST(FleetChaos, AckModeBeatsFireAndForgetUnderFaults) {
  FleetConfig ff = chaos_config(7);
  FleetConfig ack = ff;
  enable_fault_tolerance(ack);

  FleetSim a(ff);
  const FleetReport ra = a.run();
  FleetSim b(ack);
  const FleetReport rb = b.run();
  EXPECT_TRUE(ra.rows_conserved());
  EXPECT_TRUE(rb.rows_conserved());
  EXPECT_GT(rb.rows_delivered, ra.rows_delivered);
  // Rows the fault-tolerant stack actually destroys (vs merely holds in a
  // buffer when the horizon closes mid-outage) must stay under 5%. The
  // >= 95% *delivered* acceptance runs at 100 devices in bench_chaos, where
  // end-of-run stranding is proportionally negligible.
  const std::size_t destroyed = rb.rows_lost + rb.rows_skipped +
                                rb.faults.rows_corrupt_rejected +
                                rb.faults.rows_buffer_evicted +
                                rb.faults.rows_lost_to_crash;
  EXPECT_LE(destroyed * 100, rb.rows_generated * 5);
  EXPECT_GT(rb.channels.acks, 0u);
}

TEST(FleetChaos, CorruptionStormIsDetectedNeverScored) {
  // Fire-and-forget under a permanent corruption storm: frames arrive, fail
  // their checksum and are rejected — ledgered, not silently integrated.
  FleetConfig config = chaos_config(5);
  config.faults = {};
  config.chaos = {};
  config.device_edge_link.corrupt_prob = 0.3;
  FleetSim fleet(config);
  const FleetReport r = fleet.run();
  EXPECT_GT(r.faults.rows_corrupt_rejected, 0u);
  EXPECT_TRUE(r.rows_conserved());
}

TEST(FleetChaos, CheckpointRestoreRecoversRows) {
  FleetConfig config = chaos_config(11);
  config.chaos = {};
  config.faults = {};
  config.faults.edge_crashes = 2.0;
  config.faults.edge_downtime_mean_s = 2.0;
  config.checkpoint_interval_s = 1.0;
  // Keep the edge buffers populated for most of the run (frequent device
  // reports, one late edge flush) so crashes land on non-empty checkpoints.
  config.device_flush_s = 2.0;
  config.edge_flush_s = 19.0;
  FleetSim fleet(config);
  const FleetReport r = fleet.run();
  EXPECT_GT(r.faults.checkpoints_written, 0u);
  EXPECT_GT(r.faults.edge_crashes, 0u);
  EXPECT_GT(r.faults.checkpoints_restored, 0u);
  EXPECT_LE(r.faults.checkpoints_restored, r.faults.edge_crashes);
  EXPECT_GT(r.faults.rows_recovered, 0u);
  EXPECT_TRUE(r.rows_conserved());

  // Without checkpoints the same crash schedule loses strictly more rows.
  FleetConfig bare = config;
  bare.checkpoint_interval_s = 0.0;
  FleetSim fleet_bare(bare);
  const FleetReport rb = fleet_bare.run();
  EXPECT_TRUE(rb.rows_conserved());
  EXPECT_GE(rb.faults.rows_lost_to_crash, r.faults.rows_lost_to_crash);
}

TEST(FleetChaos, StoreAndForwardDrainsAfterChurn) {
  FleetConfig offline = chaos_config(13);
  offline.chaos = {};
  offline.faults = {};
  offline.faults.device_churns = 2.0;
  offline.faults.device_offtime_mean_s = 5.0;

  FleetSim bare(offline);
  const FleetReport rb = bare.run();
  EXPECT_GT(rb.rows_skipped, 0u);  // legacy behaviour: offline windows dropped

  FleetConfig buffered = offline;
  buffered.device_buffer_rows = 4096;
  FleetSim sf(buffered);
  const FleetReport rs = sf.run();
  EXPECT_LT(rs.rows_skipped, rb.rows_skipped);
  EXPECT_GT(rs.rows_delivered, rb.rows_delivered);
  EXPECT_TRUE(rs.rows_conserved());
}

TEST(FleetChaos, RecoveryCountersLandInRegistry) {
  obs::registry().reset();
  FleetConfig config = chaos_config(17);
  enable_fault_tolerance(config);
  // One-deep queues, 1 s flushes, loss bursts and heavy corruption storms:
  // every net.channel.* counter moves.
  config.channel.queue_capacity = 1;
  config.device_flush_s = 1.0;
  config.chaos.loss_bursts = 2.0;
  config.chaos.burst_drop_prob = 0.6;
  config.chaos.corruption_storms = 2.0;
  config.chaos.storm_corrupt_prob = 0.3;
  FleetSim fleet(config);
  const FleetReport r = fleet.run();
  EXPECT_EQ(obs::registry().counter("sim.recovery.checkpoints_written").value(),
            r.faults.checkpoints_written);
  EXPECT_EQ(obs::registry().counter("sim.faults.edge_crash").value(), r.faults.edge_crashes);
  const std::pair<const char*, std::uint64_t> channel_counters[] = {
      {"net.channel.acks", r.channels.acks},
      {"net.channel.retransmits", r.channels.retransmits},
      {"net.channel.timeouts", r.channels.timeouts},
      {"net.channel.backoff_waits", r.channels.backoff_waits},
      {"net.channel.corrupt_rejected", r.channels.corrupt_rejected},
      {"net.channel.dead_letters", r.channels.dead_letters}};
  for (const auto& [name, reported] : channel_counters) {
    EXPECT_GT(reported, 0u) << name;
    EXPECT_EQ(obs::registry().counter(name).value(), reported) << name;
  }
}

// ---- Degraded deploy modes ---------------------------------------------------

FleetConfig deploy_chaos_config(std::uint64_t seed = 42) {
  FleetConfig config;
  config.devices = 16;
  config.edges = 2;
  config.duration_s = 16.0;
  config.seed = seed;
  config.deploy.enabled = true;
  config.deploy.score_window_s = 8.0;
  config.deploy.stale_fallback = true;
  return config;
}

TEST(DeployChaos, CrashDuringBroadcastFallsBackToPriorArtifact) {
  // Edge 0 crashes at the broadcast instant: its devices never receive the
  // fresh artifact, but with stale_fallback they keep scoring on the prior
  // epoch's model instead of going dark — and the staleness is ledgered.
  FleetConfig config = deploy_chaos_config();
  config.chaos.crash_during_broadcast = true;
  config.chaos.broadcast_crash_downtime_s = 4.0;
  FleetSim fleet(config);
  const FleetReport r = fleet.run();
  EXPECT_TRUE(r.deploy.enabled);
  EXPECT_GT(r.deploy.devices_stale, 0u);
  EXPECT_GT(r.deploy.rows_scored_stale, 0u);
  EXPECT_EQ(r.faults.stale_model_devices, r.deploy.devices_stale);
  EXPECT_GT(r.deploy.devices_deployed, 0u);  // the other edge still deploys
  EXPECT_EQ(r.deploy.devices_deployed + r.deploy.devices_missed + r.deploy.devices_stale,
            r.devices);
  EXPECT_GT(r.faults.edge_crashes, 0u);
  EXPECT_TRUE(r.rows_conserved());
}

TEST(DeployChaos, CrashDuringBroadcastIsDeterministic) {
  FleetConfig config = deploy_chaos_config(9);
  config.chaos.crash_during_broadcast = true;
  FleetSim a(config);
  const FleetReport ra = a.run();
  FleetSim b(config);
  const FleetReport rb = b.run();
  EXPECT_EQ(a.event_log(), b.event_log());
  EXPECT_EQ(ra.to_json(), rb.to_json());
}

TEST(DeployChaos, NoChaosMeansNoStaleDevices) {
  FleetSim fleet(deploy_chaos_config(3));
  const FleetReport r = fleet.run();
  EXPECT_EQ(r.deploy.devices_stale, 0u);
  EXPECT_EQ(r.faults.stale_model_devices, 0u);
}

}  // namespace
}  // namespace iotml::sim

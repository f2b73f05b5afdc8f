// Randomized fleet-config sweep: a fixed seed draws a fixed number of
// FleetConfigs across scale, flush cadence, channel mode, link duplication,
// every fault and chaos scenario, checkpoints, store-and-forward, telemetry,
// deploy, OTA, the degradation ladder and the observatory. Every config must
// run without throwing, conserve its rows, decode every TDF frame to the
// device's rows, verify every OTA image, and replay byte for byte: the same
// event log, report JSON and (observatory on) journeys on a second run.
// The sweep is split into shards, one test each, so `ctest -j` spreads it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <sstream>
#include <string>

#include "sim/fleet.hpp"
#include "sim/report.hpp"
#include "util/rng.hpp"

namespace iotml::sim {
namespace {

constexpr std::uint64_t kSweepSeed = 7;
constexpr std::size_t kShards = 8;
constexpr std::size_t kConfigsPerShard = 20;

/// Config `index`'s own generator: the index-th split of the sweep seed, so
/// a shard draws its configs without drawing the ones before it.
Rng config_rng(std::size_t index) {
  Rng master(kSweepSeed);
  for (std::size_t i = 0; i < index; ++i) master.split();
  return master.split();
}

/// 0 with probability `off`, else a uniform draw from [lo, hi).
double maybe(Rng& rng, double off, double lo, double hi) {
  return rng.bernoulli(off) ? 0.0 : rng.uniform(lo, hi);
}

/// A log-uniform size in [lo, hi], so small bounds (the ones that evict)
/// come up as often as large ones.
std::size_t log_uniform(Rng& rng, double lo, double hi) {
  return static_cast<std::size_t>(
      std::llround(std::exp(rng.uniform(std::log(lo), std::log(hi)))));
}

FleetConfig random_config(std::size_t index) {
  Rng rng = config_rng(index);
  FleetConfig c;
  c.seed = rng.engine()();
  // About one fleet in ten is wide enough to sense on worker threads.
  c.devices = rng.bernoulli(0.1) ? static_cast<std::size_t>(rng.uniform_int(130, 170))
                                 : static_cast<std::size_t>(rng.uniform_int(2, 64));
  c.edges = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<int>(std::min<std::size_t>(6, c.devices))));
  c.duration_s = rng.uniform(3.0, 18.0);
  c.device_flush_s = rng.uniform(0.5, 4.0);
  c.edge_flush_s = rng.uniform(1.0, 6.0);

  if (rng.bernoulli(0.5)) {
    c.channel.mode = net::ChannelMode::kAckRetry;
    c.channel.ack_timeout_s = rng.uniform(0.02, 0.5);
    c.channel.backoff_base_s = rng.uniform(0.01, 0.2);
    c.channel.backoff_cap_s = rng.uniform(0.1, 2.0);
    c.channel.max_attempts = static_cast<std::size_t>(rng.uniform_int(1, 6));
    c.channel.queue_capacity = static_cast<std::size_t>(rng.uniform_int(1, 64));
  }
  c.device_edge_link.duplicate_prob = maybe(rng, 0.5, 0.0, 0.3);
  c.edge_core_link.duplicate_prob = maybe(rng, 0.5, 0.0, 0.3);

  c.faults.link_outages = maybe(rng, 0.5, 0.2, 2.0);
  c.faults.link_outage_mean_s = rng.uniform(0.5, 5.0);
  c.faults.device_churns = maybe(rng, 0.5, 0.2, 2.0);
  c.faults.device_offtime_mean_s = rng.uniform(0.5, 6.0);
  c.faults.edge_crashes = maybe(rng, 0.6, 0.2, 1.5);
  c.faults.edge_downtime_mean_s = rng.uniform(0.5, 5.0);
  c.faults.core_crashes = maybe(rng, 0.7, 0.2, 1.0);
  c.chaos.partitions = maybe(rng, 0.6, 0.2, 1.5);
  c.chaos.partition_mean_s = rng.uniform(0.5, 5.0);
  c.chaos.loss_bursts = maybe(rng, 0.5, 0.2, 2.0);
  c.chaos.burst_mean_s = rng.uniform(0.5, 4.0);
  c.chaos.burst_drop_prob = rng.uniform(0.2, 0.9);
  c.chaos.corruption_storms = maybe(rng, 0.5, 0.2, 2.0);
  c.chaos.storm_mean_s = rng.uniform(0.5, 4.0);
  c.chaos.storm_corrupt_prob = rng.uniform(0.05, 0.4);
  c.chaos.load_storms = maybe(rng, 0.6, 0.2, 2.0);
  c.chaos.load_storm_mean_s = rng.uniform(0.5, 4.0);
  c.chaos.load_storm_factor = rng.uniform(1.5, 9.5);

  c.checkpoint_interval_s = maybe(rng, 0.4, 0.3, 4.3);
  c.device_buffer_rows = rng.bernoulli(0.4) ? 0 : log_uniform(rng, 4.0, 4100.0);
  c.telemetry.enabled = rng.bernoulli(0.5);
  c.telemetry.device_log_bytes = log_uniform(rng, 64.0, 16384.0);

  c.deploy.enabled = rng.bernoulli(0.3);
  c.deploy.score_window_s = rng.uniform(1.0, 8.0);
  c.deploy.stale_fallback = rng.bernoulli(0.5);
  c.chaos.crash_during_broadcast = c.deploy.enabled && rng.bernoulli(0.3);
  c.chaos.broadcast_crash_downtime_s = rng.uniform(0.5, 5.0);
  c.ota.enabled = rng.bernoulli(0.3);
  c.ota.epochs = rng.uniform_int(1, 3);
  c.degrade.enabled = rng.bernoulli(0.35);
  c.degrade.pin_level = rng.uniform_int(-1, 3);
  c.observatory.enabled = rng.bernoulli(0.5);
  return c;
}

/// The drawn fields of config `index`, printed as a repro on failure.
std::string describe(std::size_t index, const FleetConfig& c) {
  std::ostringstream out;
  out.precision(17);
  out << "sweep config " << index << " (seed " << kSweepSeed << "): seed=" << c.seed
      << " devices=" << c.devices << " edges=" << c.edges << " duration_s=" << c.duration_s
      << " device_flush_s=" << c.device_flush_s << " edge_flush_s=" << c.edge_flush_s
      << " ack=" << (c.channel.mode == net::ChannelMode::kAckRetry)
      << " ack_timeout_s=" << c.channel.ack_timeout_s
      << " backoff_base_s=" << c.channel.backoff_base_s
      << " backoff_cap_s=" << c.channel.backoff_cap_s
      << " max_attempts=" << c.channel.max_attempts
      << " queue_capacity=" << c.channel.queue_capacity
      << " device_edge_dup=" << c.device_edge_link.duplicate_prob
      << " edge_core_dup=" << c.edge_core_link.duplicate_prob
      << " link_outages=" << c.faults.link_outages << '/' << c.faults.link_outage_mean_s
      << " device_churns=" << c.faults.device_churns << '/' << c.faults.device_offtime_mean_s
      << " edge_crashes=" << c.faults.edge_crashes << '/' << c.faults.edge_downtime_mean_s
      << " core_crashes=" << c.faults.core_crashes
      << " partitions=" << c.chaos.partitions << '/' << c.chaos.partition_mean_s
      << " loss_bursts=" << c.chaos.loss_bursts << '/' << c.chaos.burst_mean_s << '/'
      << c.chaos.burst_drop_prob
      << " corruption_storms=" << c.chaos.corruption_storms << '/' << c.chaos.storm_mean_s
      << '/' << c.chaos.storm_corrupt_prob
      << " load_storms=" << c.chaos.load_storms << '/' << c.chaos.load_storm_mean_s << '/'
      << c.chaos.load_storm_factor
      << " checkpoint_interval_s=" << c.checkpoint_interval_s
      << " device_buffer_rows=" << c.device_buffer_rows
      << " telemetry=" << c.telemetry.enabled << '/' << c.telemetry.device_log_bytes
      << " deploy=" << c.deploy.enabled << '/' << c.deploy.score_window_s
      << " stale_fallback=" << c.deploy.stale_fallback
      << " crash_during_broadcast=" << c.chaos.crash_during_broadcast << '/'
      << c.chaos.broadcast_crash_downtime_s
      << " ota=" << c.ota.enabled << '/' << c.ota.epochs
      << " degrade=" << c.degrade.enabled << '/' << c.degrade.pin_level
      << " observatory=" << c.observatory.enabled;
  return out.str();
}

/// What a run leaves behind that a rerun must reproduce byte for byte.
struct RunBytes {
  std::string events;
  std::string report;
  std::string journeys;  ///< empty when the observatory is off
};

RunBytes run_fleet(const FleetConfig& config, FleetReport& report) {
  FleetSim sim(config);
  report = sim.run();
  RunBytes bytes;
  std::ostringstream events;
  sim.write_event_log(events);
  bytes.events = events.str();
  bytes.report = report.to_json();
  if (sim.observatory() != nullptr) {
    std::ostringstream jsonl;
    sim.observatory()->journeys().write_jsonl(jsonl);
    bytes.journeys = jsonl.str();
  }
  return bytes;
}

class FleetSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FleetSweep, ConfigsHoldTheirInvariantsAndReplay) {
  const std::size_t shard = GetParam();
  for (std::size_t k = 0; k < kConfigsPerShard; ++k) {
    const std::size_t index = shard * kConfigsPerShard + k;
    const FleetConfig config = random_config(index);
    SCOPED_TRACE(describe(index, config));
    FleetReport first;
    FleetReport second;
    RunBytes a;
    RunBytes b;
    try {
      a = run_fleet(config, first);
      b = run_fleet(config, second);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "the run threw: " << e.what();
      continue;
    }
    EXPECT_TRUE(first.rows_conserved());
    EXPECT_TRUE(first.telemetry.decode_identity_ok);
    EXPECT_TRUE(first.deploy.ota.all_devices_verified);
    EXPECT_TRUE(a.events == b.events) << "the rerun's event log differs";
    EXPECT_TRUE(a.report == b.report) << "the rerun's report JSON differs";
    EXPECT_TRUE(a.journeys == b.journeys) << "the rerun's journeys differ";
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, FleetSweep, ::testing::Range<std::size_t>(0, kShards));

}  // namespace
}  // namespace iotml::sim

// The graceful-degradation contract end to end (DESIGN.md §16): L0 byte
// identity against pre-ladder goldens, row-conservation closure at every
// pinned ladder level, hysteresis stability across chaos burst boundaries,
// and the load-storm scenario that compresses device flush schedules.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "approx/degradation.hpp"
#include "sim/fleet.hpp"
#include "sim/report.hpp"
#include "util/error.hpp"

namespace iotml::sim {
namespace {

// The exact config the pre-ladder goldens were generated from (seed code,
// before src/approx existed): compound chaos over an ack fleet with
// checkpoints and store-and-forward. Do not change it — the goldens pin the
// bytes this config produced before the ladder landed.
FleetConfig golden_config() {
  FleetConfig cfg;
  cfg.devices = 20;
  cfg.edges = 2;
  cfg.duration_s = 40.0;
  cfg.seed = 9001;
  cfg.channel.mode = net::ChannelMode::kAckRetry;
  cfg.checkpoint_interval_s = 2.0;
  cfg.device_buffer_rows = 4096;
  cfg.chaos.partitions = 1.0;
  cfg.chaos.partition_mean_s = 4.0;
  cfg.chaos.loss_bursts = 1.0;
  cfg.chaos.burst_mean_s = 3.0;
  cfg.chaos.corruption_storms = 1.0;
  cfg.chaos.storm_mean_s = 3.0;
  return cfg;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string joined_event_log(const FleetSim& sim) {
  std::string out;
  for (const std::string& line : sim.event_log()) {
    out += line;
    out += '\n';
  }
  return out;
}

// (d) A run with degradation compiled in but disabled must reproduce the
// pre-ladder FleetReport JSON and event log byte-for-byte. These goldens
// were generated from the seed tree; IOTML_UPDATE_GOLDEN exists for an
// *intentional* report-format change only.
TEST(DegradeGolden, DisabledRunMatchesPreLadderBytes) {
  FleetSim sim(golden_config());
  const FleetReport report = sim.run();
  const std::string json = report.to_json();
  const std::string events = joined_event_log(sim);

  const std::string report_path =
      std::string(IOTML_GOLDEN_DIR) + "/fleet_report_l0.json";
  const std::string events_path =
      std::string(IOTML_GOLDEN_DIR) + "/fleet_events_l0.log";
  const char* update = std::getenv("IOTML_UPDATE_GOLDEN");  // NOLINT(concurrency-mt-unsafe)
  if (update != nullptr && update[0] == '1') {
    std::ofstream(report_path, std::ios::binary) << json;
    std::ofstream(events_path, std::ios::binary) << events;
    GTEST_SKIP() << "goldens rewritten";
  }
  const std::string golden_json = read_file(report_path);
  const std::string golden_events = read_file(events_path);
  ASSERT_FALSE(golden_json.empty())
      << "missing golden file; regenerate with IOTML_UPDATE_GOLDEN=1";
  EXPECT_EQ(json, golden_json);
  EXPECT_EQ(events, golden_events);
}

// (d) continued: enabling the ladder pinned at L0 may add the degradation
// block to the report, but the *event log* — the run's behavior — must stay
// byte-identical: no new events, no extra draws, no changed wire byte.
TEST(DegradeGolden, L0PinnedRunMatchesPreLadderEventLog) {
  FleetConfig cfg = golden_config();
  cfg.degrade.enabled = true;
  cfg.degrade.pin_level = 0;
  FleetSim sim(cfg);
  const FleetReport report = sim.run();

  const std::string golden_events =
      read_file(std::string(IOTML_GOLDEN_DIR) + "/fleet_events_l0.log");
  ASSERT_FALSE(golden_events.empty());
  EXPECT_EQ(joined_event_log(sim), golden_events);

  // Every window answered exactly; the ladder never moved.
  EXPECT_TRUE(report.rows_conserved());
  EXPECT_EQ(report.degradation.rows_sampled_out, 0u);
  EXPECT_EQ(report.degradation.rows_approx, 0u);
  EXPECT_GT(report.degradation.windows_exact, 0u);
  EXPECT_EQ(report.degradation.transitions_up, 0u);
  for (const EdgeDegradeTimeline& tl : report.degradation.edges) {
    EXPECT_EQ(tl.final_level, 0);
    EXPECT_TRUE(tl.transitions.empty());
  }
  // The same rows landed as in the disabled run (golden pins 2035).
  EXPECT_EQ(report.rows_delivered, 2035u);
}

// (c) The conservation ledger must close at every rung: pinned L1 sheds
// sampled-out rows, pinned L2/L3 shed whole windows, and every shed row has
// to land in rows_sampled_out — never vanish.
TEST(DegradeLedger, ConservationClosesAtEveryPinnedLevel) {
  for (int pin = 0; pin <= 3; ++pin) {
    FleetConfig cfg = golden_config();
    cfg.degrade.enabled = true;
    cfg.degrade.pin_level = pin;
    FleetSim sim(cfg);
    const FleetReport report = sim.run();
    EXPECT_TRUE(report.rows_conserved()) << "pin level " << pin;
    EXPECT_EQ(report.degradation.pin_level, pin);
    if (pin == 0) {
      EXPECT_EQ(report.degradation.rows_sampled_out, 0u);
    } else {
      EXPECT_GT(report.degradation.rows_sampled_out, 0u) << "pin level " << pin;
    }
    if (pin == 1) {
      EXPECT_GT(report.degradation.windows_sampled, 0u);
      EXPECT_GT(report.degradation.ci_windows, 0u);
      // Something sampled still reaches the core.
      EXPECT_GT(report.rows_delivered, 0u);
    }
    if (pin >= 2) {
      // Sketch/summary levels answer windows locally: summaries go up,
      // rows do not.
      EXPECT_GT(report.degradation.summaries_sent, 0u) << "pin level " << pin;
      EXPECT_EQ(report.rows_delivered, 0u) << "pin level " << pin;
    }
    if (pin == 2) {
      EXPECT_GT(report.degradation.windows_sketch, 0u);
      EXPECT_GT(report.degradation.ci_windows, 0u);
      EXPECT_GT(report.degradation.summaries_delivered, 0u);
    }
    if (pin == 3) {
      EXPECT_GT(report.degradation.windows_summary, 0u);
    }
  }
}

// Pinned L1's confidence intervals must actually bound the realized error.
// The >= 90% coverage gate is statistical and lives in bench_degrade, where
// a run yields 16-64 windows; this golden fleet yields only a handful, and
// a single legitimate 95%-CI miss would swing the rate by 25 points. Here
// we assert the mechanism (every window ledgered with a nonzero-width CI)
// and a floor that one honest miss cannot break.
TEST(DegradeLedger, SampledWindowsCarryCoveringIntervals) {
  FleetConfig cfg = golden_config();
  cfg.degrade.enabled = true;
  cfg.degrade.pin_level = 1;
  FleetSim sim(cfg);
  const FleetReport report = sim.run();
  const DegradationLedger& d = report.degradation;
  ASSERT_GT(d.ci_windows, 0u);
  EXPECT_GE(d.coverage(), 0.7);
  EXPECT_GT(d.mean_half_width(), 0.0);
  // Realized error stays commensurate with the advertised widths: even a
  // missed window must miss by a sliver, not a bias.
  EXPECT_LT(d.max_abs_error, 4.0 * d.mean_half_width());
  ASSERT_FALSE(d.windows.empty());
  for (const WindowEstimate& w : d.windows) {
    EXPECT_EQ(w.level, 1);
    EXPECT_LE(w.rows_used, w.rows_window);
    EXPECT_GT(w.rows_used, 0u);
  }
}

// Determinism: the ladder's sampling draws from a manifest-pinned stream,
// so two free-running degraded runs are byte-identical.
TEST(DegradeLedger, FreeRunningLadderIsDeterministic) {
  FleetConfig cfg = golden_config();
  cfg.degrade.enabled = true;
  cfg.channel.queue_capacity = 2;  // make backpressure actually bite
  cfg.chaos.load_storms = 1.0;
  cfg.chaos.load_storm_mean_s = 6.0;
  cfg.chaos.load_storm_factor = 4.0;
  FleetSim a(cfg);
  FleetSim b(cfg);
  const FleetReport ra = a.run();
  const FleetReport rb = b.run();
  EXPECT_EQ(joined_event_log(a), joined_event_log(b));
  EXPECT_EQ(ra.to_json(), rb.to_json());
  EXPECT_EQ(degradation_to_json(ra.degradation), degradation_to_json(rb.degradation));
}

// (a) No level flapping across chaos burst boundaries: however violent the
// compound chaos + load storm schedule, an escalation is never followed by
// a de-escalation earlier than the hysteresis dwell, and the calm tail
// walks every edge back to L0 with the ledger still closed.
TEST(DegradeLadder, NoFlappingAcrossChaosBursts) {
  FleetConfig cfg = golden_config();
  cfg.duration_s = 60.0;
  cfg.degrade.enabled = true;
  cfg.channel.queue_capacity = 2;
  cfg.degrade.dead_letter_rate_ref = 0.25;
  // Bands tight enough that the compound schedule actually walks the ladder
  // (default bands only move on extreme fleets; this test needs transitions).
  cfg.degrade.thresholds.up = {0.2, 0.6, 1.2};
  cfg.degrade.thresholds.down = {0.1, 0.4, 0.9};
  cfg.degrade.thresholds.dwell_s = 3.0;
  cfg.chaos.load_storms = 5.0;
  cfg.chaos.load_storm_mean_s = 8.0;
  cfg.chaos.load_storm_factor = 6.0;
  FleetSim sim(cfg);
  const FleetReport report = sim.run();
  const DegradationLedger& d = report.degradation;

  EXPECT_TRUE(report.rows_conserved());
  EXPECT_GT(report.faults.load_storms, 0u);
  // The scenario must actually exercise the ladder, or this test is vacuous.
  ASSERT_GT(d.transitions_up, 0u);

  const double dwell = cfg.degrade.thresholds.dwell_s;
  for (const EdgeDegradeTimeline& tl : d.edges) {
    // Acceptance: every edge ends the run back at L0.
    EXPECT_EQ(tl.final_level, 0) << "edge " << tl.edge;
    for (std::size_t i = 0; i + 1 < tl.transitions.size(); ++i) {
      const DegradeTransitionEntry& cur = tl.transitions[i];
      const DegradeTransitionEntry& next = tl.transitions[i + 1];
      EXPECT_GE(next.t_s, cur.t_s);
      if (next.to < next.from) {
        // A de-escalation needs a full dwell of calm after the previous
        // move, whichever direction that move went.
        EXPECT_GE(next.t_s - cur.t_s, dwell - 1e-9)
            << "edge " << tl.edge << " flapped at t=" << next.t_s;
      }
    }
    // Per-level time books close over the run + settle horizon.
    double total = 0.0;
    for (double t : tl.time_at_level_s) total += t;
    EXPECT_GT(total, cfg.duration_s - 1e-9);
  }

  // Backpressure gauges populated for every edge.
  ASSERT_EQ(report.faults.edge_gauges.size(), cfg.edges);
  bool any_pressure = false;
  for (const BackpressureGauge& g : report.faults.edge_gauges) {
    if (g.uplink_in_flight_highwater > 0 || g.device_in_flight_highwater > 0) {
      any_pressure = true;
    }
  }
  EXPECT_TRUE(any_pressure);
}

// (satellite 2) The load-storm scenario schedules compressed flush chains:
// storm-flush events appear on the log, the fault ledger counts the storm,
// and rows still conserve. With load_storms = 0 nothing changes — that leg
// is pinned by the golden tests above.
TEST(DegradeLadder, LoadStormCompressesFlushSchedule) {
  FleetConfig cfg = golden_config();
  cfg.chaos = {};  // storms only, no other chaos
  cfg.chaos.load_storms = 1.0;
  cfg.chaos.load_storm_mean_s = 8.0;
  cfg.chaos.load_storm_factor = 4.0;
  FleetSim sim(cfg);
  const FleetReport report = sim.run();
  EXPECT_TRUE(report.rows_conserved());
  EXPECT_GT(report.faults.load_storms, 0u);
  bool storm_flush_seen = false;
  for (const std::string& line : sim.event_log()) {
    if (line.find("storm-flush") != std::string::npos) {
      storm_flush_seen = true;
      break;
    }
  }
  EXPECT_TRUE(storm_flush_seen);

  // Storms compress the uplink schedule: at factor 4 the same windows ship
  // as more, smaller messages than the calm baseline.
  FleetConfig calm = golden_config();
  calm.chaos = {};
  FleetSim base(calm);
  const FleetReport calm_report = base.run();
  EXPECT_GT(report.messages_sent, calm_report.messages_sent);
  EXPECT_EQ(report.rows_delivered + report.rows_lost +
                report.faults.rows_buffer_evicted,
            calm_report.rows_delivered + calm_report.rows_lost +
                calm_report.faults.rows_buffer_evicted);
}

// Config validation: nonsense degrade settings must be rejected up front.
TEST(DegradeConfigCheck, RejectsNonsense) {
  FleetConfig cfg = golden_config();
  cfg.degrade.enabled = true;
  cfg.degrade.pin_level = 4;
  EXPECT_THROW(FleetSim{cfg}, InvalidArgument);
  cfg = golden_config();
  cfg.chaos.load_storms = 1.0;
  cfg.chaos.load_storm_factor = 1.0;  // must exceed 1
  EXPECT_THROW(FleetSim{cfg}, InvalidArgument);
}

}  // namespace
}  // namespace iotml::sim

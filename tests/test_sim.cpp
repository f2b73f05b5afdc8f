#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/fleet.hpp"
#include "sim/placement.hpp"
#include "sim/scheduler.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace iotml::sim {
namespace {

using pipeline::Tier;

// ---- Scheduler ---------------------------------------------------------------

TEST(Scheduler, PopsInTimeOrderFifoOnTies) {
  Scheduler s;
  s.push(2.0, EventKind::kDeviceFlush, 1);
  s.push(1.0, EventKind::kEdgeFlush, 2);
  s.push(1.0, EventKind::kArrival, 3, 7);

  Event e1 = s.pop();
  EXPECT_EQ(e1.kind, EventKind::kEdgeFlush);  // earliest time wins
  Event e2 = s.pop();
  EXPECT_EQ(e2.kind, EventKind::kArrival);  // tie broken by push order
  EXPECT_EQ(e2.message, 7u);
  Event e3 = s.pop();
  EXPECT_EQ(e3.kind, EventKind::kDeviceFlush);

  EXPECT_DOUBLE_EQ(s.now_s(), 2.0);
  EXPECT_EQ(s.processed(), 3u);
  EXPECT_TRUE(s.empty());

  ASSERT_EQ(s.log().size(), 3u);
  EXPECT_EQ(s.log()[0], "t=1.000000 #1 edge-flush target=2");
  EXPECT_EQ(s.log()[1], "t=1.000000 #2 arrival target=3 msg=7");
  EXPECT_EQ(s.log()[2], "t=2.000000 #0 device-flush target=1");
}

TEST(Scheduler, RejectsPastEventsAndEmptyPop) {
  Scheduler s;
  s.push(1.0, EventKind::kDeviceFlush, 0);
  s.pop();
  EXPECT_THROW(s.push(0.5, EventKind::kDeviceFlush, 0), InvalidArgument);
  s.push(1.0, EventKind::kDeviceFlush, 0);  // same instant is allowed
  s.pop();
  EXPECT_THROW(s.pop(), InvalidArgument);
}

TEST(Scheduler, LogIsRenderedFromPoppedEventsOnEveryRead) {
  Scheduler s;
  s.push(0.5, EventKind::kDeviceFlush, 3);
  s.push(0.25, EventKind::kArrival, 7, 42);
  EXPECT_EQ(s.pop().message, 42u);
  EXPECT_EQ(s.log(), std::vector<std::string>{"t=0.250000 #1 arrival target=7 msg=42"});
  s.push(0.25, EventKind::kCorruptArrival, 8, 0);  // same instant, pushed later
  s.push(1.0 / 3.0, EventKind::kSummaryArrival, 2080, kNoMessage - 1);
  s.pop();
  s.pop();
  s.push(12.0, EventKind::kEdgeFlush, 2001);
  s.pop();
  s.pop();
  const std::vector<std::string> expected = {
      "t=0.250000 #1 arrival target=7 msg=42",
      "t=0.250000 #2 corrupt-arrival target=8 msg=0",
      "t=0.333333 #3 summary-arrival target=2080 msg=18446744073709551614",
      "t=0.500000 #0 device-flush target=3",
      "t=12.000000 #4 edge-flush target=2001",
  };
  EXPECT_EQ(s.log(), expected);
  EXPECT_EQ(s.log(), s.log());
  std::ostringstream streamed;
  s.write_log(streamed);
  std::string joined;
  for (const std::string& line : expected) joined += line + '\n';
  EXPECT_EQ(streamed.str(), joined);
}

TEST(Scheduler, EventKindNames) {
  EXPECT_EQ(event_kind_name(EventKind::kDeviceFlush), "device-flush");
  EXPECT_EQ(event_kind_name(EventKind::kArrival), "arrival");
  EXPECT_EQ(event_kind_name(EventKind::kLinkUp), "link-up");
  EXPECT_STREQ(event_span_name(EventKind::kLinkUp), "sim.event:link-up");
}

void expect_same_event(const Event& got, const Event& want, std::size_t step) {
  EXPECT_EQ(got.time_s, want.time_s) << step;
  EXPECT_EQ(got.seq, want.seq) << step;
  EXPECT_EQ(got.kind, want.kind) << step;
  EXPECT_EQ(got.target, want.target) << step;
  EXPECT_EQ(got.message, want.message) << step;
}

// push_series must schedule exactly what its loop of push() calls would:
// seeded scripts mix series (off-grid periods whose sums round, empty
// series, times that tie with other events) with one-off pushes, some
// issued between pops as handlers issue them, and the reference scheduler
// expands every series into individual pushes.
TEST(Scheduler, SeriesPopsLikeIndividualPushes) {
  const double periods[] = {0.1, 0.3, 1.1, 1.0 / 3.0, 0.7, 0.25, 0.5};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Scheduler series;
    Scheduler reference;
    // Event times: often one a series steps on, or on a quarter-second grid
    // from now, so events tie with series events; otherwise anywhere ahead.
    std::vector<double> series_times;
    auto next_time = [&] {
      const double now_s = series.now_s();
      const double roll = rng.uniform();
      if (roll < 0.3 && !series_times.empty()) {
        const double t = series_times[rng.index(series_times.size())];
        if (t >= now_s) return t;
      }
      return now_s + (roll < 0.65 ? 0.25 * rng.uniform_int(0, 12) : rng.uniform(0.0, 3.0));
    };
    std::size_t step = 0;
    for (int op = 0; op < 120; ++op, ++step) {
      const auto kind = static_cast<EventKind>(rng.uniform_int(0, 31));
      const std::size_t target = rng.index(5000);
      const double roll = rng.uniform();
      if (roll < 0.25) {
        const double time_s = next_time();
        const std::size_t message = rng.bernoulli(0.5) ? rng.index(100) : kNoMessage;
        series.push(time_s, kind, target, message);
        reference.push(time_s, kind, target, message);
      } else if (roll < 0.5) {
        const double first_s = next_time();
        const double period_s = rng.bernoulli(0.8) ? periods[rng.index(std::size(periods))]
                                                   : rng.uniform(0.05, 2.0);
        // About one series in six is empty.
        const double until_s = first_s + rng.uniform(-1.5, 8.0);
        series.push_series(first_s, period_s, until_s, kind, target);
        for (double t = first_s; t < until_s; t += period_s) {
          reference.push(t, kind, target);
          series_times.push_back(t);
        }
      } else if (!reference.empty()) {
        ASSERT_FALSE(series.empty()) << step;
        expect_same_event(series.pop(), reference.pop(), step);
        EXPECT_EQ(series.now_s(), reference.now_s()) << step;
        EXPECT_EQ(series.processed(), reference.processed()) << step;
      }
      EXPECT_LE(series.pending(), reference.pending()) << step;
    }
    while (!reference.empty()) {
      ASSERT_FALSE(series.empty()) << step;
      expect_same_event(series.pop(), reference.pop(), step++);
      EXPECT_EQ(series.now_s(), reference.now_s()) << step;
    }
    EXPECT_TRUE(series.empty()) << seed;
    EXPECT_EQ(series.processed(), reference.processed()) << seed;
    EXPECT_EQ(series.log(), reference.log()) << seed;
    std::ostringstream got;
    std::ostringstream want;
    series.write_log(got);
    reference.write_log(want);
    EXPECT_EQ(got.str(), want.str()) << seed;
  }
}

TEST(Scheduler, SeriesQueuesOneEntry) {
  Scheduler s;
  s.push_series(0.0, 1.0, 100000.0, EventKind::kDeviceFlush, 7);
  EXPECT_EQ(s.pending(), 1u);
  s.push(0.5, EventKind::kArrival, 3);  // its seq follows the series' block
  EXPECT_EQ(s.pending(), 2u);
  expect_same_event(s.pop(), {0.0, 0, EventKind::kDeviceFlush, 7, kNoMessage}, 0);
  EXPECT_EQ(s.pending(), 2u);
  expect_same_event(s.pop(), {0.5, 100000, EventKind::kArrival, 3, kNoMessage}, 1);
  for (std::uint64_t k = 1; k < 100000; ++k) {
    const std::size_t pending = s.pending();
    const Event e = s.pop();
    if (pending != 1 || e.seq != k || e.time_s != static_cast<double>(k)) {
      FAIL() << "event " << k << " popped as #" << e.seq << " at " << e.time_s << " from "
             << pending << " queued entries";
    }
  }
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.processed(), 100001u);
}

TEST(Scheduler, RejectsBadSeriesAndWideTargets) {
  Scheduler s;
  s.push(2.0, EventKind::kEdgeFlush, 0);
  s.pop();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::size_t wide = Scheduler::kMaxTarget + 1;
  const EventKind kind = EventKind::kCheckpoint;
  EXPECT_THROW(s.push_series(1.5, 1.0, 10.0, kind, 0), InvalidArgument);  // starts in the past
  EXPECT_THROW(s.push_series(nan, 1.0, 10.0, kind, 0), InvalidArgument);
  EXPECT_THROW(s.push_series(3.0, 1.0, inf, kind, 0), InvalidArgument);
  EXPECT_THROW(s.push_series(3.0, 1.0, nan, kind, 0), InvalidArgument);
  for (const double period : {0.0, -1.0, inf, nan}) {
    EXPECT_THROW(s.push_series(3.0, period, 10.0, kind, 0), InvalidArgument) << period;
  }
  // 1e17 + 1 rounds back to 1e17: the series would never end.
  EXPECT_THROW(s.push_series(1e17, 1.0, 2e17, kind, 0), InvalidArgument);
  EXPECT_THROW(s.push_series(3.0, 1.0, 10.0, kind, wide), InvalidArgument);
  EXPECT_THROW(s.push(3.0, kind, wide), InvalidArgument);
  EXPECT_THROW(s.push(3.0, kind, wide, 4), InvalidArgument);
  // Nothing was queued and no seq was taken.
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pending(), 0u);
  s.push_series(2.0, 1.0, 3.5, kind, Scheduler::kMaxTarget);
  s.pop();
  s.pop();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.log(), (std::vector<std::string>{
                         "t=2.000000 #0 edge-flush target=0",
                         "t=2.000000 #1 checkpoint target=4294967295",
                         "t=3.000000 #2 checkpoint target=4294967295",
                     }));
}

// ---- Tier placement ----------------------------------------------------------

TEST(Placement, SplitByTierPreservesOrderWithinTier) {
  auto noop = [](data::Dataset&, Rng&) { return 0.0; };
  pipeline::Pipeline full;
  full.add("d1", noop, "p", Tier::kDevice);
  full.add("c1", noop, "p", Tier::kCore);
  full.add("d2", noop, "p", Tier::kDevice);
  full.add("e1", noop, "p", Tier::kEdge);

  TierPipelines tiers = split_by_tier(std::move(full));
  EXPECT_EQ(tiers.device.size(), 2u);
  EXPECT_EQ(tiers.edge.size(), 1u);
  EXPECT_EQ(tiers.core.size(), 1u);

  data::Dataset ds;
  ds.add_numeric_column("x").push_numeric(1.0);
  Rng rng(1);
  tiers.device.run(std::move(ds), rng);
  ASSERT_EQ(tiers.device.reports().size(), 2u);
  EXPECT_EQ(tiers.device.reports()[0].stage_name, "d1");
  EXPECT_EQ(tiers.device.reports()[1].stage_name, "d2");
}

// ---- Stage log ---------------------------------------------------------------

void expect_same_run(const pipeline::StageReport& got, const pipeline::StageReport& want,
                     std::size_t i) {
  EXPECT_EQ(got.stage_name, want.stage_name) << i;
  EXPECT_EQ(got.player, want.player) << i;
  EXPECT_EQ(got.tier, want.tier) << i;
  EXPECT_EQ(got.rows_in, want.rows_in) << i;
  EXPECT_EQ(got.rows_out, want.rows_out) << i;
  EXPECT_EQ(got.columns_out, want.columns_out) << i;
  EXPECT_EQ(got.missing_rate_in, want.missing_rate_in) << i;
  EXPECT_EQ(got.missing_rate_out, want.missing_rate_out) << i;
  EXPECT_EQ(got.cost, want.cost) << i;
  EXPECT_EQ(got.wall_time_us, want.wall_time_us) << i;
}

TEST(StageLog, RunsRoundTripEveryFieldInPushOrder) {
  constexpr std::size_t kMax32 = 0xFFFFFFFFu;
  struct Triple {
    const char* name;
    const char* player;
    Tier tier;
  };
  // Three triples share a stage name; the last differs from the first only
  // by tier.
  const Triple triples[] = {{"clean(hampel)", "device", Tier::kDevice},
                            {"integration", "edge-operator", Tier::kEdge},
                            {"clean(hampel)", "edge-operator", Tier::kEdge},
                            {"clean(hampel)", "device", Tier::kCore}};
  StageLog log;
  std::vector<pipeline::StageReport> pushed;
  // 1,200 runs of 48 bytes fill three 16 KiB chunks and part of a fourth.
  for (std::size_t i = 0; i < 1200; ++i) {
    const Triple& t = triples[(i + i / 5) % 4];
    pipeline::StageReport r;
    r.stage_name = t.name;
    r.player = t.player;
    r.tier = t.tier;
    r.rows_in = i % 97 == 0 ? kMax32 : 3 * i;
    r.rows_out = i % 89 == 0 ? kMax32 : i;
    r.columns_out = i % 83 == 0 ? kMax32 : i % 7;
    r.missing_rate_in = static_cast<double>(i) / 1201.0;
    r.missing_rate_out = 1.0 / static_cast<double>(i + 3);
    r.cost = 0.2 + 0.01 * static_cast<double>(i);
    r.wall_time_us = i % 2 == 0 ? (std::uint64_t{1} << 32) + 1'000'003 * i : i;
    log.push_back(r);
    pushed.push_back(r);
  }
  ASSERT_EQ(log.size(), pushed.size());
  std::size_t i = 0;
  for (const pipeline::StageReport& r : log) {
    ASSERT_LT(i, pushed.size());
    expect_same_run(r, pushed[i], i);
    ++i;
  }
  EXPECT_EQ(i, pushed.size());
}

TEST(StageLog, CountsWiderThan32BitsAreRejected) {
  constexpr std::size_t kTooWide = std::size_t{1} << 32;
  pipeline::StageReport run;
  run.stage_name = "acquisition";
  run.player = "device";
  run.tier = Tier::kDevice;
  run.rows_in = 7;
  run.rows_out = 5;
  run.columns_out = 4;
  StageLog log;
  log.push_back(run);
  for (std::size_t field = 0; field < 3; ++field) {
    pipeline::StageReport wide = run;
    wide.stage_name = "wide";
    (field == 0 ? wide.rows_in : field == 1 ? wide.rows_out : wide.columns_out) = kTooWide;
    EXPECT_THROW(log.push_back(wide), InvalidArgument) << field;
  }
  ASSERT_EQ(log.size(), 1u);
  expect_same_run(*log.begin(), run, 0);
}

// ---- Fleet simulation --------------------------------------------------------

FleetConfig small_config(std::uint64_t seed = 42) {
  FleetConfig config;
  config.devices = 20;
  config.edges = 2;
  config.duration_s = 20.0;
  config.seed = seed;
  config.faults.link_outages = 1.0;
  config.faults.link_outage_mean_s = 2.0;
  config.faults.device_churns = 0.5;
  config.faults.device_offtime_mean_s = 4.0;
  return config;
}

TEST(Fleet, DeterministicPerSeed) {
  // Two complete runs in one process: same seed must give a byte-identical
  // event log and report; a different seed must not.
  FleetSim a(small_config());
  const FleetReport ra = a.run();
  FleetSim b(small_config());
  const FleetReport rb = b.run();
  EXPECT_EQ(a.event_log(), b.event_log());
  EXPECT_EQ(ra.to_json(), rb.to_json());

  FleetSim c(small_config(43));
  const FleetReport rc = c.run();
  EXPECT_NE(ra.to_json(), rc.to_json());
}

TEST(Fleet, ObservatoryDoesNotPerturbTheRun) {
  // The observatory must be purely observational: same seed, observatory on
  // vs off, byte-identical event log and report (this config fires no fault
  // trigger, so no flight dumps enter the report either way).
  FleetSim off(small_config());
  const FleetReport r_off = off.run();
  FleetConfig on_config = small_config();
  on_config.observatory.enabled = true;
  FleetSim on(on_config);
  const FleetReport r_on = on.run();
  EXPECT_EQ(off.event_log(), on.event_log());
  EXPECT_EQ(r_off.to_json(), r_on.to_json());
  EXPECT_EQ(off.observatory(), nullptr);
  ASSERT_NE(on.observatory(), nullptr);
}

// A send hop may report zero wire attempts only when the frame never
// reached the wire: refused by the queue, failed fast at a dead receiver, or
// (ack mode) timed out on a link that was down.
bool zero_attempts_allowed(const obs::HopRecord& rec, bool ack) {
  const std::string outcome = rec.outcome;
  return outcome == "dead_letter" || outcome == "receiver_down" ||
         (ack && outcome == "timeout");
}

TEST(Fleet, ObservatoryRecordsJourneysSeriesAndFlight) {
  FleetConfig config = small_config();
  config.observatory.enabled = true;
  FleetSim fleet(config);
  const FleetReport r = fleet.run();
  const obs::Observatory* obsy = fleet.observatory();
  ASSERT_NE(obsy, nullptr);

  const auto records = obsy->journeys().snapshot();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(obsy->journeys().dropped(), 0u);
  std::size_t origins = 0;
  std::size_t origin_rows = 0;
  std::size_t accepted_at_core = 0;
  for (const obs::HopRecord& rec : records) {
    if (rec.kind == obs::HopKind::kOrigin) {
      ++origins;
      origin_rows += rec.rows;
      EXPECT_TRUE(rec.parents.empty());
    }
    if (rec.kind == obs::HopKind::kArrive && rec.hop == 1 &&
        std::string(rec.outcome) == "accepted") {
      ++accepted_at_core;
    }
    if (rec.kind == obs::HopKind::kSend && rec.attempts == 0) {
      EXPECT_TRUE(zero_attempts_allowed(rec, /*ack=*/false)) << rec.outcome;
    }
  }
  EXPECT_GT(origins, 0u);
  // Every flushed window gets an origin record; flushed rows can exceed the
  // delivered count (losses) but never the generated count.
  EXPECT_LE(origin_rows, r.rows_generated);
  EXPECT_GE(origin_rows, r.rows_delivered);
  EXPECT_GT(accepted_at_core, 0u);

  EXPECT_GT(obsy->flight().noted(), 0u);
  EXPECT_GT(obsy->series().samples_total(), 0u);
  // The fleet-wide flush series, then per edge and at the core the series
  // their first sample created, each keyed by its own node.
  std::set<std::string> keys;
  const std::string json = obsy->series().to_json();
  const std::regex key_re(R"re("metric": "([^"]+)", "entity": "([^"]+)", "tier": "([^"]+)")re");
  for (auto it = std::sregex_iterator(json.begin(), json.end(), key_re);
       it != std::sregex_iterator(); ++it) {
    keys.insert((*it)[1].str() + "/" + (*it)[2].str() + "/" + (*it)[3].str());
  }
  EXPECT_EQ(keys, (std::set<std::string>{
                      "flush.rows/fleet/device", "buffer.rows/edge0/edge",
                      "buffer.rows/edge1/edge", "uplink.latency_s/edge0/edge",
                      "uplink.latency_s/edge1/edge", "uplink.latency_s/core/core",
                      "uplink.rows/edge0/edge", "uplink.rows/edge1/edge",
                      "uplink.rows/core/core"}));
  EXPECT_EQ(obsy->series().series_count(), keys.size());
}

TEST(Fleet, EventsLogArtifactIsTheEventLog) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "iotml_fleet_events_log_test";
  std::filesystem::remove_all(dir);
  FleetConfig config = small_config();
  config.observatory.enabled = true;
  config.observatory.artifact_dir = dir.string();
  FleetSim fleet(config);
  fleet.run();
  std::string joined;
  for (const std::string& line : fleet.event_log()) joined += line + '\n';
  std::ifstream in(dir / "events.log", std::ios::binary);
  std::ostringstream written;
  written << in.rdbuf();
  EXPECT_FALSE(joined.empty());
  EXPECT_EQ(written.str(), joined);
  std::filesystem::remove_all(dir);
}

TEST(Fleet, LatencyTiersMirrorSummaryAndStayBounded) {
  // Per-tier breakdowns are always on (fixed-memory histograms, not the
  // observatory) and "end-to-end" must mirror the flat latency summary.
  FleetSim fleet(small_config());
  const FleetReport r = fleet.run();
  ASSERT_EQ(r.latency_tiers.count("device-edge"), 1u);
  ASSERT_EQ(r.latency_tiers.count("edge-core"), 1u);
  ASSERT_EQ(r.latency_tiers.count("end-to-end"), 1u);
  const LatencyBreakdown& e2e = r.latency_tiers.at("end-to-end");
  EXPECT_EQ(e2e.summary.count, r.latency.count);
  EXPECT_DOUBLE_EQ(e2e.summary.mean_s, r.latency.mean_s);
  EXPECT_DOUBLE_EQ(e2e.summary.p95_s, r.latency.p95_s);
  for (const auto& [tier, breakdown] : r.latency_tiers) {
    EXPECT_EQ(breakdown.counts.size(), breakdown.bounds_s.size() + 1) << tier;
    std::uint64_t bucket_sum = 0;
    for (const std::uint64_t c : breakdown.counts) bucket_sum += c;
    EXPECT_EQ(bucket_sum, breakdown.summary.count) << tier;
  }
}

TEST(Fleet, RowConservation) {
  FleetSim fleet(small_config());
  const FleetReport r = fleet.run();
  EXPECT_GT(r.rows_generated, 0u);
  EXPECT_GT(r.rows_delivered, 0u);
  EXPECT_EQ(r.rows_generated,
            r.rows_delivered + r.rows_lost + r.rows_skipped + r.rows_stranded);
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.messages_sent, 0u);
}

TEST(Fleet, StageTotalsReconcileWithRawReports) {
  FleetSim fleet(small_config());
  const FleetReport r = fleet.run();

  std::size_t raw_runs = 0;
  std::size_t raw_rows_in = 0;
  double raw_cost = 0.0;
  for (const pipeline::StageReport& report : r.stage_reports) {
    ++raw_runs;
    raw_rows_in += report.rows_in;
    raw_cost += report.cost;
  }
  std::size_t total_runs = 0;
  std::size_t total_rows_in = 0;
  double total_cost = 0.0;
  for (const auto& [name, t] : r.stage_totals()) {
    total_runs += t.runs;
    total_rows_in += t.rows_in;
    total_cost += t.cost;
  }
  EXPECT_EQ(total_runs, raw_runs);
  EXPECT_EQ(total_rows_in, raw_rows_in);
  EXPECT_NEAR(total_cost, raw_cost, 1e-9);

  // Every phase of the paper's chain must appear.
  const auto totals = r.stage_totals();
  EXPECT_EQ(totals.count("acquisition"), 1u);
  EXPECT_EQ(totals.count("integration"), 1u);
  EXPECT_EQ(totals.count("prepare(impute-linear)"), 1u);
  EXPECT_EQ(totals.count("prepare(normalize-zscore)"), 1u);
  EXPECT_EQ(totals.count("clean(hampel)"), 1u);
  EXPECT_EQ(totals.count("analytics(decision-tree)"), 1u);
}

TEST(Fleet, LatencyAndAccuracyPopulated) {
  FleetSim fleet(small_config());
  const FleetReport r = fleet.run();
  EXPECT_GT(r.latency.count, 0u);
  EXPECT_GT(r.latency.mean_s, 0.0);
  EXPECT_GE(r.latency.max_s, r.latency.p95_s);
  EXPECT_GE(r.latency.p95_s, r.latency.p50_s);
  EXPECT_GT(r.train_rows, 0u);
  EXPECT_GT(r.test_rows, 0u);
  EXPECT_GT(r.accuracy, 0.5);  // far above chance on the comfort concept
}

TEST(Fleet, DropRateStarvesDelivery) {
  FleetConfig reliable = small_config(7);
  reliable.faults = {};
  reliable.device_edge_link.drop_prob = 0.0;
  reliable.device_edge_link.max_retries = 0;
  FleetConfig lossy = reliable;
  lossy.device_edge_link.drop_prob = 0.3;

  FleetSim a(reliable);
  const FleetReport ra = a.run();
  FleetSim b(lossy);
  const FleetReport rb = b.run();
  EXPECT_EQ(ra.rows_lost, 0u);
  EXPECT_GT(rb.rows_lost, 0u);
  EXPECT_LT(rb.rows_delivered, ra.rows_delivered);
}

TEST(Fleet, ChurnSkipsRows) {
  FleetConfig config = small_config(9);
  config.faults = {};
  config.faults.device_churns = 3.0;  // heavy churn
  config.faults.device_offtime_mean_s = 6.0;
  FleetSim fleet(config);
  const FleetReport r = fleet.run();
  EXPECT_GT(r.rows_skipped, 0u);
}

TEST(Fleet, CustomPipelineIsPlacedByTier) {
  FleetConfig config;
  config.devices = 5;
  config.edges = 1;
  config.duration_s = 10.0;
  config.faults = {};
  pipeline::Pipeline custom;
  custom.add("edge-tag", [](data::Dataset&, Rng&) { return 1.0; },
             "edge-operator", Tier::kEdge);
  FleetSim fleet(config, std::move(custom));
  const FleetReport r = fleet.run();
  const auto totals = r.stage_totals();
  EXPECT_EQ(totals.count("edge-tag"), 1u);
  EXPECT_EQ(totals.at("edge-tag").tier, Tier::kEdge);
  // Synthesized phases still frame the custom stage.
  EXPECT_EQ(totals.count("acquisition"), 1u);
  EXPECT_EQ(totals.count("integration"), 1u);
}

TEST(Fleet, RunIsOneShot) {
  FleetConfig config;
  config.devices = 2;
  config.edges = 1;
  config.duration_s = 5.0;
  config.faults = {};
  FleetSim fleet(config);
  fleet.run();
  EXPECT_THROW(fleet.run(), InvalidArgument);
}

TEST(Fleet, Validation) {
  FleetConfig bad = small_config();
  bad.duration_s = 0.0;
  EXPECT_THROW(FleetSim{bad}, InvalidArgument);

  FleetConfig more_edges = small_config();
  more_edges.edges = more_edges.devices + 1;
  EXPECT_THROW(FleetSim{more_edges}, InvalidArgument);

  FleetConfig bad_flush = small_config();
  bad_flush.device_flush_s = 0.0;
  EXPECT_THROW(FleetSim{bad_flush}, InvalidArgument);

  // FleetSim's own checks reject sensor settings before any sensor runs
  // (sensing may run on worker threads).
  auto expect_own_message = [](const FleetConfig& config, const std::string& message) {
    try {
      FleetSim fleet(config);
      FAIL() << "expected throw: " << message;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
    }
  };
  FleetConfig deaf = small_config();
  deaf.sensor_dropout = 1.0;
  expect_own_message(deaf, "FleetSim: sensor dropout outside [0, 1)");

  // Infinite times are rejected before sensing or scheduling sees them.
  const double inf = std::numeric_limits<double>::infinity();
  FleetConfig endless = small_config();
  endless.duration_s = inf;
  expect_own_message(endless, "FleetSim: duration must be positive and finite");
  FleetConfig device_never = small_config();
  device_never.device_flush_s = inf;
  expect_own_message(device_never, "FleetSim: flush intervals must be positive and finite");
  FleetConfig edge_never = small_config();
  edge_never.edge_flush_s = inf;
  expect_own_message(edge_never, "FleetSim: flush intervals must be positive and finite");
  FleetConfig never_saved = small_config();
  never_saved.checkpoint_interval_s = inf;
  expect_own_message(never_saved,
                     "FleetSim: checkpoint interval must be finite and non-negative");
}

// A device whose three sensors drop every reading keeps an empty window and
// the fleet runs on; with a 1 s window at 50 % dropout most of these seeds
// draw such a device.
TEST(Fleet, SilentDeviceGetsAnEmptyWindow) {
  std::size_t silent = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FleetConfig config;
    config.devices = 100;
    config.duration_s = 1.0;
    config.sensor_dropout = 0.5;
    config.seed = seed;
    FleetSim fleet(config);
    const FleetReport r = fleet.run();
    EXPECT_TRUE(r.rows_conserved()) << "seed " << seed;
    for (const pipeline::StageReport& s : r.stage_reports) {
      if (s.stage_name != "acquisition" || s.rows_out > 0) continue;
      ++silent;
      EXPECT_EQ(s.rows_in, 0u) << "seed " << seed;
      EXPECT_EQ(s.columns_out, 4u) << "seed " << seed;
    }
  }
  EXPECT_GT(silent, 0u);
}

// send() charges each frame's bytes to sim.net.bytes and to the cached
// counter of the link it crossed. On lossless links every frame is
// delivered, so each link's counter also equals the bytes its stats count.
TEST(Fleet, LinkByteCountersFollowTheirLink) {
  FleetConfig config = small_config();
  config.faults = {};
  config.device_edge_link.drop_prob = 0.0;
  config.edge_core_link.drop_prob = 0.0;
  FleetSim fleet(config);
  obs::Registry& registry = obs::registry();
  auto link_counter = [&registry](const std::string& name) -> obs::Counter& {
    return registry.counter("net.link." + name + ".bytes");
  };
  std::map<std::string, std::uint64_t> before;
  for (std::size_t l = 0; l < fleet.topology().num_links(); ++l) {
    const std::string& name = fleet.topology().link(l).name();
    before[name] = link_counter(name).value();
  }
  obs::Counter& wire = registry.counter("sim.net.bytes");
  const std::uint64_t wire_before = wire.value();
  const FleetReport r = fleet.run();
  ASSERT_EQ(r.links.size(), before.size());
  std::uint64_t total = 0;
  for (const LinkReport& link : r.links) {
    const std::uint64_t sent = link_counter(link.name).value() - before.at(link.name);
    EXPECT_EQ(sent, link.stats.bytes) << link.name;
    total += sent;
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(total, wire.value() - wire_before);
}

// ---- Send-hop labels ---------------------------------------------------------

// Fire-and-forget OTA under a corruption storm, with deploy on so the
// artifact and prediction streams run too. Every canary verdict rolls back
// (no candidate can beat the running model by a whole accuracy point), so
// rollback commands cross the storm-corrupted edge->device links.
FleetConfig storm_ota_config() {
  FleetConfig c;
  c.devices = 12;
  c.edges = 2;
  c.duration_s = 24.0;
  c.seed = 1;
  c.device_flush_s = 2.0;
  c.edge_flush_s = 3.0;
  c.ota.enabled = true;
  c.ota.canary_fraction = 0.5;
  c.ota.regression_tolerance = -1.0;
  c.deploy.enabled = true;
  c.chaos.corruption_storms = 3.0;
  c.chaos.storm_mean_s = 6.0;
  c.chaos.storm_corrupt_prob = 0.4;
  c.observatory.enabled = true;
  return c;
}

// Ack mode with a two-deep send queue: the canary cohort's one-chunk
// patches and the rollback commands leave the core in bursts and overflow
// it. A partition holds edge batches until the checkpoint lag escalates the
// ladder to summaries.
FleetConfig tiny_queue_config() {
  FleetConfig c = storm_ota_config();
  c.chaos = {};
  c.chaos.partitions = 1.0;
  c.chaos.partition_mean_s = 6.0;
  c.channel.mode = net::ChannelMode::kAckRetry;
  c.channel.queue_capacity = 2;
  c.ota.chunk_bytes = 4096;
  c.checkpoint_interval_s = 4.0;
  c.degrade.enabled = true;
  c.degrade.checkpoint_lag_rows = 40;
  return c;
}

// One rule labels every send hop, whatever its stream: refused by the queue
// -> dead_letter; corrupt -> corrupt, stamped with its arrival time; not
// delivered -> timeout (ack) or dropped (fire-and-forget); else delivered.
TEST(FleetJourney, SendHopsFollowOneLabellingRule) {
  std::set<std::string> streams;
  for (const bool ack : {false, true}) {
    FleetSim fleet(ack ? tiny_queue_config() : storm_ota_config());
    const FleetReport r = fleet.run();
    ASSERT_NE(fleet.observatory(), nullptr);
    const std::set<std::string> labels =
        ack ? std::set<std::string>{"delivered", "timeout", "dead_letter", "receiver_down"}
            : std::set<std::string>{"delivered", "dropped", "corrupt"};
    std::uint64_t dead_letters = 0;
    std::uint64_t corrupt = 0;
    std::size_t patch_dead_letters = 0;
    std::size_t patch_corrupt = 0;
    for (const obs::HopRecord& rec : fleet.observatory()->journeys().snapshot()) {
      streams.insert(obs::hop_stream_name(rec.stream));
      if (rec.kind != obs::HopKind::kSend) continue;
      const std::string outcome = rec.outcome;
      const bool patch = rec.stream == obs::HopStream::kPatch;
      EXPECT_EQ(labels.count(outcome), 1u) << outcome;
      if (rec.attempts == 0) {
        EXPECT_TRUE(zero_attempts_allowed(rec, ack)) << outcome;
      }
      if (outcome == "dead_letter") {
        ++dead_letters;
        if (patch) ++patch_dead_letters;
      }
      if (outcome == "corrupt") {
        ++corrupt;
        if (patch) ++patch_corrupt;
        EXPECT_GT(rec.t1_s, rec.t0_s) << "corrupt hop without its arrival time";
      }
    }
    // Every refused send reads dead_letter, on every stream.
    EXPECT_EQ(dead_letters, r.channels.dead_letters);
    if (ack) {
      EXPECT_GT(patch_dead_letters, 0u);
    } else {
      // Fire-and-forget rejects each corrupt frame exactly once.
      EXPECT_EQ(corrupt, r.channels.corrupt_rejected);
      EXPECT_GT(patch_corrupt, 0u);
    }
  }
  for (const char* stream : {"rows", "artifact", "predictions", "patch", "summary"}) {
    EXPECT_EQ(streams.count(stream), 1u) << stream;
  }
}

// ---- Byte-identity digest grid ---------------------------------------------

// Small fleets that between them cross every send site (rows, degrade
// summaries, deploy artifacts and predictions, OTA chunks, probe reports
// and rollback commands) in both channel modes, each bound a device backlog
// evicts by and every OTA transfer fallback, plus one fleet wide enough to
// sense on worker threads. Each case pins the FNV-1a-64 digests of its
// event log, its FleetReport JSON, its journeys.jsonl when the observatory
// is on ("-" otherwise) and its stage ledger in golden/fleet_digest_grid.txt,
// so a change to the transport, the simulator, the journey store or the
// stage accounting that moves one byte of any fails here.
// Regenerate with IOTML_UPDATE_GOLDEN=1 only for an intentional behaviour
// change.
struct GridCase {
  std::string name;
  FleetConfig config;
  /// The send path the case exists for must actually run, or its pinned
  /// digests guard nothing.
  bool (*exercised)(const FleetReport&);
};

FleetConfig grid_fleet(std::uint64_t seed, bool observatory) {
  FleetConfig c;
  c.devices = 12;
  c.edges = 2;
  c.duration_s = 16.0;
  c.seed = seed;
  c.observatory.enabled = observatory;
  return c;
}

void grid_ack(FleetConfig& c) {
  c.channel.mode = net::ChannelMode::kAckRetry;
  c.channel.ack_timeout_s = 0.1;
  c.channel.max_attempts = 5;
}

void grid_chaos(FleetConfig& c) {
  c.checkpoint_interval_s = 2.0;
  c.device_buffer_rows = 4096;
  c.chaos.partitions = 1.0;
  c.chaos.partition_mean_s = 4.0;
  c.chaos.loss_bursts = 1.0;
  c.chaos.burst_mean_s = 3.0;
  c.chaos.corruption_storms = 1.0;
  c.chaos.storm_mean_s = 3.0;
}

FleetConfig grid_ota(std::uint64_t seed, bool observatory) {
  FleetConfig c = grid_fleet(seed, observatory);
  c.duration_s = 24.0;
  c.device_flush_s = 2.0;
  c.edge_flush_s = 3.0;
  c.ota.enabled = true;
  c.ota.canary_fraction = 0.5;
  return c;
}

FleetConfig grid_degrade(int pin, bool ack, bool observatory) {
  FleetConfig c = grid_fleet(300 + static_cast<std::uint64_t>(pin), observatory);
  c.duration_s = 24.0;
  if (ack) grid_ack(c);
  grid_chaos(c);
  c.degrade.enabled = true;
  c.degrade.pin_level = pin;
  return c;
}

// Fire-and-forget over links that duplicate many deliveries, with one
// corruption storm: straggler copies land behind intact and corrupt row
// frames, at an edge and at the core.
FleetConfig straggler_config() {
  FleetConfig c = grid_fleet(127, true);
  c.device_edge_link.duplicate_prob = 0.3;
  c.edge_core_link.duplicate_prob = 0.2;
  c.chaos.corruption_storms = 1.0;
  return c;
}

// Churning devices flushing every second through two heavy loss bursts, so
// device backlogs fill up and evict. Ack rows use short queues and few
// attempts, so failed sends return their rows to the backlog too.
FleetConfig backlog_config(std::uint64_t seed, bool ack, bool observatory) {
  FleetConfig c = grid_fleet(seed, observatory);
  c.duration_s = 24.0;
  c.device_flush_s = 1.0;
  c.faults.device_churns = 3.0;
  c.faults.device_offtime_mean_s = 4.0;
  c.chaos.loss_bursts = 2.0;
  c.chaos.burst_drop_prob = 0.7;
  if (ack) {
    grid_ack(c);
    c.channel.queue_capacity = 2;
    c.channel.max_attempts = 3;
  }
  return c;
}

std::vector<GridCase> digest_grid() {
  std::vector<GridCase> grid;
  {
    FleetConfig c = grid_fleet(106, true);
    c.faults.link_outages = 1.0;
    c.faults.device_churns = 1.0;
    c.chaos.loss_bursts = 1.0;
    c.chaos.corruption_storms = 2.0;
    c.chaos.storm_mean_s = 4.0;
    c.chaos.storm_corrupt_prob = 0.2;
    grid.push_back({"ff-rows", c, [](const FleetReport& r) {
                      return r.rows_lost > 0 && r.faults.rows_corrupt_rejected > 0;
                    }});
  }
  {
    FleetConfig c = grid_fleet(102, false);
    grid_ack(c);
    grid_chaos(c);
    c.telemetry.enabled = true;
    c.faults.device_churns = 3.0;
    c.faults.device_offtime_mean_s = 3.0;
    c.faults.edge_crashes = 1.0;
    grid.push_back({"ack-telemetry-sf-churn", c, [](const FleetReport& r) {
                      return r.telemetry.frames_sent > 0 && r.channels.retransmits > 0 &&
                             r.faults.checkpoints_written > 0 && r.rows_skipped == 0;
                    }});
  }
  for (const bool ack : {false, true}) {
    FleetConfig c = grid_fleet(ack ? 104 : 103, !ack);
    if (ack) grid_ack(c);
    c.deploy.enabled = true;
    c.deploy.stale_fallback = true;
    c.chaos.crash_during_broadcast = true;
    grid.push_back({ack ? "deploy-stale-crash-ack" : "deploy-stale-crash-ff", c,
                    [](const FleetReport& r) {
                      return r.deploy.devices_stale > 0 && r.deploy.predictions_delivered > 0;
                    }});
  }
  {
    FleetConfig c = grid_ota(105, true);
    c.ota.regression_tolerance = -1.0;  // every canary verdict rolls back
    c.chaos.corruption_storms = 2.0;
    c.chaos.storm_corrupt_prob = 0.3;
    grid.push_back({"ota-canary-rollback-ff", c, [](const FleetReport& r) {
                      return r.deploy.ota.rollbacks > 0 && r.deploy.ota.probe_uplink_bytes > 0 &&
                             r.faults.rows_corrupt_rejected > 0;
                    }});
  }
  {
    FleetConfig c = grid_ota(106, false);
    grid_ack(c);
    grid_chaos(c);
    c.faults.edge_crashes = 1.0;
    c.faults.device_churns = 2.0;
    grid.push_back({"ota-chaos-ack", c, [](const FleetReport& r) {
                      return r.deploy.ota.chunks_delivered > 0 && r.deploy.ota.resume_rounds > 0;
                    }});
  }
  grid.push_back({"degrade-l1-ack", grid_degrade(1, true, true),
                  [](const FleetReport& r) { return r.degradation.windows_sampled > 0; }});
  {
    // Edge crashes dump flight rings whose rx-rows notes carry frame trace
    // ids, so a shift in the id sequence shows in the report.
    FleetConfig c = grid_degrade(2, false, true);
    c.faults.edge_crashes = 2.0;
    grid.push_back({"degrade-l2-ff", c, [](const FleetReport& r) {
                      return r.degradation.summaries_delivered > 0 &&
                             !r.faults.flight_dumps.empty();
                    }});
  }
  grid.push_back({"degrade-l3-ack", grid_degrade(3, true, false),
                  [](const FleetReport& r) { return r.degradation.summaries_delivered > 0; }});
  {
    FleetConfig c = grid_degrade(-1, true, true);
    c.channel.queue_capacity = 2;
    c.degrade.dead_letter_rate_ref = 0.25;
    c.degrade.checkpoint_lag_rows = 40;
    c.degrade.thresholds.up = {0.2, 0.6, 1.2};
    c.degrade.thresholds.down = {0.1, 0.4, 0.9};
    c.degrade.thresholds.dwell_s = 3.0;
    c.chaos.load_storms = 2.0;
    c.chaos.load_storm_mean_s = 6.0;
    c.chaos.load_storm_factor = 6.0;
    grid.push_back({"degrade-free-storms", c, [](const FleetReport& r) {
                      return r.faults.load_storms > 0 && r.degradation.transitions_up > 0 &&
                             r.degradation.summaries_sent > 0;
                    }});
  }
  for (const bool sf : {false, true}) {
    FleetConfig c = grid_fleet(sf ? 108 : 105, sf);
    grid_ack(c);
    c.channel.queue_capacity = 1;
    c.device_flush_s = 1.0;
    c.chaos.loss_bursts = 3.0;
    c.chaos.burst_mean_s = 4.0;
    c.chaos.burst_drop_prob = 0.6;
    if (sf) c.device_buffer_rows = 4096;
    grid.push_back({sf ? "ack-dead-letter-sf" : "ack-dead-letter", c,
                    [](const FleetReport& r) { return r.channels.dead_letters > 0; }});
  }
  grid.push_back({"ff-stragglers", straggler_config(), [](const FleetReport& r) {
                    return r.duplicates_discarded > 0 && r.faults.rows_corrupt_rejected > 0;
                  }});
  {
    FleetConfig c = backlog_config(1, true, false);
    c.device_buffer_rows = 24;
    grid.push_back({"backlog-row-cap-ack", c, [](const FleetReport& r) {
                      return r.faults.rows_buffer_evicted > 0;
                    }});
  }
  {
    // The byte bound alone binds: the row cap is far above any backlog.
    FleetConfig c = backlog_config(2, true, true);
    c.telemetry.enabled = true;
    c.telemetry.device_log_bytes = 128;
    c.device_buffer_rows = 4096;
    grid.push_back({"backlog-byte-bound-ack", c, [](const FleetReport& r) {
                      return r.telemetry.log_frames_evicted > 0;
                    }});
  }
  {
    // The row cap alone binds: no backlog comes near the byte bound.
    FleetConfig c = backlog_config(3, false, true);
    c.telemetry.enabled = true;
    c.telemetry.device_log_bytes = 4096;
    c.device_buffer_rows = 8;
    grid.push_back({"backlog-telemetry-row-cap-ff", c, [](const FleetReport& r) {
                      return r.telemetry.log_frames_evicted > 0 &&
                             r.telemetry.log_highwater_bytes < 4096;
                    }});
  }
  {
    // Failed sends return merged drains bigger than the cap; the backlog
    // keeps such a chunk whole when it is the only one left.
    FleetConfig c = backlog_config(2, true, false);
    c.device_buffer_rows = 8;
    grid.push_back({"backlog-whole-chunks-ack", c, [](const FleetReport& r) {
                      return r.faults.rows_buffer_evicted > 0;
                    }});
  }
  {
    // Wide enough that, on a host with two or more hardware threads, the
    // constructor simulates sensors on worker threads (two full 64-device
    // blocks and a partial one). Deploy sensing runs past the learning
    // window, so the reading buffers are sized from the longer horizon.
    FleetConfig c = grid_fleet(109, false);
    c.devices = 160;
    c.edges = 4;
    c.duration_s = 6.0;
    c.device_flush_s = 2.0;
    c.edge_flush_s = 3.0;
    c.deploy.enabled = true;
    c.deploy.score_window_s = 4.0;
    grid.push_back({"wide-deploy-workers", c, [](const FleetReport& r) {
                      return r.devices == 160 && r.deploy.predictions_delivered > 0;
                    }});
  }
  {
    // Devices offline for most of the run and a core crash stall patch
    // transfers past the resume rounds, into the full-image fallback and
    // on until they exhaust it and are ledgered stuck.
    FleetConfig c = grid_fleet(4, true);
    c.duration_s = 40.0;
    c.device_flush_s = 2.0;
    c.edge_flush_s = 3.0;
    c.ota.enabled = true;
    c.faults.device_churns = 2.0;
    c.faults.device_offtime_mean_s = 25.0;
    c.faults.core_crashes = 1.0;
    c.device_buffer_rows = 4096;
    grid.push_back({"ota-stuck-churn-ff", c, [](const FleetReport& r) {
                      return r.faults.core_crashes > 0 && r.deploy.ota.full_fallbacks > 0 &&
                             r.deploy.ota.devices_stuck > 0;
                    }});
  }
  {
    // Periodic schedules whose running sums round and do not divide the
    // run: device flushes every 0.3 s and checkpoints every 1.1 s over
    // 7.3 s. The edge period exceeds the run, so edges flush only at the
    // drain. Churn and a load storm interleave one-off events with them.
    FleetConfig c = grid_fleet(110, true);
    c.duration_s = 7.3;
    c.device_flush_s = 0.3;
    c.edge_flush_s = 8.0;
    c.checkpoint_interval_s = 1.1;
    grid_ack(c);
    c.faults.device_churns = 2.0;
    c.faults.device_offtime_mean_s = 2.0;
    c.chaos.load_storms = 1.0;
    c.chaos.load_storm_mean_s = 3.0;
    grid.push_back({"series-offgrid", c, [](const FleetReport& r) {
                      return r.faults.checkpoints_written > 0 && r.faults.load_storms > 0;
                    }});
  }
  return grid;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string digest(const std::string& text) {
  std::uint64_t h = kFnv64Basis;
  for (const char c : text) h = fnv1a64_byte(h, static_cast<std::uint8_t>(c));
  return hex64(h);
}

/// Every stage run in push order, every field but the measured wall time.
/// The report JSON keeps only per-name totals, so this pins what they lose:
/// the order of runs, columns_out and both missing rates.
std::string stage_ledger(const FleetReport& report) {
  std::string text;
  char line[512];
  for (const pipeline::StageReport& r : report.stage_reports) {
    std::snprintf(line, sizeof line, "%s %s %s %zu %zu %zu %.17g %.17g %.17g\n",
                  r.stage_name.c_str(), r.player.c_str(), pipeline::tier_name(r.tier).c_str(),
                  r.rows_in, r.rows_out, r.columns_out, r.missing_rate_in, r.missing_rate_out,
                  r.cost);
    text += line;
  }
  return text;
}

TEST(FleetDigest, GridMatchesPinnedBytes) {
  const std::string path = std::string(IOTML_GOLDEN_DIR) + "/fleet_digest_grid.txt";
  std::ostringstream table;
  for (const GridCase& gc : digest_grid()) {
    FleetSim sim(gc.config);
    const FleetReport report = sim.run();
    EXPECT_TRUE(gc.exercised(report)) << gc.name << " misses the send path it pins";
    std::string events;
    for (const std::string& line : sim.event_log()) events += line + '\n';
    std::string journeys = "-";
    if (sim.observatory() != nullptr) {
      std::ostringstream jsonl;
      sim.observatory()->journeys().write_jsonl(jsonl);
      journeys = digest(jsonl.str());
    }
    table << gc.name << ' ' << digest(events) << ' ' << digest(report.to_json()) << ' '
          << journeys << ' ' << digest(stage_ledger(report)) << '\n';
  }
  const char* update = std::getenv("IOTML_UPDATE_GOLDEN");  // NOLINT(concurrency-mt-unsafe)
  if (update != nullptr && update[0] == '1') {
    std::ofstream(path, std::ios::binary) << table.str();
    GTEST_SKIP() << "digest grid rewritten";
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream pinned;
  pinned << in.rdbuf();
  ASSERT_FALSE(pinned.str().empty())
      << "missing golden file; regenerate with IOTML_UPDATE_GOLDEN=1";
  EXPECT_EQ(table.str(), pinned.str());
}

// The registry's OTA counters are named after the OtaSummary fields they
// mirror, so a metrics dump must agree with the report on every OTA row:
// run-wide counters with their field, per-transfer ones with the sum of
// their per-epoch field.
TEST(FleetDigest, OtaCountersMatchTheReport) {
  obs::Registry& registry = obs::registry();
  std::size_t ota_rows = 0;
  for (const GridCase& gc : digest_grid()) {
    if (!gc.config.ota.enabled) continue;
    ++ota_rows;
    const char* const names[] = {"ota.full_fallbacks", "ota.downlink_bytes",
                                 "ota.chunk_sends",    "ota.probe_uplink_bytes",
                                 "ota.resume_rounds",  "ota.promotions",
                                 "ota.rollbacks",      "ota.commits",
                                 "ota.devices_stuck",  "ota.device_rollbacks"};
    std::map<std::string, std::uint64_t> before;
    for (const char* name : names) before[name] = registry.counter(name).value();
    FleetSim sim(gc.config);
    const OtaSummary ota = sim.run().deploy.ota;
    std::uint64_t updated = 0;
    std::uint64_t stuck = 0;
    std::uint64_t rolled_back = 0;
    for (const OtaEpochEntry& e : ota.epochs_log) {
      updated += e.devices_updated;
      stuck += e.devices_stuck;
      rolled_back += e.devices_rolled_back;
    }
    const std::map<std::string, std::uint64_t> report = {
        {"ota.full_fallbacks", ota.full_fallbacks},
        {"ota.downlink_bytes", ota.delta_downlink_bytes},
        {"ota.chunk_sends", ota.chunks_sent},
        {"ota.probe_uplink_bytes", ota.probe_uplink_bytes},
        {"ota.resume_rounds", ota.resume_rounds},
        {"ota.promotions", ota.promotions},
        {"ota.rollbacks", ota.rollbacks},
        {"ota.commits", updated},
        {"ota.devices_stuck", stuck},
        {"ota.device_rollbacks", rolled_back}};
    for (const auto& [name, value] : report) {
      EXPECT_EQ(registry.counter(name).value() - before.at(name), value)
          << gc.name << ' ' << name;
    }
  }
  EXPECT_EQ(ota_rows, 3u);
}

// handle() names each event's span from a table of literals, and perfbench
// folds spans by those names: every popped event gets one span named
// "sim.event:" + the kind its event-log line prints.
TEST(FleetTrace, EventSpansAreNamedByTheirLoggedKind) {
  ASSERT_FALSE(obs::trace().enabled()) << "test assumes IOTML_TRACE is unset";
  std::map<std::string, std::size_t> logged;
  std::map<std::string, std::size_t> spanned;
  obs::trace().set_enabled(true);
  for (const GridCase& gc : digest_grid()) {
    obs::trace().clear();
    FleetSim sim(gc.config);
    sim.run();
    for (const std::string& line : sim.event_log()) {
      std::istringstream fields(line);
      std::string time;
      std::string seq;
      std::string kind;
      fields >> time >> seq >> kind;
      ++logged["sim.event:" + kind];
    }
    for (const obs::TraceEvent& span : obs::trace().snapshot()) {
      if (span.name.rfind("sim.event:", 0) == 0) ++spanned[span.name];
    }
  }
  obs::trace().set_enabled(false);
  obs::trace().clear();
  EXPECT_EQ(spanned, logged);
  EXPECT_EQ(logged.size(), 32u) << "the grid raises every event kind";
}

// A straggler copy lands after the first copy has handed its frame to the
// receiver, and its duplicate record still carries the frame's rows.
TEST(FleetJourney, StragglerCopiesRecordTheirFrameRows) {
  FleetSim fleet(straggler_config());
  const FleetReport r = fleet.run();
  ASSERT_NE(fleet.observatory(), nullptr);
  std::map<std::uint64_t, std::size_t> sent_rows;  // trace id -> rows of its send
  std::vector<obs::HopRecord> duplicates;
  for (const obs::HopRecord& rec : fleet.observatory()->journeys().snapshot()) {
    if (rec.stream != obs::HopStream::kRows) continue;
    if (rec.kind == obs::HopKind::kSend) sent_rows[rec.trace] = rec.rows;
    if (rec.kind == obs::HopKind::kArrive && std::string(rec.outcome) == "duplicate") {
      duplicates.push_back(rec);
    }
  }
  EXPECT_GT(r.duplicates_discarded, 0u);
  EXPECT_EQ(duplicates.size(), r.duplicates_discarded);
  for (const obs::HopRecord& rec : duplicates) {
    ASSERT_EQ(sent_rows.count(rec.trace), 1u) << rec.trace;
    EXPECT_EQ(rec.rows, sent_rows.at(rec.trace)) << rec.trace;
  }
}

}  // namespace
}  // namespace iotml::sim

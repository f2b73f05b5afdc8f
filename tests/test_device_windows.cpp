#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "pipeline/integration.hpp"
#include "pipeline/sensors.hpp"
#include "pipeline/stage.hpp"
#include "sim/device_windows.hpp"
#include "sim/fleet.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace iotml::sim {
namespace {

using pipeline::StageReport;

std::vector<pipeline::Signal> fleet_truths() {
  return {pipeline::sine_signal(22.0, 6.0, 40.0, -std::numbers::pi / 2.0),
          pipeline::composite_signal(
              {pipeline::sine_signal(55.0, 10.0, 500.0), pipeline::trend_signal(0.0, -0.01)}),
          pipeline::sine_signal(4.0, 3.0, 120.0)};
}

std::vector<Rng> device_rngs(std::size_t devices, std::uint64_t seed) {
  Rng master(seed);
  std::vector<Rng> rngs;
  for (std::size_t d = 0; d < devices; ++d) rngs.push_back(master.split());
  return rngs;
}

// The device windows the store replaced, kept as its reference: each
// device's streams integrated into one Dataset in device order, taken by
// scanning its stamps from a cursor and copied out with select_rows.
struct ReferenceWindows {
  std::vector<data::Dataset> windows;
  std::vector<std::size_t> cursor;
  std::vector<StageReport> acquisitions;

  ReferenceWindows(const DeviceWindows::Params& p, std::vector<Rng> rngs,
                   const std::vector<pipeline::Signal>& truths) {
    const std::size_t devices = rngs.size();
    static const char* kQuantity[3] = {"temperature", "humidity", "wind"};
    static constexpr double kNoiseScale[3] = {1.0, 2.5, 1.5};
    windows.resize(devices);
    cursor.assign(devices, 0);
    for (std::size_t d = 0; d < devices; ++d) {
      std::vector<pipeline::SensorStream> streams;
      std::size_t readings = 0;
      for (std::size_t q = 0; q < 3; ++q) {
        pipeline::SensorSpec spec;
        spec.name = kQuantity[q];
        spec.period_s = p.sensor_period_s * rngs[d].uniform(0.9, 1.1);
        spec.clock_jitter_s = 0.02;
        spec.noise_std = 0.4 * kNoiseScale[q];
        spec.dropout_prob = p.sensor_dropout;
        streams.push_back(pipeline::simulate_sensor(spec, truths[q], p.horizon_s, rngs[d]));
        readings += streams.back().readings.size();
      }
      data::Dataset& window = windows[d];
      StageReport acq = pipeline::run_stage("acquisition", "device", pipeline::Tier::kDevice,
                                            window, [&] {
        if (readings > 0) {
          window = pipeline::integrate_streams(
                       streams, {.merge_tolerance_s = 0.45 * p.sensor_period_s})
                       .records;
        } else {
          window.add_numeric_column("timestamp");
          for (const pipeline::SensorStream& s : streams) window.add_numeric_column(s.sensor_name);
        }
        return 0.05 + 0.01 * static_cast<double>(readings);
      });
      acq.rows_in = readings;
      acquisitions.push_back(acq);
    }
  }

  data::Dataset rows(std::size_t d, std::size_t from, std::size_t to) const {
    std::vector<std::size_t> idx(to - from);
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = from + i;
    return windows[d].select_rows(idx);
  }

  data::Dataset take(std::size_t d, double cutoff) {
    const data::Dataset& all = windows[d];
    const std::size_t begin = cursor[d];
    std::size_t end = begin;
    while (end < all.rows() && all.column(0).numeric(end) < cutoff) ++end;
    cursor[d] = end;
    return rows(d, begin, end);
  }

  data::Dataset rest(std::size_t d) const { return rows(d, cursor[d], windows[d].rows()); }

  data::Dataset recent(std::size_t d, double before_s, std::size_t count) const {
    const data::Dataset& all = windows[d];
    std::size_t upto = 0;
    while (upto < all.rows() && all.column(0).numeric(upto) < before_s) ++upto;
    return rows(d, upto - std::min(count, upto), upto);
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_rows(const data::Dataset& got, const data::Dataset& want,
                      const std::string& what) {
  ASSERT_EQ(got.num_columns(), want.num_columns()) << what;
  ASSERT_EQ(got.rows(), want.rows()) << what;
  EXPECT_FALSE(got.has_labels()) << what;
  for (std::size_t c = 0; c < want.num_columns(); ++c) {
    const data::Column& g = got.column(c);
    const data::Column& w = want.column(c);
    ASSERT_EQ(g.name(), w.name()) << what;
    ASSERT_EQ(g.type(), w.type()) << what;
    for (std::size_t r = 0; r < w.size(); ++r) {
      ASSERT_EQ(g.is_missing(r), w.is_missing(r)) << what << " column " << c << " row " << r;
      ASSERT_EQ(bits(g.raw()[r]), bits(w.raw()[r])) << what << " column " << c << " row " << r;
    }
  }
}

void expect_same_report(const StageReport& got, const StageReport& want,
                        const std::string& what) {
  EXPECT_EQ(got.stage_name, want.stage_name) << what;
  EXPECT_EQ(got.player, want.player) << what;
  EXPECT_EQ(got.tier, want.tier) << what;
  EXPECT_EQ(got.rows_in, want.rows_in) << what;
  EXPECT_EQ(got.rows_out, want.rows_out) << what;
  EXPECT_EQ(got.columns_out, want.columns_out) << what;
  EXPECT_EQ(bits(got.missing_rate_in), bits(want.missing_rate_in)) << what;
  EXPECT_EQ(bits(got.missing_rate_out), bits(want.missing_rate_out)) << what;
  EXPECT_EQ(bits(got.cost), bits(want.cost)) << what;
}

// Random fleets at the edges of the 64-device worker blocks and the
// 512-device batches, with dropout from none to nearly every reading, with
// and without a deploy score window and a probe tail. Devices take their
// rows round by round, in a shuffled order each round, as staggered flushes
// do; probes read recent rows between rounds, as OTA canaries do. Every
// read must match the reference bit for bit.
TEST(DeviceWindows, ReadsMatchTheIntegratedDatasetReference) {
  const std::vector<pipeline::Signal> truths = fleet_truths();
  Rng rng(2718);
  std::size_t silent_devices = 0;
  std::size_t probes = 0;
  std::size_t rest_rows = 0;
  for (const std::size_t devices : {1, 63, 64, 127, 128, 511, 512, 513, 1100}) {
    for (int variant = 0; variant < 3; ++variant) {
      const double dropouts[] = {0.0, rng.uniform(0.05, 0.9), 0.95};
      DeviceWindows::Params p;
      p.sensor_period_s = rng.uniform(0.25, 1.0);
      p.sensor_dropout = dropouts[variant];
      // The nearly silent variant runs short, so whole devices drop every
      // reading; the larger fleets run shorter to keep the test quick.
      p.learning_s = variant == 2 ? rng.uniform(0.5, 3.0)
                                  : rng.uniform(1.0, devices > 200 ? 8.0 : 30.0);
      const bool deploy = rng.bernoulli(0.5);
      p.horizon_s = p.learning_s + (deploy ? rng.uniform(0.5, 10.0) : 0.0);
      p.keep_behind = variant == 2 ? 0 : 1 + rng.index(40);
      const std::string what = std::to_string(devices) + " devices, variant " +
                               std::to_string(variant);

      const std::uint64_t seed = 1 + rng.index(1000000);
      std::vector<Rng> rngs = device_rngs(devices, seed);
      ReferenceWindows want(p, rngs, truths);
      StageLog runs;
      DeviceWindows got(p, rngs, truths, runs);

      ASSERT_EQ(runs.size(), devices) << what;
      std::size_t total = 0;
      std::size_t d = 0;
      for (const StageReport& acq : runs) {
        expect_same_report(acq, want.acquisitions[d], what + " acquisition " + std::to_string(d));
        total += want.windows[d].rows();
        if (want.windows[d].rows() == 0) ++silent_devices;
        ++d;
      }
      EXPECT_EQ(got.rows(), total) << what;

      std::vector<std::size_t> order(devices);
      for (std::size_t i = 0; i < devices; ++i) order[i] = i;
      const int rounds = 1 + static_cast<int>(rng.index(8));
      double cutoff = 0.0;
      for (int round = 0; round <= rounds; ++round) {
        const bool last = round == rounds;
        // The last round drains the learning window (deploy) or everything.
        cutoff = last ? (deploy ? p.learning_s : std::numeric_limits<double>::infinity())
                      : cutoff + rng.uniform(0.0, 2.0 * p.learning_s / rounds);
        const double now = last ? p.learning_s : cutoff;
        for (std::size_t i = devices; i > 1; --i) std::swap(order[i - 1], order[rng.index(i)]);
        for (const std::size_t dev : order) {
          expect_same_rows(got.take(dev, cutoff), want.take(dev, cutoff),
                           what + " take " + std::to_string(dev));
          ASSERT_EQ(got.rows_left(dev), want.windows[dev].rows() - want.cursor[dev]) << what;
        }
        if (p.keep_behind == 0) continue;
        for (int probe = 0; probe < 8; ++probe) {
          const std::size_t dev = rng.index(devices);
          const double at = now + rng.uniform(0.0, 2.0);
          const std::size_t count = 1 + rng.index(p.keep_behind);
          expect_same_rows(got.recent(dev, at, count), want.recent(dev, at, count),
                           what + " recent " + std::to_string(dev));
          ++probes;
        }
      }
      for (std::size_t dev = 0; dev < devices; ++dev) {
        expect_same_rows(got.rest(dev), want.rest(dev), what + " rest " + std::to_string(dev));
        rest_rows += got.rows_left(dev);
      }
      if (!deploy && p.keep_behind == 0) {
        EXPECT_EQ(got.bytes(), 0u) << what;
      }
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(silent_devices, 0u);
  EXPECT_GT(probes, 0u);
  EXPECT_GT(rest_rows, 0u);
}

// Two devices over 16 one-second slices. Once both have taken the rows
// before 8 s, the blocks holding them are freed, and a read behind the
// cursor fails loudly; the rows a device has yet to take stay readable.
TEST(DeviceWindows, ReadingAFreedRowThrowsInternalError) {
  const std::vector<pipeline::Signal> truths = fleet_truths();
  std::vector<Rng> rngs = device_rngs(2, 7);
  const DeviceWindows::Params p{.learning_s = 16.0, .horizon_s = 16.0};
  StageLog runs;
  DeviceWindows w(p, rngs, truths, runs);
  const std::size_t sensed = w.bytes();
  EXPECT_EQ(sensed, w.rows() * DeviceWindows::kRowBytes);
  EXPECT_GT(w.take(0, 8.0).rows(), 0u);
  EXPECT_EQ(w.bytes(), sensed) << "device 1 still needs every block";
  EXPECT_NO_THROW(w.recent(1, 8.0, 4));
  EXPECT_GT(w.take(1, 8.0).rows(), 0u);
  EXPECT_LT(w.bytes(), sensed);
  EXPECT_THROW(w.recent(0, 8.0, 4), InternalError);
  EXPECT_THROW(w.recent(1, 8.0, 1), InternalError);
  EXPECT_GT(w.take(1, 12.0).rows(), 0u);
  EXPECT_GT(w.take(0, std::numeric_limits<double>::infinity()).rows(), 0u);
  EXPECT_GT(w.bytes(), 0u) << "device 1 has rows left to take";
  EXPECT_GT(w.take(1, std::numeric_limits<double>::infinity()).rows(), 0u);
  EXPECT_EQ(w.bytes(), 0u);
}

// ---- What a fleet keeps after its run ---------------------------------------

FleetConfig window_fleet(std::uint64_t seed) {
  FleetConfig c;
  c.devices = 24;
  c.edges = 3;
  c.duration_s = 48.0;
  c.device_flush_s = 2.0;
  c.edge_flush_s = 4.0;
  c.seed = seed;
  return c;
}

// Without deploy or OTA no read follows a row's take, so every block is
// freed by the end of the run.
TEST(FleetWindows, PlainFleetFreesEveryBlock) {
  FleetSim sim(window_fleet(1));
  EXPECT_GT(sim.window_bytes(), 0u);
  const FleetReport r = sim.run();
  EXPECT_GT(r.rows_generated, 0u);
  EXPECT_EQ(sim.window_bytes(), 0u);
}

// Deploy keeps exactly the rows sensed after the learning window: the
// ledger's retained rows, in blocks of their own.
TEST(FleetWindows, DeployFleetKeepsExactlyItsPostWindowRows) {
  FleetConfig c = window_fleet(2);
  c.deploy.enabled = true;
  c.deploy.score_window_s = 10.0;
  FleetSim sim(c);
  const FleetReport r = sim.run();
  EXPECT_GT(r.deploy.rows_scored, 0u);
  ASSERT_GT(r.faults.rows_retained, 0u);
  EXPECT_EQ(sim.window_bytes(), r.faults.rows_retained * DeviceWindows::kRowBytes);
}

// OTA keeps each device's last kProbeRows learning rows for canary probes.
// Blocks are cut by time, so the slice holding a device's oldest kept row
// stays whole, as does the slice of rows stamped past the window's end (at
// most one per sensor, from clock jitter).
TEST(FleetWindows, OtaFleetKeepsOnlyItsProbeRows) {
  FleetConfig c = window_fleet(3);
  c.devices = 12;
  c.edges = 2;
  c.duration_s = 96.0;
  c.ota.enabled = true;
  c.ota.canary_fraction = 0.5;
  FleetSim sim(c);
  const FleetReport r = sim.run();
  EXPECT_GT(r.deploy.ota.probe_uplink_bytes, 0u);
  const double slice_s = c.duration_s / static_cast<double>(DeviceWindows::kSlices);
  const std::size_t slice_rows =
      3 * (static_cast<std::size_t>(std::ceil(slice_s / (0.9 * c.sensor_period_s))) + 2);
  const std::size_t kept_rows = FleetSim::kProbeRows + slice_rows + 3;
  EXPECT_LE(sim.window_bytes(), c.devices * kept_rows * DeviceWindows::kRowBytes);
  EXPECT_GE(sim.window_bytes(), c.devices * FleetSim::kProbeRows * DeviceWindows::kRowBytes);
  EXPECT_LT(c.devices * kept_rows, r.rows_generated / 2) << "the bound must be far below all rows";
}

}  // namespace
}  // namespace iotml::sim

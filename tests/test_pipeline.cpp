#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "data/metrics.hpp"
#include "obs/clock.hpp"
#include "pipeline/integration.hpp"
#include "pipeline/preparation.hpp"
#include "pipeline/reduction.hpp"
#include "pipeline/sensors.hpp"
#include "pipeline/stage.hpp"
#include "pipeline/uncertainty.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace iotml::pipeline {
namespace {

using data::Dataset;

// ---- Sensors ----------------------------------------------------------------

TEST(Sensors, PerfectSensorReproducesSignal) {
  Rng rng(1);
  SensorSpec spec{.name = "t0", .period_s = 0.5};
  Signal truth = sine_signal(20.0, 5.0, 60.0);
  SensorStream s = simulate_sensor(spec, truth, 10.0, rng);
  ASSERT_EQ(s.readings.size(), 20u);
  EXPECT_EQ(s.dropped, 0u);
  for (const Reading& r : s.readings) {
    EXPECT_NEAR(r.value, truth(r.timestamp), 1e-12);
  }
}

TEST(Sensors, NoiseHasExpectedScale) {
  Rng rng(2);
  SensorSpec spec{.period_s = 0.01, .noise_std = 2.0};
  Signal truth = [](double) { return 5.0; };
  SensorStream s = simulate_sensor(spec, truth, 100.0, rng);
  std::vector<double> errors;
  for (const Reading& r : s.readings) errors.push_back(r.value - 5.0);
  auto ms = data::mean_std(errors);
  EXPECT_NEAR(ms.mean, 0.0, 0.1);
  EXPECT_NEAR(ms.stddev, 2.0, 0.2);
}

TEST(Sensors, DropoutLosesReadings) {
  Rng rng(3);
  SensorSpec spec{.period_s = 0.01, .dropout_prob = 0.3};
  SensorStream s = simulate_sensor(spec, [](double) { return 0.0; }, 50.0, rng);
  const double kept = static_cast<double>(s.readings.size()) /
                      static_cast<double>(s.readings.size() + s.dropped);
  EXPECT_NEAR(kept, 0.7, 0.05);
}

TEST(Sensors, BiasAndDriftApplied) {
  Rng rng(4);
  SensorSpec spec{.period_s = 1.0, .drift_per_s = 0.1, .bias = 3.0};
  SensorStream s = simulate_sensor(spec, [](double) { return 0.0; }, 10.0, rng);
  // At t = 0: bias only. At t = 9: bias + 0.9.
  EXPECT_NEAR(s.readings.front().value, 3.0, 1e-12);
  EXPECT_NEAR(s.readings.back().value, 3.9, 1e-12);
}

TEST(Sensors, JitterKeepsTimestampsSortedAndNonNegative) {
  Rng rng(5);
  SensorSpec spec{.period_s = 0.1, .clock_jitter_s = 0.2};
  SensorStream s = simulate_sensor(spec, [](double) { return 0.0; }, 20.0, rng);
  for (std::size_t i = 0; i < s.readings.size(); ++i) {
    EXPECT_GE(s.readings[i].timestamp, 0.0);
    if (i > 0) {
      EXPECT_GE(s.readings[i].timestamp, s.readings[i - 1].timestamp);
    }
  }
}

TEST(Sensors, OutliersInjected) {
  Rng rng(6);
  SensorSpec spec{.period_s = 0.01, .noise_std = 0.1, .outlier_prob = 0.05,
                  .outlier_scale = 50.0};
  SensorStream s = simulate_sensor(spec, [](double) { return 0.0; }, 50.0, rng);
  std::size_t gross = 0;
  for (const Reading& r : s.readings) {
    if (std::fabs(r.value) > 2.0) ++gross;
  }
  const double rate = static_cast<double>(gross) / static_cast<double>(s.readings.size());
  EXPECT_NEAR(rate, 0.05, 0.02);
}

TEST(Sensors, FieldAcquisitionShapes) {
  Rng rng(7);
  std::vector<FieldQuantity> field{
      {"temperature", sine_signal(20, 3, 60), {{.name = "t0"}, {.name = "t1"}}},
      {"humidity", trend_signal(50, 0.1), {{.name = "h0"}}}};
  FieldAcquisition acq = acquire_field(field, 5.0, rng);
  ASSERT_EQ(acq.streams.size(), 3u);
  EXPECT_EQ(acq.quantity_of_stream[0], "temperature");
  EXPECT_EQ(acq.quantity_of_stream[2], "humidity");
}

TEST(Sensors, Validation) {
  Rng rng(8);
  EXPECT_THROW(simulate_sensor({.period_s = 0.0}, [](double) { return 0.0; }, 1.0, rng),
               InvalidArgument);
  EXPECT_THROW(simulate_sensor({.dropout_prob = 1.0}, [](double) { return 0.0; }, 1.0, rng),
               InvalidArgument);
  EXPECT_THROW(acquire_field({}, 1.0, rng), InvalidArgument);
  EXPECT_THROW(sine_signal(0, 1, 0), InvalidArgument);
}

// The fleet simulator fills buffers it reserved, on worker threads, through
// the fill-in-place form; it must draw and write exactly what the returning
// form does, into the caller's storage.
TEST(Sensors, FillInPlaceMatchesTheReturningForm) {
  const SensorSpec spec{.name = "t", .period_s = 0.1, .clock_jitter_s = 0.05,
                        .noise_std = 0.3, .dropout_prob = 0.2, .outlier_prob = 0.05};
  const Signal truth = sine_signal(20.0, 5.0, 30.0);
  Rng returning_rng(31);
  Rng filling_rng(31);
  const SensorStream returned = simulate_sensor(spec, truth, 20.0, returning_rng);
  ASSERT_GT(returned.dropped, 0u);

  SensorStream filled{.sensor_name = "stale", .readings = {{-1.0, 9.0}}, .dropped = 999};
  filled.readings.reserve(400);
  const std::size_t capacity = filled.readings.capacity();
  const Reading* storage = filled.readings.data();
  simulate_sensor(spec, truth, 20.0, filling_rng, filled);
  EXPECT_EQ(filled.sensor_name, "t");
  EXPECT_EQ(filled.dropped, returned.dropped);
  ASSERT_EQ(filled.readings.size(), returned.readings.size());
  for (std::size_t i = 0; i < returned.readings.size(); ++i) {
    EXPECT_EQ(filled.readings[i].timestamp, returned.readings[i].timestamp) << i;
    EXPECT_EQ(filled.readings[i].value, returned.readings[i].value) << i;
  }
  EXPECT_EQ(filled.readings.capacity(), capacity);
  EXPECT_EQ(filled.readings.data(), storage);
  EXPECT_EQ(filling_rng.engine()(), returning_rng.engine()());
}

// ---- Integration ---------------------------------------------------------------

TEST(Integration, SynchronizedStreamsProduceCompleteRecords) {
  Rng rng(9);
  SensorSpec a{.name = "a", .period_s = 1.0};
  SensorSpec b{.name = "b", .period_s = 1.0};
  Signal zero = [](double) { return 0.0; };
  auto sa = simulate_sensor(a, zero, 10.0, rng);
  auto sb = simulate_sensor(b, zero, 10.0, rng);
  IntegrationResult res = integrate_streams({sa, sb});
  EXPECT_EQ(res.records.rows(), 10u);
  EXPECT_EQ(res.records.num_columns(), 3u);  // timestamp + 2 sensors
  EXPECT_DOUBLE_EQ(res.missing_rate, 0.0);
}

TEST(Integration, DesynchronizedStreamsCreateMissingValues) {
  // The paper's Section IV example: unsynchronized sensors -> merged
  // timestamp list -> records plagued by missing values.
  Rng rng(10);
  SensorSpec a{.name = "a", .period_s = 1.0};
  SensorSpec b{.name = "b", .period_s = 0.7};
  Signal zero = [](double) { return 0.0; };
  auto sa = simulate_sensor(a, zero, 20.0, rng);
  auto sb = simulate_sensor(b, zero, 20.0, rng);
  IntegrationResult res = integrate_streams({sa, sb});
  EXPECT_GT(res.missing_rate, 0.3);  // most stamps only carry one sensor
  EXPECT_GT(res.records.rows(), 20u);
}

TEST(Integration, ToleranceMergesNearbyStamps) {
  SensorStream a{.sensor_name = "a", .readings = {{0.0, 1.0}, {1.0, 2.0}}};
  SensorStream b{.sensor_name = "b", .readings = {{0.05, 10.0}, {1.04, 20.0}}};
  IntegrationResult strict = integrate_streams({a, b}, {.merge_tolerance_s = 0.0});
  EXPECT_EQ(strict.records.rows(), 4u);
  EXPECT_NEAR(strict.missing_rate, 0.5, 1e-12);

  IntegrationResult merged = integrate_streams({a, b}, {.merge_tolerance_s = 0.1});
  EXPECT_EQ(merged.records.rows(), 2u);
  EXPECT_DOUBLE_EQ(merged.missing_rate, 0.0);
  EXPECT_EQ(merged.merged_timestamps, 2u);
}

TEST(Integration, DuplicateHandlingAverageVsLast) {
  SensorStream a{.sensor_name = "a", .readings = {{0.0, 1.0}, {0.01, 3.0}}};
  IntegrationResult avg = integrate_streams({a}, {.merge_tolerance_s = 0.1});
  EXPECT_DOUBLE_EQ(avg.records.column(1).numeric(0), 2.0);
  IntegrationResult last = integrate_streams(
      {a}, {.merge_tolerance_s = 0.1, .average_duplicates = false});
  EXPECT_DOUBLE_EQ(last.records.column(1).numeric(0), 3.0);
}

TEST(Integration, ColumnsHoldNoSpareCapacity) {
  Rng rng(12);
  Signal zero = [](double) { return 0.0; };
  std::vector<SensorStream> streams;
  for (double period : {0.5, 0.7, 1.1}) {
    streams.push_back(simulate_sensor(
        {.name = "s", .period_s = period, .clock_jitter_s = 0.01, .dropout_prob = 0.1}, zero,
        77.0, rng));
  }
  IntegrationResult res = integrate_streams(streams, {.merge_tolerance_s = 0.05});
  ASSERT_GT(res.records.rows(), 100u);
  for (std::size_t c = 0; c < res.records.num_columns(); ++c) {
    EXPECT_EQ(res.records.column(c).raw().capacity(), res.records.column(c).size()) << c;
  }
}

TEST(Integration, Validation) {
  EXPECT_THROW(integrate_streams({}), InvalidArgument);
  SensorStream empty{.sensor_name = "e", .readings = {}, .dropped = 0};
  EXPECT_THROW(integrate_streams({empty}), InvalidArgument);
  // The merge needs every stream's stamps finite and ascending.
  SensorStream ascending{.sensor_name = "a", .readings = {{0.0, 1.0}, {1.0, 2.0}}};
  SensorStream backwards{.sensor_name = "b", .readings = {{0.5, 1.0}, {0.4, 2.0}}};
  SensorStream nan_stamp{.sensor_name = "n", .readings = {{std::nan(""), 1.0}}};
  SensorStream inf_stamp{.sensor_name = "i", .readings = {{0.5, 1.0}, {std::numeric_limits<double>::infinity(), 2.0}}};
  EXPECT_NO_THROW(integrate_streams({ascending, empty}));
  EXPECT_THROW(integrate_streams({ascending, backwards}), InvalidArgument);
  EXPECT_THROW(integrate_streams({nan_stamp, ascending}), InvalidArgument);
  EXPECT_THROW(integrate_streams({ascending, inf_stamp}), InvalidArgument);
}

// The integration the merge replaced, kept as its reference: sort every
// stamp, form anchors left to right with the tolerance rule, then
// binary-search each reading's anchor and accumulate per (stream, record).
IntegrationResult reference_integrate(const std::vector<SensorStream>& streams,
                                      const IntegrationParams& params) {
  std::vector<double> stamps;
  for (const SensorStream& s : streams) {
    for (const Reading& r : s.readings) stamps.push_back(r.timestamp);
  }
  std::sort(stamps.begin(), stamps.end());
  std::vector<double> anchors;
  std::size_t merged = 0;
  for (double t : stamps) {
    if (anchors.empty() || t - anchors.back() > params.merge_tolerance_s) {
      anchors.push_back(t);
    } else {
      ++merged;
    }
  }
  auto anchor_of = [&](double t) {
    auto it = std::upper_bound(anchors.begin(), anchors.end(), t);
    return static_cast<std::size_t>(it - anchors.begin()) - 1;
  };
  struct Cell {
    double sum = 0.0;
    double last = 0.0;
    std::size_t count = 0;
  };
  std::vector<std::vector<Cell>> cells(streams.size(), std::vector<Cell>(anchors.size()));
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (const Reading& r : streams[s].readings) {
      Cell& cell = cells[s][anchor_of(r.timestamp)];
      cell.sum += r.value;
      cell.last = r.value;
      ++cell.count;
    }
  }
  IntegrationResult out;
  out.merged_timestamps = merged;
  data::Column& time_col = out.records.add_numeric_column("timestamp");
  for (double a : anchors) time_col.push_numeric(a);
  std::size_t missing_cells = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    data::Column& col = out.records.add_numeric_column(streams[s].sensor_name);
    for (std::size_t rec = 0; rec < anchors.size(); ++rec) {
      const Cell& cell = cells[s][rec];
      if (cell.count == 0) {
        col.push_missing();
        ++missing_cells;
      } else if (params.average_duplicates) {
        col.push_numeric(cell.sum / static_cast<double>(cell.count));
      } else {
        col.push_numeric(cell.last);
      }
    }
  }
  out.missing_rate = static_cast<double>(missing_cells) /
                     static_cast<double>(streams.size() * anchors.size());
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Random ascending streams: 1 to 5 of them, some empty. Most stamps sit on
// a grid of eighths, so streams share stamps and consecutive stamps lie
// exactly one tolerance apart; the rest fall anywhere.
TEST(Integration, MergeMatchesTheSortAndSearchReference) {
  Rng rng(2024);
  std::size_t shared_stamps = 0;
  std::size_t gaps_at_tolerance = 0;
  std::size_t with_empty_stream = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t k = 1 + rng.index(5);
    std::vector<SensorStream> streams(k);
    std::size_t total = 0;
    for (std::size_t s = 0; s < k; ++s) {
      streams[s].sensor_name = "s" + std::to_string(s);
      const std::size_t n = rng.index(4) == 0 ? 0 : rng.index(40);
      for (std::size_t i = 0; i < n; ++i) {
        const double t = rng.bernoulli(0.8) ? 0.125 * static_cast<double>(rng.index(64))
                                            : rng.uniform(0.0, 8.0);
        streams[s].readings.push_back({t, rng.normal(0.0, 10.0)});
      }
      std::sort(streams[s].readings.begin(), streams[s].readings.end(),
                [](const Reading& a, const Reading& b) { return a.timestamp < b.timestamp; });
      total += n;
      if (n == 0) ++with_empty_stream;
    }
    if (total == 0) continue;
    const double tolerances[] = {0.0, 0.125, 0.25, rng.uniform(0.0, 0.5)};
    const IntegrationParams params{.merge_tolerance_s = tolerances[rng.index(4)],
                                   .average_duplicates = rng.bernoulli(0.5)};

    std::vector<double> stamps;
    std::set<std::pair<std::uint64_t, std::size_t>> owners;
    for (std::size_t s = 0; s < k; ++s) {
      for (const Reading& r : streams[s].readings) {
        stamps.push_back(r.timestamp);
        owners.insert({bits(r.timestamp), s});
      }
    }
    std::map<std::uint64_t, std::size_t> streams_per_stamp;
    for (const auto& [stamp, s] : owners) ++streams_per_stamp[stamp];
    for (const auto& [stamp, count] : streams_per_stamp) shared_stamps += count > 1 ? 1 : 0;
    std::sort(stamps.begin(), stamps.end());
    for (std::size_t i = 1; i < stamps.size(); ++i) {
      if (params.merge_tolerance_s > 0.0 &&
          bits(stamps[i] - stamps[i - 1]) == bits(params.merge_tolerance_s)) {
        ++gaps_at_tolerance;
      }
    }

    const IntegrationResult want = reference_integrate(streams, params);
    const IntegrationResult got = integrate_streams(streams, params);
    ASSERT_EQ(got.records.num_columns(), want.records.num_columns()) << trial;
    ASSERT_EQ(got.records.rows(), want.records.rows()) << trial;
    EXPECT_EQ(got.merged_timestamps, want.merged_timestamps) << trial;
    EXPECT_EQ(bits(got.missing_rate), bits(want.missing_rate)) << trial;
    for (std::size_t c = 0; c < want.records.num_columns(); ++c) {
      const data::Column& g = got.records.column(c);
      const data::Column& w = want.records.column(c);
      EXPECT_EQ(g.name(), w.name()) << trial;
      for (std::size_t r = 0; r < w.size(); ++r) {
        ASSERT_EQ(g.is_missing(r), w.is_missing(r)) << trial << " col " << c << " row " << r;
        EXPECT_EQ(bits(g.raw()[r]), bits(w.raw()[r])) << trial << " col " << c << " row " << r;
      }
    }
  }
  EXPECT_GT(shared_stamps, 100u);
  EXPECT_GT(gaps_at_tolerance, 100u);
  EXPECT_GT(with_empty_stream, 50u);
}

// ---- Preparation ------------------------------------------------------------------

Dataset column_with(const std::vector<double>& values, const std::vector<bool>& missing) {
  Dataset ds;
  auto& c = ds.add_numeric_column("x");
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (missing[i]) {
      c.push_missing();
    } else {
      c.push_numeric(values[i]);
    }
  }
  return ds;
}

TEST(Imputation, MeanFillsWithColumnMean) {
  Rng rng(11);
  Dataset ds = column_with({1, 0, 3, 0}, {false, true, false, true});
  auto report = impute(ds, ImputeStrategy::kMean, rng);
  EXPECT_EQ(report.cells_imputed, 2u);
  EXPECT_EQ(report.cells_unresolved, 0u);
  EXPECT_DOUBLE_EQ(ds.column(0).numeric(1), 2.0);
  EXPECT_DOUBLE_EQ(ds.column(0).numeric(3), 2.0);
}

TEST(Imputation, MedianRobustToOutlier) {
  Rng rng(12);
  Dataset ds = column_with({1, 2, 3, 1000, 0}, {false, false, false, false, true});
  impute(ds, ImputeStrategy::kMedian, rng);
  EXPECT_DOUBLE_EQ(ds.column(0).numeric(4), 2.5);  // median of {1,2,3,1000}
}

TEST(Imputation, LocfCarriesForwardAndBackfillsHead) {
  Rng rng(13);
  Dataset ds = column_with({0, 7, 0, 0, 9}, {true, false, true, true, false});
  impute(ds, ImputeStrategy::kLocf, rng);
  EXPECT_DOUBLE_EQ(ds.column(0).numeric(0), 7.0);  // backfilled head
  EXPECT_DOUBLE_EQ(ds.column(0).numeric(2), 7.0);
  EXPECT_DOUBLE_EQ(ds.column(0).numeric(3), 7.0);
}

TEST(Imputation, LinearInterpolatesGaps) {
  Rng rng(14);
  Dataset ds = column_with({0, 0, 0, 9, 0}, {false, true, true, false, true});
  impute(ds, ImputeStrategy::kLinear, rng);
  EXPECT_DOUBLE_EQ(ds.column(0).numeric(1), 3.0);
  EXPECT_DOUBLE_EQ(ds.column(0).numeric(2), 6.0);
  EXPECT_DOUBLE_EQ(ds.column(0).numeric(4), 9.0);  // trailing extension
}

TEST(Imputation, HotDeckUsesExistingValues) {
  Rng rng(15);
  Dataset ds = column_with({5, 8, 0, 0}, {false, false, true, true});
  impute(ds, ImputeStrategy::kHotDeck, rng);
  for (std::size_t r = 2; r < 4; ++r) {
    const double v = ds.column(0).numeric(r);
    EXPECT_TRUE(std::abs(v - 5.0) < 1e-12 || std::abs(v - 8.0) < 1e-12);
  }
}

TEST(Imputation, KnnUsesSimilarRows) {
  Rng rng(16);
  // Two clusters in feature "a"; target "b" equals the cluster value.
  Dataset ds;
  auto& a = ds.add_numeric_column("a");
  auto& b = ds.add_numeric_column("b");
  for (int i = 0; i < 10; ++i) {
    a.push_numeric(i < 5 ? 0.0 : 100.0);
    if (i == 0 || i == 9) {
      b.push_missing();
    } else {
      b.push_numeric(i < 5 ? 1.0 : 2.0);
    }
  }
  impute(ds, ImputeStrategy::kKnn, rng, 3);
  EXPECT_NEAR(ds.column(1).numeric(0), 1.0, 1e-9);
  EXPECT_NEAR(ds.column(1).numeric(9), 2.0, 1e-9);
}

TEST(Imputation, CategoricalModeForOrderFreeStrategies) {
  Rng rng(17);
  Dataset ds;
  auto& c = ds.add_categorical_column("c");
  c.push_category("x");
  c.push_category("x");
  c.push_category("y");
  c.push_missing();
  impute(ds, ImputeStrategy::kMean, rng);
  EXPECT_EQ(ds.column(0).category_label(3), "x");
}

TEST(Imputation, EntirelyMissingColumnIsUnresolved) {
  Rng rng(18);
  Dataset ds = column_with({0, 0}, {true, true});
  auto report = impute(ds, ImputeStrategy::kMean, rng);
  EXPECT_EQ(report.cells_imputed, 0u);
  EXPECT_EQ(report.cells_unresolved, 2u);
}

TEST(Imputation, LowerRmseThanNothingOnSmoothSignal) {
  // Linear interpolation should reconstruct a smooth sensor signal well.
  Rng rng(19);
  SensorSpec spec{.name = "s", .period_s = 0.1, .noise_std = 0.05, .dropout_prob = 0.3};
  Signal truth = sine_signal(0.0, 2.0, 10.0);
  SensorStream s = simulate_sensor(spec, truth, 30.0, rng);

  // Build a complete time grid, mark dropped samples missing.
  IntegrationResult res = integrate_streams({s});
  Dataset ds = res.records;
  impute(ds, ImputeStrategy::kLinear, rng);

  std::vector<double> actual, predicted;
  for (std::size_t r = 0; r < ds.rows(); ++r) {
    actual.push_back(truth(ds.column(0).numeric(r)));
    predicted.push_back(ds.column(1).numeric(r));
  }
  EXPECT_LT(data::rmse(actual, predicted), 0.15);
}

TEST(Outliers, ZscoreFlagsGrossValues) {
  Dataset ds = column_with({1, 2, 1, 2, 1, 2, 1, 2, 50}, std::vector<bool>(9, false));
  auto flags = detect_outliers_zscore(ds.column(0), 2.0);
  EXPECT_TRUE(flags[8]);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_FALSE(flags[i]);
}

TEST(Outliers, HampelMoreRobustThanZscoreToMassiveOutliers) {
  // Two huge outliers inflate the stddev enough that z-score misses a third,
  // milder one; Hampel (median/MAD) still catches it.
  std::vector<double> values{1, 1.1, 0.9, 1, 1.05, 0.95, 1, 6, 1000, 1000};
  Dataset ds = column_with(values, std::vector<bool>(values.size(), false));
  auto z = detect_outliers_zscore(ds.column(0), 3.0);
  auto h = detect_outliers_hampel(ds.column(0), 3.0);
  EXPECT_FALSE(z[7]);  // masked by the 1000s
  EXPECT_TRUE(h[7]);
  EXPECT_TRUE(h[8]);
  EXPECT_TRUE(h[9]);
}

TEST(Outliers, SuppressTurnsFlagsIntoMissing) {
  Dataset ds = column_with({1, 2, 99}, {false, false, false});
  std::size_t n = suppress_outliers(ds, 0, {false, false, true});
  EXPECT_EQ(n, 1u);
  EXPECT_TRUE(ds.column(0).is_missing(2));
}

TEST(Normalize, MinMaxToUnitInterval) {
  Dataset ds = column_with({2, 4, 6}, {false, false, false});
  normalize(ds, NormalizeKind::kMinMax);
  EXPECT_DOUBLE_EQ(ds.column(0).numeric(0), 0.0);
  EXPECT_DOUBLE_EQ(ds.column(0).numeric(1), 0.5);
  EXPECT_DOUBLE_EQ(ds.column(0).numeric(2), 1.0);
}

TEST(Normalize, ZScoreStandardizes) {
  Rng rng(20);
  Dataset ds;
  auto& c = ds.add_numeric_column("x");
  for (int i = 0; i < 500; ++i) c.push_numeric(rng.normal(10.0, 3.0));
  normalize(ds, NormalizeKind::kZScore);
  std::vector<double> values;
  for (std::size_t r = 0; r < ds.rows(); ++r) values.push_back(ds.column(0).numeric(r));
  auto ms = data::mean_std(values);
  EXPECT_NEAR(ms.mean, 0.0, 1e-9);
  EXPECT_NEAR(ms.stddev, 1.0, 1e-9);
}

// ---- Reduction -------------------------------------------------------------------

TEST(Reduction, VarianceFilterDropsConstants) {
  Dataset ds;
  auto& a = ds.add_numeric_column("constant");
  auto& b = ds.add_numeric_column("varies");
  for (int i = 0; i < 10; ++i) {
    a.push_numeric(5.0);
    b.push_numeric(i);
  }
  auto keep = select_by_variance(ds, 0.01);
  EXPECT_EQ(keep, (std::vector<std::size_t>{1}));
}

TEST(Reduction, MutualInformationRanksInformativeFirst) {
  Rng rng(21);
  Dataset ds;
  auto& signal = ds.add_numeric_column("signal");
  auto& noise = ds.add_numeric_column("noise");
  std::vector<int> labels;
  for (int i = 0; i < 400; ++i) {
    const int y = i % 2;
    signal.push_numeric(y == 1 ? rng.normal(3.0, 0.5) : rng.normal(-3.0, 0.5));
    noise.push_numeric(rng.normal(0.0, 1.0));
    labels.push_back(y);
  }
  ds.set_labels(labels);
  EXPECT_GT(mutual_information(ds, 0), mutual_information(ds, 1) + 0.1);
  EXPECT_EQ(select_by_mutual_information(ds, 1), (std::vector<std::size_t>{0}));
}

TEST(Reduction, SampleRowsShapes) {
  Rng rng(22);
  auto rows = sample_rows(100, 30, rng);
  EXPECT_EQ(rows.size(), 30u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  EXPECT_THROW(sample_rows(5, 10, rng), InvalidArgument);
}

TEST(Reduction, StratifiedSampleKeepsProportions) {
  Rng rng(23);
  std::vector<int> labels(100, 0);
  for (int i = 80; i < 100; ++i) labels[i] = 1;
  auto rows = stratified_sample_rows(labels, 50, rng);
  std::size_t minority = 0;
  for (std::size_t r : rows) {
    if (labels[r] == 1) ++minority;
  }
  EXPECT_EQ(minority, 10u);
}

TEST(Discretize, EqualWidthBins) {
  Dataset ds = column_with({0, 1, 2, 3, 4, 5, 6, 7}, std::vector<bool>(8, false));
  std::size_t bins = discretize_column(ds, 0, DiscretizeKind::kEqualWidth, 4);
  EXPECT_EQ(bins, 4u);
  EXPECT_EQ(ds.column(0).type(), data::ColumnType::kCategorical);
  EXPECT_EQ(ds.column(0).category_label(0), "bin0");
  EXPECT_EQ(ds.column(0).category_label(7), "bin3");
}

TEST(Discretize, EqualFrequencyBalancesCounts) {
  Rng rng(24);
  Dataset ds;
  auto& c = ds.add_numeric_column("x");
  for (int i = 0; i < 400; ++i) c.push_numeric(rng.exponential(1.0));  // skewed
  discretize_column(ds, 0, DiscretizeKind::kEqualFrequency, 4);
  std::map<std::string, int> counts;
  for (std::size_t r = 0; r < ds.rows(); ++r) ++counts[ds.column(0).category_label(r)];
  for (const auto& [label, count] : counts) {
    EXPECT_NEAR(count, 100, 10);
  }
}

TEST(Discretize, EntropyMdlFindsTrueBoundary) {
  // Labels flip exactly at x = 0; MDL should produce ~2 bins around it.
  Rng rng(25);
  Dataset ds;
  auto& c = ds.add_numeric_column("x");
  std::vector<int> labels;
  for (int i = 0; i < 300; ++i) {
    const double v = rng.uniform(-1.0, 1.0);
    c.push_numeric(v);
    labels.push_back(v > 0 ? 1 : 0);
  }
  ds.set_labels(labels);
  std::size_t bins = discretize_column(ds, 0, DiscretizeKind::kEntropyMdl);
  EXPECT_GE(bins, 2u);
  EXPECT_LE(bins, 4u);
  // The discretized feature must now determine the labels almost exactly.
  std::map<std::string, std::pair<int, int>> purity;
  for (std::size_t r = 0; r < ds.rows(); ++r) {
    auto& p = purity[ds.column(0).category_label(r)];
    (ds.label(r) == 1 ? p.first : p.second)++;
  }
  for (const auto& [label, p] : purity) {
    EXPECT_TRUE(p.first == 0 || p.second == 0) << "impure bin " << label;
  }
}

TEST(Discretize, PreservesMissingCells) {
  Dataset ds = column_with({1, 0, 3}, {false, true, false});
  discretize_column(ds, 0, DiscretizeKind::kEqualWidth, 2);
  EXPECT_TRUE(ds.column(0).is_missing(1));
}

TEST(Discretize, Validation) {
  Dataset ds = column_with({1, 2}, {false, false});
  EXPECT_THROW(discretize_column(ds, 0, DiscretizeKind::kEqualWidth, 1), InvalidArgument);
  EXPECT_THROW(discretize_column(ds, 0, DiscretizeKind::kEntropyMdl), InvalidArgument);
  Dataset cat;
  cat.add_categorical_column("c").push_category("a");
  EXPECT_THROW(discretize_column(cat, 0, DiscretizeKind::kEqualWidth), InvalidArgument);
}

// ---- Uncertainty --------------------------------------------------------------------

TEST(Uncertainty, ArithmeticPropagation) {
  UncertainValue a(2.0, 0.25), b(3.0, 0.75);
  auto sum = a + b;
  EXPECT_DOUBLE_EQ(sum.mean, 5.0);
  EXPECT_DOUBLE_EQ(sum.variance, 1.0);
  auto diff = a - b;
  EXPECT_DOUBLE_EQ(diff.variance, 1.0);
  auto scaled = a.scaled(2.0);
  EXPECT_DOUBLE_EQ(scaled.variance, 1.0);
  EXPECT_THROW(UncertainValue(0.0, -1.0), InvalidArgument);
}

TEST(Uncertainty, ProductVarianceExactForIndependent) {
  UncertainValue a(2.0, 0.5), b(4.0, 0.25);
  auto prod = a * b;
  EXPECT_DOUBLE_EQ(prod.mean, 8.0);
  EXPECT_DOUBLE_EQ(prod.variance, 0.5 * 0.25 + 0.5 * 16.0 + 0.25 * 4.0);
}

TEST(Uncertainty, MeanShrinksVariance) {
  std::vector<UncertainValue> vs(4, UncertainValue(1.0, 1.0));
  auto m = uncertain_mean(vs);
  EXPECT_DOUBLE_EQ(m.mean, 1.0);
  EXPECT_DOUBLE_EQ(m.variance, 0.25);
}

TEST(Uncertainty, FusionWeightsByPrecision) {
  UncertainValue precise(10.0, 0.01), vague(20.0, 100.0);
  auto fused = fuse({precise, vague});
  EXPECT_NEAR(fused.mean, 10.0, 0.01);
  EXPECT_LT(fused.variance, 0.01);
}

TEST(Uncertainty, MonteCarloAgreesWithPropagation) {
  // Empirical check of the propagation rules (the core of bench_uncertainty).
  Rng rng(26);
  UncertainValue a(1.0, 0.49), b(2.0, 0.09);
  auto predicted = a * b;
  std::vector<double> samples;
  for (int i = 0; i < 200000; ++i) {
    samples.push_back(rng.normal(a.mean, a.stddev()) * rng.normal(b.mean, b.stddev()));
  }
  auto ms = data::mean_std(samples);
  EXPECT_NEAR(ms.mean, predicted.mean, 0.02);
  EXPECT_NEAR(ms.stddev * ms.stddev, predicted.variance, 0.05);
}

TEST(Uncertainty, MapBasics) {
  UncertaintyMap map(3, 2, 1.0);
  EXPECT_DOUBLE_EQ(map.mean_variance(), 1.0);
  map.set_variance(0, 0, 5.0);
  EXPECT_DOUBLE_EQ(map.variance(0, 0), 5.0);
  map.scale_column(1, 2.0);
  EXPECT_DOUBLE_EQ(map.variance(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(map.column_mean_variance(1), 4.0);
  EXPECT_THROW(map.variance(3, 0), InvalidArgument);
}

// ---- Stage framework ----------------------------------------------------------------

TEST(StageFramework, ReportsTrackMissingRates) {
  Rng rng(27);
  Pipeline p;
  p.add("inject", [](Dataset& ds, Rng& r) {
    for (std::size_t i = 0; i < ds.rows(); ++i) {
      if (r.bernoulli(0.5)) ds.column(0).set_missing(i);
    }
    return 1.0;
  });
  p.add("repair", [](Dataset& ds, Rng& r) {
    impute(ds, ImputeStrategy::kMean, r);
    return 2.5;
  }, "preprocessor");

  Dataset ds = column_with({1, 2, 3, 4, 5, 6, 7, 8}, std::vector<bool>(8, false));
  Dataset out = p.run(std::move(ds), rng);

  ASSERT_EQ(p.reports().size(), 2u);
  EXPECT_DOUBLE_EQ(p.reports()[0].missing_rate_in, 0.0);
  EXPECT_GT(p.reports()[0].missing_rate_out, 0.0);
  EXPECT_DOUBLE_EQ(p.reports()[1].missing_rate_out, 0.0);
  EXPECT_DOUBLE_EQ(p.total_cost(), 3.5);
  EXPECT_DOUBLE_EQ(p.player_cost("preprocessor"), 2.5);
  EXPECT_DOUBLE_EQ(out.missing_rate(), 0.0);
}

TEST(StageFramework, TierNames) {
  EXPECT_EQ(tier_name(Tier::kDevice), "device");
  EXPECT_EQ(tier_name(Tier::kEdge), "edge");
  EXPECT_EQ(tier_name(Tier::kCore), "core");
}

TEST(StageFramework, TierNameRoundTripsExhaustively) {
  for (Tier t : {Tier::kDevice, Tier::kEdge, Tier::kCore}) {
    EXPECT_EQ(tier_from_name(tier_name(t)), t);
  }
  EXPECT_THROW(tier_from_name("cloud"), InvalidArgument);
  EXPECT_THROW(tier_from_name("Device"), InvalidArgument);  // case-sensitive
  EXPECT_THROW(tier_from_name(""), InvalidArgument);
  EXPECT_THROW(tier_from_name("edge "), InvalidArgument);
}

TEST(StageFramework, StagesMeasureWallTimeOutsidePipelineRun) {
  // wall_time_us used to stay 0 unless Pipeline::run filled it; concrete
  // stages now measure their own body, so a direct apply() reports time too.
  Rng rng(29);
  LambdaStage stage("busy", [](Dataset&, Rng&) {
    const std::int64_t start = obs::now_us();
    while (obs::now_us() - start < 1000) {  // spin ~1 ms of real time
    }
    return 0.0;
  });
  Dataset ds = column_with({1, 2, 3}, {false, false, false});
  StageReport report = stage.apply(ds, rng);
  EXPECT_GE(report.wall_time_us, 1000u);
}

TEST(StageFramework, TakeStagesEmptiesThePipeline) {
  Pipeline p;
  p.add("a", [](Dataset&, Rng&) { return 0.0; }, "op", Tier::kDevice);
  p.add("b", [](Dataset&, Rng&) { return 0.0; }, "op", Tier::kCore);
  auto stages = p.take_stages();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(p.size(), 0u);
  EXPECT_TRUE(p.reports().empty());
  EXPECT_EQ(stages[0]->name(), "a");
  EXPECT_EQ(stages[0]->tier(), Tier::kDevice);
  EXPECT_EQ(stages[1]->tier(), Tier::kCore);
}

TEST(StageFramework, Validation) {
  Pipeline p;
  EXPECT_THROW(p.add(nullptr), InvalidArgument);
  EXPECT_THROW(LambdaStage("", [](Dataset&, Rng&) { return 0.0; }), InvalidArgument);
  EXPECT_THROW(LambdaStage("x", nullptr), InvalidArgument);
}

TEST(StageFramework, EndToEndFieldPipeline) {
  // Miniature Fig. 1: acquire -> integrate -> clean -> impute -> normalize.
  Rng rng(28);
  std::vector<FieldQuantity> field{
      {"temp", sine_signal(20, 5, 60),
       {{.name = "t0", .period_s = 0.5, .noise_std = 0.3, .dropout_prob = 0.1},
        {.name = "t1", .period_s = 0.7, .noise_std = 0.3, .outlier_prob = 0.02}}}};
  FieldAcquisition acq = acquire_field(field, 30.0, rng);
  IntegrationResult integ = integrate_streams(acq.streams, {.merge_tolerance_s = 0.05});

  Pipeline p;
  p.add("outliers", [](Dataset& ds, Rng&) {
    for (std::size_t f = 1; f < ds.num_columns(); ++f) {
      suppress_outliers(ds, f, detect_outliers_hampel(ds.column(f), 4.0));
    }
    return 1.0;
  }, "preprocessor", Tier::kEdge);
  p.add("impute", [](Dataset& ds, Rng& r) {
    impute(ds, ImputeStrategy::kLinear, r);
    return 1.0;
  }, "preprocessor", Tier::kEdge);

  Dataset cleaned = p.run(integ.records, rng);
  EXPECT_DOUBLE_EQ(cleaned.missing_rate(), 0.0);
  EXPECT_EQ(cleaned.rows(), integ.records.rows());
}

}  // namespace
}  // namespace iotml::pipeline

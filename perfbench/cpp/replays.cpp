#include "replays.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "combinatorics/partition.hpp"
#include "core/partition_kernels.hpp"
#include "data/split.hpp"
#include "deploy/compile.hpp"
#include "deploy/quantize.hpp"
#include "deploy/runtime.hpp"
#include "learners/decision_tree.hpp"
#include "ota/patch.hpp"
#include "pipeline/integration.hpp"
#include "pipeline/sensors.hpp"
#include "sim/scheduler.hpp"
#include "tdf/codec.hpp"
#include "tdf/schema.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace iotml;
using Clock = std::chrono::steady_clock;

/// Least time one replay measures, so a per-call figure averages many calls.
constexpr double kMinReplaySeconds = 0.05;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Mean seconds per call of `body`, repeated until kMinReplaySeconds passed.
template <typename Body>
double seconds_per_rep(Body&& body) {
  std::size_t reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++reps;
    elapsed = seconds_since(t0);
  } while (elapsed < kMinReplaySeconds);
  return elapsed / static_cast<double>(reps);
}

}  // namespace

SchedulerCost replay_scheduler(std::size_t events, double duration_s, std::uint64_t seed) {
  Rng rng(seed);  // rng-stream: replay
  std::vector<double> times(events);
  for (double& t : times) t = rng.uniform(0.0, duration_s);
  SchedulerCost cost;
  double push_s = 0.0;
  double pop_s = 0.0;
  std::size_t reps = 0;
  do {
    sim::Scheduler sched;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < events; ++i) {
      sched.push(times[i], static_cast<sim::EventKind>(i % 3), i);
    }
    const auto t1 = Clock::now();
    while (!sched.empty()) sched.pop();
    push_s += std::chrono::duration<double>(t1 - t0).count();
    pop_s += seconds_since(t1);
    ++reps;
  } while (push_s + pop_s < kMinReplaySeconds);
  const double calls = static_cast<double>(events * reps);
  cost.push_ns = push_s * 1e9 / calls;
  cost.pop_ns = pop_s * 1e9 / calls;
  return cost;
}

data::Dataset sensor_rows(std::size_t rows, double sensor_period_s, bool labelled,
                          std::uint64_t seed) {
  // The fleet's three measured quantities and its comfort concept.
  static const char* kQuantity[3] = {"temperature", "humidity", "wind"};
  static constexpr double kNoiseScale[3] = {1.0, 2.5, 1.5};
  const pipeline::Signal truths[3] = {
      pipeline::sine_signal(22.0, 6.0, 40.0, -std::numbers::pi / 2.0),
      pipeline::composite_signal(
          {pipeline::sine_signal(55.0, 10.0, 500.0), pipeline::trend_signal(0.0, -0.01)}),
      pipeline::sine_signal(4.0, 3.0, 120.0)};
  Rng rng(seed);  // rng-stream: replay
  // Integration merges the three streams into roughly one row per period.
  const double horizon_s = static_cast<double>(rows + 16) * sensor_period_s;
  std::vector<pipeline::SensorStream> streams;
  for (std::size_t q = 0; q < 3; ++q) {
    pipeline::SensorSpec spec;
    spec.name = kQuantity[q];
    spec.period_s = sensor_period_s * rng.uniform(0.9, 1.1);
    spec.clock_jitter_s = 0.02;
    spec.noise_std = 0.4 * kNoiseScale[q];
    spec.dropout_prob = 0.05;
    streams.push_back(pipeline::simulate_sensor(spec, truths[q], horizon_s, rng));
  }
  data::Dataset all =
      pipeline::integrate_streams(streams, {.merge_tolerance_s = 0.45 * sensor_period_s})
          .records;
  std::vector<std::size_t> keep(std::min(rows, all.rows()));
  for (std::size_t i = 0; i < keep.size(); ++i) keep[i] = i;
  data::Dataset ds = all.select_rows(keep);
  if (labelled) {
    std::vector<int> labels;
    for (std::size_t r = 0; r < ds.rows(); ++r) {
      const double temp = truths[0](ds.column(0).numeric(r));
      labels.push_back(temp >= 20.0 && temp <= 28.0 ? 1 : 0);
    }
    ds.set_labels(std::move(labels));
  }
  return ds;
}

TdfCost replay_tdf(double rows_per_frame, std::uint8_t scale_bits, double sensor_period_s,
                   std::uint64_t seed) {
  constexpr std::size_t kFrames = 512;
  const data::Dataset rows = sensor_rows(
      static_cast<std::size_t>(std::ceil(rows_per_frame * kFrames)) + 1, sensor_period_s,
      false, seed);
  // Window k holds floor((k+1)·rpf) − floor(k·rpf) rows: the run's mean.
  std::vector<data::Dataset> windows;
  std::vector<std::vector<double>> origins;
  std::size_t total_rows = 0;
  for (std::size_t k = 0; k < kFrames; ++k) {
    const auto lo = static_cast<std::size_t>(std::floor(rows_per_frame * static_cast<double>(k)));
    const auto hi =
        static_cast<std::size_t>(std::floor(rows_per_frame * static_cast<double>(k + 1)));
    if (hi <= lo || hi > rows.rows()) continue;
    std::vector<std::size_t> idx;
    for (std::size_t r = lo; r < hi; ++r) idx.push_back(r);
    windows.push_back(rows.select_rows(idx));
    origins.push_back({rows.column(0).numeric(hi - 1)});
    total_rows += idx.size();
  }
  data::Dataset first = windows.front();
  tdf::quantize(first, scale_bits);
  const tdf::Schema schema = tdf::Schema::infer(first, scale_bits);

  std::vector<std::vector<std::uint8_t>> frames(windows.size());
  const double encode_s = seconds_per_rep([&] {
    for (std::size_t k = 0; k < windows.size(); ++k) {
      tdf::quantize(windows[k], scale_bits);
      frames[k] = tdf::encode_frame(schema, windows[k], origins[k], 0,
                                    static_cast<std::uint32_t>(k), k == 0);
    }
  });
  const double decode_s = seconds_per_rep([&] {
    tdf::SchemaRegistry registry;
    for (const auto& f : frames) tdf::decode_frame(f, registry);
  });
  TdfCost cost;
  cost.encode_ns_per_row = encode_s * 1e9 / static_cast<double>(total_rows);
  cost.decode_ns_per_row = decode_s * 1e9 / static_cast<double>(total_rows);
  cost.schema_id = schema.id();
  cost.schema_fields = schema.size();
  return cost;
}

double replay_channel_send_ns(const net::LinkParams& link_params,
                              const net::ChannelParams& channel_params, std::size_t sends,
                              std::size_t bytes, double spacing_s, std::uint64_t seed) {
  double total_s = 0.0;
  std::size_t calls = 0;
  do {
    net::Link link("replay", link_params);
    net::Channel channel(link, channel_params);
    Rng rng(seed);  // rng-stream: replay
    double now_s = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < sends; ++i) {
      channel.send(now_s, bytes, rng);
      now_s += spacing_s;
    }
    total_s += seconds_since(t0);
    calls += sends;
  } while (total_s < kMinReplaySeconds);
  return total_s * 1e9 / static_cast<double>(calls);
}

ScoringCost replay_scoring(std::size_t train_rows, double sensor_period_s, std::uint64_t seed) {
  const data::Dataset rows = sensor_rows(train_rows, sensor_period_s, true, seed);
  const data::Dataset train = rows.select_columns({1, 2, 3});
  learners::DecisionTree tree;
  tree.fit(train);
  const deploy::CompiledModel model =
      deploy::quantize(deploy::compile(tree, train), deploy::Precision::kInt8);
  deploy::DeviceRuntime runtime(model);
  runtime.bind(train);
  const double per_pass = seconds_per_rep([&] {
    for (std::size_t r = 0; r < train.rows(); ++r) (void)runtime.predict_row(train, r);
  });
  ScoringCost cost;
  cost.ns_per_row = per_pass * 1e9 / static_cast<double>(train.rows());
  cost.image = model.encode();
  return cost;
}

DiffCost replay_ota_diff(const std::vector<std::uint8_t>& artifact, std::size_t image_bytes,
                         double patch_ratio, std::uint64_t seed) {
  std::vector<std::uint8_t> base(image_bytes);
  for (std::size_t i = 0; i < image_bytes; ++i) base[i] = artifact[i % artifact.size()];
  // ota::diff skips ahead over copied runs but looks up every literal byte,
  // so the target rewrites bytes of the base, in a seeded order, until its
  // delta is as large a share of the image as the run's deltas were.
  Rng rng(seed);  // rng-stream: replay
  const std::vector<std::size_t> order = rng.permutation(image_bytes);
  std::vector<std::uint8_t> flip(image_bytes);
  for (auto& f : flip) f = static_cast<std::uint8_t>(1 + rng.index(255));
  auto rewritten = [&](std::size_t k) {
    std::vector<std::uint8_t> t = base;
    for (std::size_t i = 0; i < k; ++i) t[order[i]] ^= flip[i];
    return t;
  };
  auto ratio = [&](const std::vector<std::uint8_t>& t) {
    return static_cast<double>(ota::diff(base, t).size_bytes()) /
           static_cast<double>(image_bytes);
  };
  // The fewest rewritten bytes that reach the run's ratio, by bisection.
  std::size_t lo = 0;
  std::size_t hi = image_bytes;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (ratio(rewritten(mid)) >= patch_ratio) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const std::vector<std::uint8_t> target = rewritten(lo);
  DiffCost cost;
  cost.patch_ratio = ratio(target);
  cost.delta_us = 1e6 * seconds_per_rep([&] {
    const ota::Patch patch = ota::diff(base, target);
    if (patch.apply(base) != target) throw std::runtime_error("ota replay: patch mismatch");
  });
  cost.full_us = 1e6 * seconds_per_rep([&] { (void)ota::diff({}, target); });
  return cost;
}

SvmCost replay_svm(const data::Samples& train, const core::SearchOptions& options) {
  constexpr std::size_t kPartitions = 16;
  // Partitions spread evenly over the whole lattice, as exhaustive search
  // visits it: SMO's cost per iteration follows the Gram's support vectors.
  std::vector<comb::SetPartition> all;
  for (comb::PartitionEnumerator e(train.dim()); e.has_next();) all.push_back(e.next());
  core::BlockGramCache cache(train.x);
  Rng cv_rng(options.cv_seed);  // rng-stream: cv-folds, the search's folds
  const data::KFold kfold(train.size(), options.cv_folds, cv_rng);
  const kernels::SvmParams& params = options.svm;
  SvmCost cost;
  double seconds = 0.0;
  std::size_t iterations = 0;
  std::size_t converged = 0;
  for (std::size_t p = 0; p < kPartitions; ++p) {
    const la::Matrix gram = core::partition_gram(cache, all[p * all.size() / kPartitions],
                                                 train.y, options.weights);
    for (std::size_t f = 0; f < options.cv_folds; ++f) {
      const std::vector<std::size_t> idx = kfold.train_indices(f);
      la::Matrix sub(idx.size(), idx.size());
      std::vector<int> y;
      for (std::size_t a = 0; a < idx.size(); ++a) {
        y.push_back(train.y[idx[a]]);
        for (std::size_t b = 0; b < idx.size(); ++b) sub(a, b) = gram(idx[a], idx[b]);
      }
      const auto t0 = Clock::now();
      const kernels::SvmModel model = kernels::train_svm(sub, y, params);
      seconds += seconds_since(t0);
      iterations += model.iterations_used();
      converged += model.iterations_used() < params.max_iterations ? 1 : 0;
      ++cost.trains;
    }
  }
  cost.ns_per_iter = seconds * 1e9 / static_cast<double>(std::max<std::size_t>(iterations, 1));
  cost.converged_frac = static_cast<double>(converged) / static_cast<double>(cost.trains);
  return cost;
}

double replay_gram_us_per_build(const data::Samples& train) {
  // Every singleton and adjacent pair, as the first lattice levels need.
  std::vector<std::vector<std::size_t>> blocks;
  for (std::size_t f = 0; f < train.dim(); ++f) blocks.push_back({f});
  for (std::size_t f = 0; f + 1 < train.dim(); ++f) blocks.push_back({f, f + 1});
  const double per_pass = seconds_per_rep([&] {
    core::BlockGramCache cache(train.x);
    for (const auto& b : blocks) (void)cache.gram_for(b);
  });
  return per_pass * 1e6 / static_cast<double>(blocks.size());
}

double replay_enum_ns_per_partition(std::size_t n) {
  std::size_t count = 0;
  const double per_pass = seconds_per_rep([&] {
    comb::PartitionEnumerator e(n);
    count = 0;
    while (e.has_next()) {
      (void)e.next();
      ++count;
    }
  });
  return per_pass * 1e9 / static_cast<double>(count);
}

}  // namespace perfbench

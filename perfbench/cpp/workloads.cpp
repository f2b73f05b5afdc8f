#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "checks.hpp"
#include "core/faceted_learner.hpp"
#include "data/split.hpp"
#include "data/synthetic.hpp"
#include "obs/obs.hpp"
#include "replays.hpp"

namespace perfbench {

namespace {

using namespace iotml;

/// Registry counters the per-layer metrics read as deltas.
const char* const kCounters[] = {
    "learners.tree_fits",     "learners.tree_splits",      "kernels.svm_trains",
    "kernels.svm_iterations", "lattice.block_gram_builds", "lattice.block_gram_lookups",
    "lattice.nodes_expanded"};

double us_to_s(double us) { return us * 1e-6; }

/// How far the ota replay's delta may miss the run's patch ratio; the
/// bisection over rewritten bytes lands within a few bytes of it.
constexpr double kPatchRatioSlack = 0.02;

// fleet-learn runs 32 small fleets per iteration instead of one 100-device
// fleet. The quadratic tree fit's cost swings by ±25% with a fleet's data,
// so one fleet per seed made the seed, not the code, set the spread; a sum
// over 32 independent fleets averages the swing out, and 32 short pieces
// give each piece's fastest time many chances to fall in a stretch the
// host's other tenants left alone. Each fleet still spends almost all of
// its time in the core's learning loop.
constexpr std::size_t kLearnFleets = 32;
constexpr std::size_t kLearnDevices = 12;
constexpr std::size_t kLearnEdges = 1;

SpanTotals span(const std::map<std::string, SpanTotals>& folded, const std::string& name) {
  const auto it = folded.find(name);
  return it == folded.end() ? SpanTotals{} : it->second;
}

double per_call(double total, double calls) { return calls > 0.0 ? total / calls : 0.0; }

/// Sum and count of StageReport::wall_time_us per stage name.
struct StageWall {
  double us = 0.0;
  double runs = 0.0;
};

std::map<std::string, StageWall> stage_walls(const std::vector<sim::FleetReport>& reports) {
  std::map<std::string, StageWall> out;
  for (const auto& report : reports) {
    for (const auto& r : report.stage_reports) {
      out[r.stage_name].us += static_cast<double>(r.wall_time_us);
      out[r.stage_name].runs += 1.0;
    }
  }
  return out;
}

// ---- Fleet workloads ------------------------------------------------------

/// bench_ota's calm fleet (24 s window, 2 s device and 3 s edge flushes,
/// three OTA epochs, fire-and-forget links) at kLearnDevices devices.
sim::FleetConfig fleet_learn_config(std::uint64_t seed) {
  sim::FleetConfig c;
  c.devices = kLearnDevices;
  c.edges = kLearnEdges;
  c.duration_s = 24.0;
  c.seed = seed;
  c.device_flush_s = 2.0;
  c.edge_flush_s = 3.0;
  c.ota.enabled = true;
  c.ota.epochs = 3;
  return c;
}

/// kLearnFleets fleets, their seeds drawn from the workload seed.
std::vector<sim::FleetConfig> fleet_learn_configs(std::uint64_t seed) {
  Rng seeds(seed);  // rng-stream: fleet seeds
  std::vector<sim::FleetConfig> configs;
  for (std::size_t k = 0; k < kLearnFleets; ++k) {
    configs.push_back(fleet_learn_config(seeds.engine()()));
  }
  return configs;
}


/// One iteration runs every fleet of `configs` (seeds derived from the
/// workload seed); their reports are checked, digested and summed together.
class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(std::vector<sim::FleetConfig> configs) : configs_(std::move(configs)) {}

  void setup() override {
    for (const auto& c : configs_) sims_.push_back(std::make_unique<sim::FleetSim>(c));
  }
  std::size_t pieces() const override { return configs_.size(); }
  void run_piece(std::size_t k) override { reports_.push_back(sims_.at(k)->run()); }
  void release() override {
    sims_.clear();
    reports_.clear();
  }

  std::string check() const override {
    if (reports_.size() != configs_.size()) return "missing fleet reports";
    for (const auto& r : reports_) {
      std::string failure = check_fleet_report(r);
      if (!failure.empty()) return failure;
    }
    return "";
  }

  std::string digest() const override {
    std::string text;
    for (const auto& r : reports_) text += r.to_json();
    return perfbench::digest(text);
  }

  std::map<std::string, double> quality() const override {
    const double rows = sum([](const sim::FleetReport& r) { return r.rows_generated; });
    std::map<std::string, double> q = {
        {"rows_generated", rows},
        {"events", sum([](const sim::FleetReport& r) { return r.events; })},
        {"delivery_ratio", sum([](const sim::FleetReport& r) {
           return delivery_ratio(r) * static_cast<double>(r.rows_generated);
         }) / rows}};
    if (configs_.front().degrade.enabled) {
      q["ci_coverage"] =
          sum([](const sim::FleetReport& r) { return r.degradation.ci_covered; }) /
          sum([](const sim::FleetReport& r) { return r.degradation.ci_windows; });
    } else {
      q["accuracy"] = sum([](const sim::FleetReport& r) { return r.accuracy; }) /
                      static_cast<double>(reports_.size());
    }
    return q;
  }

  LayerMetrics layers(const std::map<std::string, SpanTotals>& folded,
                      const CounterSnapshot& delta) override;

 private:
  /// Sum of `f` over the last run's reports.
  template <typename F>
  double sum(F f) const {
    double total = 0.0;
    for (const auto& r : reports_) total += static_cast<double>(f(r));
    return total;
  }

  std::vector<sim::FleetConfig> configs_;
  std::vector<std::unique_ptr<sim::FleetSim>> sims_;
  std::vector<sim::FleetReport> reports_;
};

LayerMetrics FleetWorkload::layers(const std::map<std::string, SpanTotals>& folded,
                                   const CounterSnapshot& delta) {
  using sim::FleetReport;
  const sim::FleetConfig& config = configs_.front();
  const double fleets = static_cast<double>(reports_.size());
  LayerMetrics out;
  auto& m = out.metrics;
  const double wall_us = static_cast<double>(span(folded, "perfbench.run").total_us);
  const double events = sum([](const FleetReport& r) { return r.events; });
  m["sim.events"] = events;

  for (const char* kind : {"device-flush", "arrival", "edge-flush", "checkpoint", "ota-epoch",
                           "ota-chunk-arrival"}) {
    const SpanTotals t = span(folded, std::string("sim.event:") + kind);
    m[std::string("sim.event_self_us.") + kind] =
        per_call(static_cast<double>(t.self_us), static_cast<double>(t.count));
  }

  const std::map<std::string, StageWall> stages = stage_walls(reports_);
  auto stage = [&stages](const std::string& name) {
    const auto it = stages.find(name);
    return it == stages.end() ? StageWall{} : it->second;
  };
  const StageWall hampel = stage("clean(hampel)");
  const StageWall analytics = stage("analytics(decision-tree)");
  const StageWall sketch = stage("degrade(sketch-reduce)");
  m["pipeline.acquisition_s"] = us_to_s(stage("acquisition").us);
  m["pipeline.hampel_us_per_window"] = per_call(hampel.us, hampel.runs);
  const SpanTotals dispatch = span(folded, "pipeline.run");
  m["pipeline.dispatch_us_per_run"] =
      per_call(static_cast<double>(dispatch.self_us), static_cast<double>(dispatch.count));
  m["pipeline.edge_prep_s"] =
      us_to_s(stage("prepare(impute-linear)").us + stage("prepare(normalize-zscore)").us);
  m["pipeline.mi_reduce_s"] =
      us_to_s(stage("reduce(mi-top" + std::to_string(config.feature_keep) + ")").us);

  m["learners.tree_fits"] = delta["learners.tree_fits"];
  m["learners.tree_splits"] = delta["learners.tree_splits"];
  m["learners.tree_fit_rows"] = sum([](const FleetReport& r) {
    std::size_t rows = r.train_rows;
    for (const auto& e : r.deploy.ota.epochs_log) rows += e.train_rows;
    return rows;
  });

  const SpanTotals compile = span(folded, "deploy.compile");
  const SpanTotals quantize = span(folded, "deploy.quantize");
  m["deploy.compile_us"] =
      per_call(static_cast<double>(compile.total_us), static_cast<double>(compile.count));
  m["deploy.quantize_us"] =
      per_call(static_cast<double>(quantize.total_us), static_cast<double>(quantize.count));

  // Telemetry, transport and ladder ledgers, summed over the fleets.
  const double frames = sum([](const FleetReport& r) { return r.telemetry.frames_sent; });
  const double rows_encoded = sum([](const FleetReport& r) { return r.telemetry.rows_encoded; });
  const double rows_decoded = sum([](const FleetReport& r) { return r.telemetry.rows_decoded; });
  const double wire_bytes =
      sum([](const FleetReport& r) { return r.telemetry.encoded_wire_bytes; });
  const double sends = sum([](const FleetReport& r) { return r.channels.sends; });
  m["tdf.frames"] = frames;
  m["tdf.rows_per_frame"] = per_call(rows_encoded, frames);
  m["tdf.bytes_per_row"] = per_call(wire_bytes, rows_encoded);
  m["net.sends"] = sends;
  m["net.retransmits"] = sum([](const FleetReport& r) { return r.channels.retransmits; });
  m["net.delivered_frac"] =
      per_call(sum([](const FleetReport& r) { return r.channels.delivered; }), sends);
  m["approx.windows_sketch"] =
      sum([](const FleetReport& r) { return r.degradation.windows_sketch; });
  m["approx.sketch_us_per_window"] = per_call(sketch.us, sketch.runs);

  // OTA ledgers: every epoch that built an image diffs it against the empty
  // image (the full patch); epochs that also built a delta diff once more.
  double patch_bytes = 0.0;
  double delta_images = 0.0;
  double full_diffs = 0.0;
  double delta_diffs = 0.0;
  double probe_rows = 0.0;
  std::size_t image_bytes = 0;
  for (const auto& r : reports_) {
    for (const auto& e : r.deploy.ota.epochs_log) {
      if (e.image_bytes > 0) {
        full_diffs += 1.0;
        image_bytes = e.image_bytes;
      }
      if (e.patch_bytes > 0) {
        delta_diffs += 1.0;
        patch_bytes += static_cast<double>(e.patch_bytes);
        delta_images += static_cast<double>(e.image_bytes);
      }
      probe_rows += static_cast<double>(e.pooled_rows);
    }
  }
  m["ota.patch_ratio"] = per_call(patch_bytes, delta_images);
  m["ota.chunk_delivered_frac"] =
      per_call(sum([](const FleetReport& r) { return r.deploy.ota.chunks_delivered; }),
               sum([](const FleetReport& r) { return r.deploy.ota.chunks_sent; }));

  // ---- Replays sized from this run's reports ------------------------------
  std::map<std::string, double> moved_us;  // replayed work, by layer
  const SchedulerCost sched = replay_scheduler(
      static_cast<std::size_t>(events / fleets), config.duration_s, config.seed);
  m["sim.sched_ns_per_event"] = sched.push_ns + sched.pop_ns;
  // pop() runs in the event loop outside any event span; push() inside them.
  const double sched_pop_us = sched.pop_ns * events * 1e-3;
  moved_us["sim.sched"] = (sched.push_ns + sched.pop_ns) * events * 1e-3;

  if (config.telemetry.enabled) {
    const TdfCost tdf = replay_tdf(m["tdf.rows_per_frame"], config.telemetry.scale_bits,
                                   config.sensor_period_s, config.seed);
    m["tdf.encode_ns_per_row"] = tdf.encode_ns_per_row;
    m["tdf.decode_ns_per_row"] = tdf.decode_ns_per_row;
    moved_us["tdf"] =
        (tdf.encode_ns_per_row * rows_encoded + tdf.decode_ns_per_row * rows_decoded) * 1e-3;
    const sim::TelemetrySummary& t = reports_.front().telemetry;
    if (tdf.schema_id != t.schema_id || tdf.schema_fields != t.schema_fields) {
      out.failures.push_back("tdf replay schema differs from the run's uplink schema");
    }
  }
  if (sends > 0.0) {
    const double bytes = frames > 0.0 ? wire_bytes / frames : 256.0;
    m["net.send_ns"] = replay_channel_send_ns(
        config.device_edge_link, config.channel,
        static_cast<std::size_t>(std::min(sends, 200000.0)), static_cast<std::size_t>(bytes),
        config.device_flush_s, config.seed);
    moved_us["net"] = m["net.send_ns"] * sends * 1e-3;
  }
  double fit_us = analytics.us;
  if (config.ota.enabled && image_bytes > 0) {
    const double train_rows = sum([](const FleetReport& r) { return r.train_rows; }) / fleets;
    const ScoringCost scoring = replay_scoring(static_cast<std::size_t>(train_rows),
                                               config.sensor_period_s, config.seed);
    m["deploy.score_ns_per_row"] = scoring.ns_per_row;
    const DiffCost diff =
        replay_ota_diff(scoring.image, image_bytes, m["ota.patch_ratio"], config.seed);
    m["ota.diff_us"] = diff.delta_us;
    if (std::abs(diff.patch_ratio - m["ota.patch_ratio"]) > kPatchRatioSlack) {
      out.failures.push_back("ota replay reached patch ratio " + std::to_string(diff.patch_ratio) +
                             ", the run's is " + std::to_string(m["ota.patch_ratio"]));
    }
    const double diff_us = diff.full_us * full_diffs + diff.delta_us * delta_diffs;
    moved_us["ota"] = diff_us;
    // Each canary probe scores its rows with the running and the candidate image.
    moved_us["deploy"] = 2.0 * probe_rows * scoring.ns_per_row * 1e-3;
    // The epoch retrain's tree fit is the ota-epoch self time the diffs leave.
    fit_us += carve(static_cast<double>(span(folded, "sim.event:ota-epoch").self_us), diff_us,
                    "replayed ota diffs", out.failures);
  }
  m["learners.tree_fit_s"] = us_to_s(fit_us);

  // ---- Attribution: every traced microsecond to one layer -----------------
  // Span self time sits with the span's layer. The container spans (the
  // benchmark's own and sim.fleet_run) own what no span inside them covers;
  // the analytics stage report and the scheduler pops are known parts of
  // it. Replayed work inside event spans moves from "sim" to its layer.
  // Remainders are signed, so the layers always sum to the traced wall.
  auto& a = out.attribution_us;
  double container_us = 0.0;
  for (const auto& [name, totals] : folded) {
    const auto self = static_cast<double>(totals.self_us);
    if (name == "perfbench.run" || name == "sim.fleet_run") {
      container_us += self;
    } else if (name == "perfbench.setup") {
      continue;  // setup is not part of the traced wall
    } else if (name.rfind("sim.event:", 0) == 0) {
      a["sim"] += self;
    } else if (name.rfind("deploy.", 0) == 0 || name == "sim.deploy_prepare") {
      a["deploy"] += self;
    } else if (name.rfind("stage:", 0) == 0 || name == "pipeline.run") {
      a["pipeline"] += self;
    } else {
      a["other-spans"] += self;
    }
  }
  a["learners"] += fit_us;
  a["sim.sched"] += sched_pop_us;
  a["unattributed"] = carve(container_us, analytics.us + sched_pop_us,
                            "the analytics stage reports and replayed scheduler pops",
                            out.failures);
  double from_events = fit_us - analytics.us;
  for (const auto& [layer, us] : moved_us) {
    const double in_events = layer == "sim.sched" ? us - sched_pop_us : us;
    a[layer] += in_events;
    from_events += in_events;
  }
  a["sim"] = carve(a["sim"], from_events, "replayed work inside event spans", out.failures);
  m["sim.unattributed_pct"] = 100.0 * a["unattributed"] / wall_us;
  return out;
}

// ---- Lattice MKL workload -------------------------------------------------

struct Split {
  data::Samples train;
  data::Samples test;
};

struct Fit {
  core::SearchStrategy strategy;
  std::size_t features = 0;
  double accuracy = 0.0;
  std::size_t evaluations = 0;
  std::string partition;
};

class LatticeWorkload final : public Workload {
 public:
  explicit LatticeWorkload(std::uint64_t seed) : seed_(seed) {}

  /// kDraws sets of faceted Gaussian data of 6, 8 and 12 features (3, 4 and
  /// 6 two-feature views, informative and noise alternating), each split
  /// 65/35. SMO's iteration count and greedy refinement's path follow the
  /// data, so one draw per seed let the seed swing the work by ±10%.
  void setup() override {
    Rng rng(seed_);  // rng-stream: data
    for (std::size_t draw = 0; draw < kDraws; ++draw) {
      for (std::size_t views : kViews) {
        std::vector<data::ViewSpec> specs;
        for (std::size_t v = 0; v < views; ++v) {
          specs.push_back(v % 2 == 0 ? data::ViewSpec{2, 3.0, 1.0, true}
                                     : data::ViewSpec{2, 0.0, 3.0, false});
        }
        const data::FacetedData fd = data::make_faceted_gaussian(220, specs, rng);
        Rng split_rng(seed_ + views + 100 * draw);  // rng-stream: splitter
        const auto split = data::train_test_split(fd.samples.size(), 0.35, split_rng);
        splits_.push_back({data::select_rows(fd.samples, split.train),
                           data::select_rows(fd.samples, split.test)});
      }
    }
  }

  /// For each draw, exhaustive search on 6 features, greedy refinement on
  /// 8, chain and smushing on 12: each piece is a 3-fold CV FacetedLearner
  /// fit plus its held-out accuracy.
  std::size_t pieces() const override { return std::size(kPlan) * kDraws; }
  void run_piece(std::size_t k) override {
    const auto& [strategy, data_index] = kPlan[k % std::size(kPlan)];
    const Split& s = splits_.at(k / std::size(kPlan) * std::size(kViews) + data_index);
    core::FacetedLearnerConfig config;
    config.strategy = strategy;
    config.search = search_options();
    core::FacetedLearner learner(config);
    learner.fit(s.train);
    fits_.push_back({strategy, s.train.dim(), learner.accuracy(s.test),
                     learner.search_result().partitions_evaluated,
                     learner.partition().to_string()});
  }

  void release() override {
    splits_.clear();
    fits_.clear();
  }

  std::string check() const override {
    if (fits_.size() != pieces()) return "missing fits";
    for (const Fit& f : fits_) {
      if (!(f.accuracy >= 0.0 && f.accuracy <= 1.0)) return "accuracy outside [0, 1]";
      if (f.evaluations == 0 || f.partition.empty()) return "search evaluated nothing";
    }
    return "";
  }

  std::string digest() const override {
    std::string text;
    char buf[64];
    for (const Fit& f : fits_) {
      std::snprintf(buf, sizeof buf, " %.17g %zu %zu ", f.accuracy, f.evaluations, f.features);
      text += core::strategy_name(f.strategy) + buf + f.partition + "\n";
    }
    return perfbench::digest(text);
  }

  std::map<std::string, double> quality() const override {
    double sum = 0.0;
    for (const Fit& f : fits_) sum += f.accuracy;
    return {{"accuracy", sum / static_cast<double>(fits_.size())}};
  }

  LayerMetrics layers(const std::map<std::string, SpanTotals>& folded,
                      const CounterSnapshot& delta) override {
    LayerMetrics out;
    auto& m = out.metrics;
    m["data.generate_s"] = us_to_s(static_cast<double>(span(folded, "perfbench.setup").total_us));
    m["kernels.svm_trains"] = delta["kernels.svm_trains"];
    m["kernels.svm_iters_per_train"] =
        per_call(delta["kernels.svm_iterations"], delta["kernels.svm_trains"]);
    double evals = 0.0;
    for (const Fit& f : fits_) evals += static_cast<double>(f.evaluations);
    m["core.evals"] = evals;
    m["core.gram_hit_ratio"] =
        1.0 - per_call(delta["lattice.block_gram_builds"], delta["lattice.block_gram_lookups"]);
    m["combinatorics.partitions_expanded"] = delta["lattice.nodes_expanded"];
    const std::pair<const char*, const char*> searches[] = {
        {"exhaustive", "lattice.exhaustive_cone_search"},
        {"greedy-refinement", "lattice.greedy_refinement_search"},
        {"chain", "lattice.chain_search"},
        {"smushing", "lattice.smushing_search"}};
    for (const auto& [strategy, name] : searches) {
      m[std::string("core.search_s.") + strategy] =
          us_to_s(static_cast<double>(span(folded, name).total_us));
    }

    // The first draw's 6- and 12-feature training sets.
    const SvmCost cost = replay_svm(splits_.at(0).train, search_options());
    m["kernels.svm_ns_per_iter"] = cost.ns_per_iter;
    m["kernels.svm_converged_frac"] = cost.converged_frac;
    m["kernels.gram_us_per_build"] = replay_gram_us_per_build(splits_.at(2).train);
    m["combinatorics.enum_ns_per_partition"] = replay_enum_ns_per_partition(fits_.at(0).features);

    // Attribution: lattice spans are the core search; the benchmark's own
    // span keeps the final model fits, correlation ordering and predictions.
    auto& a = out.attribution_us;
    double search_us = 0.0;
    for (const auto& [strategy, name] : searches) {
      search_us += static_cast<double>(span(folded, name).self_us);
    }
    a["kernels.svm"] = delta["kernels.svm_iterations"] * cost.ns_per_iter * 1e-3;
    a["core"] = carve(search_us, a["kernels.svm"], "replayed SVM iterations", out.failures);
    a["unattributed"] = static_cast<double>(span(folded, "perfbench.run").self_us);
    return out;
  }

 private:
  /// The searches' defaults with 3-fold CV.
  static core::SearchOptions search_options() {
    core::SearchOptions options;
    options.cv_folds = 3;
    return options;
  }

  static constexpr std::size_t kDraws = 2;
  static constexpr std::size_t kViews[] = {3, 4, 6};
  /// Each strategy and the index in kViews of the data it fits.
  static constexpr std::pair<core::SearchStrategy, std::size_t> kPlan[] = {
      {core::SearchStrategy::kExhaustive, 0},
      {core::SearchStrategy::kGreedyRefinement, 1},
      {core::SearchStrategy::kChain, 2},
      {core::SearchStrategy::kSmushing, 2}};
  std::uint64_t seed_;
  std::vector<Split> splits_;
  std::vector<Fit> fits_;
};

}  // namespace

double carve(double self_us, double replayed_us, const std::string& what,
             std::vector<std::string>& failures) {
  const double rest = self_us - replayed_us;
  if (rest < -kReplayTolerance * self_us) {
    failures.push_back(what + " (" + std::to_string(replayed_us) + " us) exceed the " +
                       std::to_string(self_us) + " us of span self time they ran in");
  }
  return rest;
}

CounterSnapshot CounterSnapshot::take() {
  CounterSnapshot s;
  for (const char* name : kCounters) s.values[name] = obs::registry().counter(name).value();
  return s;
}

CounterSnapshot CounterSnapshot::minus(const CounterSnapshot& earlier) const {
  CounterSnapshot d;
  for (const auto& [name, v] : values) d.values[name] = v - earlier.values.at(name);
  return d;
}

double CounterSnapshot::operator[](const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : static_cast<double>(it->second);
}

sim::FleetConfig fleet_wire_config(std::uint64_t seed) {
  sim::FleetConfig c;
  c.devices = 2000;
  c.edges = 80;
  c.duration_s = 60.0;
  c.device_flush_s = 1.0;
  c.seed = seed;
  c.telemetry.enabled = true;
  // Compound chaos: an edge crash, a partition and a 10% corruption storm.
  c.faults.edge_crashes = 1.0;
  c.faults.edge_downtime_mean_s = 3.0;
  c.chaos.partitions = 1.0;
  c.chaos.partition_mean_s = 4.0;
  c.chaos.corruption_storms = 1.0;
  c.chaos.storm_mean_s = 5.0;
  c.chaos.storm_corrupt_prob = 0.1;
  // Fault tolerance: ack-retry channels, checkpoints, store-and-forward.
  c.channel.mode = net::ChannelMode::kAckRetry;
  c.channel.ack_timeout_s = 0.1;
  c.channel.backoff_base_s = 0.05;
  c.channel.backoff_cap_s = 1.0;
  c.channel.max_attempts = 6;
  c.checkpoint_interval_s = 2.0;
  c.device_buffer_rows = 4096;
  c.observatory.enabled = true;
  c.degrade.enabled = true;
  c.degrade.pin_level = 2;
  return c;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fleet-learn") return std::make_unique<FleetWorkload>(fleet_learn_configs(seed));
  if (name == "fleet-wire") {
    return std::make_unique<FleetWorkload>(std::vector{fleet_wire_config(seed)});
  }
  if (name == "lattice-mkl") return std::make_unique<LatticeWorkload>(seed);
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace perfbench

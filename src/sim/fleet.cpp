#include "sim/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <fstream>
#include <limits>
#include <numbers>
#include <numeric>
#include <thread>
#include <utility>

#include "approx/confidence.hpp"
#include "deploy/compile.hpp"
#include "deploy/quantize.hpp"
#include "learners/decision_tree.hpp"
#include "learners/logistic.hpp"
#include "learners/naive_bayes.hpp"
#include "obs/obs.hpp"
#include "pipeline/integration.hpp"
#include "pipeline/preparation.hpp"
#include "pipeline/reduction.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace iotml::sim {

using pipeline::StageReport;
using pipeline::Tier;

namespace {

// Device tier: clean the freshly acquired window before it costs uplink
// bytes — gross outliers are suppressed to missing so the edge can repair
// them alongside genuine sensor dropout.
void add_clean_stage(pipeline::Pipeline& full) {
  full.add("clean(hampel)", [](data::Dataset& ds, Rng&) {
    std::size_t suppressed = 0;
    for (std::size_t f = 1; f < ds.num_columns(); ++f) {
      suppressed += pipeline::suppress_outliers(
          ds, f, pipeline::detect_outliers_hampel(ds.column(f), 4.0));
    }
    return 0.2 + 0.01 * static_cast<double>(suppressed);
  }, "device", Tier::kDevice);
}

// Edge tier: preparation over the integrated multi-device record stream.
void add_impute_stage(pipeline::Pipeline& full) {
  full.add("prepare(impute-linear)", [](data::Dataset& ds, Rng& rng) {
    const pipeline::ImputeReport r =
        pipeline::impute(ds, pipeline::ImputeStrategy::kLinear, rng);
    return 1.0 + 0.002 * static_cast<double>(r.cells_imputed);
  }, "edge-operator", Tier::kEdge);
}

void add_zscore_stage(pipeline::Pipeline& full) {
  full.add("prepare(normalize-zscore)", [](data::Dataset& ds, Rng&) {
    // Keep the timestamp column raw; normalize sensor columns only.
    std::vector<std::size_t> sensor_cols;
    for (std::size_t c = 1; c < ds.num_columns(); ++c) sensor_cols.push_back(c);
    if (sensor_cols.empty() || ds.rows() == 0) return 0.5;
    data::Dataset sensors_only = ds.select_columns(sensor_cols);
    pipeline::normalize(sensors_only, pipeline::NormalizeKind::kZScore);
    for (std::size_t c = 1; c < ds.num_columns(); ++c) {
      for (std::size_t r = 0; r < ds.rows(); ++r) {
        if (!sensors_only.column(c - 1).is_missing(r)) {
          ds.column(c).set_numeric(r, sensors_only.column(c - 1).numeric(r));
        }
      }
    }
    return 0.5;
  }, "edge-operator", Tier::kEdge);
}

// Core tier: data reduction before the learner.
void add_reduce_stage(pipeline::Pipeline& full, std::size_t keep) {
  full.add("reduce(mi-top" + std::to_string(keep) + ")",
           [keep](data::Dataset& ds, Rng&) {
    if (ds.has_labels() && ds.rows() > 0 && ds.num_columns() > keep) {
      ds = ds.select_columns(pipeline::select_by_mutual_information(ds, keep));
    }
    return 1.0;
  }, "core-operator", Tier::kCore);
}

/// The one labelling rule for send hops: refused by the queue ->
/// dead_letter; landed corrupt -> corrupt; not delivered -> timeout under
/// ack/retry, dropped under fire-and-forget; otherwise delivered.
const char* send_label(const net::ChannelOutcome& out, net::ChannelMode mode) {
  if (!out.accepted) return "dead_letter";
  if (out.corrupted) return "corrupt";
  if (!out.delivered) return mode == net::ChannelMode::kAckRetry ? "timeout" : "dropped";
  return "delivered";
}

/// `rows` stably sorted by their timestamp column (column 0).
data::Dataset time_ordered(const data::Dataset& rows) {
  std::vector<std::size_t> order(rows.rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const data::Column& ts = rows.column(0);
  std::stable_sort(order.begin(), order.end(), [&ts](std::size_t a, std::size_t b) {
    return ts.numeric(a) < ts.numeric(b);
  });
  return rows.select_rows(order);
}

/// `ds` without its timestamp column: the analytics label is a function of
/// time inside the window, so a learner that sees the clock would learn a
/// shortcut instead of the sensed world.
data::Dataset sensor_features(const data::Dataset& ds) {
  std::vector<std::size_t> cols;
  for (std::size_t c = 0; c < ds.num_columns(); ++c) {
    if (ds.column(c).name() != "timestamp") cols.push_back(c);
  }
  return cols.empty() || cols.size() == ds.num_columns() ? ds : ds.select_columns(cols);
}

/// Runs `work(i)` for every i in [0, count). Workers claim 64-index blocks
/// from a shared counter; there are min(hardware threads, count / 64) of
/// them, the calling thread among them, so below two full blocks the
/// calling thread runs every block itself. `work(i)` may write only state of
/// index i. After every worker has joined, the failure of the lowest
/// failing index is rethrown (a block stops at its first failure).
template <typename Work>
void for_each_index_in_blocks(std::size_t count, const Work& work) {
  constexpr std::size_t kBlock = 64;
  const std::size_t blocks = (count + kBlock - 1) / kBlock;
  std::vector<std::exception_ptr> failures(blocks);
  std::atomic<std::size_t> next_block{0};
  auto worker = [&] {
    for (std::size_t b = next_block++; b < blocks; b = next_block++) {
      try {
        for (std::size_t i = b * kBlock; i < std::min(count, (b + 1) * kBlock); ++i) work(i);
      } catch (...) {
        failures[b] = std::current_exception();
      }
    }
  };
  const std::size_t workers = std::max<std::size_t>(
      1, std::min<std::size_t>(std::thread::hardware_concurrency(), count / kBlock));
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    try {
      threads.emplace_back(worker);
    } catch (const std::exception&) {
      break;  // no thread to spare: the workers already running take every block
    }
  }
  worker();
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
}

/// The core->edge downlink of deploy and OTA runs.
constexpr net::LinkParams kCoreEdgeDownlink{
    .latency_s = 0.005, .jitter_s = 0.001, .bandwidth_bytes_per_s = 1.25e6,
    .drop_prob = 0.002, .duplicate_prob = 0.0, .max_retries = 2,
    .retry_backoff_s = 0.02};

/// Degrade summaries number their traces in a range of their own (top bit
/// set), so the ladder's choices never shift the trace ids of row,
/// artifact, prediction and patch frames, which flight notes carry.
std::uint64_t summary_trace(std::size_t index) {
  return (std::uint64_t{1} << 63) | index;
}

}  // namespace

pipeline::Pipeline default_fleet_pipeline(const FleetConfig& config) {
  pipeline::Pipeline full;
  add_clean_stage(full);
  add_impute_stage(full);
  add_zscore_stage(full);
  add_reduce_stage(full, config.feature_keep);
  return full;
}

pipeline::Pipeline default_deploy_pipeline(const FleetConfig& config) {
  pipeline::Pipeline full;
  add_clean_stage(full);
  add_impute_stage(full);
  add_reduce_stage(full, config.feature_keep);
  return full;
}

FleetSim::FleetSim(FleetConfig config)
    : FleetSim(config, config.deploy.enabled ? default_deploy_pipeline(config)
                                             : default_fleet_pipeline(config)) {}

FleetSim::FleetSim(FleetConfig config, pipeline::Pipeline full_pipeline)
    : config_(config),
      topo_(net::Topology::fleet(config.devices, config.edges,
                                 config.device_edge_link, config.edge_core_link)),
      tiers_(split_by_tier(std::move(full_pipeline))) {
  IOTML_CHECK(config.duration_s > 0.0 && std::isfinite(config.duration_s),
              "FleetSim: duration must be positive and finite");
  IOTML_CHECK(config.device_flush_s > 0.0 && config.edge_flush_s > 0.0 &&
                  std::isfinite(config.device_flush_s) && std::isfinite(config.edge_flush_s),
              "FleetSim: flush intervals must be positive and finite");
  IOTML_CHECK(config.sensor_period_s > 0.0, "FleetSim: sensor period must be positive");
  IOTML_CHECK(config.sensor_dropout >= 0.0 && config.sensor_dropout < 1.0,
              "FleetSim: sensor dropout outside [0, 1)");
  IOTML_CHECK(config.feature_keep >= 1, "FleetSim: feature_keep must be >= 1");
  IOTML_CHECK(config.checkpoint_interval_s >= 0.0 && std::isfinite(config.checkpoint_interval_s),
              "FleetSim: checkpoint interval must be finite and non-negative");
  if (config.deploy.enabled) {
    IOTML_CHECK(config.deploy.score_window_s > 0.0,
                "FleetSim: deploy score window must be positive");
  }
  if (config.ota.enabled) {
    IOTML_CHECK(config.ota.epochs >= 1, "FleetSim: ota.epochs must be >= 1");
    IOTML_CHECK(config.ota.chunk_bytes >= 1, "FleetSim: ota.chunk_bytes must be >= 1");
    IOTML_CHECK(config.ota.canary_fraction >= 0.0 && config.ota.canary_fraction <= 1.0,
                "FleetSim: ota.canary_fraction outside [0, 1]");
  }
  if (config.telemetry.enabled) {
    IOTML_CHECK(config.telemetry.scale_bits <= 52,
                "FleetSim: telemetry.scale_bits must be <= 52");
    IOTML_CHECK(config.telemetry.device_log_bytes >= 1,
                "FleetSim: telemetry.device_log_bytes must be >= 1");
  }
  if (config.degrade.enabled) {
    IOTML_CHECK(config.degrade.pin_level >= -1 && config.degrade.pin_level <= 3,
                "FleetSim: degrade.pin_level outside [-1, 3]");
    IOTML_CHECK(config.degrade.dead_letter_rate_ref > 0.0,
                "FleetSim: degrade.dead_letter_rate_ref must be positive");
    IOTML_CHECK(config.degrade.checkpoint_lag_rows >= 1,
                "FleetSim: degrade.checkpoint_lag_rows must be >= 1");
  }
  if (config.deploy.enabled || config.ota.enabled) {
    // Downlinks append after every uplink, so in the split loop below the
    // uplinks draw exactly the Rng streams a non-deploy run would assign.
    // OTA-only runs reuse the deploy link parameters for the return path.
    topo_.add_downlinks(config.deploy.edge_device_link, kCoreEdgeDownlink);
  }

  // Fixed derivation order: every stream of randomness is split off the
  // master seed before the event loop starts, so event handlers can draw in
  // any interleaving without perturbing each other's sequences.
  Rng master(config.seed);         // rng-stream: master
  Rng fault_rng = master.split();  // rng-stream: fault
  device_rngs_.reserve(config.devices);
  // rng-stream: device (one split per device, in device-id order)
  for (std::size_t d = 0; d < config.devices; ++d) device_rngs_.push_back(master.split());
  edge_rngs_.reserve(config.edges);
  // rng-stream: edge (one split per edge, in edge-id order)
  for (std::size_t e = 0; e < config.edges; ++e) edge_rngs_.push_back(master.split());
  core_rng_ = master.split();  // rng-stream: core
  link_rngs_.reserve(topo_.num_links());
  // rng-stream: link (one split per link, in link-id order)
  for (std::size_t l = 0; l < topo_.num_links(); ++l) link_rngs_.push_back(master.split());
  // The chaos stream splits off *after* every legacy stream, so a run with
  // chaos disabled draws exactly the sequences the pre-chaos runtime drew.
  chaos_rng_ = master.split();  // rng-stream: chaos
  // The OTA streams split off after every earlier stream (appended to the
  // manifest in this order), so prior-seed event logs stay byte-identical
  // when OTA is off.
  canary_rng_ = master.split();  // rng-stream: canary
  epoch_rng_ = master.split();  // rng-stream: epoch
  // The degradation-sampling stream splits off after every earlier stream,
  // so L0-only and degrade-off runs replay historical draw sequences.
  degrade_rng_ = master.split();  // rng-stream: degrade

  // One transport per link. The topology is final here (downlinks included),
  // so the Link references the channels capture stay stable.
  channels_.reserve(topo_.num_links());
  core_link_.assign(topo_.num_links(), 0);
  link_bytes_.assign(topo_.num_links(), nullptr);
  base_drop_prob_.reserve(topo_.num_links());
  base_corrupt_prob_.reserve(topo_.num_links());
  for (std::size_t l = 0; l < topo_.num_links(); ++l) {
    channels_.emplace_back(topo_.link(l), config.channel);
    base_drop_prob_.push_back(topo_.link(l).params().drop_prob);
    base_corrupt_prob_.push_back(topo_.link(l).params().corrupt_prob);
  }
  for (std::size_t j = 0; j < config.edges; ++j) {
    core_link_[topo_.uplink_index(topo_.edge(j))] = 1;
    if (topo_.has_downlinks()) core_link_[topo_.downlink_index(topo_.edge(j))] = 1;
  }

  // Temperature starts the window cold (phase -pi/2) and cycles fast enough
  // that even a short run sees both comfortable and uncomfortable spells —
  // the analytics labels must never collapse to a single class.
  truths_.push_back(
      pipeline::sine_signal(22.0, 6.0, 40.0, -std::numbers::pi / 2.0));
  truths_.push_back(pipeline::composite_signal(
      {pipeline::sine_signal(55.0, 10.0, 500.0), pipeline::trend_signal(0.0, -0.01)}));
  truths_.push_back(pipeline::sine_signal(4.0, 3.0, 120.0));

  report_.devices = config.devices;
  report_.edges = config.edges;
  report_.duration_s = config.duration_s;

  edge_buffers_.resize(config.edges);
  edge_checkpoints_.resize(config.edges);
  backlogs_.resize(config.devices);
  device_scored_.assign(config.devices, 0);
  artifact_seen_.assign(topo_.num_nodes(), 0);
  pred_seen_.resize(topo_.num_nodes());
  if (config.ota.enabled) {
    ota_stores_.resize(config.devices);
    ota_active_transfer_.assign(config.devices, kNoMessage);
    ota_report_seen_.resize(topo_.num_nodes());
  }
  if (config.degrade.enabled) {
    degrade_ctrl_.reserve(config.edges);
    for (std::size_t e = 0; e < config.edges; ++e) {
      degrade_ctrl_.emplace_back(config.degrade.thresholds, config.degrade.pin_level);
    }
    degrade_signal_t_.assign(config.edges, 0.0);
    degrade_dead_letters_.assign(config.edges, 0);
    degrade_dead_letters_seen_.assign(config.edges, 0);
    degrade_queue_hint_.assign(config.edges, 0.0);
    degrade_sf_highwater_.assign(config.edges, 0);
    report_.degradation.enabled = true;
    report_.degradation.pin_level = config.degrade.pin_level;
    report_.degradation.duration_s = config.duration_s;
  }
  if (config.telemetry.enabled) {
    tdf_session_open_.assign(config.devices, 0);
    tdf_seq_.assign(config.devices, 0);
    report_.telemetry.enabled = true;
  }

  if (config_.observatory.enabled) {
    obsy_.emplace(topo_.num_nodes());
    node_series_.resize(config.edges + 1);
  }

  generate_device_data();

  const std::vector<ChaosEvent> faults =
      make_fault_plan(topo_, config.faults, config.duration_s, fault_rng);
  schedule_initial_events();
  // The fault plan, then the chaos plan: each push takes the next seq.
  for (const ChaosEvent& f : faults) sched_.push(f.time_s, f.kind, f.target);
  for (const ChaosEvent& c : make_chaos_plan(config.chaos, config.duration_s, chaos_rng_)) {
    sched_.push(c.time_s, c.kind, c.target);
  }

  if (config.checkpoint_interval_s > 0.0) {
    for (std::size_t e = 0; e < config.edges; ++e) {
      sched_.push_series(config.checkpoint_interval_s, config.checkpoint_interval_s,
                         config.duration_s, EventKind::kCheckpoint, e);
    }
  }

  if (config.ota.enabled) schedule_ota_epochs();
}

void FleetSim::generate_device_data() {
  static const char* kQuantity[3] = {"temperature", "humidity", "wind"};
  /// Base measurement noise, scaled per quantity by kNoiseScale.
  static constexpr double kSensorNoise = 0.4;
  static constexpr double kNoiseScale[3] = {1.0, 2.5, 1.5};
  const std::size_t devices = config_.devices;
  device_data_.resize(devices);
  device_cursor_.assign(devices, 0);
  // Deploy runs keep sensing past the learning window: those extra rows are
  // never flushed upstream — they are the data the deployed artifact scores.
  const double horizon_s =
      config_.duration_s +
      (config_.deploy.enabled ? config_.deploy.score_window_s : 0.0);

  // Sensing draws only from each device's own stream, split off before this
  // runs, so devices are simulated in any order, on worker threads. Workers
  // write only into buffers reserved here, so they never allocate: a
  // sensor's period factor is drawn from [0.9, 1.1), which bounds its
  // samples over the horizon (see DESIGN.md §9).
  const double most_samples = std::ceil(horizon_s / (0.9 * config_.sensor_period_s)) + 2.0;
  IOTML_CHECK(most_samples < 1e9, "FleetSim: too many sensor samples per device");
  std::vector<std::vector<pipeline::SensorStream>> streams(devices);
  for (std::vector<pipeline::SensorStream>& device : streams) {
    device.resize(3);
    for (pipeline::SensorStream& s : device) {
      s.readings.reserve(static_cast<std::size_t>(most_samples));
    }
  }
  std::vector<std::int64_t> simulate_us(devices, 0);
  for_each_index_in_blocks(devices, [&](std::size_t d) {
    const std::int64_t start_us = obs::now_us();
    Rng& rng = device_rngs_[d];
    for (std::size_t q = 0; q < 3; ++q) {
      pipeline::SensorSpec spec;
      spec.name = kQuantity[q];
      spec.period_s = config_.sensor_period_s * rng.uniform(0.9, 1.1);
      spec.clock_jitter_s = 0.02;
      spec.noise_std = kSensorNoise * kNoiseScale[q];
      spec.dropout_prob = config_.sensor_dropout;
      pipeline::simulate_sensor(spec, truths_[q], horizon_s, rng, streams[d][q]);
    }
    simulate_us[d] = obs::now_us() - start_us;
  });

  // Integration allocates each window, so it runs here, in device order.
  for (std::size_t d = 0; d < devices; ++d) {
    std::size_t readings = 0;
    for (const pipeline::SensorStream& s : streams[d]) readings += s.readings.size();
    data::Dataset& window = device_data_[d];
    StageReport acq = pipeline::run_stage("acquisition", "device", Tier::kDevice, window, [&] {
      if (readings > 0) {
        window = pipeline::integrate_streams(
                     streams[d], {.merge_tolerance_s = 0.45 * config_.sensor_period_s})
                     .records;
      } else {
        // Every sensor dropped every reading: the device keeps an empty
        // window with the usual columns and never has rows to flush.
        window.add_numeric_column("timestamp");
        for (const pipeline::SensorStream& s : streams[d]) window.add_numeric_column(s.sensor_name);
      }
      streams[d].clear();  // frees the readings: the next window reuses that memory
      return 0.05 + 0.01 * static_cast<double>(readings);
    });
    acq.rows_in = readings;
    // det-sanctioned: wall_time_us is observability-only; to_json and the event log omit it
    acq.wall_time_us += static_cast<std::uint64_t>(simulate_us[d]);
    report_.rows_generated += window.rows();
    report_.stage_reports.push_back(acq);
  }
}

void FleetSim::schedule_initial_events() {
  for (std::size_t d = 0; d < config_.devices; ++d) {
    // Stagger flush phases deterministically so a big fleet does not report
    // in lockstep (real fleets desynchronize; ties would be FIFO anyway).
    const double phase =
        config_.device_flush_s * (static_cast<double>(d % 16) / 64.0);
    sched_.push_series(phase + config_.device_flush_s, config_.device_flush_s,
                       config_.duration_s, EventKind::kDeviceFlush, topo_.device(d));
    // Final flush drains whatever the window schedule left behind.
    sched_.push(config_.duration_s, EventKind::kDeviceFlush, topo_.device(d));
  }
  for (std::size_t e = 0; e < config_.edges; ++e) {
    sched_.push_series(config_.edge_flush_s, config_.edge_flush_s, config_.duration_s,
                       EventKind::kEdgeFlush, topo_.edge(e));
  }
}

FleetReport FleetSim::run() {
  IOTML_CHECK(!ran_, "FleetSim::run: already ran (FleetSim is one-shot)");
  ran_ = true;
  obs::Span run_span("sim.fleet_run", "sim");

  while (!sched_.empty()) handle(sched_.pop());

  // Drain: one last edge flush each, after every in-flight message has
  // landed, so late arrivals are not silently stranded by the periodic
  // schedule. Anything still buffered after this (an edge cut off by a
  // down link) is reported as stranded, not dropped on the floor.
  const double drain_s = std::max(sched_.now_s(), config_.duration_s);
  for (std::size_t e = 0; e < config_.edges; ++e) handle_edge_flush(e, drain_s);
  while (!sched_.empty()) handle(sched_.pop());
  IOTML_INTERNAL_CHECK(rows_in_flight_.empty(),
                       "FleetSim: a row frame outlived the landing of its copies");

  if (degrade_on()) degrade_settle(std::max(sched_.now_s(), drain_s));

  finalize();
  if (degrade_on()) finalize_degradation();
  if (config_.deploy.enabled) run_deploy_phase();
  if (config_.ota.enabled) finalize_ota();

  report_.events = sched_.processed();
  for (std::size_t l = 0; l < topo_.num_links(); ++l) {
    report_.links.push_back({topo_.link(l).name(), topo_.link(l).stats()});
  }
  for (const net::Channel& ch : channels_) {
    const net::ChannelStats& s = ch.stats();
    report_.channels.sends += s.sends;
    report_.channels.delivered += s.delivered;
    report_.channels.acks += s.acks;
    report_.channels.timeouts += s.timeouts;
    report_.channels.retransmits += s.retransmits;
    report_.channels.backoff_waits += s.backoff_waits;
    report_.channels.backoff_wait_s += s.backoff_wait_s;
    report_.channels.dead_letters += s.dead_letters;
    report_.channels.corrupt_rejected += s.corrupt_rejected;
  }
  report_.latency = LatencySummary::from_histogram(lat_end_to_end_);
  report_.latency_tiers["device-edge"] = LatencyBreakdown::from_histogram(lat_device_edge_);
  report_.latency_tiers["edge-core"] = LatencyBreakdown::from_histogram(lat_edge_core_);
  report_.latency_tiers["end-to-end"] = LatencyBreakdown::from_histogram(lat_end_to_end_);
  IOTML_INTERNAL_CHECK(report_.rows_conserved(),
                       "FleetSim: row-conservation ledger out of balance");
  if (run_span.active()) {
    run_span.arg("events", static_cast<std::uint64_t>(report_.events));
    run_span.arg("rows_delivered", static_cast<std::uint64_t>(report_.rows_delivered));
  }
  if (obsy_ && !config_.observatory.artifact_dir.empty()) {
    // Best-effort: an unwritable artifact dir must not fail a finished run.
    obsy_->write_artifacts(config_.observatory.artifact_dir,
                           [this](std::ostream& out) { write_event_log(out); });
    if (config_.ota.enabled) {
      std::ofstream ota_out(config_.observatory.artifact_dir + "/ota.json");
      if (ota_out) ota_out << ota_to_json(report_.deploy.ota);
    }
    if (degrade_on()) {
      std::ofstream deg_out(config_.observatory.artifact_dir + "/degradation.json");
      if (deg_out) deg_out << degradation_to_json(report_.degradation);
    }
  }
  return std::move(report_);
}

void FleetSim::handle(const Event& event) {
  obs::Span span(event_span_name(event.kind), "sim");
  if (span.active()) {
    span.arg("t_s", event.time_s);
    span.arg("target", static_cast<std::uint64_t>(event.target));
  }
  static obs::Counter& events = obs::registry().counter("sim.events");
  events.add();
  switch (event.kind) {
    case EventKind::kDeviceFlush:
      handle_device_flush(event);
      break;
    case EventKind::kEdgeFlush:
      handle_edge_flush(event.target - config_.devices, event.time_s);
      break;
    case EventKind::kArrival:
    case EventKind::kCorruptArrival:
      land_row_frame(event);
      break;
    case EventKind::kLinkDown:
      topo_.link(event.target).set_up(false);
      obs::registry().counter("sim.faults.link_down").add();
      break;
    case EventKind::kLinkUp:
      // A partition owns the edge<->core links while active; an overlapping
      // link-outage recovery must not punch through it.
      if (!(partitioned_ && core_link_[event.target] != 0)) {
        topo_.link(event.target).set_up(true);
      }
      break;
    case EventKind::kDeviceDown:
      topo_.node(event.target).up = false;
      obs::registry().counter("sim.faults.device_down").add();
      break;
    case EventKind::kDeviceUp:
      topo_.node(event.target).up = true;
      // Reconnect: drain the store-and-forward buffer right away instead of
      // waiting out the periodic flush schedule.
      if (!backlogs_[event.target].chunks.empty()) {
        sched_.push(event.time_s, EventKind::kDeviceFlush, event.target);
      }
      break;
    case EventKind::kDeployBroadcast:
      handle_deploy_broadcast(event);
      break;
    case EventKind::kArtifactArrival:
      handle_artifact_arrival(event);
      break;
    case EventKind::kPredictionArrival:
      handle_prediction_arrival(event);
      break;
    case EventKind::kEdgeCrash:
      handle_edge_crash(event.target);
      break;
    case EventKind::kEdgeRestart:
      handle_edge_restart(event.target);
      break;
    case EventKind::kCoreCrash:
      if (topo_.node(topo_.core()).up) {
        topo_.node(topo_.core()).up = false;
        ++report_.faults.core_crashes;
        obs::registry().counter("sim.faults.core_crash").add();
        flight_dump(topo_.core(), "core-crash", event.time_s);
      }
      break;
    case EventKind::kCoreRestart:
      // The core's stored data is durable (a datacenter write-ahead log);
      // a crash only makes it unreachable, so restart is just liveness.
      topo_.node(topo_.core()).up = true;
      break;
    case EventKind::kPartitionStart:
      set_partition(true);
      break;
    case EventKind::kPartitionEnd:
      set_partition(false);
      break;
    case EventKind::kLossBurstStart:
      set_loss_burst(true);
      break;
    case EventKind::kLossBurstEnd:
      set_loss_burst(false);
      break;
    case EventKind::kCorruptionStart:
      set_corruption_storm(true);
      break;
    case EventKind::kCorruptionEnd:
      set_corruption_storm(false);
      break;
    case EventKind::kCheckpoint:
      handle_checkpoint(event.target);
      break;
    case EventKind::kOtaEpoch:
      handle_ota_epoch(event);
      break;
    case EventKind::kOtaChunkArrival:
      handle_ota_chunk_arrival(event);
      break;
    case EventKind::kOtaResume:
      handle_ota_resume(event);
      break;
    case EventKind::kOtaReportArrival:
      handle_ota_report_arrival(event);
      break;
    case EventKind::kOtaVerdict:
      handle_ota_verdict(event);
      break;
    case EventKind::kOtaControlArrival:
      handle_ota_control_arrival(event);
      break;
    case EventKind::kLoadStormStart:
      set_load_storm(true, event.time_s);
      break;
    case EventKind::kLoadStormEnd:
      set_load_storm(false, event.time_s);
      break;
    case EventKind::kStormFlush:
      handle_storm_flush(event);
      break;
    case EventKind::kSummaryArrival:
      handle_summary_arrival(event);
      break;
  }
}

void FleetSim::handle_device_flush(const Event& event) {
  const net::NodeId d = event.target;
  const data::Dataset& all = device_data_[d];
  const bool final_flush = event.time_s >= config_.duration_s;
  // The final flush drains everything — except in deploy mode, where rows
  // sensed after the learning window stay on the device for local scoring.
  const double cutoff =
      !final_flush ? event.time_s
      : config_.deploy.enabled ? config_.duration_s
                               : std::numeric_limits<double>::infinity();
  const std::size_t begin = device_cursor_[d];
  std::size_t end = begin;
  while (end < all.rows() && all.column(0).numeric(end) < cutoff) ++end;
  device_cursor_[d] = end;
  const std::size_t count = end - begin;
  const bool sf = config_.device_buffer_rows > 0;
  Backlog& backlog = backlogs_[d];
  if (count == 0 && backlog.chunks.empty()) return;
  if (!topo_.node(d).up && !sf) {
    // Churn, legacy accounting: the device was offline when its report
    // window closed and has no store-and-forward buffer — the window's
    // rows are gone.
    report_.rows_skipped += count;
    return;
  }

  Buffer out;
  if (count > 0) {
    std::vector<std::size_t> idx(count);
    std::iota(idx.begin(), idx.end(), begin);
    data::Dataset chunk = all.select_rows(idx);
    // Local compute is unaffected by connectivity: the device cleans its
    // window even when offline, then persists the result.
    chunk = tiers_.device.run(std::move(chunk), device_rngs_[d]);
    for (const StageReport& r : tiers_.device.reports()) {
      report_.stage_reports.push_back(r);
    }
    out.rows = std::move(chunk);
    out.origin_s = {event.time_s};
    // The window's birth certificate: every downstream frame carrying these
    // rows lists this id in its parents, which is what lets fleetscope
    // reconstruct the device -> edge -> core journey after batching.
    out.parents = {next_trace_++};
    journey_origin(out.parents.front(), obs::HopStream::kRows, d, event.time_s,
                   out.rows.rows(), 0);
    if (obsy_) {
      obsy_->flight().note(d, event.time_s, "flush", out.rows.rows());
      if (flush_rows_series_ == nullptr) {
        flush_rows_series_ = &obsy_->series().series("flush.rows", "fleet", "device");
      }
      flush_rows_series_->record(event.time_s, static_cast<double>(out.rows.rows()));
    }
  }
  if (!topo_.node(d).up) {
    // Reaching here offline implies sf: the bufferless case returned above.
    if (out.rows.rows() > 0) store(d, std::move(out));
    return;
  }

  // Online: drain the store-and-forward backlog (oldest first) together
  // with the fresh window as one uplink message, re-encoded by send().
  Buffer merged;
  for (const Backlog::Chunk& pending : backlog.chunks) {
    const Buffer& b = pending.buffer;
    merged.rows.append_rows(b.rows);
    merged.origin_s.insert(merged.origin_s.end(), b.origin_s.begin(), b.origin_s.end());
    merged.parents.insert(merged.parents.end(), b.parents.begin(), b.parents.end());
  }
  backlog.chunks.clear();
  backlog.rows = 0;
  backlog.bytes = 0;
  if (obsy_ && merged.rows.rows() > 0) {
    obsy_->flight().note(d, event.time_s, "sf-drain", merged.rows.rows());
  }
  if (out.rows.rows() > 0) {
    merged.rows.append_rows(out.rows);
    merged.origin_s.insert(merged.origin_s.end(), out.origin_s.begin(),
                           out.origin_s.end());
    merged.parents.insert(merged.parents.end(), out.parents.begin(), out.parents.end());
  }
  if (merged.rows.rows() == 0) return;
  send(d, std::move(merged), event.time_s);
}

void FleetSim::handle_edge_flush(std::size_t edge_index, double now_s) {
  Buffer& buf = edge_buffers_[edge_index];
  if (buf.rows.rows() == 0) return;
  const net::NodeId e = topo_.edge(edge_index);
  if (obsy_) {
    record_series(NodeSeries::kBufferRows, e, now_s, static_cast<double>(buf.rows.rows()));
  }
  if (!topo_.node(e).up) return;  // hold the buffer until the edge recovers

  // Ladder decision (DESIGN.md §16): the controller steps on the edge's own
  // backpressure *before* the hold guard, so pressure accumulated during a
  // partition (checkpoint lag, store-and-forward occupancy) still escalates
  // the level instead of being invisible until the wire heals.
  int degrade_level = 0;
  if (degrade_on()) {
    degrade_level =
        degrade_update(edge_index, now_s, degrade_signals(edge_index, now_s));
    if (degrade_level >= 2) {
      // L2/L3 answer the window locally and shed every row; only a
      // fixed-size summary goes upstream, so a dead uplink cannot make the
      // edge hoard rows.
      degrade_summary_flush(edge_index, now_s, degrade_level);
      return;
    }
  }

  if (config_.channel.mode == net::ChannelMode::kAckRetry &&
      (!topo_.node(topo_.core()).up || !topo_.uplink(e).up())) {
    // Degraded mode: a stop-and-wait edge knows its uplink (or the core) is
    // unreachable and holds the batch for the next flush instead of burning
    // retransmits into a dead wire. Fire-and-forget edges cannot know and
    // transmit anyway (the frame dies at the dead receiver).
    obs::registry().counter("sim.recovery.edge_holds").add();
    return;
  }

  if (degrade_level == 1) {
    // L1: a seeded stratified sample of the window rides the normal
    // integrate -> pipeline -> uplink path below; the rest is shed with a
    // ledgered confidence interval standing in for them.
    degrade_sample_window(edge_index, now_s);
  } else if (degrade_on()) {
    report_.degradation.rows_exact += buf.rows.rows();
    ++report_.degradation.windows_exact;
  }

  // Integration: merge the per-device chunks into one time-ordered record
  // stream (the §IV "ordered list of time-stamps" step, here across devices).
  data::Dataset merged = std::move(buf.rows);
  report_.stage_reports.push_back(
      pipeline::run_stage("integration", "edge-operator", Tier::kEdge, merged, [&] {
        merged = time_ordered(merged);
        return 0.2 + 0.001 * static_cast<double>(merged.rows());
      }));

  merged = tiers_.edge.run(std::move(merged), edge_rngs_[edge_index]);
  for (const StageReport& r : tiers_.edge.reports()) {
    report_.stage_reports.push_back(r);
  }

  Buffer out;
  out.rows = std::move(merged);
  out.origin_s = std::move(buf.origin_s);
  out.parents = std::move(buf.parents);
  if (obsy_) obsy_->flight().note(e, now_s, "edge-flush", out.rows.rows());
  buf = Buffer{};
  // The flush ships these rows upstream, so the checkpoint covering them is
  // retired with the buffer — a later restore must never resurrect rows
  // that already left the edge.
  edge_checkpoints_[edge_index] = Buffer{};
  send(e, std::move(out), now_s);
}

// ---- Graceful-degradation ladder (DESIGN.md §16) --------------------------

namespace {

constexpr double kSampleRate = 0.25;          ///< L1 per-stratum sampling rate
constexpr std::size_t kSketchCapacity = 256;  ///< L2 bottom-k quantile sample size
constexpr std::size_t kCountMinWidth = 64;    ///< L2 count-min shape
constexpr std::size_t kCountMinDepth = 4;
/// Virtual cost of the L2 sketch reduce (edge tier), in the integration
/// stage's base + per-row shape; bench_degrade gates on its ratio to L0.
constexpr double kSketchCostBase = 0.02;
constexpr double kSketchCostPerRow = 0.0005;

}  // namespace

approx::DegradeSignals FleetSim::degrade_signals(std::size_t edge_index,
                                                 double now_s) {
  approx::DegradeSignals s;
  const net::NodeId e = topo_.edge(edge_index);

  // Channel congestion: the uplink's depth right now, or the deepest
  // fraction any of the edge's channels hit since the last update.
  const auto cap = static_cast<double>(config_.channel.queue_capacity);
  const std::size_t uplink = topo_.uplink_index(e);
  const double now_frac =
      static_cast<double>(channels_[uplink].in_flight(now_s)) / cap;
  s.queue_fraction = std::max(now_frac, degrade_queue_hint_[edge_index]);
  degrade_queue_hint_[edge_index] = 0.0;

  // Dead-letter growth since the last update, against the reference rate.
  const double elapsed = now_s - degrade_signal_t_[edge_index];
  const std::uint64_t letters = degrade_dead_letters_[edge_index];
  const std::uint64_t fresh = letters - degrade_dead_letters_seen_[edge_index];
  if (fresh > 0) {
    s.dead_letter_rate = (static_cast<double>(fresh) / std::max(elapsed, 1e-9)) /
                         config_.degrade.dead_letter_rate_ref;
  }
  degrade_dead_letters_seen_[edge_index] = letters;

  // Store-and-forward occupancy across the edge's devices (device i
  // belongs to edge i % edges; see Topology::fleet).
  if (config_.device_buffer_rows > 0) {
    std::uint64_t total = 0;
    std::size_t fleet = 0;
    for (std::size_t i = edge_index; i < config_.devices; i += config_.edges) {
      total += backlogs_[topo_.device(i)].rows;
      ++fleet;
    }
    degrade_sf_highwater_[edge_index] =
        std::max<std::uint64_t>(degrade_sf_highwater_[edge_index], total);
    if (fleet > 0) {
      s.sf_occupancy = static_cast<double>(total) /
                       (static_cast<double>(config_.device_buffer_rows) *
                        static_cast<double>(fleet));
    }
  }

  // Checkpoint lag: rows buffered beyond what the last checkpoint covers.
  if (config_.checkpoint_interval_s > 0.0) {
    const std::size_t buffered = edge_buffers_[edge_index].rows.rows();
    const std::size_t persisted = edge_checkpoints_[edge_index].rows.rows();
    const std::size_t lag = buffered > persisted ? buffered - persisted : 0;
    s.checkpoint_lag = static_cast<double>(lag) /
                       static_cast<double>(config_.degrade.checkpoint_lag_rows);
  }
  degrade_signal_t_[edge_index] = now_s;
  return s;
}

int FleetSim::degrade_update(std::size_t edge_index, double now_s,
                             const approx::DegradeSignals& signals) {
  approx::DegradationController& ctrl = degrade_ctrl_[edge_index];
  const approx::DegradeLevel before = ctrl.level();
  const approx::DegradeLevel after = ctrl.update(now_s, signals);
  if (after != before) {
    auto& d = report_.degradation;
    if (static_cast<int>(after) > static_cast<int>(before)) {
      ++d.transitions_up;
    } else {
      ++d.transitions_down;
    }
    obs::registry().counter("sim.degrade.transitions").add();
    const net::NodeId e = topo_.edge(edge_index);
    if (obsy_) {
      obsy_->flight().note(e, now_s, "degrade-level",
                           static_cast<std::size_t>(before),
                           static_cast<std::size_t>(after));
      record_series(NodeSeries::kDegradeLevel, e, now_s,
             static_cast<double>(static_cast<int>(after)));
    }
  }
  return static_cast<int>(after);
}

namespace {

/// Mean of a column over [0, rows), skipping missing cells; the number of
/// contributing cells comes back through `n`.
double column_mean(const data::Column& col, std::size_t rows, std::size_t& n) {
  double sum = 0.0;
  n = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    if (col.is_missing(r)) continue;
    sum += col.numeric(r);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

void FleetSim::degrade_sample_window(std::size_t edge_index, double now_s) {
  Buffer& buf = edge_buffers_[edge_index];
  const std::size_t population = buf.rows.rows();
  auto& d = report_.degradation;

  // Strata must tile the buffer exactly; anything else (defensive — e.g. a
  // window restored from a pre-ladder checkpoint) collapses to one stratum.
  std::size_t tiled = 0;
  for (const approx::Stratum& s : buf.strata) tiled += s.count;
  std::vector<approx::Stratum> strata = buf.strata;
  if (strata.empty() || tiled != population) {
    strata.assign(1, approx::Stratum{static_cast<std::uint32_t>(edge_index), 0,
                                     population});
  }

  // Sample live rows only, stratum by stratum. Missing cells carry no
  // analytic value (downstream would impute them), and with contiguous-run
  // sampling a tiny stratum whose only draw lands on a missing cell drops
  // out of the estimate entirely — storm-compressed strata are small, late,
  // and drifted, so those dropouts are a systematic bias, not noise.
  const data::Column& col = buf.rows.column(1);
  std::vector<std::vector<std::size_t>> live(strata.size());
  for (std::size_t i = 0; i < strata.size(); ++i) {
    const approx::Stratum& s = strata[i];
    for (std::size_t r = s.begin; r < s.begin + s.count; ++r) {
      if (!col.is_missing(r)) live[i].push_back(r);
    }
  }

  auto sample = [&] {
    const std::vector<std::size_t> keep =
        approx::stratified_indices(live, kSampleRate, degrade_rng_);

    // The bounded-error contract: the realized error of the sampled window
    // mean (first measured quantity) against the exact full-window answer,
    // which the simulator can still compute out of band. The per-stratum
    // sampler rounds draws up, so small strata carry higher sampling
    // fractions; the self-weighted stratified estimator keeps that from
    // biasing the window mean (a pooled mean over `keep` would drift high).
    std::size_t exact_n = 0;
    const double exact = column_mean(col, population, exact_n);
    std::vector<approx::StratumSample> samples(strata.size());
    for (std::size_t i = 0; i < strata.size(); ++i) {
      samples[i].population = live[i].size();
    }
    std::size_t cursor = 0;
    for (std::size_t r : keep) {
      while (cursor + 1 < strata.size() &&
             r >= strata[cursor].begin + strata[cursor].count) {
        ++cursor;
      }
      samples[cursor].values.push_back(col.numeric(r));
    }
    const approx::Interval ci = approx::stratified_mean_interval(samples);
    const bool covered = exact_n == 0 || ci.covers(exact);

    ++d.windows_sampled;
    d.rows_approx += population;
    d.rows_sampled_out += population - keep.size();
    ++d.ci_windows;
    if (covered) ++d.ci_covered;
    d.ci_half_width_sum += ci.half_width;
    const double err = std::abs(ci.estimate - exact);
    d.abs_error_sum += err;
    d.max_abs_error = std::max(d.max_abs_error, err);
    if (d.windows.size() < kMaxWindowEstimates) {
      d.windows.push_back({edge_index, now_s, 1, population, keep.size(),
                           ci.estimate, ci.half_width, exact, covered});
    } else {
      ++d.windows_truncated;
    }

    Buffer kept;
    kept.rows = buf.rows.select_rows(keep);
    kept.origin_s = std::move(buf.origin_s);
    kept.parents = std::move(buf.parents);
    buf = std::move(kept);  // the sampled window is one run now; strata reset
    return 0.05 + 0.0002 * static_cast<double>(population);
  };
  report_.stage_reports.push_back(
      pipeline::run_stage("degrade(sample)", "edge-operator", Tier::kEdge, buf.rows, sample));

  const net::NodeId e = topo_.edge(edge_index);
  if (obsy_) {
    obsy_->flight().note(e, now_s, "degrade-sample", population, buf.rows.rows());
    record_series(NodeSeries::kSampledRows, e, now_s, static_cast<double>(buf.rows.rows()));
  }
}

void FleetSim::degrade_summary_flush(std::size_t edge_index, double now_s,
                                     int level) {
  Buffer& buf = edge_buffers_[edge_index];
  const std::size_t population = buf.rows.rows();
  const net::NodeId e = topo_.edge(edge_index);
  auto& d = report_.degradation;

  // Count + level + window stamp ride in every summary.
  std::size_t wire_bytes = net::kMessageHeaderBytes + 24;
  // The summary replaces the window: its rows leave `buf` inside the stage,
  // so the report reads 0 rows, columns and missing rate out, and are freed
  // with `shed` when the flush ends. Freeing them before the summary's send
  // raised perfbench fleet-wire's peak RSS by about 0.25 MB (seed 1, 4-vCPU
  // host).
  data::Dataset shed;
  auto summarize = [&] {
    double cost = 0.0;
    if (level == 2) {
      // L2 sketch-only reduce: the window collapses to a count-min tally of
      // rows per sender plus a bottom-k quantile sample of the first measured
      // quantity. Both are mergeable and byte-stable, so the core could fold
      // summaries from many edges in any order; the retained sample doubles
      // as the CI input.
      approx::CountMinSketch tally(kCountMinWidth, kCountMinDepth, config_.seed);
      std::size_t tiled = 0;
      for (const approx::Stratum& s : buf.strata) tiled += s.count;
      if (!buf.strata.empty() && tiled == population) {
        for (const approx::Stratum& s : buf.strata) tally.add(s.key, s.count);
      } else {
        tally.add(e, population);
      }
      approx::QuantileSketch quant(kSketchCapacity, config_.seed);
      const data::Column& col = buf.rows.column(1);
      const std::uint64_t key_base = static_cast<std::uint64_t>(e) << 32;
      for (std::size_t r = 0; r < population; ++r) {
        if (col.is_missing(r)) continue;
        quant.add(key_base | static_cast<std::uint64_t>(r), col.numeric(r));
      }

      std::size_t exact_n = 0;
      const double exact = column_mean(col, population, exact_n);
      const approx::Interval ci =
          approx::mean_interval(quant.sample_values(), exact_n);
      const bool covered = exact_n == 0 || ci.covers(exact);
      ++d.ci_windows;
      if (covered) ++d.ci_covered;
      d.ci_half_width_sum += ci.half_width;
      const double err = std::abs(ci.estimate - exact);
      d.abs_error_sum += err;
      d.max_abs_error = std::max(d.max_abs_error, err);
      if (d.windows.size() < kMaxWindowEstimates) {
        d.windows.push_back({edge_index, now_s, 2, population, quant.retained(),
                             ci.estimate, ci.half_width, exact, covered});
      } else {
        ++d.windows_truncated;
      }

      wire_bytes += tally.encode().size() + quant.encode().size();
      ++d.windows_sketch;
      cost = kSketchCostBase + kSketchCostPerRow * static_cast<double>(population);
    } else {
      // L3 summary-only: the edge reports a bare row count and sheds the
      // window; fresh deploy artifacts also stop relaying through it (see
      // handle_artifact_arrival).
      ++d.windows_summary;
      cost = 0.01;
    }
    d.rows_approx += population;
    d.rows_sampled_out += population;
    std::swap(shed, buf.rows);
    return cost;
  };
  report_.stage_reports.push_back(pipeline::run_stage(
      level == 2 ? "degrade(sketch-reduce)" : "degrade(summary-only)", "edge-operator",
      Tier::kEdge, buf.rows, summarize));

  if (obsy_) {
    obsy_->flight().note(e, now_s, "degrade-shed", population,
                         static_cast<std::size_t>(level));
    record_series(NodeSeries::kShedRows, e, now_s, static_cast<double>(population));
  }

  // Summary uplink, fixed-size. A lost summary only costs observability,
  // never rows, so an ack edge that knows its uplink (or the core) is dead
  // skips it rather than burn a retry schedule; over a live ack channel it
  // is retried like any frame.
  const std::size_t index = degrade_summaries_.size();
  degrade_summaries_.push_back({edge_index, level, wire_bytes,
                                static_cast<std::uint64_t>(population), false});
  ++d.summaries_sent;
  d.summary_bytes += wire_bytes;
  const bool ack = config_.channel.mode == net::ChannelMode::kAckRetry;
  if (!(ack && (!topo_.node(topo_.core()).up || !topo_.uplink(e).up()))) {
    send_frame({.stream = obs::HopStream::kSummary,
                .src = e,
                .dst = topo_.core(),
                .bytes = wire_bytes,
                .rows = population,
                .parents = buf.parents,
                .arrival = EventKind::kSummaryArrival,
                .message = index,
                .trace = summary_trace(index)},
               now_s);
  }

  // The window is answered: its rows leave the ledger as sampled-out, and
  // the checkpoint that covered them retires with the buffer.
  buf = Buffer{};
  edge_checkpoints_[edge_index] = Buffer{};
}

void FleetSim::handle_summary_arrival(const Event& event) {
  DegradeSummary& s = degrade_summaries_[event.message];
  const bool listening = topo_.node(topo_.core()).up;
  journey_arrive(summary_trace(event.message), obs::HopStream::kSummary, 0, topo_.core(),
                 event.time_s, s.rows_represented,
                 s.delivered ? "duplicate" : listening ? "accepted" : "dead_receiver");
  if (s.delivered || !listening) return;  // duplicated frame, or the summary dies
  s.delivered = true;
  ++report_.degradation.summaries_delivered;
  if (obsy_) {
    obsy_->flight().note(topo_.core(), event.time_s, "rx-summary",
                         static_cast<std::size_t>(s.rows_represented),
                         static_cast<std::size_t>(s.level));
  }
}

void FleetSim::set_load_storm(bool on, double now_s) {
  if (load_storm_ == on) return;  // overlapping storm windows
  load_storm_ = on;
  if (!on) return;
  ++report_.faults.load_storms;
  ++storm_epoch_;
  obs::registry().counter("sim.chaos.load_storms").add();
  // Compress every device's flush schedule: one storm-paced extra flush
  // chain per device. The chain carries the storm epoch, so flushes queued
  // by an already-ended storm die instead of reviving under a newer one.
  const double step = config_.device_flush_s / config_.chaos.load_storm_factor;
  for (std::size_t i = 0; i < config_.devices; ++i) {
    sched_.push(now_s + step, EventKind::kStormFlush, topo_.device(i),
                storm_epoch_);
  }
}

void FleetSim::handle_storm_flush(const Event& event) {
  if (!load_storm_ || event.message != storm_epoch_) return;  // storm over
  handle_device_flush(event);
  const double next =
      event.time_s + config_.device_flush_s / config_.chaos.load_storm_factor;
  if (next < config_.duration_s) {
    sched_.push(next, EventKind::kStormFlush, event.target, storm_epoch_);
  }
}

void FleetSim::degrade_settle(double now_s) {
  // Calm updates past the drain: each de-escalation rung needs a calm mark
  // plus a full dwell, so 2 updates per rung and 3 rungs = 6; run 8 for
  // margin. Controller-side only — no events, no draws, no wire bytes — so
  // L0-pinned and never-escalated runs are unaffected.
  for (int k = 1; k <= 8; ++k) {
    const double t =
        now_s + static_cast<double>(k) * config_.degrade.thresholds.dwell_s;
    for (std::size_t e = 0; e < config_.edges; ++e) {
      degrade_update(e, t, approx::DegradeSignals{});
    }
  }
}

void FleetSim::finalize_degradation() {
  auto& d = report_.degradation;
  for (std::size_t e = 0; e < config_.edges; ++e) {
    const approx::DegradationController& ctrl = degrade_ctrl_[e];
    EdgeDegradeTimeline timeline;
    timeline.edge = e;
    timeline.final_level = static_cast<int>(ctrl.level());
    for (std::size_t l = 0; l < 4; ++l) {
      timeline.time_at_level_s[l] = ctrl.time_at_level()[l];
    }
    for (const approx::LevelTransition& tr : ctrl.transitions()) {
      timeline.transitions.push_back(
          {e, tr.t_s, static_cast<int>(tr.from), static_cast<int>(tr.to)});
    }
    d.edges.push_back(std::move(timeline));
  }

  // Per-edge backpressure gauges — the raw signals behind the ladder,
  // visible even in pinned runs.
  for (std::size_t e = 0; e < config_.edges; ++e) {
    BackpressureGauge g;
    g.edge = e;
    const net::Channel& up = channels_[topo_.uplink_index(topo_.edge(e))];
    g.uplink_in_flight_highwater = up.in_flight_highwater();
    g.uplink_dead_letters = up.dead_letters();
    for (std::size_t i = e; i < config_.devices; i += config_.edges) {
      const net::Channel& ch = channels_[topo_.uplink_index(topo_.device(i))];
      g.device_in_flight_highwater =
          std::max(g.device_in_flight_highwater, ch.in_flight_highwater());
      g.device_dead_letters += ch.dead_letters();
    }
    g.sf_rows_highwater = static_cast<std::size_t>(degrade_sf_highwater_[e]);
    report_.faults.edge_gauges.push_back(g);
  }
}

void FleetSim::send(net::NodeId from, Buffer&& chunk, double now_s) {
  const std::size_t link_index = topo_.uplink_index(from);
  const net::NodeId to = topo_.next_hop(from);
  const std::size_t rows = chunk.rows.rows();
  const bool from_device = from < config_.devices;
  const bool ack = config_.channel.mode == net::ChannelMode::kAckRetry;

  std::vector<std::uint64_t> parents = std::move(chunk.parents);

  net::Message msg;
  msg.src = from;
  msg.dst = to;
  msg.sent_s = now_s;
  msg.trace.id = next_trace_++;
  msg.trace.hop = from_device ? 0 : 1;
  msg.origin_s = std::move(chunk.origin_s);
  msg.payload = std::move(chunk.rows);
  bool tdf_open = false;
  std::size_t tdf_legacy_bytes = 0;
  if (telemetry_on() && from_device) {
    // The device-side codec: quantize to the wire resolution (idempotent —
    // rows resent from store-and-forward are already quantized), price the
    // counterfactual legacy model over the same rows, then encode the real
    // frame. The checksum is stamped over the quantized rows, which is what
    // the edge's decode must reproduce byte-for-byte.
    tdf::quantize(msg.payload, config_.telemetry.scale_bits);
    for (double& o : msg.origin_s) {
      o = tdf::quantize_value(o, config_.telemetry.scale_bits);
    }
    tdf_legacy_bytes = net::kMessageHeaderBytes +
                       net::wire_size_bytes(msg.payload) +
                       8 * msg.origin_s.size();
    tdf_open = tdf_session_open_[from] == 0;
    msg.tdf_frame = telemetry_encode(from, msg.payload, msg.origin_s);
  }
  msg.checksum = net::payload_checksum(msg.payload);
  const std::size_t bytes = net::wire_size_bytes(msg);
  const Frame frame{.stream = obs::HopStream::kRows,
                    .hop = msg.trace.hop,
                    .src = from,
                    .dst = to,
                    .bytes = bytes,
                    .rows = rows,
                    .parents = parents,
                    .message = next_row_frame_,
                    .corrupt_lands = true,
                    .trace = msg.trace.id};

  // Put the rows back where they can survive after a failed reliable send:
  // a device store-and-forwards (or loses the window without a buffer), an
  // edge re-appends to its batch buffer for the next flush.
  auto keep_rows = [&](bool dead_letter) {
    if (from_device) {
      if (config_.device_buffer_rows > 0) {
        Buffer back;
        back.rows = std::move(msg.payload);
        back.origin_s = std::move(msg.origin_s);
        back.parents = std::move(parents);
        store(from, std::move(back));
      } else if (dead_letter) {
        report_.faults.rows_buffer_evicted += rows;
      } else {
        report_.rows_lost += rows;
      }
    } else {
      Buffer& buf = edge_buffers_[from - config_.devices];
      if (degrade_on()) {
        buf.strata.push_back({static_cast<std::uint32_t>(from), buf.rows.rows(), rows});
      }
      buf.rows.append_rows(msg.payload);
      buf.origin_s.insert(buf.origin_s.end(), msg.origin_s.begin(), msg.origin_s.end());
      buf.parents.insert(buf.parents.end(), parents.begin(), parents.end());
    }
  };
  auto note_send = [&](const char* outcome) {
    if (obsy_) obsy_->flight().note(from, now_s, outcome, rows, bytes);
  };

  // A stop-and-wait sender cannot complete a handshake with a crashed
  // receiver: fail fast and keep the rows rather than burning the full
  // retry schedule into a dead node. Fire-and-forget cannot know — it
  // transmits and the frame dies at the receiver (see handle_arrival).
  if (ack && !topo_.node(to).up) {
    journey_send(frame, now_s, 0.0, 0, "receiver_down");
    note_send("receiver_down");
    keep_rows(false);
    return;
  }

  const bool tdf_msg = !msg.tdf_frame.empty();
  // Ack-mode channels repair corrupt frames internally (reject + retransmit
  // before the outcome surfaces); snapshot the stats so those repairs land
  // in the telemetry ledger.
  std::uint64_t tdf_pre_rejects = 0;
  std::uint64_t tdf_pre_retrans = 0;
  if (tdf_msg && ack) {
    tdf_pre_rejects = channels_[link_index].stats().corrupt_rejected;
    tdf_pre_retrans = channels_[link_index].stats().retransmits;
  }
  const net::ChannelOutcome out = send_frame(frame, now_s);
  note_send(send_label(out, config_.channel.mode));
  if (degrade_on()) {
    // Fold the post-send queue depth into the owning edge's congestion
    // hint; its controller reads (and resets) the max at its next update.
    const std::size_t ei = (from_device ? to : from) - config_.devices;
    const double frac =
        static_cast<double>(channels_[link_index].in_flight(now_s)) /
        static_cast<double>(config_.channel.queue_capacity);
    degrade_queue_hint_[ei] = std::max(degrade_queue_hint_[ei], frac);
  }
  if (tdf_msg && ack) {
    report_.telemetry.frames_rejected +=
        channels_[link_index].stats().corrupt_rejected - tdf_pre_rejects;
    report_.telemetry.frames_retransmitted +=
        channels_[link_index].stats().retransmits - tdf_pre_retrans;
  }
  ++report_.messages_sent;
  static obs::Counter& messages = obs::registry().counter("sim.net.messages");
  static obs::Counter& wire_bytes = obs::registry().counter("sim.net.bytes");
  messages.add();
  wire_bytes.add(bytes);
  obs::Counter*& link_bytes = link_bytes_[link_index];
  if (link_bytes == nullptr) {
    link_bytes = &obs::registry().counter("net.link." + topo_.link(link_index).name() + ".bytes");
  }
  link_bytes->add(bytes);
  if (!out.accepted) {
    // Backpressure: the bounded send queue refused the message.
    ++report_.messages_dropped;
    obs::registry().counter("sim.net.dropped").add();
    flight_dump(from, "dead-letter", now_s);
    if (degrade_on()) {
      ++degrade_dead_letters_[(from_device ? to : from) - config_.devices];
    }
    keep_rows(true);
    return;
  }
  if (tdf_msg) {
    // The channel accepted the frame: the wire is charged whatever its fate,
    // and the counterfactual ledger charges the legacy model the same rows.
    auto& t = report_.telemetry;
    ++t.frames_sent;
    t.rows_encoded += rows;
    t.encoded_wire_bytes += bytes;
    t.legacy_wire_bytes += tdf_legacy_bytes;
    if (tdf_open) {
      // Session negotiation: the schema rides inline (2-byte length prefix +
      // blob) until one frame is known delivered intact.
      ++t.schema_negotiations;
      t.schema_bytes += 2 + tdf_schema_->encoded().size();
      if (out.delivered) tdf_session_open_[from] = 1;
    }
  }
  if (!out.delivered && !out.corrupted) {
    ++report_.messages_dropped;
    obs::registry().counter("sim.net.dropped").add();
    if (ack) {
      keep_rows(false);
    } else {
      report_.rows_lost += rows;
    }
    return;
  }
  // The frame landed (its arrival events are queued): hold it until the
  // last of them has.
  msg.id = frame.message;
  if (out.corrupted) {
    // Fire-and-forget only: the frame lands, but the wire flipped bits, so
    // the stamped checksum no longer matches what the receiver recomputes.
    if (tdf_msg) {
      // Wire damage hits the frame bytes themselves; the FNV-1a32 trailer
      // no longer matches and the edge rejects without decoding a cell.
      msg.tdf_frame[msg.tdf_frame.size() / 2] ^= 0x10;
    }
    msg.checksum ^= 1;
  }
  rows_in_flight_.emplace(frame.message,
                          RowsInFlight{.frame = std::move(msg),
                                       .parents = std::move(parents),
                                       .copies_left = out.duplicated ? 2 : 1});
  ++next_row_frame_;
}

net::ChannelOutcome FleetSim::send_frame(Frame frame, double now_s) {
  if (frame.trace == 0) frame.trace = next_trace_++;
  // Node ids grow device -> edge -> core, so a frame climbing the tree
  // rides its sender's uplink and one descending rides its receiver's
  // downlink.
  const std::size_t link = frame.src < frame.dst ? topo_.uplink_index(frame.src)
                                                 : topo_.downlink_index(frame.dst);
  net::Channel& channel = channels_[link];
  const net::ChannelOutcome out = channel.send(now_s, frame.bytes, link_rngs_[link]);
  journey_send(frame, now_s, out.arrival_s, out.attempts, send_label(out, channel.mode()));

  EventKind landed = frame.arrival;
  if (!out.delivered) {
    if (!out.corrupted || !frame.corrupt_lands) return out;
    landed = EventKind::kCorruptArrival;
  }
  sched_.push(out.arrival_s, landed, frame.dst, frame.message);
  if (out.duplicated) {
    sched_.push(out.duplicate_arrival_s, landed, frame.dst, frame.message);
  }
  return out;
}

void FleetSim::land_row_frame(const Event& event) {
  const auto it = rows_in_flight_.find(event.message);
  IOTML_INTERNAL_CHECK(it != rows_in_flight_.end(),
                       "FleetSim: a row frame landed more copies than were sent");
  RowsInFlight& entry = it->second;
  const net::Message& msg = entry.frame;
  if (entry.landed) {
    ++report_.duplicates_discarded;
    obs::registry().counter("sim.net.duplicates_discarded").add();
    journey_arrive(msg.trace.id, obs::HopStream::kRows, msg.trace.hop, event.target,
                   event.time_s, msg.payload.rows(), "duplicate");
  } else if (event.kind == EventKind::kArrival) {
    handle_arrival(event, msg, entry.parents);
  } else {
    handle_corrupt_arrival(event, msg);
  }
  entry.landed = true;
  if (--entry.copies_left == 0) rows_in_flight_.erase(event.message);
}

void FleetSim::handle_arrival(const Event& event, const net::Message& msg,
                              std::span<const std::uint64_t> parents) {
  const net::NodeId node = event.target;
  // Receivers verify every frame: an intact arrival must re-hash to its
  // stamped checksum (corrupt frames come in as kCorruptArrival instead).
  IOTML_INTERNAL_CHECK(net::payload_checksum(msg.payload) == msg.checksum,
                       "FleetSim: intact arrival failed checksum verification");
  if (!topo_.node(node).up) {
    // The receiver crashed while the frame was in flight: nobody is
    // listening, and the rows die with the dead node.
    report_.faults.rows_lost_to_crash += msg.payload.rows();
    obs::registry().counter("sim.faults.rows_lost_to_crash").add(msg.payload.rows());
    journey_arrive(msg.trace.id, obs::HopStream::kRows, msg.trace.hop, node,
                   event.time_s, msg.payload.rows(), "dead_receiver");
    return;
  }
  const double hop_latency_s = event.time_s - msg.sent_s;
  journey_arrive(msg.trace.id, obs::HopStream::kRows, msg.trace.hop, node,
                 event.time_s, msg.payload.rows(), "accepted");
  if (node == topo_.core()) {
    lat_edge_core_.record(hop_latency_s);
    for (double origin : msg.origin_s) lat_end_to_end_.record(event.time_s - origin);
    if (obsy_) {
      obsy_->flight().note(node, event.time_s, "rx-rows", msg.payload.rows(), msg.trace.id);
      record_series(NodeSeries::kUplinkLatency, node, event.time_s, hop_latency_s);
      record_series(NodeSeries::kUplinkRows, node, event.time_s,
             static_cast<double>(msg.payload.rows()));
    }
    report_.rows_delivered += msg.payload.rows();
    core_buffer_.rows.append_rows(msg.payload);
  } else {
    lat_device_edge_.record(hop_latency_s);
    if (obsy_) {
      obsy_->flight().note(node, event.time_s, "rx-rows", msg.payload.rows(), msg.trace.id);
      record_series(NodeSeries::kUplinkLatency, node, event.time_s, hop_latency_s);
      record_series(NodeSeries::kUplinkRows, node, event.time_s,
             static_cast<double>(msg.payload.rows()));
    }
    Buffer& buf = edge_buffers_[node - config_.devices];
    if (degrade_on()) {
      buf.strata.push_back({static_cast<std::uint32_t>(msg.src), buf.rows.rows(),
                            msg.payload.rows()});
    }
    if (!msg.tdf_frame.empty()) {
      // The decode is load-bearing: the edge reconstructs the rows from the
      // wire bytes and feeds *those* into its sub-pipeline. The
      // reconstruction must hash to the checksum the device stamped over
      // what it encoded — decode errors can never slip downstream.
      tdf::Frame f = tdf::decode_frame(msg.tdf_frame, tdf_registry_);
      IOTML_INTERNAL_CHECK(
          net::payload_checksum(f.rows) == msg.checksum,
          "FleetSim: TDF decode does not reproduce the device's rows");
      ++report_.telemetry.frames_delivered;
      report_.telemetry.rows_decoded += f.rows.rows();
      buf.rows.append_rows(f.rows);
      buf.origin_s.insert(buf.origin_s.end(), f.origin_s.begin(),
                          f.origin_s.end());
    } else {
      buf.rows.append_rows(msg.payload);
      buf.origin_s.insert(buf.origin_s.end(), msg.origin_s.begin(), msg.origin_s.end());
    }
    buf.parents.insert(buf.parents.end(), parents.begin(), parents.end());
  }
}

void FleetSim::handle_corrupt_arrival(const Event& event, const net::Message& msg) {
  const net::NodeId node = event.target;
  // The receiver recomputes the checksum over what the wire delivered and
  // rejects the frame on mismatch: corrupt rows are counted, never scored.
  IOTML_INTERNAL_CHECK(net::payload_checksum(msg.payload) != msg.checksum,
                       "FleetSim: corrupt arrival passed checksum verification");
  if (!msg.tdf_frame.empty()) {
    // The damage lives in the frame bytes: the trailer checksum must catch
    // it before a decode is even attempted.
    IOTML_INTERNAL_CHECK(!tdf::frame_intact(msg.tdf_frame),
                         "FleetSim: corrupt TDF frame passed its trailer check");
    ++report_.telemetry.frames_rejected;
  }
  report_.faults.rows_corrupt_rejected += msg.payload.rows();
  obs::registry().counter("sim.net.rows_corrupt_rejected").add(msg.payload.rows());
  journey_arrive(msg.trace.id, obs::HopStream::kRows, msg.trace.hop, node,
                 event.time_s, msg.payload.rows(), "corrupt_rejected");
  if (obsy_) {
    obsy_->flight().note(node, event.time_s, "rx-corrupt", msg.payload.rows(), msg.trace.id);
  }
}

void FleetSim::handle_checkpoint(std::size_t edge_index) {
  if (!topo_.node(topo_.edge(edge_index)).up) return;  // crashed edges can't persist
  const Buffer& buf = edge_buffers_[edge_index];
  edge_checkpoints_[edge_index] = buf;
  ++report_.faults.checkpoints_written;
  obs::registry().counter("sim.recovery.checkpoints_written").add();
  if (obsy_) {
    obsy_->flight().note(topo_.edge(edge_index), sched_.now_s(), "checkpoint",
                         buf.rows.rows());
  }
}

void FleetSim::handle_edge_crash(std::size_t edge_index) {
  net::NodeInfo& n = topo_.node(topo_.edge(edge_index));
  if (!n.up) return;  // already down (overlapping crash windows)
  n.up = false;
  ++report_.faults.edge_crashes;
  obs::registry().counter("sim.faults.edge_crash").add();
  // The black box survives the crash: dump the edge's recent events into
  // the fault ledger before its volatile state is wiped.
  flight_dump(topo_.edge(edge_index), "edge-crash", sched_.now_s());
  // Volatile state dies with the process: everything integrated since the
  // last checkpoint is gone. The checkpoint itself is durable storage.
  Buffer& buf = edge_buffers_[edge_index];
  const std::size_t persisted =
      std::min(edge_checkpoints_[edge_index].rows.rows(), buf.rows.rows());
  report_.faults.rows_lost_to_crash += buf.rows.rows() - persisted;
  obs::registry().counter("sim.faults.rows_lost_to_crash").add(buf.rows.rows() - persisted);
  buf = Buffer{};
}

void FleetSim::handle_edge_restart(std::size_t edge_index) {
  net::NodeInfo& n = topo_.node(topo_.edge(edge_index));
  if (n.up) return;  // already restarted (overlapping crash windows)
  n.up = true;
  const Buffer& ckpt = edge_checkpoints_[edge_index];
  if (ckpt.rows.rows() == 0) return;
  Buffer& buf = edge_buffers_[edge_index];
  IOTML_INTERNAL_CHECK(buf.rows.rows() == 0,
                       "FleetSim: restart over a live edge buffer");
  buf = ckpt;
  ++report_.faults.checkpoints_restored;
  report_.faults.rows_recovered += ckpt.rows.rows();
  obs::registry().counter("sim.recovery.checkpoints_restored").add();
  obs::registry().counter("sim.recovery.rows_recovered").add(ckpt.rows.rows());
}

void FleetSim::set_partition(bool on) {
  if (partitioned_ == on) return;
  partitioned_ = on;
  if (on) {
    ++report_.faults.partitions;
    obs::registry().counter("sim.chaos.partitions").add();
    // The core just lost its edges: its recent traffic is the context an
    // operator wants first.
    flight_dump(topo_.core(), "partition", sched_.now_s());
  }
  // Sever (or restore) every edge<->core link, both directions. An ending
  // partition restores the links wholesale; an independent link outage
  // still active at that instant is subsumed (its up event was suppressed).
  for (std::size_t l = 0; l < topo_.num_links(); ++l) {
    if (core_link_[l] != 0) topo_.link(l).set_up(!on);
  }
}

void FleetSim::set_loss_burst(bool on) {
  if (on) {
    ++report_.faults.loss_bursts;
    obs::registry().counter("sim.chaos.loss_bursts").add();
  }
  // The burst hits the device radio tier: every link that is not an
  // edge<->core trunk (device uplinks, and edge->device downlinks if the
  // broadcast direction exists).
  for (std::size_t l = 0; l < topo_.num_links(); ++l) {
    if (core_link_[l] == 0) {
      topo_.link(l).set_drop_prob(on ? config_.chaos.burst_drop_prob
                                     : base_drop_prob_[l]);
    }
  }
}

void FleetSim::set_corruption_storm(bool on) {
  if (on) {
    ++report_.faults.corruption_storms;
    obs::registry().counter("sim.chaos.corruption_storms").add();
  }
  for (std::size_t l = 0; l < topo_.num_links(); ++l) {
    if (core_link_[l] == 0) {
      topo_.link(l).set_corrupt_prob(on ? config_.chaos.storm_corrupt_prob
                                        : base_corrupt_prob_[l]);
    }
  }
}

std::vector<std::uint8_t> FleetSim::telemetry_encode(
    net::NodeId device, const data::Dataset& ds,
    const std::vector<double>& origin_s) {
  if (!tdf_schema_) {
    tdf_schema_ = tdf::Schema::infer(ds, config_.telemetry.scale_bits);
    // The edge learns the schema from the session-open frame it decodes;
    // registering the same bytes here as well keeps decode independent of
    // arrival order under latency jitter (registration is idempotent, and
    // the ledger still charges every inline negotiation).
    tdf_registry_.add(*tdf_schema_);
    report_.telemetry.schema_id = tdf_schema_->id();
    report_.telemetry.schema_fields = tdf_schema_->size();
  }
  const bool include_schema = tdf_session_open_[device] == 0;
  return tdf::encode_frame(*tdf_schema_, ds, origin_s,
                           util::narrow_u32(device, "telemetry device id"),
                           tdf_seq_[device]++, include_schema);
}

void FleetSim::store(net::NodeId device, Buffer&& chunk) {
  Backlog& backlog = backlogs_[device];
  std::size_t bytes = 0;
  if (telemetry_on()) {
    // Quantize on entry so the sizing encode sees exactly what a later send
    // re-encodes (quantization is idempotent).
    tdf::quantize(chunk.rows, config_.telemetry.scale_bits);
    for (double& o : chunk.origin_s) {
      o = tdf::quantize_value(o, config_.telemetry.scale_bits);
    }
    bytes = telemetry_encode(device, chunk.rows, chunk.origin_s).size();
  }
  backlog.rows += chunk.rows.rows();
  backlog.bytes += bytes;
  backlog.chunks.push_back({std::move(chunk), bytes});
  auto evict_oldest = [&] {
    const Backlog::Chunk& oldest = backlog.chunks.front();
    const std::size_t rows = oldest.buffer.rows.rows();
    backlog.rows -= rows;
    backlog.bytes -= oldest.bytes;
    if (telemetry_on()) {
      ++report_.telemetry.log_frames_evicted;
      report_.telemetry.log_rows_evicted += rows;
    }
    report_.faults.rows_buffer_evicted += rows;
    obs::registry().counter("sim.recovery.rows_evicted").add(rows);
    backlog.chunks.pop_front();
  };
  // A chunk is the unit of the backlog (a flash ring cannot ship half a
  // frame), so the newest one stays whole even when it alone is over a bound.
  while (backlog.bytes > config_.telemetry.device_log_bytes && backlog.chunks.size() > 1) {
    evict_oldest();
  }
  backlog.highwater_bytes = std::max(backlog.highwater_bytes, backlog.bytes);
  while (backlog.rows > config_.device_buffer_rows && backlog.chunks.size() > 1) {
    evict_oldest();
  }
}

void FleetSim::journey_origin(std::uint64_t trace, obs::HopStream stream, net::NodeId node,
                              double t_s, std::size_t rows, std::size_t bytes) {
  if (!obsy_) return;
  obs::HopRecord r;
  r.trace = trace;
  r.kind = obs::HopKind::kOrigin;
  r.stream = stream;
  r.src = node;
  r.dst = node;
  r.t0_s = t_s;
  r.t1_s = t_s;
  r.rows = rows;
  r.bytes = bytes;
  obsy_->journeys().record(r);
}

void FleetSim::journey_send(const Frame& frame, double t0_s, double t1_s,
                            std::size_t attempts, const char* outcome) {
  if (!obsy_) return;
  obs::HopRecord r;
  r.trace = frame.trace;
  r.hop = frame.hop;
  r.kind = obs::HopKind::kSend;
  r.stream = frame.stream;
  r.src = frame.src;
  r.dst = frame.dst;
  r.t0_s = t0_s;
  r.t1_s = t1_s;
  r.rows = frame.rows;
  r.bytes = frame.bytes;
  r.attempts = static_cast<std::uint32_t>(attempts);
  r.outcome = outcome;
  r.parents.assign(frame.parents.begin(), frame.parents.end());
  obsy_->journeys().record(r);
}

void FleetSim::journey_arrive(std::uint64_t trace, obs::HopStream stream,
                              std::uint32_t hop, net::NodeId node, double t_s,
                              std::size_t rows, const char* outcome) {
  if (!obsy_) return;
  obs::HopRecord r;
  r.trace = trace;
  r.hop = hop;
  r.kind = obs::HopKind::kArrive;
  r.stream = stream;
  r.src = node;
  r.dst = node;
  r.t0_s = t_s;
  r.t1_s = t_s;
  r.rows = rows;
  r.outcome = outcome;
  obsy_->journeys().record(r);
}

void FleetSim::flight_dump(net::NodeId entity, const char* trigger, double t_s) {
  if (!obsy_) return;
  FaultLedger& faults = report_.faults;
  if (faults.flight_dumps.size() >= kMaxFlightDumps) {
    ++faults.flight_dumps_truncated;
    return;
  }
  FlightDump dump;
  dump.entity = topo_.node(entity).name;
  dump.trigger = trigger;
  dump.t_s = t_s;
  dump.events = obsy_->flight().dump_lines(entity);
  faults.flight_dumps.push_back(std::move(dump));
}

void FleetSim::record_series(NodeSeries which, net::NodeId node, double t_s, double value) {
  static constexpr const char* kMetric[kNodeSeries] = {
      "buffer.rows",       "degrade.level",    "degrade.sampled_rows",
      "degrade.shed_rows", "uplink.latency_s", "uplink.rows"};
  const auto index = static_cast<std::size_t>(which);
  obs::Sampler*& sampler = node_series_[node - config_.devices][index];
  if (sampler == nullptr) {
    const net::NodeInfo& info = topo_.node(node);
    sampler = &obsy_->series().series(kMetric[index], info.name, pipeline::tier_name(info.tier));
  }
  sampler->record(t_s, value);
}

void FleetSim::finalize() {
  for (const Buffer& buf : edge_buffers_) report_.rows_stranded += buf.rows.rows();
  // An undrained backlog is the device-side mirror of an edge's stranded
  // buffer. Without telemetry every backlog weighs 0 bytes.
  for (const Backlog& backlog : backlogs_) {
    report_.rows_stranded += backlog.rows;
    report_.telemetry.log_highwater_bytes = std::max<std::uint64_t>(
        report_.telemetry.log_highwater_bytes, backlog.highwater_bytes);
  }
  // Deploy runs keep post-window rows on-device for local scoring; they are
  // accounted as retained, not lost.
  if (config_.deploy.enabled) {
    for (std::size_t dvc = 0; dvc < config_.devices; ++dvc) {
      report_.faults.rows_retained += device_data_[dvc].rows() - device_cursor_[dvc];
    }
  }
  if (core_buffer_.rows.rows() == 0) return;

  data::Dataset ds = tiers_.core.run(labeled_core_rows(), core_rng_);
  for (const StageReport& r : tiers_.core.reports()) {
    report_.stage_reports.push_back(r);
  }

  auto analyze = [&] {
    const data::Dataset features = sensor_features(ds);
    std::vector<std::size_t> train_idx;
    std::vector<std::size_t> test_idx;
    for (std::size_t i = 0; i < features.rows(); ++i) {
      (i % 4 == 3 ? test_idx : train_idx).push_back(i);
    }
    if (train_idx.empty() || test_idx.empty()) return 0.0;
    const data::Dataset train = features.select_rows(train_idx);
    const data::Dataset test = features.select_rows(test_idx);
    learners::DecisionTree tree;
    tree.fit(train);
    report_.accuracy = tree.accuracy(test);
    report_.train_rows = train.rows();
    report_.test_rows = test.rows();
    if (config_.deploy.enabled) {
      deploy_train_ = train;
      deploy_test_ = test;
    }
    return static_cast<double>(tree.node_count());
  };
  report_.stage_reports.push_back(pipeline::run_stage(
      "analytics(decision-tree)", "core-operator", Tier::kCore, ds, analyze));
}

data::Dataset FleetSim::labeled_core_rows() const {
  data::Dataset ds = time_ordered(core_buffer_.rows);
  std::vector<int> labels;
  labels.reserve(ds.rows());
  for (std::size_t r = 0; r < ds.rows(); ++r) {
    labels.push_back(truth_label(ds.column(0).numeric(r)));
  }
  ds.set_labels(std::move(labels));
  return ds;
}

int FleetSim::truth_label(double time_s) const {
  // The analytics concept of the Fig. 1 example: "comfortable" iff the true
  // temperature at that instant lies in [20, 28].
  const double temp = truths_[0](time_s);
  return temp >= 20.0 && temp <= 28.0 ? 1 : 0;
}

namespace {

deploy::CompiledModel compile_for(deploy::ModelKind kind, const data::Dataset& train) {
  switch (kind) {
    case deploy::ModelKind::kTree: {
      learners::DecisionTree tree;
      tree.fit(train);
      return deploy::compile(tree, train);
    }
    case deploy::ModelKind::kLinear: {
      learners::LogisticRegression lr;
      lr.fit(train);
      return deploy::compile(lr, train);
    }
    case deploy::ModelKind::kNaiveBayes: {
      learners::NaiveBayes nb;
      nb.fit(train);
      return deploy::compile(nb, train);
    }
  }
  return {};
}

}  // namespace

void FleetSim::prepare_deploy() {
  obs::Span span("sim.deploy_prepare", "deploy");
  DeploySummary& d = report_.deploy;
  d.enabled = true;
  d.model = deploy::model_kind_name(config_.deploy.model);
  d.precision = deploy::precision_name(config_.deploy.precision);
  // Nothing reached the core, or the window saw a single class: no model
  // worth shipping. The summary stays enabled with every device missed.
  if (deploy_train_.rows() == 0 || deploy_test_.rows() == 0) return;

  deploy::CompiledModel f32 = compile_for(config_.deploy.model, deploy_train_);
  d.artifact_bytes_float32 = f32.size_bytes();
  if (config_.deploy.precision == deploy::Precision::kFloat32) {
    d.holdout_accuracy_float = deploy::holdout_accuracy(f32, deploy_test_);
    d.holdout_accuracy_deployed = d.holdout_accuracy_float;
    deployed_model_ = std::move(f32);
  } else {
    const deploy::QuantizationReport q = deploy::quantize_with_report(
        f32, config_.deploy.precision, deploy_test_, &deployed_model_);
    d.holdout_accuracy_float = q.holdout_accuracy_float;
    d.holdout_accuracy_deployed = q.holdout_accuracy_quantized;
  }
  d.artifact_bytes_deployed = deployed_model_.size_bytes();
  const deploy::InferenceCost cost = deployed_model_.cost_per_row();
  d.cost_multiply_adds = cost.multiply_adds;
  d.cost_comparisons = cost.comparisons;
  d.cost_table_lookups = cost.table_lookups;
  // The broadcast ships the real encoded bytes, framed like any message.
  artifact_wire_bytes_ = net::kMessageHeaderBytes + d.artifact_bytes_deployed;
  device_runtime_.emplace(deployed_model_);

  if (config_.deploy.stale_fallback) {
    // The prior epoch's artifact: what the previous deployment round would
    // have compiled, here approximated as the model learned from the first
    // half of the training window. Devices the fresh broadcast never
    // reaches keep scoring with this instead of going dark.
    const std::size_t half = deploy_train_.rows() / 2;
    if (half >= 2) {
      std::vector<std::size_t> idx(half);
      std::iota(idx.begin(), idx.end(), std::size_t{0});
      deploy::CompiledModel prior =
          compile_for(config_.deploy.model, deploy_train_.select_rows(idx));
      if (config_.deploy.precision == deploy::Precision::kFloat32) {
        stale_model_ = std::move(prior);
      } else {
        deploy::quantize_with_report(prior, config_.deploy.precision, deploy_test_,
                                     &stale_model_);
      }
      stale_runtime_.emplace(stale_model_);
    }
  }
}

void FleetSim::run_deploy_phase() {
  prepare_deploy();
  if (device_runtime_) {
    const double t0 = std::max(sched_.now_s(), config_.duration_s);
    sched_.push(t0, EventKind::kDeployBroadcast, topo_.core());
    if (config_.chaos.crash_during_broadcast && config_.edges > 0) {
      // The chaos harness's timed scenario: edge 0 dies the instant the
      // broadcast leaves the core and returns after the configured
      // downtime. Its devices miss the fresh artifact and must fall back
      // to the prior epoch's (DeployConfig::stale_fallback).
      sched_.push(t0, EventKind::kEdgeCrash, 0);
      sched_.push(t0 + config_.chaos.broadcast_crash_downtime_s,
                  EventKind::kEdgeRestart, 0);
    }
    while (!sched_.empty()) handle(sched_.pop());
  }
  if (stale_runtime_) {
    // Degraded mode: every online device the fresh broadcast never reached
    // serves the prior epoch's artifact; staleness is ledgered.
    const double t1 = std::max(sched_.now_s(), config_.duration_s);
    for (std::size_t i = 0; i < config_.devices; ++i) {
      const net::NodeId dev = topo_.device(i);
      if (device_scored_[i] == 0 && topo_.node(dev).up) {
        score_on_device(dev, t1, /*stale=*/true);
      }
    }
    while (!sched_.empty()) handle(sched_.pop());
  }
  DeploySummary& d = report_.deploy;
  d.devices_missed = config_.devices - d.devices_deployed - d.devices_stale;
  d.device_accuracy =
      d.predictions_delivered == 0
          ? 0.0
          : static_cast<double>(d.predictions_correct) /
                static_cast<double>(d.predictions_delivered);
  report_.faults.stale_model_devices = d.devices_stale;
}

void FleetSim::handle_deploy_broadcast(const Event& event) {
  if (!topo_.node(topo_.core()).up) {
    // The core is down at broadcast time: no fresh artifact leaves it, and
    // the whole fleet serves the prior epoch's model (stale fallback).
    obs::registry().counter("deploy.broadcasts_skipped").add();
    return;
  }
  obs::registry().counter("deploy.broadcasts").add();
  // The broadcast's root trace id: every downlink frame of this epoch lists
  // it as parent, so fleetscope can reconstruct the artifact's journey.
  broadcast_trace_ = next_trace_++;
  journey_origin(broadcast_trace_, obs::HopStream::kArtifact, topo_.core(), event.time_s,
                 0, artifact_wire_bytes_);
  if (obsy_) {
    obsy_->flight().note(topo_.core(), event.time_s, "broadcast", config_.edges,
                         artifact_wire_bytes_);
  }
  for (std::size_t j = 0; j < config_.edges; ++j) {
    send_artifact(topo_.edge(j), event.time_s);
  }
}

void FleetSim::send_artifact(net::NodeId to, double now_s) {
  // The sender's radio spends the bytes whether or not the wire delivers.
  report_.deploy.downlink_bytes += artifact_wire_bytes_;
  obs::registry().counter("deploy.artifact_sends").add();
  obs::registry().counter("deploy.downlink_bytes").add(artifact_wire_bytes_);
  const net::ChannelOutcome out =
      send_frame({.stream = obs::HopStream::kArtifact,
                  .hop = to >= config_.devices ? 0U : 1U,  // core->edge, then edge->device
                  .src = topo_.next_hop(to),
                  .dst = to,
                  .bytes = artifact_wire_bytes_,
                  .parents = {&broadcast_trace_, 1},
                  .arrival = EventKind::kArtifactArrival},
                 now_s);
  if (out.corrupted) {
    // The artifact frame fails its checksum at the receiver, which keeps
    // its prior model rather than binding corrupt parameters.
    obs::registry().counter("deploy.artifact_corrupt_rejected").add();
  }
}

void FleetSim::handle_artifact_arrival(const Event& event) {
  const net::NodeId node = event.target;
  const std::uint32_t hop = node >= config_.devices ? 0 : 1;
  if (artifact_seen_[node] != 0) {
    obs::registry().counter("deploy.duplicates_discarded").add();
    journey_arrive(broadcast_trace_, obs::HopStream::kArtifact, hop, node,
                   event.time_s, 0, "duplicate");
    return;
  }
  artifact_seen_[node] = 1;
  if (obsy_ && topo_.node(node).up) {
    obsy_->flight().note(node, event.time_s, "rx-artifact", artifact_wire_bytes_);
  }
  journey_arrive(broadcast_trace_, obs::HopStream::kArtifact, hop, node, event.time_s,
                 0, topo_.node(node).up ? "accepted" : "dead_receiver");
  if (node >= config_.devices) {
    // An edge: relay the artifact to every attached device (a down edge
    // strands the broadcast; its devices end up in devices_missed).
    if (!topo_.node(node).up) return;
    const std::size_t j = node - config_.devices;
    if (degrade_on() &&
        degrade_ctrl_[j].level() == approx::DegradeLevel::kSummary) {
      // L3 summary-only: the edge sheds artifact relays along with rows; its
      // devices keep serving the stale fallback (or land in devices_missed).
      ++report_.degradation.artifact_relays_skipped;
      obs::registry().counter("sim.degrade.artifact_relays_skipped").add();
      return;
    }
    for (std::size_t i = 0; i < config_.devices; ++i) {
      if (i % config_.edges == j) send_artifact(topo_.device(i), event.time_s);
    }
    return;
  }
  if (!topo_.node(node).up) return;  // churn: device offline at arrival
  score_on_device(node, event.time_s, /*stale=*/false);
}

void FleetSim::score_on_device(net::NodeId device, double now_s, bool stale) {
  DeploySummary& d = report_.deploy;
  std::optional<deploy::DeviceRuntime>& slot = stale ? stale_runtime_ : device_runtime_;
  IOTML_CHECK(slot.has_value(),
              "FleetSim::score_on_device: runtime not compiled before scoring");
  deploy::DeviceRuntime& runtime = *slot;
  if (stale) {
    ++d.devices_stale;
    obs::registry().counter("sim.recovery.stale_model_serves").add();
  } else {
    ++d.devices_deployed;
    device_scored_[device] = 1;
    obs::registry().counter("deploy.devices_deployed").add();
  }

  const data::Dataset& all = device_data_[device];
  const std::size_t begin = device_cursor_[device];
  const std::size_t count = all.rows() - begin;
  if (count == 0) return;

  runtime.bind(all);
  PredBatch batch;
  batch.device = device;
  batch.rows = count;
  for (std::size_t r = begin; r < all.rows(); ++r) {
    const int pred = runtime.predict_row(all, r);
    if (pred == truth_label(all.column(0).numeric(r))) ++batch.correct;
  }
  if (stale) {
    d.rows_scored_stale += count;
    obs::registry().counter("sim.recovery.rows_scored_stale").add(count);
  } else {
    d.rows_scored += count;
    obs::registry().counter("deploy.rows_scored").add(count);
  }

  // Counterfactual: what uplinking these raw rows (the pre-deployment
  // regime) would have cost. The payload crosses both hops; edge batching
  // would amortize the second header, which this deliberately ignores —
  // the payload bytes dominate.
  std::vector<std::size_t> idx(count);
  std::iota(idx.begin(), idx.end(), begin);
  net::Message raw;
  raw.payload = all.select_rows(idx);
  raw.origin_s = {now_s};
  d.uplink_raw_bytes += 2 * net::wire_size_bytes(raw);

  // One bit per prediction on the wire, plus a u32 row count. Ground truth
  // never travels: the core evaluates against labels it already knows.
  batch.wire_bytes = net::kMessageHeaderBytes + 4 + (count + 7) / 8;
  batch.trace = next_trace_++;
  pred_batches_.push_back(batch);
  journey_origin(batch.trace, obs::HopStream::kPredictions, device, now_s, count,
                 batch.wire_bytes);
  if (obsy_) {
    obsy_->flight().note(device, now_s, stale ? "score-stale" : "score", count);
  }
  send_predictions(device, pred_batches_.size() - 1, now_s);
}

void FleetSim::send_predictions(net::NodeId from, std::size_t batch, double now_s) {
  const std::size_t bytes = pred_batches_[batch].wire_bytes;
  report_.deploy.uplink_prediction_bytes += bytes;
  obs::registry().counter("deploy.prediction_bytes").add(bytes);
  const net::ChannelOutcome out =
      send_frame({.stream = obs::HopStream::kPredictions,
                  .hop = from < config_.devices ? 0U : 1U,
                  .src = from,
                  .dst = topo_.next_hop(from),
                  .bytes = bytes,
                  .rows = pred_batches_[batch].rows,
                  .parents = {&pred_batches_[batch].trace, 1},
                  .arrival = EventKind::kPredictionArrival,
                  .message = batch},
                 now_s);
  if (out.corrupted) {
    // A corrupt prediction batch is rejected at the receiver; predictions
    // are best-effort telemetry and are not retried in fire-and-forget mode.
    obs::registry().counter("deploy.prediction_corrupt_rejected").add();
  }
}

void FleetSim::handle_prediction_arrival(const Event& event) {
  const net::NodeId node = event.target;
  const std::uint32_t hop = node == topo_.core() ? 1 : 0;
  const PredBatch& batch = pred_batches_[event.message];
  if (!pred_seen_[node].insert(event.message).second) {
    obs::registry().counter("deploy.duplicates_discarded").add();
    journey_arrive(batch.trace, obs::HopStream::kPredictions, hop, node, event.time_s,
                   batch.rows, "duplicate");
    return;
  }
  if (node == topo_.core()) {
    report_.deploy.predictions_delivered += batch.rows;
    report_.deploy.predictions_correct += batch.correct;
    obs::registry().counter("deploy.predictions_delivered").add(batch.rows);
    journey_arrive(batch.trace, obs::HopStream::kPredictions, hop, node, event.time_s,
                   batch.rows, "accepted");
    if (obsy_) {
      obsy_->flight().note(node, event.time_s, "rx-predictions", batch.rows);
    }
    return;
  }
  journey_arrive(batch.trace, obs::HopStream::kPredictions, hop, node, event.time_s,
                 batch.rows, topo_.node(node).up ? "accepted" : "dead_receiver");
  if (!topo_.node(node).up) return;  // stranded at a down edge
  send_predictions(node, event.message, event.time_s);
}

// ---- OTA delta updates (DESIGN.md §14) ------------------------------------

namespace {

/// Resume rounds (re-sends of a transfer's missing chunks) before it falls
/// back to the full image, then full-image rounds before the device is
/// ledgered stuck for that epoch.
constexpr int kMaxResumeRounds = 3;
constexpr int kMaxFullRounds = 2;
/// Resume timer: the simulator's stand-in for a NACK round.
constexpr double kResumeTimeoutS = 2.0;
/// Rollout start to canary verdict: time for chunks, commits and probe
/// reports to cross the tree once.
constexpr double kVerdictDelayS = 6.0;
constexpr std::size_t kProbeRows = 32;    ///< recent rows a canary scores with both models
constexpr double kEpochJitterS = 0.5;     ///< retrain jitter bound (`epoch` stream)
constexpr std::size_t kMinTrainRows = 8;  ///< fewer labeled core rows: outcome "no-data"

}  // namespace

void FleetSim::schedule_ota_epochs() {
  // Epochs fire *inside* the learning window, evenly spaced at
  // duration * (e+1)/(epochs+1), plus a seeded jitter that desynchronizes
  // retrains from the flush schedule — so chaos windows genuinely overlap
  // patch transfers.
  for (int e = 0; e < config_.ota.epochs; ++e) {
    const double base = config_.duration_s * static_cast<double>(e + 1) /
                        static_cast<double>(config_.ota.epochs + 1);
    const double jitter = epoch_rng_.uniform(0.0, kEpochJitterS);
    sched_.push(base + jitter, EventKind::kOtaEpoch, topo_.core(),
                static_cast<std::size_t>(e));
  }
}

void FleetSim::handle_ota_epoch(const Event& event) {
  OtaSummary& ota = report_.deploy.ota;
  const int epoch = static_cast<int>(event.message);

  // Newest version wins. In-flight transfers for older rollouts stop (their
  // chunks count as stale on arrival), and a rollout still waiting on its
  // verdict is superseded outright — its canaries simply join this epoch's
  // base population, one version behind.
  for (std::size_t d = 0; d < config_.devices; ++d) {
    const std::size_t t = ota_active_transfer_[d];
    if (t != kNoMessage) ota_transfers_[t].done = true;
  }
  for (OtaRollout& prior : ota_rollouts_) {
    if (!prior.verdict_issued) {
      prior.verdict_issued = true;
      ota.epochs_log[prior.entry].outcome = "superseded";
    }
  }

  ota.epochs_log.push_back({});
  OtaEpochEntry& entry = ota.epochs_log.back();
  entry.epoch = epoch;
  entry.t_s = event.time_s;

  if (!topo_.node(topo_.core()).up) {
    entry.outcome = "core-down";
    return;
  }
  if (core_buffer_.rows.rows() < kMinTrainRows) {
    entry.outcome = "no-data";
    return;
  }

  // Retrain on everything the core has integrated so far, the way
  // finalize() sees it. The full sensor schema is kept — no per-epoch MI
  // reduction — so the artifact schema stays stable across epochs and
  // consecutive images stay delta-friendly.
  const data::Dataset train = sensor_features(labeled_core_rows());
  entry.train_rows = train.rows();

  deploy::CompiledModel model = compile_for(config_.deploy.model, train);
  if (config_.deploy.precision != deploy::Precision::kFloat32) {
    model = deploy::quantize(model, config_.deploy.precision);
  }
  std::vector<std::uint8_t> image = model.encode();
  const std::uint32_t target = ota::image_checksum(image);
  entry.image_bytes = image.size();

  // Counterfactual ledger: the naive pipeline re-ships the full image to
  // every device every epoch — no-change epochs included, it has no way to
  // know — over the same two unicast hops (core->edge, edge->device) the
  // real transport uses, chunked and framed identically.
  std::vector<std::uint8_t> full_bytes = ota::diff({}, image).encode();
  const std::uint64_t full_chunks =
      (full_bytes.size() + config_.ota.chunk_bytes - 1) / config_.ota.chunk_bytes;
  const std::uint64_t full_per_hop =
      full_bytes.size() +
      full_chunks * (ota::kChunkFramingBytes + net::kMessageHeaderBytes);
  entry.full_broadcast_bytes =
      full_per_hop * 2 * static_cast<std::uint64_t>(config_.devices);
  ota.full_broadcast_bytes += entry.full_broadcast_bytes;

  if (target == ota_chain_.head_checksum()) {
    // The retrain reproduced the promoted head byte-for-byte: nothing to
    // ship. (Devices behind the head stay behind until the next real
    // version; the histogram reveals them.)
    entry.outcome = "no-change";
    return;
  }

  OtaRollout ro;
  ro.epoch = epoch;
  ro.version_id = ota_next_version_++;
  ro.base_checksum = ota_chain_.head_checksum();
  ro.target_checksum = target;
  ro.provisioning = ota_chain_.empty();
  ro.full = ota::ChunkedPatch(std::move(full_bytes), config_.ota.chunk_bytes,
                              ro.version_id);
  if (!ro.provisioning) {
    // Ship whichever payload is cheaper on the wire. A retrain that merely
    // extends the data diffs to a fraction of the image, but one that
    // restructures the tree can produce a delta as large as the image
    // itself — then the full patch wins and the ledger records the
    // oversized delta that was not shipped (patch_bytes vs image_bytes).
    const ota::Patch delta = ota::diff(ota_head_image_, image);
    entry.patch_bytes = delta.size_bytes();
    std::vector<std::uint8_t> delta_bytes = delta.encode();
    if (delta_bytes.size() < ro.full.patch_bytes().size()) {
      ro.delta = ota::ChunkedPatch(std::move(delta_bytes),
                                   config_.ota.chunk_bytes, ro.version_id);
      ro.has_delta = true;
    }
  }
  ro.image = std::move(image);
  ro.entry = ota.epochs_log.size() - 1;
  entry.version_id = ro.version_id;

  ro.trace = next_trace_++;
  journey_origin(ro.trace, obs::HopStream::kPatch, topo_.core(), event.time_s, 0,
                 ro.full.patch_bytes().size());
  if (obsy_) {
    obsy_->flight().note(topo_.core(), event.time_s, "ota-build", ro.version_id,
                         ro.image.size());
  }

  const std::size_t r = ota_rollouts_.size();
  ota_rollouts_.push_back(std::move(ro));
  OtaRollout& rollout = ota_rollouts_[r];

  if (rollout.provisioning) {
    // First version: there is no running model to canary against, so it
    // promotes by construction and the whole fleet gets the full image.
    entry.outcome = "provision";
    rollout.verdict_issued = true;
    rollout.promoted = true;
    ota_chain_.append(rollout.version_id, rollout.target_checksum,
                      util::narrow_u32(rollout.image.size(), "ota image bytes"),
                      util::narrow_u32(rollout.full.patch_bytes().size(),
                                       "ota patch bytes"));
    ota_head_image_ = rollout.image;
    for (std::size_t d = 0; d < config_.devices; ++d) {
      start_ota_transfer(d, r, event.time_s);
    }
    return;
  }

  rollout.cohort = ota::pick_canaries(config_.devices, config_.ota, canary_rng_);
  entry.canary_devices = rollout.cohort.size();
  for (std::uint32_t d : rollout.cohort) {
    start_ota_transfer(d, r, event.time_s);
  }
  sched_.push(event.time_s + kVerdictDelayS, EventKind::kOtaVerdict, topo_.core(), r);
}

void FleetSim::start_ota_transfer(std::size_t device_index,
                                  std::size_t rollout_index, double now_s) {
  const OtaRollout& ro = ota_rollouts_[rollout_index];
  OtaSummary& ota = report_.deploy.ota;
  if (ota_stores_[device_index].current_checksum() == ro.target_checksum) return;

  OtaTransfer t;
  t.rollout = rollout_index;
  t.device = static_cast<std::uint32_t>(device_index);
  t.canary = !ro.verdict_issued;
  // The delta only moves a device sitting exactly on the rollout's base; a
  // behind or unprovisioned device needs the full image from the start.
  const std::uint32_t have = ota_stores_[device_index].current_checksum();
  t.full = !ro.has_delta || have != ro.base_checksum;
  if (ro.has_delta && t.full) {
    ++ota.full_fallbacks;
    ++ota.epochs_log[ro.entry].full_fallbacks;
    obs::registry().counter("ota.full_fallbacks").add();
  }

  const std::size_t idx = ota_transfers_.size();
  ota_transfers_.push_back(std::move(t));
  ota_active_transfer_[device_index] = idx;
  const ota::ChunkedPatch& chunked =
      ota_transfers_[idx].full ? ro.full : ro.delta;
  std::vector<std::size_t> all(chunked.num_chunks());
  std::iota(all.begin(), all.end(), std::size_t{0});
  send_ota_chunks(idx, all, now_s);
  sched_.push(now_s + kResumeTimeoutS, EventKind::kOtaResume, topo_.device(device_index), idx);
}

void FleetSim::send_ota_chunks(std::size_t transfer_index,
                               const std::vector<std::size_t>& chunks,
                               double now_s) {
  const OtaTransfer& t = ota_transfers_[transfer_index];
  const net::NodeId edge = topo_.edge(t.device % config_.edges);
  for (std::size_t c : chunks) {
    const std::size_t record = ota_chunk_msgs_.size();
    ota_chunk_msgs_.push_back(
        {transfer_index, static_cast<std::uint32_t>(c), t.full});
    send_ota_chunk_hop(edge, record, now_s);
  }
}

void FleetSim::send_ota_chunk_hop(net::NodeId to, std::size_t record,
                                  double now_s) {
  const OtaChunkMsg& msg = ota_chunk_msgs_[record];
  const OtaTransfer& t = ota_transfers_[msg.transfer];
  const OtaRollout& ro = ota_rollouts_[t.rollout];
  const ota::ChunkedPatch& chunked = msg.full ? ro.full : ro.delta;
  const ota::ChunkFrame frame = chunked.frame(msg.chunk);
  const std::size_t bytes = net::kMessageHeaderBytes + frame.wire_bytes();

  OtaSummary& ota = report_.deploy.ota;
  ++ota.chunks_sent;
  // The radio spends the bytes whether or not the wire delivers; both the
  // run total and the per-epoch ledger count every hop transmission.
  ota.delta_downlink_bytes += bytes;
  ota.epochs_log[ro.entry].delta_downlink_bytes += bytes;
  obs::registry().counter("ota.chunk_sends").add();
  obs::registry().counter("ota.downlink_bytes").add(bytes);

  const net::ChannelOutcome out =
      send_frame({.stream = obs::HopStream::kPatch,
                  .hop = to >= config_.devices ? 0U : 1U,  // core->edge, then edge->device
                  .src = topo_.next_hop(to),
                  .dst = to,
                  .bytes = bytes,
                  .parents = {&ro.trace, 1},
                  .arrival = EventKind::kOtaChunkArrival,
                  .message = record},
                 now_s);
  if (out.corrupted) {
    // The chunk fails its FNV check at the receiver and is discarded; the
    // resume round re-requests it.
    ++ota.chunks_corrupt_rejected;
    obs::registry().counter("ota.chunk_corrupt_rejected").add();
  }
}

void FleetSim::handle_ota_chunk_arrival(const Event& event) {
  const net::NodeId node = event.target;
  const OtaChunkMsg& msg = ota_chunk_msgs_[event.message];
  OtaTransfer& t = ota_transfers_[msg.transfer];
  const OtaRollout& ro = ota_rollouts_[t.rollout];
  OtaSummary& ota = report_.deploy.ota;
  const std::uint32_t hop = node >= config_.devices ? 0 : 1;

  if (!topo_.node(node).up) {
    journey_arrive(ro.trace, obs::HopStream::kPatch, hop, node, event.time_s, 0,
                   "dead_receiver");
    return;
  }
  if (t.done || ota_active_transfer_[t.device] != msg.transfer ||
      msg.full != t.full) {
    // Superseded transfer, or a leftover delta chunk after the fall back to
    // the full image — either way the frame no longer indexes anything the
    // device wants.
    ++ota.chunks_stale;
    journey_arrive(ro.trace, obs::HopStream::kPatch, hop, node, event.time_s, 0,
                   "stale");
    return;
  }
  if (node >= config_.devices) {
    // Edge relay: one more downlink hop to the target device.
    journey_arrive(ro.trace, obs::HopStream::kPatch, hop, node, event.time_s, 0,
                   "accepted");
    send_ota_chunk_hop(topo_.device(t.device), event.message, event.time_s);
    return;
  }

  const ota::ChunkedPatch& chunked = msg.full ? ro.full : ro.delta;
  switch (t.applier.accept(chunked.frame(msg.chunk))) {
    case ota::PatchApplier::Accept::kAccepted:
      ++ota.chunks_delivered;
      journey_arrive(ro.trace, obs::HopStream::kPatch, hop, node, event.time_s,
                     0, "accepted");
      if (t.applier.complete()) ota_commit_device(msg.transfer, event.time_s);
      break;
    case ota::PatchApplier::Accept::kDuplicate:
      ++ota.chunk_duplicates;
      journey_arrive(ro.trace, obs::HopStream::kPatch, hop, node, event.time_s,
                     0, "duplicate");
      break;
    case ota::PatchApplier::Accept::kChecksumMismatch:
    case ota::PatchApplier::Accept::kShapeMismatch:
      ++ota.chunks_corrupt_rejected;
      journey_arrive(ro.trace, obs::HopStream::kPatch, hop, node, event.time_s,
                     0, "rejected");
      break;
  }
}

void FleetSim::ota_commit_device(std::size_t transfer_index, double now_s) {
  OtaTransfer& t = ota_transfers_[transfer_index];
  const OtaRollout& ro = ota_rollouts_[t.rollout];
  OtaSummary& ota = report_.deploy.ota;
  ota::DeviceImageStore& store = ota_stores_[t.device];
  t.done = true;

  const ota::Patch patch = ota::Patch::decode(t.applier.assemble());
  std::vector<std::uint8_t> image =
      patch.full_image() ? patch.apply({}) : patch.apply(store.current_image());

  // The canary A/B probe runs before the commit: the same recent rows,
  // scored by the running model and by the candidate, so the pooled verdict
  // compares the two on identical data. A device with no baseline (first
  // provision) has nothing to compare against.
  if (t.canary && !ro.verdict_issued && store.provisioned()) {
    const ota::CanaryProbe probe =
        ota_probe(t.device, store.current_image(), image, now_s);
    if (probe.rows > 0) {
      const std::size_t record = ota_report_msgs_.size();
      ota_report_msgs_.push_back({t.rollout, probe});
      send_ota_report_hop(topo_.device(t.device), record, now_s);
    }
  }

  // Commit is the only place the running image changes, and it requires the
  // full checksum to verify — a crash anywhere before this line leaves the
  // device on its previous consistent version.
  store.commit(ro.version_id, std::move(image), patch.target_checksum);
  ++ota.epochs_log[ro.entry].devices_updated;
  ota.last_commit_t_s = std::max(ota.last_commit_t_s, now_s);
  obs::registry().counter("ota.commits").add();
  if (obsy_) {
    obsy_->flight().note(topo_.device(t.device), now_s, "ota-commit",
                         ro.version_id, t.full ? 1 : 0);
  }
}

ota::CanaryProbe FleetSim::ota_probe(std::size_t device_index,
                                     const std::vector<std::uint8_t>& old_image,
                                     const std::vector<std::uint8_t>& new_image,
                                     double now_s) const {
  ota::CanaryProbe probe;
  probe.device = static_cast<std::uint32_t>(device_index);
  const data::Dataset& all = device_data_[device_index];
  std::size_t upto = 0;
  while (upto < all.rows() && all.column(0).numeric(upto) < now_s) ++upto;
  const std::size_t count = std::min(kProbeRows, upto);
  if (count == 0) return probe;

  deploy::DeviceRuntime old_rt(deploy::CompiledModel::decode(old_image));
  deploy::DeviceRuntime new_rt(deploy::CompiledModel::decode(new_image));
  old_rt.bind(all);
  new_rt.bind(all);
  probe.rows = count;
  for (std::size_t r = upto - count; r < upto; ++r) {
    const int label = truth_label(all.column(0).numeric(r));
    if (old_rt.predict_row(all, r) == label) ++probe.correct_old;
    if (new_rt.predict_row(all, r) == label) ++probe.correct_new;
  }
  return probe;
}

void FleetSim::send_ota_report_hop(net::NodeId from, std::size_t record,
                                   double now_s) {
  const OtaReportMsg& msg = ota_report_msgs_[record];
  const OtaRollout& ro = ota_rollouts_[msg.rollout];
  // Version id + device + rows + two correct counts, each u32, framed.
  const std::size_t bytes = net::kMessageHeaderBytes + 20;
  OtaSummary& ota = report_.deploy.ota;
  ota.probe_uplink_bytes += bytes;
  obs::registry().counter("ota.probe_uplink_bytes").add(bytes);

  // A lost probe is tolerated, not retried: the verdict pools whatever
  // reports made it.
  send_frame({.stream = obs::HopStream::kPatch,
              .hop = from < config_.devices ? 0U : 1U,  // device->edge, then edge->core
              .src = from,
              .dst = topo_.next_hop(from),
              .bytes = bytes,
              .parents = {&ro.trace, 1},
              .arrival = EventKind::kOtaReportArrival,
              .message = record},
             now_s);
}

void FleetSim::handle_ota_report_arrival(const Event& event) {
  const net::NodeId node = event.target;
  // Membership-only dedup (duplicate delivery of the same report record).
  if (!ota_report_seen_[node].insert(event.message).second) return;
  if (!topo_.node(node).up) return;
  if (node != topo_.core()) {
    // Edge relay toward the core.
    send_ota_report_hop(node, event.message, event.time_s);
    return;
  }
  const OtaReportMsg& msg = ota_report_msgs_[event.message];
  OtaRollout& ro = ota_rollouts_[msg.rollout];
  if (ro.verdict_issued) return;  // late probe, verdict already out
  ro.probes.push_back(msg.probe);
}

void FleetSim::handle_ota_resume(const Event& event) {
  const std::size_t idx = event.message;
  OtaTransfer& t = ota_transfers_[idx];
  if (t.done || t.stuck || ota_active_transfer_[t.device] != idx) return;
  const OtaRollout& ro = ota_rollouts_[t.rollout];
  if (ro.verdict_issued && !ro.promoted) {
    // The candidate was rolled back (or never promoted) while this canary
    // transfer was still moving: stop spending radio on it.
    t.done = true;
    return;
  }
  OtaSummary& ota = report_.deploy.ota;
  OtaEpochEntry& entry = ota.epochs_log[ro.entry];
  const ota::ChunkedPatch& chunked = t.full ? ro.full : ro.delta;
  std::vector<std::size_t> want;
  if (t.applier.started()) {
    want = t.applier.missing();
  } else {
    want.resize(chunked.num_chunks());
    std::iota(want.begin(), want.end(), std::size_t{0});
  }
  if (want.empty()) return;  // complete; the commit path already ran

  if (t.resume_rounds < kMaxResumeRounds) {
    ++t.resume_rounds;
    ++ota.resume_rounds;
    obs::registry().counter("ota.resume_rounds").add();
    send_ota_chunks(idx, want, event.time_s);
  } else if (!t.full) {
    // Delta rounds exhausted: fall back to the full image. The applier
    // resets (staged delta chunks are discarded); the running image is
    // untouched by construction.
    t.full = true;
    t.full_rounds = 1;
    t.resume_rounds = 0;
    t.applier.reset();
    ++ota.full_fallbacks;
    ++entry.full_fallbacks;
    obs::registry().counter("ota.full_fallbacks").add();
    std::vector<std::size_t> all(ro.full.num_chunks());
    std::iota(all.begin(), all.end(), std::size_t{0});
    send_ota_chunks(idx, all, event.time_s);
  } else if (t.full_rounds < kMaxFullRounds) {
    ++t.full_rounds;
    t.resume_rounds = 0;
    t.applier.reset();
    std::vector<std::size_t> all(ro.full.num_chunks());
    std::iota(all.begin(), all.end(), std::size_t{0});
    send_ota_chunks(idx, all, event.time_s);
  } else {
    // Every round exhausted: the device stays on its current verified
    // version for this epoch and is ledgered as stuck.
    t.stuck = true;
    t.done = true;
    ++entry.devices_stuck;
    obs::registry().counter("ota.devices_stuck").add();
    if (obsy_) {
      obsy_->flight().note(topo_.device(t.device), event.time_s, "ota-stuck",
                           ro.version_id);
    }
    return;
  }
  sched_.push(event.time_s + kResumeTimeoutS, EventKind::kOtaResume, topo_.device(t.device),
              idx);
}

void FleetSim::handle_ota_verdict(const Event& event) {
  const std::size_t r = event.message;
  OtaRollout& ro = ota_rollouts_[r];
  if (ro.verdict_issued) return;  // superseded by a later epoch
  ro.verdict_issued = true;
  OtaSummary& ota = report_.deploy.ota;
  OtaEpochEntry& entry = ota.epochs_log[ro.entry];

  auto cancel_cohort = [&]() {
    for (std::uint32_t d : ro.cohort) {
      const std::size_t active = ota_active_transfer_[d];
      if (active != kNoMessage && ota_transfers_[active].rollout == r) {
        ota_transfers_[active].done = true;
      }
    }
  };

  if (!topo_.node(topo_.core()).up) {
    // Nobody home to pool the probes: conservative skip, the candidate is
    // abandoned and canaries that committed it roll back locally next time
    // the core ships a version (they are off-head in the histogram).
    entry.outcome = "verdict-skipped";
    cancel_cohort();
    return;
  }

  const ota::CanaryVerdict verdict =
      ota::judge(ro.version_id, ro.epoch, ro.probes, config_.ota);
  entry.devices_reporting = verdict.devices_reporting;
  entry.pooled_rows = verdict.pooled_rows;
  entry.accuracy_old = verdict.accuracy_old;
  entry.accuracy_new = verdict.accuracy_new;

  if (verdict.promoted) {
    entry.outcome = "promote";
    ++ota.promotions;
    ro.promoted = true;
    ota_chain_.append(ro.version_id, ro.target_checksum,
                      util::narrow_u32(ro.image.size(), "ota image bytes"),
                      util::narrow_u32(ro.has_delta
                                           ? ro.delta.patch_bytes().size()
                                           : ro.full.patch_bytes().size(),
                                       "ota patch bytes"));
    ota_head_image_ = ro.image;
    obs::registry().counter("ota.promotions").add();
    if (obsy_) {
      obsy_->flight().note(topo_.core(), event.time_s, "ota-promote",
                           ro.version_id, verdict.pooled_rows);
    }
    // Ship to the rest of the fleet; canaries mid-transfer keep going.
    for (std::size_t d = 0; d < config_.devices; ++d) {
      const std::size_t active = ota_active_transfer_[d];
      if (active != kNoMessage && !ota_transfers_[active].done &&
          ota_transfers_[active].rollout == r) {
        continue;
      }
      start_ota_transfer(d, r, event.time_s);
    }
    return;
  }

  entry.outcome = "rollback";
  ++ota.rollbacks;
  obs::registry().counter("ota.rollbacks").add();
  if (obsy_) {
    obsy_->flight().note(topo_.core(), event.time_s, "ota-rollback",
                         ro.version_id, verdict.pooled_rows);
  }
  cancel_cohort();
  // Canaries that already committed the bad version get a rollback command;
  // the revert itself is local and free (the previous image is retained).
  for (std::uint32_t d : ro.cohort) {
    if (ota_stores_[d].current_checksum() == ro.target_checksum) {
      const std::size_t record = ota_control_msgs_.size();
      ota_control_msgs_.push_back({r, d});
      send_ota_control_hop(topo_.edge(d % config_.edges), record, event.time_s);
    }
  }
}

void FleetSim::send_ota_control_hop(net::NodeId to, std::size_t record,
                                    double now_s) {
  const OtaControlMsg& msg = ota_control_msgs_[record];
  const OtaRollout& ro = ota_rollouts_[msg.rollout];
  // Version id + command, framed — rollback ships no image bytes at all.
  const std::size_t bytes = net::kMessageHeaderBytes + 8;
  OtaSummary& ota = report_.deploy.ota;
  ota.delta_downlink_bytes += bytes;
  ota.epochs_log[ro.entry].delta_downlink_bytes += bytes;
  obs::registry().counter("ota.downlink_bytes").add(bytes);

  // A lost rollback command is visible, not fatal: the device stays on the
  // rolled-back version and the end-of-run histogram exposes it.
  send_frame({.stream = obs::HopStream::kPatch,
              .hop = to >= config_.devices ? 0U : 1U,
              .src = topo_.next_hop(to),
              .dst = to,
              .bytes = bytes,
              .parents = {&ro.trace, 1},
              .arrival = EventKind::kOtaControlArrival,
              .message = record},
             now_s);
}

void FleetSim::handle_ota_control_arrival(const Event& event) {
  const net::NodeId node = event.target;
  if (!topo_.node(node).up) return;
  const OtaControlMsg& msg = ota_control_msgs_[event.message];
  if (node >= config_.devices) {
    send_ota_control_hop(topo_.device(msg.device), event.message, event.time_s);
    return;
  }
  // Idempotent by construction: only a device still running the rolled-back
  // version reverts, so duplicate or late commands are no-ops.
  const OtaRollout& ro = ota_rollouts_[msg.rollout];
  ota::DeviceImageStore& store = ota_stores_[msg.device];
  if (store.current_id() != ro.version_id || !store.has_previous()) return;
  store.rollback();
  ++report_.deploy.ota.epochs_log[ro.entry].devices_rolled_back;
  obs::registry().counter("ota.device_rollbacks").add();
  if (obsy_) {
    obsy_->flight().note(node, event.time_s, "ota-revert", ro.version_id,
                         store.current_id());
  }
}

void FleetSim::finalize_ota() {
  OtaSummary& ota = report_.deploy.ota;
  ota.enabled = true;
  ota.epochs = config_.ota.epochs;
  ota.versions_published = ota_chain_.size();
  const std::uint32_t head = ota_chain_.head_id();
  for (std::size_t d = 0; d < config_.devices; ++d) {
    const ota::DeviceImageStore& store = ota_stores_[d];
    ++ota.version_histogram[store.current_id()];
    const std::size_t active = ota_active_transfer_[d];
    if (active != kNoMessage && ota_transfers_[active].stuck) {
      ++ota.devices_stuck;
    }
    if (!store.provisioned()) {
      ++ota.devices_unprovisioned;
      continue;
    }
    // The no-torn-patches invariant: every provisioned device's running
    // image re-hashes to the checksum its committed version was built with.
    bool verified = false;
    for (const OtaRollout& ro : ota_rollouts_) {
      if (ro.version_id == store.current_id()) {
        verified = ota::image_checksum(store.current_image()) == ro.target_checksum;
        break;
      }
    }
    if (!verified) ota.all_devices_verified = false;
    if (store.current_id() == head) {
      ++ota.devices_on_head;
    } else {
      ++ota.devices_behind;
    }
  }
  IOTML_INTERNAL_CHECK(ota.all_devices_verified,
                       "FleetSim: a device ended the run on an unverified image");
}

}  // namespace iotml::sim

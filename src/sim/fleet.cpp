#include "sim/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numbers>
#include <numeric>
#include <utility>

#include "approx/confidence.hpp"
#include "deploy/compile.hpp"
#include "deploy/quantize.hpp"
#include "learners/decision_tree.hpp"
#include "learners/logistic.hpp"
#include "learners/naive_bayes.hpp"
#include "net/message.hpp"
#include "obs/trace.hpp"
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
  // A storm chains flushes device_flush_s / load_storm_factor apart; a step
  // that vanishes beside some time of the run would repeat that time forever.
  IOTML_CHECK(config.chaos.load_storms <= 0.0 ||
                  config.device_flush_s / config.chaos.load_storm_factor >
                      config.duration_s * std::numeric_limits<double>::epsilon(),
              "FleetSim: load storm flush step too small to move the clock");
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

  // Deploy runs keep sensing past the learning window: those extra rows are
  // never flushed upstream — they are the data the deployed artifact scores.
  const double horizon_s =
      config.duration_s + (config.deploy.enabled ? config.deploy.score_window_s : 0.0);
  windows_ = DeviceWindows({.learning_s = config.duration_s,
                            .horizon_s = horizon_s,
                            .sensor_period_s = config.sensor_period_s,
                            .sensor_dropout = config.sensor_dropout,
                            .keep_behind = config.ota.enabled ? kProbeRows : 0},
                           device_rngs_, truths_, report_.stage_reports);
  report_.rows_generated = windows_.rows();

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
  publish_counters(report_);
  return std::move(report_);
}

void FleetSim::handle(const Event& event) {
  obs::Span span(event_span_name(event.kind), "sim");
  if (span.active()) {
    span.arg("t_s", event.time_s);
    span.arg("target", static_cast<std::uint64_t>(event.target));
  }
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

void FleetSim::Buffer::append(const data::Dataset& more, std::span<const double> origins,
                              std::span<const std::uint64_t> more_parents) {
  rows.append_rows(more);
  origin_s.insert(origin_s.end(), origins.begin(), origins.end());
  parents.insert(parents.end(), more_parents.begin(), more_parents.end());
}

void FleetSim::Buffer::check_strata_tile() const {
  std::size_t next = 0;
  bool contiguous = true;
  for (const approx::Stratum& s : strata) {
    contiguous = contiguous && s.begin == next;
    next += s.count;
  }
  IOTML_INTERNAL_CHECK(contiguous && next == rows.rows(),
                       "FleetSim: an edge buffer's strata do not tile its rows");
}

void FleetSim::handle_device_flush(const Event& event) {
  const net::NodeId d = event.target;
  const bool final_flush = event.time_s >= config_.duration_s;
  // The final flush drains everything — except in deploy mode, where rows
  // sensed after the learning window stay on the device for local scoring.
  const double cutoff =
      !final_flush ? event.time_s
      : config_.deploy.enabled ? config_.duration_s
                               : std::numeric_limits<double>::infinity();
  data::Dataset window = windows_.take(d, cutoff);
  const std::size_t count = window.rows();
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
    // Local compute is unaffected by connectivity: the device cleans its
    // window even when offline, then persists the result.
    out.rows = tiers_.device.run(std::move(window), device_rngs_[d]);
    for (const StageReport& r : tiers_.device.reports()) {
      report_.stage_reports.push_back(r);
    }
    out.origin_s = {event.time_s};
    if (telemetry_on()) {
      // The one wire-resolution site: the window leaves the device tier
      // quantized, so its backlog sizing, its frame and the edge's decode
      // all see the same rows (lint R13).
      tdf::quantize(out.rows, config_.telemetry.scale_bits);
      out.origin_s.front() = tdf::quantize_value(event.time_s, config_.telemetry.scale_bits);
    }
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
  // with the fresh window as one uplink frame, re-encoded by send().
  Buffer merged;
  for (const Backlog::Chunk& pending : backlog.chunks) {
    const Buffer& b = pending.buffer;
    merged.append(b.rows, b.origin_s, b.parents);
  }
  backlog.chunks.clear();
  backlog.rows = 0;
  backlog.bytes = 0;
  if (obsy_ && merged.rows.rows() > 0) {
    obsy_->flight().note(d, event.time_s, "sf-drain", merged.rows.rows());
  }
  if (out.rows.rows() > 0) merged.append(out.rows, out.origin_s, out.parents);
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
  edge_checkpoints_[edge_index] = Checkpoint{};
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
    const std::size_t persisted = edge_checkpoints_[edge_index].rows;
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

  buf.check_strata_tile();
  // A copy: the sample below replaces `buf`, strata and all.
  const std::vector<approx::Stratum> strata = buf.strata;

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
      buf.check_strata_tile();
      for (const approx::Stratum& s : buf.strata) tally.add(s.key, s.count);
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
      // window.
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
  edge_checkpoints_[edge_index] = Checkpoint{};
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
  // The deploy phase runs after this, so no edge holds back an artifact
  // relay: every free ladder is back at L0, and a ladder pinned at L3 shed
  // every row, so the core has nothing to compile.
  for (const approx::DegradationController& ctrl : degrade_ctrl_) {
    IOTML_INTERNAL_CHECK(ctrl.pinned() || ctrl.level() == approx::DegradeLevel::kExact,
                         "FleetSim: a free degradation ladder did not settle at L0");
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

  RowsInFlight flight{.sent = std::move(chunk),
                      .trace = next_trace_++,
                      .hop = static_cast<std::uint16_t>(from_device ? 0 : 1),
                      .src = from,
                      .sent_s = now_s};
  const Buffer& sent = flight.sent;
  // The abstract payload model: header, rows and 8 bytes per origin stamp.
  // A telemetry device ships its real TDF frame instead (the origins ride
  // inside it), and the ledger charges the model over the same rows as the
  // counterfactual. The checksum is stamped over the rows the edge's decode
  // must reproduce byte for byte.
  const std::size_t model_bytes = net::kMessageHeaderBytes + net::wire_size_bytes(sent.rows) +
                                  8 * sent.origin_s.size();
  const bool tdf_msg = telemetry_on() && from_device;
  const bool tdf_open = tdf_msg && tdf_session_open_[from] == 0;
  if (tdf_msg) flight.tdf = telemetry_encode(from, sent.rows, sent.origin_s);
  flight.checksum = net::payload_checksum(sent.rows);
  const std::size_t bytes = tdf_msg ? net::kMessageHeaderBytes + flight.tdf.size() : model_bytes;
  const Frame frame{.stream = obs::HopStream::kRows,
                    .hop = flight.hop,
                    .src = from,
                    .dst = to,
                    .bytes = bytes,
                    .rows = rows,
                    .parents = sent.parents,
                    .message = next_row_frame_,
                    .corrupt_lands = true,
                    .trace = flight.trace};

  // A failed reliable send hands the rows back whole: a device
  // store-and-forwards them (or loses them without a buffer), an edge
  // re-appends them to its batch buffer for the next flush.
  auto keep_rows = [&](bool dead_letter) {
    if (!from_device) {
      Buffer& buf = edge_buffers_[from - config_.devices];
      if (degrade_on()) {
        buf.strata.push_back({static_cast<std::uint32_t>(from), buf.rows.rows(), rows});
      }
      buf.append(sent.rows, sent.origin_s, sent.parents);
    } else if (config_.device_buffer_rows > 0) {
      store(from, std::move(flight.sent));
    } else if (dead_letter) {
      report_.faults.rows_buffer_evicted += rows;
    } else {
      report_.rows_lost += rows;
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
    // Ack-mode channels repair corrupt frames (reject, then retransmit)
    // before the outcome surfaces; this send's repairs land in the
    // telemetry ledger. A frame that never reached the wire made 0 attempts.
    report_.telemetry.frames_rejected += out.corrupt_rejects;
    report_.telemetry.frames_retransmitted += std::max<std::size_t>(out.attempts, 1) - 1;
  }
  ++report_.messages_sent;
  if (!out.accepted) {
    // Backpressure: the bounded send queue refused the frame.
    ++report_.messages_dropped;
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
    t.legacy_wire_bytes += model_bytes;
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
    if (ack) {
      keep_rows(false);
    } else {
      report_.rows_lost += rows;
    }
    return;
  }
  if (out.corrupted) {
    // Fire-and-forget only: the frame lands, but the wire flipped bits, so
    // the stamped checksum no longer matches what the receiver recomputes.
    if (tdf_msg) {
      // Wire damage hits the frame bytes themselves; the FNV-1a32 trailer
      // no longer matches and the edge rejects without decoding a cell.
      flight.tdf[flight.tdf.size() / 2] ^= 0x10;
    }
    flight.checksum ^= 1;
  }
  // The frame landed (its arrival events are queued): hold it until the
  // last of them has.
  flight.copies_left = out.duplicated ? 2 : 1;
  rows_in_flight_.emplace(frame.message, std::move(flight));
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
  RowsInFlight& frame = it->second;
  if (frame.landed) {
    ++report_.duplicates_discarded;
    journey_arrive(frame.trace, obs::HopStream::kRows, frame.hop, event.target,
                   event.time_s, frame.sent.rows.rows(), "duplicate");
  } else if (event.kind == EventKind::kArrival) {
    handle_arrival(event, frame);
  } else {
    handle_corrupt_arrival(event, frame);
  }
  frame.landed = true;
  if (--frame.copies_left == 0) rows_in_flight_.erase(event.message);
}

void FleetSim::handle_arrival(const Event& event, const RowsInFlight& frame) {
  const net::NodeId node = event.target;
  const Buffer& sent = frame.sent;
  const std::size_t rows = sent.rows.rows();
  // Receivers verify every frame: an intact arrival must re-hash to its
  // stamped checksum (corrupt frames come in as kCorruptArrival instead).
  IOTML_INTERNAL_CHECK(net::payload_checksum(sent.rows) == frame.checksum,
                       "FleetSim: intact arrival failed checksum verification");
  if (!topo_.node(node).up) {
    // The receiver crashed while the frame was in flight: nobody is
    // listening, and the rows die with the dead node.
    report_.faults.rows_lost_to_crash += rows;
    journey_arrive(frame.trace, obs::HopStream::kRows, frame.hop, node, event.time_s, rows,
                   "dead_receiver");
    return;
  }
  const double hop_latency_s = event.time_s - frame.sent_s;
  journey_arrive(frame.trace, obs::HopStream::kRows, frame.hop, node, event.time_s, rows,
                 "accepted");
  if (obsy_) {
    obsy_->flight().note(node, event.time_s, "rx-rows", rows, frame.trace);
    record_series(NodeSeries::kUplinkLatency, node, event.time_s, hop_latency_s);
    record_series(NodeSeries::kUplinkRows, node, event.time_s, static_cast<double>(rows));
  }
  if (node == topo_.core()) {
    lat_edge_core_.record(hop_latency_s);
    for (double origin : sent.origin_s) lat_end_to_end_.record(event.time_s - origin);
    report_.rows_delivered += rows;
    core_buffer_.rows.append_rows(sent.rows);
    return;
  }
  lat_device_edge_.record(hop_latency_s);
  Buffer& buf = edge_buffers_[node - config_.devices];
  if (degrade_on()) {
    buf.strata.push_back({static_cast<std::uint32_t>(frame.src), buf.rows.rows(), rows});
  }
  if (frame.tdf.empty()) {
    buf.append(sent.rows, sent.origin_s, sent.parents);
    return;
  }
  // The decode is load-bearing: the edge reconstructs the rows from the
  // wire bytes and feeds *those* into its sub-pipeline. The reconstruction
  // must hash to the checksum the device stamped over what it encoded —
  // decode errors can never slip downstream.
  const tdf::Frame f = tdf::decode_frame(frame.tdf, tdf_registry_);
  IOTML_INTERNAL_CHECK(net::payload_checksum(f.rows) == frame.checksum,
                       "FleetSim: TDF decode does not reproduce the device's rows");
  ++report_.telemetry.frames_delivered;
  report_.telemetry.rows_decoded += f.rows.rows();
  buf.append(f.rows, f.origin_s, sent.parents);
}

void FleetSim::handle_corrupt_arrival(const Event& event, const RowsInFlight& frame) {
  const net::NodeId node = event.target;
  const std::size_t rows = frame.sent.rows.rows();
  // The receiver recomputes the checksum over what the wire delivered and
  // rejects the frame on mismatch: corrupt rows are counted, never scored.
  IOTML_INTERNAL_CHECK(net::payload_checksum(frame.sent.rows) != frame.checksum,
                       "FleetSim: corrupt arrival passed checksum verification");
  if (!frame.tdf.empty()) {
    // The damage lives in the frame bytes: the trailer checksum must catch
    // it before a decode is even attempted.
    IOTML_INTERNAL_CHECK(!tdf::frame_intact(frame.tdf),
                         "FleetSim: corrupt TDF frame passed its trailer check");
    ++report_.telemetry.frames_rejected;
  }
  report_.faults.rows_corrupt_rejected += rows;
  journey_arrive(frame.trace, obs::HopStream::kRows, frame.hop, node, event.time_s, rows,
                 "corrupt_rejected");
  if (obsy_) obsy_->flight().note(node, event.time_s, "rx-corrupt", rows, frame.trace);
}

namespace {

/// A copy of the first `n` elements of `v`.
template <typename T>
std::vector<T> head(const std::vector<T>& v, std::size_t n) {
  return {v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n)};
}

}  // namespace

void FleetSim::handle_checkpoint(std::size_t edge_index) {
  if (!topo_.node(topo_.edge(edge_index)).up) return;  // crashed edges can't persist
  // An up edge's restore slot is empty: restart moved the last one back.
  const Buffer& buf = edge_buffers_[edge_index];
  Checkpoint& ckpt = edge_checkpoints_[edge_index];
  ckpt.rows = buf.rows.rows();
  ckpt.origins = buf.origin_s.size();
  ckpt.parents = buf.parents.size();
  ckpt.strata = buf.strata.size();
  ++report_.faults.checkpoints_written;
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
  // The black box survives the crash: dump the edge's recent events into
  // the fault ledger before its volatile state is wiped.
  flight_dump(topo_.edge(edge_index), "edge-crash", sched_.now_s());
  // Volatile state dies with the process: everything integrated since the
  // last checkpoint is gone. The checkpoint itself is durable storage.
  Buffer& buf = edge_buffers_[edge_index];
  Checkpoint& ckpt = edge_checkpoints_[edge_index];
  IOTML_INTERNAL_CHECK(ckpt.rows <= buf.rows.rows() && ckpt.origins <= buf.origin_s.size() &&
                           ckpt.parents <= buf.parents.size() &&
                           ckpt.strata <= buf.strata.size(),
                       "FleetSim: an edge checkpoint is not a prefix of its buffer");
  report_.faults.rows_lost_to_crash += buf.rows.rows() - ckpt.rows;
  if (ckpt.rows > 0) {
    ckpt.restore.rows = buf.rows.head(ckpt.rows);
    ckpt.restore.origin_s = head(buf.origin_s, ckpt.origins);
    ckpt.restore.parents = head(buf.parents, ckpt.parents);
    ckpt.restore.strata = head(buf.strata, ckpt.strata);
  }
  buf = Buffer{};
}

void FleetSim::handle_edge_restart(std::size_t edge_index) {
  net::NodeInfo& n = topo_.node(topo_.edge(edge_index));
  if (n.up) return;  // already restarted (overlapping crash windows)
  n.up = true;
  Checkpoint& ckpt = edge_checkpoints_[edge_index];
  if (ckpt.rows == 0) return;
  Buffer& buf = edge_buffers_[edge_index];
  IOTML_INTERNAL_CHECK(buf.rows.rows() == 0,
                       "FleetSim: restart over a live edge buffer");
  buf = std::exchange(ckpt.restore, Buffer{});
  ++report_.faults.checkpoints_restored;
  report_.faults.rows_recovered += ckpt.rows;
}

void FleetSim::set_partition(bool on) {
  if (partitioned_ == on) return;
  partitioned_ = on;
  if (on) {
    ++report_.faults.partitions;
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
  if (on) ++report_.faults.loss_bursts;
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
  if (on) ++report_.faults.corruption_storms;
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
  const std::size_t bytes =
      telemetry_on() ? telemetry_encode(device, chunk.rows, chunk.origin_s).size() : 0;
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
  obsy_->journeys().record(r, frame.parents);
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
      report_.faults.rows_retained += windows_.rows_left(dvc);
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
  // The core is down at broadcast time: no fresh artifact leaves it, and
  // the whole fleet serves the prior epoch's model (stale fallback).
  if (!topo_.node(topo_.core()).up) return;
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
  // A corrupt artifact frame fails its checksum at the receiver, which
  // keeps its prior model rather than binding corrupt parameters.
  report_.deploy.downlink_bytes += artifact_wire_bytes_;
  send_frame({.stream = obs::HopStream::kArtifact,
              .hop = to >= config_.devices ? 0U : 1U,  // core->edge, then edge->device
              .src = topo_.next_hop(to),
              .dst = to,
              .bytes = artifact_wire_bytes_,
              .parents = {&broadcast_trace_, 1},
              .arrival = EventKind::kArtifactArrival},
             now_s);
}

void FleetSim::handle_artifact_arrival(const Event& event) {
  const net::NodeId node = event.target;
  const std::uint32_t hop = node >= config_.devices ? 0 : 1;
  if (artifact_seen_[node] != 0) {
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
  } else {
    ++d.devices_deployed;
    device_scored_[device] = 1;
  }

  const std::size_t count = windows_.rows_left(device);
  if (count == 0) return;

  // The rows scored are also the counterfactual payload below.
  const data::Dataset rows = windows_.rest(device);
  runtime.bind(rows);
  PredBatch batch;
  batch.device = device;
  batch.rows = count;
  for (std::size_t r = 0; r < count; ++r) {
    const int pred = runtime.predict_row(rows, r);
    if (pred == truth_label(rows.column(0).numeric(r))) ++batch.correct;
  }
  (stale ? d.rows_scored_stale : d.rows_scored) += count;

  // Counterfactual: what uplinking these raw rows (the pre-deployment
  // regime) would have cost. The payload crosses both hops; edge batching
  // would amortize the second header, which this deliberately ignores —
  // the payload bytes dominate. The one origin stamp costs 8 bytes.
  d.uplink_raw_bytes += 2 * (net::kMessageHeaderBytes + net::wire_size_bytes(rows) + 8);

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
  // A corrupt prediction batch is rejected at the receiver; predictions are
  // best-effort telemetry and are not retried in fire-and-forget mode.
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
}

void FleetSim::handle_prediction_arrival(const Event& event) {
  const net::NodeId node = event.target;
  const std::uint32_t hop = node == topo_.core() ? 1 : 0;
  const PredBatch& batch = pred_batches_[event.message];
  if (!pred_seen_[node].insert(event.message).second) {
    journey_arrive(batch.trace, obs::HopStream::kPredictions, hop, node, event.time_s,
                   batch.rows, "duplicate");
    return;
  }
  if (node == topo_.core()) {
    report_.deploy.predictions_delivered += batch.rows;
    report_.deploy.predictions_correct += batch.correct;
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
  // A corrupt chunk fails its FNV check at the receiver and is discarded;
  // the resume round re-requests it.
  if (out.corrupted) ++ota.chunks_corrupt_rejected;
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
  const data::Dataset rows = windows_.recent(device_index, now_s, kProbeRows);
  const std::size_t count = rows.rows();
  if (count == 0) return probe;

  deploy::DeviceRuntime old_rt(deploy::CompiledModel::decode(old_image));
  deploy::DeviceRuntime new_rt(deploy::CompiledModel::decode(new_image));
  old_rt.bind(rows);
  new_rt.bind(rows);
  probe.rows = count;
  for (std::size_t r = 0; r < count; ++r) {
    const int label = truth_label(rows.column(0).numeric(r));
    if (old_rt.predict_row(rows, r) == label) ++probe.correct_old;
    if (new_rt.predict_row(rows, r) == label) ++probe.correct_new;
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

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "approx/degradation.hpp"
#include "approx/sample.hpp"
#include "approx/sketch.hpp"
#include "data/dataset.hpp"
#include "deploy/compiled_model.hpp"
#include "deploy/runtime.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/observatory.hpp"
#include "ota/rollout.hpp"
#include "ota/transfer.hpp"
#include "ota/version.hpp"
#include "pipeline/sensors.hpp"
#include "sim/chaos.hpp"
#include "sim/placement.hpp"
#include "sim/report.hpp"
#include "sim/scheduler.hpp"
#include "tdf/codec.hpp"
#include "tdf/schema.hpp"
#include "util/rng.hpp"

namespace iotml::sim {

/// The optional deploy phase: after the learning window closes, the core
/// compiles its analytics model into a deploy::CompiledModel, quantizes it
/// to `precision`, and broadcasts the artifact down the tree over the
/// (lossy) downlinks. Devices that receive it score `score_window_s` of
/// subsequently sensed rows locally and uplink only predictions — the
/// paper's move from "ship every row to the core" to "ship the model to
/// the data".
struct DeployConfig {
  bool enabled = false;
  double score_window_s = 30.0;  ///< sensed seconds scored on-device
  deploy::ModelKind model = deploy::ModelKind::kTree;
  deploy::Precision precision = deploy::Precision::kInt8;

  /// Degraded mode: devices the fresh broadcast never reaches (crash during
  /// broadcast, corrupt or timed-out artifact frames) keep scoring with the
  /// prior epoch's artifact instead of going dark. The stale artifact is
  /// compiled from the first half of the training window — the model the
  /// previous deployment round would have shipped. Staleness is ledgered
  /// (DeploySummary::devices_stale, FaultLedger::stale_model_devices).
  bool stale_fallback = false;

  /// The edge->device downlink. The core->edge downlink always uses
  /// FleetSim's fixed kCoreEdgeDownlink.
  net::LinkParams edge_device_link{
      .latency_s = 0.02, .jitter_s = 0.005, .bandwidth_bytes_per_s = 125000.0,
      .drop_prob = 0.02, .duplicate_prob = 0.005, .max_retries = 1,
      .retry_backoff_s = 0.05};
};

/// The fleet observatory (DESIGN.md §13): virtual-clock time-series, causal
/// journey tracing and per-entity flight recorders. Off by default. When on
/// it is purely observational — it draws no randomness, schedules nothing
/// and changes no wire byte, so a run emits byte-identical event logs and
/// rows/latency numbers with the observatory on or off. Its buffers have
/// obs::Observatory's fixed capacities.
struct ObservatoryConfig {
  bool enabled = false;

  /// When non-empty, run() writes timeseries.json, journeys.jsonl,
  /// flightrec.json and events.log under this directory (created if
  /// missing) — the artifacts tools/fleetscope reads.
  std::string artifact_dir;
};

/// The telemetry wire subsystem (DESIGN.md §15): devices encode each uplink
/// window as a tagged TDF frame (src/tdf/) instead of the abstract
/// wire_size_bytes payload model. Readings are quantized to multiples of
/// 2^-scale_bits on-device, the frame crosses the (lossy) link as real
/// bytes, and the edge decodes it back to rows before its sub-pipeline —
/// the decode is load-bearing, checked byte-for-byte against the device's
/// encoding. Off by default: when off no frame is built, no codec byte is
/// charged and legacy runs stay byte-identical.
struct TelemetryConfig {
  bool enabled = false;

  /// Fixed-point resolution: readings are rounded to multiples of
  /// 2^-scale_bits before encoding. The default (1/256 ≈ 0.004) sits far
  /// below the fleet's base sensor noise (0.4), so quantization is lossless
  /// relative to measurement error while the scaled-varint delta streams
  /// engage. Must be ≤ 52 (checked by FleetSim).
  std::uint8_t scale_bits = 8;

  /// Byte bound of each device's store-and-forward backlog, counted in
  /// encoded frame bytes (active only when device_buffer_rows > 0). Over it,
  /// whole frames leave oldest first; the newest stays even when it alone
  /// is over. Must be >= 1 (checked by FleetSim).
  std::size_t device_log_bytes = 16384;
};

/// The graceful-degradation contract (DESIGN.md §16): each edge watches its
/// own backpressure — uplink/device channel in-flight depth, dead-letter
/// growth, store-and-forward occupancy, checkpoint lag — and moves along a
/// 4-level ladder with hysteresis:
///
///   L0 exact    — today's pipeline, every row shipped (the default)
///   L1 sampled  — seeded per-device stratified sample of the flush window
///                 rides the normal pipeline; the rest is shed, the answer
///                 carries a 95% confidence interval
///   L2 sketch   — the window collapses to mergeable sketches (count-min +
///                 bottom-k quantile); only a fixed-size summary uplinks
///   L3 summary  — row counts only; deploy artifact relays pause so devices
///                 fall back to the stale model
///
/// Off by default. When off, no controller exists, no degrade stream is
/// drawn from, and runs are byte-identical to pre-ladder builds. When on
/// with pin_level = 0 the ladder never leaves L0, which must also reproduce
/// the legacy event log and report byte-for-byte (tested against goldens).
/// The L1 sampling rate and the L2 sketch shapes and costs are fixed
/// constants of FleetSim (DESIGN.md §16).
struct DegradeConfig {
  bool enabled = false;

  /// Pin the ladder to one level (0..3) for benchmarking; -1 lets the
  /// controller move freely.
  int pin_level = -1;

  /// Hysteresis bands and de-escalation dwell (see approx::DegradeThresholds).
  approx::DegradeThresholds thresholds;

  /// Signal normalization: dead letters per second that count as pressure
  /// 1.0, and un-checkpointed buffered rows that count as lag 1.0.
  double dead_letter_rate_ref = 1.0;
  std::size_t checkpoint_lag_rows = 4096;
};

/// Everything a fleet run depends on. A (config, pipeline) pair fully
/// determines the run — same seed, byte-identical event log and report.
struct FleetConfig {
  std::size_t devices = 100;
  std::size_t edges = 4;
  double duration_s = 60.0;
  double device_flush_s = 5.0;  ///< device report interval
  double edge_flush_s = 10.0;   ///< edge batch-and-forward interval
  std::uint64_t seed = 42;

  net::LinkParams device_edge_link{
      .latency_s = 0.02, .jitter_s = 0.005, .bandwidth_bytes_per_s = 125000.0,
      .drop_prob = 0.02, .duplicate_prob = 0.005, .max_retries = 1,
      .retry_backoff_s = 0.05};
  net::LinkParams edge_core_link{
      .latency_s = 0.005, .jitter_s = 0.001, .bandwidth_bytes_per_s = 1.25e6,
      .drop_prob = 0.002, .duplicate_prob = 0.0, .max_retries = 2,
      .retry_backoff_s = 0.02};
  FaultParams faults;

  /// Transport policy applied to every link. The default (fire-and-forget)
  /// reproduces the legacy runtime byte-for-byte; kAckRetry turns each link
  /// into a stop-and-wait reliable channel (see net::Channel).
  net::ChannelParams channel;

  /// Compound failure scenarios layered on the fault plan (all off by default).
  ChaosParams chaos;

  /// Edge checkpointing period; 0 disables. A crashed edge restarts with the
  /// buffer its last checkpoint persisted; rows integrated since are lost to
  /// the crash (FaultLedger::rows_lost_to_crash).
  double checkpoint_interval_s = 0.0;

  /// Device store-and-forward capacity in rows; 0 disables. A device that is
  /// offline at flush time — or whose send the channel refuses or, in ack
  /// mode, cannot deliver — keeps the window in its backlog and drains it on
  /// reconnect instead of dropping it (legacy rows_skipped). Over the cap,
  /// whole chunks leave oldest first into FaultLedger::rows_buffer_evicted;
  /// the newest chunk stays even when it alone is over. Telemetry runs also
  /// bound the backlog by TelemetryConfig::device_log_bytes.
  std::size_t device_buffer_rows = 0;

  double sensor_period_s = 0.5;  ///< nominal sampling period per sensor
  double sensor_dropout = 0.05;  ///< per-sample loss at the sensor itself, in [0, 1)
  std::size_t feature_keep = 3;  ///< core-side MI feature selection budget

  DeployConfig deploy;
  ObservatoryConfig observatory;
  TelemetryConfig telemetry;

  /// The OTA delta-update loop (DESIGN.md §14): epochal retrains during the
  /// learning window, chunked binary patches down the tree, seeded canary
  /// cohorts and automatic rollback. Uses DeployConfig's model/precision and
  /// downlink params. Off by default; when off, no OTA event is ever
  /// scheduled and no OTA stream is drawn from, so legacy event logs stay
  /// byte-identical.
  ota::OtaConfig ota;

  /// The graceful-degradation ladder (DESIGN.md §16). Off by default; when
  /// off no controller runs and no degrade RNG stream is drawn from, so
  /// legacy event logs and reports stay byte-identical.
  DegradeConfig degrade;
};

/// The default Fig. 1 pipeline, tagged for placement: device-side outlier
/// cleaning, edge-side imputation + normalization, core-side MI feature
/// selection. The simulator synthesizes acquisition, integration and
/// analytics reports around it, completing the paper's
/// acquisition -> integration -> preparation -> reduction -> analytics chain.
pipeline::Pipeline default_fleet_pipeline(const FleetConfig& config);

/// The deploy-mode variant of the default pipeline: identical placement but
/// without the edge z-score stage. Per-batch normalization cannot be
/// replayed on a device scoring rows one at a time, so deploy runs train in
/// raw sensor units and fold any standardization into the compiled artifact
/// instead (see deploy::compile).
pipeline::Pipeline default_deploy_pipeline(const FleetConfig& config);

/// Deterministic discrete-event simulator of the paper's Fig. 1: devices
/// sample noisy desynchronized sensors and flush windows to their edge over
/// lossy links; edges integrate, prepare and batch-forward to the core; the
/// core reduces the merged records and learns the analytics concept. All
/// time is virtual (the scheduler's clock); all randomness flows from the
/// config seed through split Rngs, so a run is reproducible bit-for-bit.
class FleetSim {
 public:
  /// Uses default_fleet_pipeline(config).
  /// Throws InvalidArgument on nonsensical config (no devices, more edges
  /// than devices, non-positive durations or intervals).
  explicit FleetSim(FleetConfig config);

  /// Host a custom pipeline instead; its stages are placed by tier.
  FleetSim(FleetConfig config, pipeline::Pipeline full_pipeline);

  /// Run the simulation to completion. One-shot: throws InvalidArgument on
  /// a second call (build a fresh FleetSim to re-run), and moves the
  /// report out rather than copying it.
  FleetReport run();

  /// One line per processed event (see Scheduler::log), rendered from the
  /// stored events on every call; byte-identical across runs with the same
  /// config and pipeline.
  std::vector<std::string> event_log() const { return sched_.log(); }

  /// Writes event_log()'s lines to `out`, each followed by '\n', without
  /// building the vector: the bytes run() writes to events.log.
  void write_event_log(std::ostream& out) const { sched_.write_log(out); }

  const net::Topology& topology() const noexcept { return topo_; }

  /// The run's observatory, or nullptr when config.observatory.enabled is
  /// false. Valid for the simulator's lifetime.
  const obs::Observatory* observatory() const noexcept {
    return obsy_ ? &*obsy_ : nullptr;
  }

 private:
  struct Buffer {
    data::Dataset rows;
    std::vector<double> origin_s;
    /// Origin-window trace ids folded into `rows`, in fold order — the
    /// causal provenance the journey log needs to survive edge batching,
    /// store-and-forward and checkpoint restore.
    std::vector<std::uint64_t> parents;
    /// Contiguous per-sender row runs (maintained only when degradation is
    /// enabled) — the strata L1 sampling draws from, so every device keeps
    /// representation in the sampled window.
    std::vector<approx::Stratum> strata;
  };

  /// A row frame from its send until the last of its scheduled copies
  /// lands: the original, plus a straggler when the link duplicated it.
  struct RowsInFlight {
    net::Message frame;
    /// Origin-window trace ids folded into the frame. Kept off the wire
    /// struct: receivers inherit provenance locally, the frame only carries
    /// the 10-byte TraceContext.
    std::vector<std::uint64_t> parents;
    int copies_left = 1;    ///< scheduled copies still to land
    bool landed = false;    ///< a copy landed; later ones are duplicates
  };

  void generate_device_data();
  void schedule_initial_events();
  void handle(const Event& event);
  void handle_device_flush(const Event& event);
  void handle_edge_flush(std::size_t edge_index, double now_s);
  /// One copy of a row frame lands (kArrival or kCorruptArrival). The first
  /// copy is accepted or rejected, a later one counts as a duplicate, and
  /// the last erases the frame's in-flight entry.
  void land_row_frame(const Event& event);
  void handle_arrival(const Event& event, const net::Message& msg,
                      std::span<const std::uint64_t> parents);
  void handle_corrupt_arrival(const Event& event, const net::Message& msg);
  void send(net::NodeId from, Buffer&& chunk, double now_s);
  void finalize();
  int truth_label(double time_s) const;
  /// The core buffer in time order, each row labeled with the analytics
  /// concept: where the final fit and every OTA retrain start.
  data::Dataset labeled_core_rows() const;

  /// One frame handed to send_frame: the hop it crosses, its size and
  /// journey context, and the event each landed copy schedules.
  struct Frame {
    obs::HopStream stream = obs::HopStream::kRows;
    std::uint32_t hop = 0;  ///< journey hop index (0 = first wire hop)
    net::NodeId src = 0;
    net::NodeId dst = 0;    ///< a tree neighbour of src, either direction
    std::size_t bytes = 0;
    std::size_t rows = 0;
    std::span<const std::uint64_t> parents;  ///< journey provenance
    EventKind arrival = EventKind::kArrival;
    std::size_t message = kNoMessage;  ///< message index the arrivals carry
    bool corrupt_lands = false;  ///< corrupt copies arrive as kCorruptArrival
    std::uint64_t trace = 0;     ///< 0: send_frame takes the next trace id
  };
  /// Every frame any node sends crosses its link here: the channel send,
  /// the frame's trace id, its send-hop journey record under the one
  /// labelling rule, and the arrival (and straggler-copy) events of
  /// whatever lands. The caller keeps its own ledgers and counters.
  net::ChannelOutcome send_frame(Frame frame, double now_s);

  // Fault-tolerance machinery (see DESIGN.md §11).
  void handle_checkpoint(std::size_t edge_index);
  void handle_edge_crash(std::size_t edge_index);
  void handle_edge_restart(std::size_t edge_index);
  void set_partition(bool on);
  void set_loss_burst(bool on);
  void set_corruption_storm(bool on);

  /// One device's store-and-forward backlog: the chunks that missed the
  /// uplink, oldest first, with running totals over them.
  struct Backlog {
    struct Chunk {
      Buffer buffer;
      std::size_t bytes = 0;  ///< encoded TDF frame size; 0 without telemetry
    };
    std::deque<Chunk> chunks;
    std::size_t rows = 0;
    std::size_t bytes = 0;
    /// Largest `bytes` after a store's byte-bound eviction; a drain does
    /// not reset it.
    std::size_t highwater_bytes = 0;
  };
  /// Buffers a chunk that missed the uplink (offline at flush, or a failed
  /// send) in `device`'s backlog: the only place a device chunk is stored or
  /// evicted. In telemetry runs the chunk is quantized and sized by its
  /// encoded frame. Whole chunks then leave oldest first, the newest always
  /// kept: while the bytes exceed telemetry.device_log_bytes, then (after
  /// the high-water is sampled) while the rows exceed device_buffer_rows.
  void store(net::NodeId device, Buffer&& chunk);

  // Telemetry wire path (config_.telemetry.enabled; see DESIGN.md §15).
  bool telemetry_on() const noexcept { return config_.telemetry.enabled; }
  /// Encode `ds` (already quantized) as `device`'s next TDF frame. The
  /// schema rides inline until one frame is known delivered — the session
  /// negotiation — and is registered edge-side on first use.
  std::vector<std::uint8_t> telemetry_encode(net::NodeId device,
                                             const data::Dataset& ds,
                                             const std::vector<double>& origin_s);

  // Deploy phase (config_.deploy.enabled): compile at the core, broadcast
  // down, score on-device, uplink predictions.
  void prepare_deploy();
  void run_deploy_phase();
  void handle_deploy_broadcast(const Event& event);
  void handle_artifact_arrival(const Event& event);
  void handle_prediction_arrival(const Event& event);
  void send_artifact(net::NodeId to, double now_s);
  void send_predictions(net::NodeId from, std::size_t batch, double now_s);
  void score_on_device(net::NodeId device, double now_s, bool stale);

  // OTA delta-update loop (config_.ota.enabled; see DESIGN.md §14). The
  // core retrains per epoch as rows arrive, diffs the new artifact against
  // the promoted head, ships chunked patches to a seeded canary cohort,
  // promotes on the pooled A/B probe and rolls back on regression.
  void schedule_ota_epochs();
  void handle_ota_epoch(const Event& event);
  void handle_ota_chunk_arrival(const Event& event);
  void handle_ota_resume(const Event& event);
  void handle_ota_report_arrival(const Event& event);
  void handle_ota_verdict(const Event& event);
  void handle_ota_control_arrival(const Event& event);
  void start_ota_transfer(std::size_t device_index, std::size_t rollout_index,
                          double now_s);
  void send_ota_chunk_hop(net::NodeId to, std::size_t record, double now_s);
  void send_ota_chunks(std::size_t transfer_index,
                       const std::vector<std::size_t>& chunks, double now_s);
  void send_ota_report_hop(net::NodeId from, std::size_t record, double now_s);
  void send_ota_control_hop(net::NodeId to, std::size_t record, double now_s);
  void ota_commit_device(std::size_t transfer_index, double now_s);
  /// The canary A/B probe: the device's most recent sensed rows (before
  /// now_s) scored by both the running and the candidate artifact.
  ota::CanaryProbe ota_probe(std::size_t device_index,
                             const std::vector<std::uint8_t>& old_image,
                             const std::vector<std::uint8_t>& new_image,
                             double now_s) const;
  void finalize_ota();

  // Graceful-degradation ladder (config_.degrade.enabled; DESIGN.md §16).
  bool degrade_on() const noexcept { return config_.degrade.enabled; }
  /// Measure this edge's backpressure signals on the virtual clock.
  approx::DegradeSignals degrade_signals(std::size_t edge_index, double now_s);
  /// Step the edge's controller, ledger any transition and return the level.
  int degrade_update(std::size_t edge_index, double now_s,
                     const approx::DegradeSignals& signals);
  /// L1: replace the edge buffer with a seeded stratified sample; records
  /// the window's confidence interval against the exact (counterfactual)
  /// window mean and ledgers the shed rows.
  void degrade_sample_window(std::size_t edge_index, double now_s);
  /// L2/L3: answer the window with sketches (or a bare count), shed every
  /// row and uplink a fixed-size summary instead of the batch.
  void degrade_summary_flush(std::size_t edge_index, double now_s, int level);
  void handle_summary_arrival(const Event& event);
  void set_load_storm(bool on, double now_s);
  void handle_storm_flush(const Event& event);
  /// Post-drain calm updates so every un-pinned edge walks back to L0 and
  /// the per-level time books close.
  void degrade_settle(double now_s);
  void finalize_degradation();

  // Observatory wiring (all no-ops when obsy_ is empty; see DESIGN.md §13).
  void journey_origin(std::uint64_t trace, obs::HopStream stream, net::NodeId node,
                      double t_s, std::size_t rows, std::size_t bytes);
  void journey_send(const Frame& frame, double t0_s, double t1_s, std::size_t attempts,
                    const char* outcome);
  void journey_arrive(std::uint64_t trace, obs::HopStream stream, std::uint32_t hop,
                      net::NodeId node, double t_s, std::size_t rows,
                      const char* outcome);
  void flight_dump(net::NodeId entity, const char* trigger, double t_s);

  /// Observatory series sampled per edge or at the core, by metric name.
  enum class NodeSeries : std::uint8_t {
    kBufferRows,     ///< buffer.rows
    kDegradeLevel,   ///< degrade.level
    kSampledRows,    ///< degrade.sampled_rows
    kShedRows,       ///< degrade.shed_rows
    kUplinkLatency,  ///< uplink.latency_s
    kUplinkRows      ///< uplink.rows
  };
  static constexpr std::size_t kNodeSeries = static_cast<std::size_t>(NodeSeries::kUplinkRows) + 1;
  /// Records (t_s, value) in `node`'s `which` series; `node` is an edge or
  /// the core, and obsy_ must be set. The sampler is looked up by (metric,
  /// node name, node tier) on the node's first sample of that series and
  /// cached, so the store holds exactly the series a by-name lookup per
  /// sample would create.
  void record_series(NodeSeries which, net::NodeId node, double t_s, double value);

  FleetConfig config_;
  net::Topology topo_;
  TierPipelines tiers_;
  Scheduler sched_;

  std::vector<Rng> device_rngs_;
  std::vector<Rng> edge_rngs_;
  // det-sanctioned: placeholder seed; reseeded from master.split() (rng-stream: core)
  Rng core_rng_{0};
  std::vector<Rng> link_rngs_;
  // det-sanctioned: placeholder; reseeded via master.split() last (rng-stream: chaos)
  Rng chaos_rng_{0};  ///< split last, so legacy streams stay byte-identical

  /// One transport per link, same index space; every simulator send goes
  /// through these (lint rule R8 bans direct Link transmits outside net/).
  std::vector<net::Channel> channels_;

  std::vector<pipeline::Signal> truths_;      ///< per measured quantity
  std::vector<data::Dataset> device_data_;    ///< pre-integrated full window
  std::vector<std::size_t> device_cursor_;    ///< next unflushed row

  /// Row frames whose arrivals are scheduled, held until their last copy
  /// lands and keyed by the message index those arrival events carry (the
  /// event log's msg=). Each frame has one destination, so its first copy
  /// to land is the delivery and any later one a duplicate.
  // det-sanctioned: found and erased by key only, never iterated
  std::unordered_map<std::size_t, RowsInFlight> rows_in_flight_;
  std::size_t next_row_frame_ = 0;  ///< message index of the next frame to land
  std::vector<Buffer> edge_buffers_;
  Buffer core_buffer_;

  /// Per-tier virtual-latency distributions at fixed memory: 1 ms
  /// doubling to ~9 min, quantiles clamped to the observed range.
  obs::Histogram lat_device_edge_{obs::Histogram::exponential_bounds(1e-3, 2.0, 20)};
  obs::Histogram lat_edge_core_{obs::Histogram::exponential_bounds(1e-3, 2.0, 20)};
  obs::Histogram lat_end_to_end_{obs::Histogram::exponential_bounds(1e-3, 2.0, 20)};

  /// Monotone trace-id source for origin windows, wire frames and deploy
  /// broadcasts. Plain counter, never an RNG draw: ids are deterministic
  /// and cost nothing when the observatory is off.
  std::uint64_t next_trace_ = 1;
  std::optional<obs::Observatory> obsy_;
  /// record_series()'s samplers, null until first use: one row per edge, then
  /// the core's (index node - devices). Empty when obsy_ is.
  std::vector<std::array<obs::Sampler*, kNodeSeries>> node_series_;
  obs::Sampler* flush_rows_series_ = nullptr;  ///< fleet-wide flush.rows
  /// Each link's net.link.<name>.bytes counter, looked up on its first send.
  std::vector<obs::Counter*> link_bytes_;

  std::vector<Buffer> edge_checkpoints_;  ///< last persisted buffer per edge
  std::vector<Backlog> backlogs_;         ///< per device

  // ---- Telemetry wire state (empty unless config_.telemetry.enabled) ----
  tdf::SchemaRegistry tdf_registry_;       ///< edge-side schemas, keyed by id
  std::optional<tdf::Schema> tdf_schema_;  ///< the fleet's uplink schema
  std::vector<std::uint8_t> tdf_session_open_;  ///< device: schema delivered
  std::vector<std::uint32_t> tdf_seq_;          ///< per-device frame sequence
  bool partitioned_ = false;
  std::vector<std::uint8_t> core_link_;  ///< link index -> is edge<->core
  /// Pre-chaos drop/corrupt probabilities of every link, captured at start
  /// so burst/storm ends restore exactly the configured baseline.
  std::vector<double> base_drop_prob_;
  std::vector<double> base_corrupt_prob_;

  /// One on-device prediction batch in flight (device -> edge -> core).
  /// Ground truth is resolved at scoring time — the simulator knows it —
  /// so the wire carries one bit per prediction, never labels.
  struct PredBatch {
    net::NodeId device = 0;
    std::size_t rows = 0;
    std::size_t correct = 0;
    std::size_t wire_bytes = 0;
    std::uint64_t trace = 0;  ///< journey trace id
  };

  data::Dataset deploy_train_, deploy_test_;  ///< core split, kept for compile
  deploy::CompiledModel deployed_model_;
  std::optional<deploy::DeviceRuntime> device_runtime_;  ///< set once compiled
  std::size_t artifact_wire_bytes_ = 0;
  std::vector<PredBatch> pred_batches_;
  std::uint64_t broadcast_trace_ = 0;       ///< deploy broadcast trace id
  std::vector<std::uint8_t> artifact_seen_;  ///< dedup duplicate broadcasts
  // det-sanctioned: membership-only dedup set per edge, never iterated
  std::vector<std::unordered_set<std::uint64_t>> pred_seen_;

  deploy::CompiledModel stale_model_;  ///< prior epoch's artifact (fallback)
  std::optional<deploy::DeviceRuntime> stale_runtime_;  ///< set once compiled
  std::vector<std::uint8_t> device_scored_;  ///< device index -> fresh artifact scored

  // ---- OTA delta-update state (empty unless config_.ota.enabled) --------

  /// One epoch's candidate rollout: the target image, its delta patch
  /// against the promoted head, the full-image patch (the resume fallback
  /// and the provisioning payload) and the canary bookkeeping.
  struct OtaRollout {
    int epoch = 0;
    std::uint32_t version_id = 0;
    std::uint32_t base_checksum = ota::kEmptyImageChecksum;  ///< delta base
    std::uint32_t target_checksum = ota::kEmptyImageChecksum;
    std::vector<std::uint8_t> image;  ///< encoded target artifact
    ota::ChunkedPatch delta;          ///< empty when provisioning
    ota::ChunkedPatch full;
    bool has_delta = false;
    bool provisioning = false;
    std::vector<std::uint32_t> cohort;  ///< canary device indices, ascending
    std::vector<ota::CanaryProbe> probes;
    bool verdict_issued = false;
    bool promoted = false;
    std::size_t entry = 0;     ///< index into the epochs_log ledger
    std::uint64_t trace = 0;   ///< journey root (stream kPatch)
  };

  /// One device's in-progress patch transfer. The applier stages verified
  /// chunks; the device image only changes at commit (never torn).
  struct OtaTransfer {
    std::size_t rollout = 0;
    std::uint32_t device = 0;  ///< device index
    bool full = false;         ///< shipping the full image, not the delta
    bool canary = false;
    int resume_rounds = 0;
    int full_rounds = 0;  ///< completed full-image rounds
    bool done = false;
    bool stuck = false;
    ota::PatchApplier applier;
  };

  struct OtaChunkMsg {
    std::size_t transfer = 0;
    std::uint32_t chunk = 0;
    /// Which patch the chunk belongs to, snapshot at send time — the
    /// transfer may fall back to the full image while frames are in flight,
    /// and a stale delta chunk must not index into the full patch.
    bool full = false;
  };
  struct OtaReportMsg {
    std::size_t rollout = 0;
    ota::CanaryProbe probe;
  };
  struct OtaControlMsg {
    std::size_t rollout = 0;
    std::uint32_t device = 0;  ///< device index to roll back
  };

  std::vector<OtaRollout> ota_rollouts_;
  std::vector<OtaTransfer> ota_transfers_;
  std::vector<std::size_t> ota_active_transfer_;  ///< device index -> transfer
  std::vector<OtaChunkMsg> ota_chunk_msgs_;
  std::vector<OtaReportMsg> ota_report_msgs_;
  std::vector<OtaControlMsg> ota_control_msgs_;
  // det-sanctioned: membership-only dedup set per node, never iterated
  std::vector<std::unordered_set<std::uint64_t>> ota_report_seen_;

  std::vector<ota::DeviceImageStore> ota_stores_;  ///< per device
  ota::VersionChain ota_chain_;                    ///< promoted versions only
  std::vector<std::uint8_t> ota_head_image_;       ///< promoted head's bytes
  std::uint32_t ota_next_version_ = 1;
  // det-sanctioned: placeholder; reseeded via master.split() (rng-stream: canary)
  Rng canary_rng_{0};  ///< canary cohort sampling; split after chaos
  // det-sanctioned: placeholder; reseeded via master.split() (rng-stream: epoch)
  Rng epoch_rng_{0};   ///< epoch retrain jitter; split after canary

  // ---- Degradation ladder state (empty unless config_.degrade.enabled) --

  /// One L2/L3 summary uplink in flight (edge -> core).
  struct DegradeSummary {
    std::size_t edge = 0;  ///< edge index
    int level = 0;
    std::size_t wire_bytes = 0;
    std::uint64_t rows_represented = 0;
    bool delivered = false;
  };

  // det-sanctioned: placeholder; reseeded via master.split() (rng-stream: degrade)
  Rng degrade_rng_{0};  ///< L1 stratified sampling; split last of all
  std::vector<approx::DegradationController> degrade_ctrl_;  ///< per edge
  std::vector<double> degrade_signal_t_;        ///< last controller update
  std::vector<std::uint64_t> degrade_dead_letters_;       ///< per-edge total
  std::vector<std::uint64_t> degrade_dead_letters_seen_;  ///< at last update
  /// Deepest in-flight/queue-capacity fraction observed on any of the
  /// edge's channels since its last controller update (reset on read).
  std::vector<double> degrade_queue_hint_;
  std::vector<std::uint64_t> degrade_sf_highwater_;  ///< rows, per edge
  std::vector<DegradeSummary> degrade_summaries_;
  bool load_storm_ = false;
  std::uint64_t storm_epoch_ = 0;  ///< invalidates stale kStormFlush chains

  FleetReport report_;
  bool ran_ = false;
};

}  // namespace iotml::sim

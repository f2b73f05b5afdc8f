#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/channel.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "pipeline/stage.hpp"
#include "sim/stage_log.hpp"

namespace iotml::sim {

/// Transport counters of one link, snapshot at the end of a run.
struct LinkReport {
  std::string name;
  net::LinkStats stats;
};

/// Deterministic summary of the end-to-end (device flush -> core arrival)
/// virtual-latency distribution.
struct LatencySummary {
  std::uint64_t count = 0;
  double mean_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double max_s = 0.0;

  /// Interpolated percentiles from a fixed-bucket histogram — the O(buckets)
  /// replacement for keeping every sample.
  static LatencySummary from_histogram(const obs::Histogram& hist);
};

/// Per-tier latency distribution: the summary plus the log-scale bucket
/// table it came from, so the report carries the whole shape at fixed size.
/// `counts` has one more entry than `bounds_s`; the last is the overflow
/// bucket.
struct LatencyBreakdown {
  LatencySummary summary;
  std::vector<double> bounds_s;
  std::vector<std::uint64_t> counts;

  static LatencyBreakdown from_histogram(const obs::Histogram& hist);
};

/// Per-stage aggregate over every StageReport a fleet run produced, keyed
/// by stage name. Wall time is deliberately absent: it is measured real
/// time, which belongs in the obs metrics, while the FleetReport must be a
/// pure function of (config, seed) so determinism can be asserted.
struct StageTotals {
  std::string player;
  pipeline::Tier tier = pipeline::Tier::kEdge;
  std::size_t runs = 0;
  std::size_t rows_in = 0;
  std::size_t rows_out = 0;
  double cost = 0.0;
};

/// One epoch of the OTA delta-update loop (DESIGN.md §14): what the core
/// built, how it rolled out, what the canary cohort measured and what the
/// epoch cost on the downlinks vs the full-broadcast counterfactual.
struct OtaEpochEntry {
  int epoch = 0;
  double t_s = 0.0;         ///< virtual time the retrain fired
  std::uint32_t version_id = 0;  ///< 0 when no version was built
  /// "provision", "promote", "rollback", "no-change", "no-data",
  /// "core-down", "verdict-skipped" (core unreachable at verdict time) or
  /// "superseded" (a newer epoch fired before this one's verdict).
  std::string outcome;
  std::size_t train_rows = 0;
  std::size_t image_bytes = 0;  ///< encoded target artifact
  std::size_t patch_bytes = 0;  ///< encoded delta patch (0 when none built)

  std::uint64_t delta_downlink_bytes = 0;  ///< radio bytes actually spent
  std::uint64_t full_broadcast_bytes = 0;  ///< counterfactual: full image to all

  std::size_t canary_devices = 0;
  std::size_t devices_reporting = 0;  ///< probes that reached the core
  std::size_t pooled_rows = 0;
  double accuracy_old = 0.0;  ///< pooled canary probe, running model
  double accuracy_new = 0.0;  ///< pooled canary probe, candidate model

  std::size_t devices_updated = 0;      ///< committed this version
  std::size_t devices_rolled_back = 0;
  std::size_t full_fallbacks = 0;  ///< devices that needed a full image
  std::size_t devices_stuck = 0;   ///< transfers exhausted every round
};

/// Ledger of the OTA delta-update subsystem: version chain, chunk transport
/// counters, canary verdict timeline and the delta-vs-full-broadcast byte
/// comparison. All-zero unless FleetConfig::ota.enabled.
struct OtaSummary {
  bool enabled = false;
  int epochs = 0;

  std::size_t versions_published = 0;  ///< promoted chain links at the end

  std::uint64_t delta_downlink_bytes = 0;  ///< total radio bytes, all epochs
  std::uint64_t full_broadcast_bytes = 0;  ///< total counterfactual
  std::uint64_t probe_uplink_bytes = 0;    ///< canary A/B probe reports

  std::uint64_t chunks_sent = 0;
  std::uint64_t chunks_delivered = 0;
  std::uint64_t chunks_corrupt_rejected = 0;
  std::uint64_t chunk_duplicates = 0;
  std::uint64_t chunks_stale = 0;  ///< for a superseded transfer, ignored

  std::uint64_t resume_rounds = 0;
  std::uint64_t full_fallbacks = 0;

  std::size_t promotions = 0;
  std::size_t rollbacks = 0;

  /// Virtual time of the last successful device commit — when every device
  /// ends the run on the head version this is the time-to-full-fleet-
  /// convergence for the final promoted image.
  double last_commit_t_s = 0.0;

  // End-of-run fleet state, also rendered as version_histogram.
  std::size_t devices_on_head = 0;
  std::size_t devices_behind = 0;  ///< on an older (or retired) version
  std::size_t devices_unprovisioned = 0;
  std::size_t devices_stuck = 0;

  /// The no-torn-patches invariant, re-verified at the end of the run:
  /// every provisioned device's image re-hashes to its committed version's
  /// checksum. Asserted by FleetSim; carried here so reports show it.
  bool all_devices_verified = true;

  std::vector<OtaEpochEntry> epochs_log;  ///< one entry per epoch, in order
  std::map<std::uint32_t, std::size_t> version_histogram;  ///< id -> devices (0 = none)
};

/// Standalone JSON rendering of the OTA ledger — the ota.json artifact the
/// fleetscope `versions` view reads. Deterministic per seed (virtual times
/// and counters only, no wall clock).
std::string ota_to_json(const OtaSummary& ota);

/// Ledger of the optional deploy phase: the core compiles the analytics
/// model, broadcasts the artifact down the tree, devices score their
/// held-back window locally and uplink only predictions. `uplink_raw_bytes`
/// is the counterfactual — what shipping those same rows up the tree (the
/// pre-deployment regime) would have cost — so the report itself carries
/// the raw-row-uplink vs deploy-and-score comparison.
struct DeploySummary {
  bool enabled = false;
  std::string model;      ///< compiled artifact kind name
  std::string precision;  ///< deployed storage precision name

  std::size_t artifact_bytes_float32 = 0;  ///< encoded size before quantization
  std::size_t artifact_bytes_deployed = 0; ///< encoded size on the wire

  std::size_t devices_deployed = 0;  ///< devices holding a bound artifact
  std::size_t devices_missed = 0;    ///< broadcast never reached them
  std::size_t rows_scored = 0;       ///< rows classified on-device

  std::size_t predictions_delivered = 0;  ///< predictions that reached the core
  std::size_t predictions_correct = 0;    ///< ... matching the ground truth

  std::uint64_t downlink_bytes = 0;           ///< artifact broadcast traffic
  std::uint64_t uplink_prediction_bytes = 0;  ///< prediction batch traffic
  std::uint64_t uplink_raw_bytes = 0;         ///< counterfactual raw-row uplink

  double holdout_accuracy_float = 0.0;     ///< core holdout, float32 artifact
  double holdout_accuracy_deployed = 0.0;  ///< core holdout, deployed artifact
  double device_accuracy = 0.0;            ///< correct / delivered predictions

  // Per-row inference cost of the deployed artifact (deploy::InferenceCost).
  std::uint64_t cost_multiply_adds = 0;
  std::uint64_t cost_comparisons = 0;
  std::uint64_t cost_table_lookups = 0;

  // Degraded mode: devices the fresh broadcast never reached that scored
  // with the prior epoch's artifact instead (DeployConfig::stale_fallback).
  std::size_t devices_stale = 0;
  std::size_t rows_scored_stale = 0;

  /// The OTA delta-update ledger (all-zero unless FleetConfig::ota.enabled).
  OtaSummary ota;
};

/// Ledger of the telemetry wire subsystem (src/tdf/): what the device
/// uplinks actually cost as encoded TDF frames versus the abstract legacy
/// wire_size_bytes model for the same rows, how the frames fared on the
/// wire, and how full the device backlogs ran. All-zero unless
/// FleetConfig::telemetry.enabled.
struct TelemetrySummary {
  bool enabled = false;

  std::uint32_t schema_id = 0;      ///< the fleet's negotiated uplink schema
  std::size_t schema_fields = 0;
  std::uint64_t schema_negotiations = 0;  ///< session-open frames (schema inline)
  std::uint64_t schema_bytes = 0;         ///< negotiation blob bytes on the wire

  std::uint64_t frames_sent = 0;          ///< device frames a channel accepted
  std::uint64_t frames_delivered = 0;     ///< decoded intact at an edge
  std::uint64_t frames_rejected = 0;      ///< trailer-checksum rejects (wire damage)
  std::uint64_t frames_retransmitted = 0; ///< extra payload attempts (ack mode)

  std::uint64_t rows_encoded = 0;  ///< rows packed into accepted frames
  std::uint64_t rows_decoded = 0;  ///< rows recovered by edge decodes

  std::uint64_t encoded_wire_bytes = 0;  ///< header + frame, per accepted send
  std::uint64_t legacy_wire_bytes = 0;   ///< counterfactual: the abstract model

  std::uint64_t log_frames_evicted = 0;   ///< backlog evictions, whole frames
  std::uint64_t log_rows_evicted = 0;
  std::uint64_t log_highwater_bytes = 0;  ///< max backlog bytes, any device

  /// Every edge decode re-hashed to the checksum stamped over the
  /// device-encoded rows. Asserted by FleetSim (IOTML_INTERNAL_CHECK);
  /// carried here so reports show it.
  bool decode_identity_ok = true;

  /// Mean encoded uplink bytes per row (0 when nothing was sent).
  double bytes_per_row() const noexcept {
    return rows_encoded == 0
               ? 0.0
               : static_cast<double>(encoded_wire_bytes) /
                     static_cast<double>(rows_encoded);
  }

  /// Mean counterfactual bytes per row under the legacy model.
  double legacy_bytes_per_row() const noexcept {
    return rows_encoded == 0
               ? 0.0
               : static_cast<double>(legacy_wire_bytes) /
                     static_cast<double>(rows_encoded);
  }
};

/// End-of-run backpressure watermarks for one edge: how deep its uplink and
/// device-side channel queues ever ran, how many sends were dead-lettered,
/// and the store-and-forward high water across its devices. These are the
/// trigger signals of the degradation ladder (DESIGN.md §16), surfaced as
/// diagnostics in FleetReport::faults.
struct BackpressureGauge {
  std::size_t edge = 0;
  std::size_t uplink_in_flight_highwater = 0;  ///< edge->core channel queue
  std::size_t device_in_flight_highwater = 0;  ///< max over device->edge channels
  std::uint64_t uplink_dead_letters = 0;
  std::uint64_t device_dead_letters = 0;       ///< summed over its devices
  std::size_t sf_rows_highwater = 0;           ///< store-and-forward occupancy
};

/// One ledgered ladder move of one edge (approx::LevelTransition plus the
/// edge index, flattened for the report).
struct DegradeTransitionEntry {
  std::size_t edge = 0;
  double t_s = 0.0;
  int from = 0;
  int to = 0;
};

/// Per-edge ladder timeline: where the edge ended, how long it spent at
/// each rung and every transition in order.
struct EdgeDegradeTimeline {
  std::size_t edge = 0;
  int final_level = 0;
  double time_at_level_s[4] = {0.0, 0.0, 0.0, 0.0};
  std::vector<DegradeTransitionEntry> transitions;
};

/// One approximately-answered flush window: the sampled mean of the first
/// sensor column with its 95% CI against the exact (counterfactual) mean
/// over the full window. `covered` is the realized CI-coverage bit the
/// bench gates on.
struct WindowEstimate {
  std::size_t edge = 0;
  double t_s = 0.0;
  int level = 0;               ///< ladder level that answered the window
  std::size_t rows_window = 0; ///< rows the window held
  std::size_t rows_used = 0;   ///< rows behind the estimate
  double estimate = 0.0;
  double half_width = 0.0;     ///< 95% CI half-width
  double exact = 0.0;          ///< full-window mean (computed out of band)
  bool covered = false;
};

/// Cap on WindowEstimate entries carried verbatim in the report; aggregate
/// counters (coverage, error sums) always cover every window.
inline constexpr std::size_t kMaxWindowEstimates = 64;

/// Ledger of the graceful-degradation contract (DESIGN.md §16): per-edge
/// ladder timelines, rows answered exactly vs approximately, realized error
/// against the exact counterfactual and CI coverage. All-zero unless
/// FleetConfig::degrade.enabled.
struct DegradationLedger {
  bool enabled = false;
  int pin_level = -1;  ///< >= 0 when the ladder was pinned for the run

  // Row disposition. rows_sampled_out joins the conservation ledger: rows a
  // sampled or sketch-only window answered approximately and did not
  // forward upstream.
  std::size_t rows_exact = 0;
  std::size_t rows_approx = 0;
  std::size_t rows_sampled_out = 0;

  std::uint64_t windows_exact = 0;
  std::uint64_t windows_sampled = 0;
  std::uint64_t windows_sketch = 0;
  std::uint64_t windows_summary = 0;

  std::uint64_t transitions_up = 0;
  std::uint64_t transitions_down = 0;

  std::uint64_t summaries_sent = 0;       ///< L2/L3 summary uplinks attempted
  std::uint64_t summaries_delivered = 0;  ///< ... that reached the core
  std::uint64_t summary_bytes = 0;        ///< encoded summary payload bytes

  /// L3 edges skip relaying fresh deploy artifacts; their devices serve the
  /// stale fallback instead (extends DeployConfig::stale_fallback).
  std::uint64_t artifact_relays_skipped = 0;

  double duration_s = 0.0;  ///< run length, for timeline rendering

  // Realized-error bookkeeping over every CI-carrying window.
  std::uint64_t ci_windows = 0;
  std::uint64_t ci_covered = 0;
  double ci_half_width_sum = 0.0;
  double abs_error_sum = 0.0;
  double max_abs_error = 0.0;

  std::vector<EdgeDegradeTimeline> edges;
  std::vector<WindowEstimate> windows;  ///< first kMaxWindowEstimates only
  std::uint64_t windows_truncated = 0;

  /// Fraction of CI-carrying windows whose interval covered the exact
  /// answer (1.0 when none were sampled — nothing to miss).
  double coverage() const noexcept {
    return ci_windows == 0
               ? 1.0
               : static_cast<double>(ci_covered) / static_cast<double>(ci_windows);
  }

  double mean_half_width() const noexcept {
    return ci_windows == 0 ? 0.0
                           : ci_half_width_sum / static_cast<double>(ci_windows);
  }

  double mean_abs_error() const noexcept {
    return ci_windows == 0 ? 0.0
                           : abs_error_sum / static_cast<double>(ci_windows);
  }
};

/// Standalone JSON rendering of the degradation ledger — the
/// degradation.json artifact the fleetscope `degradation` view reads.
/// Deterministic per seed (virtual times and counters only).
std::string degradation_to_json(const DegradationLedger& degradation);

/// One flight-recorder dump, captured at the instant a fault fired: the
/// affected entity's last ring of events, rendered as
/// "t=<sec> <kind> a=<n> b=<n>" lines (oldest -> newest). Only present when
/// the run had the observatory enabled.
struct FlightDump {
  std::string entity;   ///< topology node name ("edge-1", "core", ...)
  std::string trigger;  ///< "edge-crash", "core-crash", "partition", "dead-letter"
  double t_s = 0.0;     ///< virtual time the fault fired
  std::vector<std::string> events;
};

/// Cap on retained FlightDumps per run; later triggers only bump
/// FaultLedger::flight_dumps_truncated so a crash storm cannot balloon the
/// report.
inline constexpr std::size_t kMaxFlightDumps = 8;

/// Fault-and-recovery ledger: every row a fault touched is accounted in
/// exactly one bucket, so rows_generated always equals the sum of the
/// delivery buckets (FleetReport::rows_conserved). Event counts record how
/// much chaos actually fired; recovery counts are informational (recovered
/// rows re-enter the delivered/lost/stranded buckets downstream).
struct FaultLedger {
  std::size_t rows_corrupt_rejected = 0;  ///< checksum-mismatch frames discarded
  std::size_t rows_buffer_evicted = 0;    ///< pushed out of a bounded buffer
  std::size_t rows_lost_to_crash = 0;     ///< wiped volatile state / dead receiver
  std::size_t rows_retained = 0;          ///< kept on-device for deploy scoring
  std::size_t rows_recovered = 0;         ///< restored from an edge checkpoint

  std::uint64_t edge_crashes = 0;
  std::uint64_t core_crashes = 0;
  std::uint64_t partitions = 0;
  std::uint64_t loss_bursts = 0;
  std::uint64_t corruption_storms = 0;
  std::uint64_t load_storms = 0;  ///< rendered only when nonzero (legacy bytes)

  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoints_restored = 0;
  std::size_t stale_model_devices = 0;    ///< mirror of deploy.devices_stale

  /// Flight-recorder context for the first kMaxFlightDumps fault triggers
  /// (empty unless the observatory was enabled).
  std::vector<FlightDump> flight_dumps;
  std::uint64_t flight_dumps_truncated = 0;

  /// Per-edge backpressure watermarks (the ladder's trigger signals),
  /// snapshot at end of run. Rendered only when the run had degradation
  /// enabled so legacy report JSON stays byte-identical.
  std::vector<BackpressureGauge> edge_gauges;
};

/// What a whole fleet run did: the union of every node's per-stage ledgers
/// (the same StageReport the in-process Pipeline emits) plus the transport
/// ledger the distributed runtime adds on top.
struct FleetReport {
  std::size_t devices = 0;
  std::size_t edges = 0;
  double duration_s = 0.0;
  std::uint64_t events = 0;

  // Row conservation: every generated row lands in exactly one bucket here
  // or in the fault ledger, whenever no stage changes the row count (the
  // default pipeline doesn't). See rows_accounted()/rows_conserved().
  std::size_t rows_generated = 0;   ///< integrated device rows at acquisition
  std::size_t rows_delivered = 0;   ///< rows that reached the core
  std::size_t rows_lost = 0;        ///< retransmits exhausted / dropped by a link
  std::size_t rows_skipped = 0;     ///< rows lost to device churn at flush
  std::size_t rows_stranded = 0;    ///< left in an edge or device buffer at the end

  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t duplicates_discarded = 0;  ///< deduplicated at the receiver

  FaultLedger faults;          ///< all-zero on a fault-free run
  net::ChannelStats channels;  ///< every channel's counters, summed

  StageLog stage_reports;  ///< every stage run, in order
  std::vector<LinkReport> links;
  LatencySummary latency;  ///< end-to-end, mirror of latency_tiers["end-to-end"]

  /// Per-tier latency distributions keyed "device-edge", "edge-core",
  /// "end-to-end" — per-hop virtual wire latency and the full
  /// flush-to-core journey, each a fixed-size bucket table.
  std::map<std::string, LatencyBreakdown> latency_tiers;

  double accuracy = 0.0;  ///< core analytics on the delivered records
  std::size_t train_rows = 0;
  std::size_t test_rows = 0;

  DeploySummary deploy;  ///< all-zero unless the run had a deploy phase

  TelemetrySummary telemetry;  ///< all-zero unless telemetry was enabled

  DegradationLedger degradation;  ///< all-zero unless degradation was enabled

  /// Sum of every row bucket: delivered + lost + skipped + stranded plus the
  /// fault-ledger buckets (corrupt-rejected, buffer-evicted, lost-to-crash,
  /// retained-for-scoring) and the degradation ledger's rows_sampled_out.
  /// Excludes rows_recovered, which is informational.
  std::size_t rows_accounted() const noexcept;

  /// The conservation invariant the simulator asserts at the end of every
  /// run: rows_generated == rows_accounted().
  bool rows_conserved() const noexcept { return rows_accounted() == rows_generated; }

  /// Aggregate stage_reports by stage name (sums runs/rows/cost).
  std::map<std::string, StageTotals> stage_totals() const;

  /// Deterministic JSON rendering: stage totals, link stats, transport
  /// counts, latency summary and accuracy. Excludes measured wall times
  /// (see StageTotals) so two runs with the same seed render byte-identical.
  std::string to_json() const;
};

}  // namespace iotml::sim

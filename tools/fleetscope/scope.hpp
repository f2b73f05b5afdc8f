#pragma once

// fleetscope — offline reader for the fleet observatory's artifacts
// (timeseries.json, journeys.jsonl, flightrec.json; see DESIGN.md §13).
// Parses what src/obs wrote, reconstructs per-row device -> edge -> core
// journeys from the hop records, and renders operator-facing tables. The
// parsing layer is a deliberately small JSON reader: the artifacts are
// machine-written with fixed key order, but the reader tolerates any order.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace iotml::fleetscope {

// ---- Minimal JSON ----------------------------------------------------------

/// One parsed JSON value. Objects keep insertion order; numbers are doubles
/// (the artifacts never need 2^53+ integers except trace ids, which are
/// re-parsed from the raw text via u64 accessors below).
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::uint64_t integer = 0;  ///< exact value when the literal was integral
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  const Json* find(const std::string& key) const;
  double num_or(const std::string& key, double fallback) const;
  std::uint64_t u64_or(const std::string& key, std::uint64_t fallback) const;
  std::string str_or(const std::string& key, const std::string& fallback) const;
};

/// Parse one JSON value from `text`. Returns false (and fills `error`) on
/// malformed input; trailing whitespace is allowed, trailing garbage is not.
bool parse_json(const std::string& text, Json& out, std::string& error);

// ---- Artifact models -------------------------------------------------------

/// One journeys.jsonl hop record (mirrors obs::HopRecord, strings for enums).
struct ScopeRecord {
  std::uint64_t trace = 0;
  std::uint32_t hop = 0;
  std::string kind;     ///< "origin" | "send" | "arrive"
  std::string stream;   ///< "rows" | "artifact" | "predictions"
  std::size_t src = 0;
  std::size_t dst = 0;
  double t0_s = 0.0;
  double t1_s = 0.0;
  std::size_t rows = 0;
  std::size_t bytes = 0;
  std::uint32_t attempts = 0;
  std::string outcome;
  std::vector<std::uint64_t> parents;
};

struct JourneyFile {
  bool meta_present = false;
  std::uint64_t meta_records = 0;  ///< records the writer claims it stored
  std::uint64_t meta_dropped = 0;  ///< appends shed past capacity
  std::vector<ScopeRecord> records;
};

/// Parse journeys.jsonl. Returns false (and fills `error`) if any line is
/// malformed; an empty stream is valid and yields an empty file.
bool parse_journeys(std::istream& in, JourneyFile& out, std::string& error);

/// One (metric, entity, tier) series from timeseries.json.
struct SeriesEntry {
  std::string metric;
  std::string entity;
  std::string tier;
  std::uint64_t total = 0;  ///< samples ever recorded (ring may have shed)
  std::vector<std::pair<double, double>> samples;  ///< (t_s, value), oldest first
};

struct SeriesFile {
  std::size_t capacity = 0;
  std::vector<SeriesEntry> series;
};

bool parse_timeseries(std::istream& in, SeriesFile& out, std::string& error);

/// One entity's flight-recorder ring from flightrec.json.
struct FlightEntity {
  std::size_t entity = 0;
  std::uint64_t total = 0;
  std::vector<std::string> lines;  ///< "t=<sec> <kind> a=<a> b=<b>", oldest first
};

struct FlightFile {
  std::size_t ring_capacity = 0;
  std::vector<FlightEntity> entities;
};

bool parse_flightrec(std::istream& in, FlightFile& out, std::string& error);

/// One per-epoch entry of ota.json's "epochs_log" (mirrors sim::OtaEpochEntry).
struct OtaEpoch {
  std::uint64_t epoch = 0;
  double t_s = 0.0;
  std::uint32_t version_id = 0;
  std::string outcome;  ///< provision|promote|rollback|no-change|...
  std::uint64_t train_rows = 0;
  std::uint64_t image_bytes = 0;
  std::uint64_t patch_bytes = 0;
  std::uint64_t delta_downlink_bytes = 0;
  std::uint64_t full_broadcast_bytes = 0;
  std::uint64_t canary_devices = 0;
  std::uint64_t devices_reporting = 0;
  double accuracy_old = 0.0;
  double accuracy_new = 0.0;
  std::uint64_t devices_updated = 0;
  std::uint64_t devices_rolled_back = 0;
  std::uint64_t full_fallbacks = 0;
  std::uint64_t devices_stuck = 0;
};

/// The OTA deploy ledger written as ota.json by a FleetSim run with
/// ota.enabled (the `versions` view's input).
struct OtaFile {
  bool enabled = false;
  std::uint64_t epochs = 0;
  std::uint64_t versions_published = 0;
  std::uint64_t delta_downlink_bytes = 0;
  std::uint64_t full_broadcast_bytes = 0;
  std::uint64_t probe_uplink_bytes = 0;
  std::uint64_t promotions = 0;
  std::uint64_t rollbacks = 0;
  double last_commit_t_s = 0.0;
  std::uint64_t devices_on_head = 0;
  std::uint64_t devices_behind = 0;
  std::uint64_t devices_unprovisioned = 0;
  std::uint64_t devices_stuck = 0;
  bool all_devices_verified = false;
  /// version id -> device count at end of run, ascending ids (0 = none).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> version_histogram;
  std::vector<OtaEpoch> epochs_log;
};

bool parse_ota(std::istream& in, OtaFile& out, std::string& error);

/// One ladder move from degradation.json's per-edge timelines (mirrors
/// sim::DegradeTransitionEntry).
struct DegradeTransition {
  double t_s = 0.0;
  int from = 0;
  int to = 0;
};

/// One edge's ladder timeline (mirrors sim::EdgeDegradeTimeline).
struct DegradeEdge {
  std::size_t edge = 0;
  int final_level = 0;
  double time_at_level_s[4] = {0.0, 0.0, 0.0, 0.0};
  std::vector<DegradeTransition> transitions;
};

/// One ledgered approximate window answer (mirrors sim::WindowEstimate).
struct DegradeWindow {
  std::size_t edge = 0;
  double t_s = 0.0;
  int level = 0;
  std::uint64_t rows_window = 0;
  std::uint64_t rows_used = 0;
  double estimate = 0.0;
  double half_width = 0.0;
  double exact = 0.0;
  bool covered = false;
};

/// The graceful-degradation ledger written as degradation.json by a FleetSim
/// run with degrade.enabled (the `degradation` view's input; DESIGN.md §16).
struct DegradeFile {
  bool enabled = false;
  int pin_level = -1;
  double duration_s = 0.0;
  std::uint64_t rows_exact = 0;
  std::uint64_t rows_approx = 0;
  std::uint64_t rows_sampled_out = 0;
  std::uint64_t windows_exact = 0;
  std::uint64_t windows_sampled = 0;
  std::uint64_t windows_sketch = 0;
  std::uint64_t windows_summary = 0;
  std::uint64_t transitions_up = 0;
  std::uint64_t transitions_down = 0;
  std::uint64_t summaries_sent = 0;
  std::uint64_t summaries_delivered = 0;
  std::uint64_t summary_bytes = 0;
  std::uint64_t ci_windows = 0;
  std::uint64_t ci_covered = 0;
  double coverage = 0.0;
  double mean_half_width = 0.0;
  double mean_abs_error = 0.0;
  double max_abs_error = 0.0;
  std::uint64_t windows_truncated = 0;
  std::vector<DegradeEdge> edges;
  std::vector<DegradeWindow> windows;
};

bool parse_degradation(std::istream& in, DegradeFile& out, std::string& error);

// ---- Journey reconstruction ------------------------------------------------

/// One origin window's reconstructed path through the tree. `hop0`/`hop1`
/// point at the delivered send that actually carried the window's rows on
/// that wire hop (null when the chain is broken there); `failed_frames`
/// counts sends carrying this window that did not deliver (timeouts, drops,
/// corruption, dead letters) — the retry/loss story of the journey.
struct Journey {
  std::uint64_t origin = 0;
  const ScopeRecord* origin_rec = nullptr;
  const ScopeRecord* hop0 = nullptr;
  const ScopeRecord* hop1 = nullptr;
  const ScopeRecord* core_arrival = nullptr;
  std::size_t failed_frames = 0;
  bool complete() const noexcept {
    return origin_rec != nullptr && hop0 != nullptr && hop1 != nullptr &&
           core_arrival != nullptr;
  }
  /// Flush-to-core latency; 0 unless complete.
  double end_to_end_s() const noexcept;
};

/// Row-stream completeness over the whole log. "Delivered" means the origin
/// window's rows reached an accepted core arrival; "complete" additionally
/// means every hop of the journey reconstructs (origin record + delivered,
/// accepted hop-0 and hop-1 sends naming the origin in their parents).
struct Completeness {
  std::size_t origins_total = 0;
  std::size_t origins_delivered = 0;
  std::size_t origins_complete = 0;
  std::uint64_t rows_delivered = 0;  ///< row-weighted, by origin window size
  std::uint64_t rows_complete = 0;

  double origin_fraction() const noexcept;
  double row_fraction() const noexcept;
};

/// Index over a parsed journey log. Holds pointers into the JourneyFile
/// passed to the constructor, which must outlive the reconstruction.
class Reconstruction {
 public:
  explicit Reconstruction(const JourneyFile& file);

  /// Delivered origin windows in trace-id order.
  const std::vector<Journey>& journeys() const noexcept { return journeys_; }
  const Completeness& completeness() const noexcept { return completeness_; }

  /// Count of (kind, outcome) pairs per stream, for the health table.
  const std::map<std::string, std::map<std::string, std::uint64_t>>& outcome_counts()
      const noexcept {
    return outcome_counts_;
  }

 private:
  std::vector<Journey> journeys_;
  Completeness completeness_;
  std::map<std::string, std::map<std::string, std::uint64_t>> outcome_counts_;
};

// ---- Rendering -------------------------------------------------------------

/// Human-readable journey chains for the first `limit` delivered origins.
std::string render_journeys(const Reconstruction& recon, std::size_t limit);

/// Per-metric heatmap: one row per (entity, tier), `columns` time buckets,
/// cell intensity proportional to the bucket's mean value relative to the
/// metric-wide max.
std::string render_heatmap(const SeriesFile& series, std::size_t columns);

/// Outcome counts, completeness fractions and flight-recorder totals.
std::string render_health(const JourneyFile& file, const Reconstruction& recon,
                          const FlightFile& flight);

/// Flight rings, newest `limit` entities with events.
std::string render_flight(const FlightFile& flight, std::size_t limit);

/// The `versions` view: per-epoch canary promote/rollback timeline plus the
/// end-of-run version-chain histogram, from the OTA deploy ledger.
std::string render_versions(const OtaFile& ota);

/// The `degradation` view: per-edge ladder timeline strips (one character
/// per time bucket, deeper rungs darker), the exact-vs-approximate window
/// split, CI coverage, and the first ledgered window estimates.
std::string render_degradation(const DegradeFile& degrade);

}  // namespace iotml::fleetscope

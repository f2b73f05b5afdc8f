#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "util/chunked_log.hpp"

namespace iotml::sim {

/// Everything that can happen in the fleet simulation.
enum class EventKind {
  kDeviceFlush,  ///< a device packages its window and sends to its edge
  kEdgeFlush,    ///< an edge integrates its buffer and forwards to the core
  kArrival,      ///< a message reaches a node
  kLinkDown,     ///< fault injection: link goes down (target = link index)
  kLinkUp,       ///< fault injection: link recovers (target = link index)
  kDeviceDown,   ///< churn: device goes offline (target = node id)
  kDeviceUp,     ///< churn: device comes back (target = node id)
  kDeployBroadcast,    ///< the core pushes the compiled artifact fleet-wide
  kArtifactArrival,    ///< a compiled artifact reaches an edge or device
  kPredictionArrival,  ///< an on-device prediction batch reaches a node
  kEdgeCrash,          ///< edge loses volatile state (target = edge index)
  kEdgeRestart,        ///< edge restores its last checkpoint (target = edge index)
  kCoreCrash,          ///< core unreachable (its stored data stays durable)
  kCoreRestart,
  // Chaos transitions (ChaosEvent::kind). Chaos plans sort by (time, kind,
  // target), so these keep their relative order: partition, loss burst,
  // corruption, load storm.
  kPartitionStart,     ///< chaos: every edge<->core link severed
  kPartitionEnd,
  kLossBurstStart,     ///< chaos: device uplinks jump to burst drop prob
  kLossBurstEnd,
  kCorruptionStart,    ///< chaos: device uplinks corrupt payloads
  kCorruptionEnd,
  kCheckpoint,         ///< an edge persists its buffer (target = edge index)
  kCorruptArrival,     ///< a frame lands but fails its payload checksum
  // OTA delta-update loop (DESIGN.md §14) — scheduled only when
  // FleetConfig::ota.enabled, so legacy event logs are untouched.
  kOtaEpoch,           ///< the core retrains and starts a rollout (target = core)
  kOtaChunkArrival,    ///< a patch chunk frame reaches an edge or device
  kOtaResume,          ///< per-transfer resume timer (target = device index)
  kOtaReportArrival,   ///< a canary A/B probe report reaches an edge or the core
  kOtaVerdict,         ///< the core judges a canary cohort (target = core)
  kOtaControlArrival,  ///< a rollback command reaches an edge or device
  // Graceful-degradation ladder (DESIGN.md §16) — scheduled only when
  // chaos load storms or FleetConfig::degrade are enabled, so legacy
  // event logs are untouched.
  kLoadStormStart,     ///< chaos: device flush schedules compress
  kLoadStormEnd,
  kStormFlush,         ///< an extra storm-compressed device flush (target = device)
  kSummaryArrival      ///< an approximate window summary reaches the core
};

/// "sim.event:" + the kind's event-log name: a string literal, so a span
/// names itself with it and builds no string. perfbench folds spans by
/// these names.
const char* event_span_name(EventKind kind) noexcept;

/// The kind as the event log prints it, e.g. "device-flush": the suffix of
/// event_span_name(kind).
std::string_view event_kind_name(EventKind kind) noexcept;

inline constexpr std::size_t kNoMessage = static_cast<std::size_t>(-1);

struct Event {
  double time_s = 0.0;
  std::uint64_t seq = 0;  ///< push order; breaks timestamp ties FIFO
  EventKind kind = EventKind::kDeviceFlush;
  std::size_t target = 0;             ///< node id (link index for link faults)
  std::size_t message = kNoMessage;   ///< index of the message an arrival carries
};

/// Deterministic discrete-event queue over a virtual clock. Events pop in
/// (time, push-order) order, so equal timestamps resolve FIFO and a run is
/// a pure function of the pushes — no wall-clock reads anywhere (lint rule
/// R6). Every pop keeps its 40-byte Event; the event log, which the
/// determinism test compares byte-for-byte across runs, is rendered from
/// those records only when it is read.
class Scheduler {
 public:
  /// Throws InvalidArgument if `time_s` precedes the current virtual time
  /// (an event cannot be scheduled into the past).
  void push(double time_s, EventKind kind, std::size_t target,
            std::size_t message = kNoMessage);

  bool empty() const noexcept { return queue_.empty(); }
  std::size_t pending() const noexcept { return queue_.size(); }

  /// Pop the earliest event and advance the virtual clock to it. Throws
  /// InvalidArgument when the queue is empty.
  Event pop();

  /// Current virtual time: the timestamp of the last popped event.
  double now_s() const noexcept { return now_s_; }

  std::uint64_t processed() const noexcept { return popped_.size(); }

  /// The event log: one line per popped event, in processing order,
  /// `t=<time_s, 6 decimals> #<seq> <kind> target=<target>[ msg=<message>]`
  /// (msg only when the event carries one). Rendered from the stored events
  /// on every call; write_log() streams the same lines without the vector.
  std::vector<std::string> log() const;

  /// Writes the lines of log() to `out`, each followed by '\n'.
  void write_log(std::ostream& out) const;

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time_s != b.time_s) return a.time_s > b.time_s;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::uint64_t next_seq_ = 0;
  double now_s_ = 0.0;
  ChunkedLog<Event> popped_;
};

}  // namespace iotml::sim

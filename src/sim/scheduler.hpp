#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/record_log.hpp"

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
/// a pure function of the pushes — no wall-clock reads anywhere (lint R6).
/// A periodic series is queued one event at a time: the queue holds one
/// entry per one-off event and one per live series, not every event a run
/// will see. Every pop keeps its event as one variable-length record (see
/// bytes(); 9.6 B on fleet-wire); the event log, which the determinism
/// test compares byte-for-byte across runs, is rendered from those records
/// only when it is read.
class Scheduler {
 public:
  /// Targets are kept as 32 bits; a wider one is rejected at push.
  static constexpr std::size_t kMaxTarget = 0xFFFFFFFFu;

  /// Throws InvalidArgument, and queues nothing, if `time_s` precedes the
  /// current virtual time (an event cannot be scheduled into the past) or
  /// `target` exceeds kMaxTarget.
  void push(double time_s, EventKind kind, std::size_t target,
            std::size_t message = kNoMessage);

  /// Schedules exactly the events of
  /// `for (t = first_s; t < until_s; t += period_s) push(t, kind, target)`:
  /// the same accumulated times and the same seqs, reserved as one block
  /// now, so a later push() gets the seq after the block. Only the next
  /// event is queued; pop() queues its successor. An empty series
  /// (`first_s >= until_s`) reserves no seq. Throws InvalidArgument, and
  /// changes nothing, if `first_s` precedes the current time, `until_s` is
  /// not finite, `period_s` is not positive and finite or too small to
  /// advance the clock, or `target` exceeds kMaxTarget.
  void push_series(double first_s, double period_s, double until_s, EventKind kind,
                   std::size_t target);

  bool empty() const noexcept { return queue_.empty(); }

  /// Queued entries: each one-off event counts once, and so does each
  /// series that still has events to pop, however many it has left.
  std::size_t pending() const noexcept { return queue_.size(); }

  /// Pop the earliest event, advance the virtual clock to it and append its
  /// log record; the log allocates only to start a chunk or to grow its one
  /// reused encode buffer. Throws InvalidArgument when the queue is empty.
  Event pop();

  /// Current virtual time: the timestamp of the last popped event.
  double now_s() const noexcept { return now_s_; }

  /// Events popped so far: one log record each.
  std::uint64_t processed() const noexcept { return popped_.size(); }

  /// Bytes the popped events' records hold. Each record is the kind byte,
  /// the time as the zigzag varint of its f64 bit pattern's difference
  /// from the previous pop's (exact for every pattern, one byte within a
  /// same-instant group), the seq as a zigzag varint delta from the
  /// previous pop's, the target as a varint and message + 1 as a varint
  /// (0 when the event carries none).
  std::size_t bytes() const noexcept { return popped_.bytes(); }

  /// The event log: one line per popped event, in processing order,
  /// `t=<time_s, 6 decimals> #<seq> <kind> target=<target>[ msg=<message>]`
  /// (msg only when the event carries one). Decoded from the popped events'
  /// records and rendered on every call; write_log() streams the same lines
  /// without the vector.
  std::vector<std::string> log() const;

  /// Writes the lines of log() to `out`, each followed by '\n'.
  void write_log(std::ostream& out) const;

 private:
  /// A queued event: time, seq and message at full width, the target as 32
  /// bits and the kind as one byte. A series' next event also carries the
  /// series' period and end (`period_s` is 0 for a one-off event).
  struct Entry {
    double time_s = 0.0;
    std::uint64_t seq = 0;
    std::size_t message = kNoMessage;
    std::uint32_t target = 0;
    std::uint8_t kind = 0;
    double period_s = 0.0;
    double until_s = 0.0;
  };

  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time_s != b.time_s) return a.time_s > b.time_s;
      return a.seq > b.seq;
    }
  };

  void enqueue(const Entry& entry);

  /// Calls `f(event)` for every popped event, in processing order.
  template <typename F>
  void for_each_popped(F&& f) const;

  /// Formats `event`'s log line into `line` (no newline); returns its length.
  static std::size_t render(const Event& event, char (&line)[128]);

  std::vector<Entry> queue_;  ///< a binary heap under Later
  std::uint64_t next_seq_ = 0;
  double now_s_ = 0.0;
  util::RecordLog popped_;
  std::uint64_t last_popped_time_bits_ = 0;  ///< the base of the next pop's time delta
  std::uint64_t last_popped_seq_ = 0;        ///< the base of the next pop's seq delta
};

}  // namespace iotml::sim

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/link.hpp"
#include "util/rng.hpp"

namespace iotml::net {

/// How a channel moves a payload across its link.
enum class ChannelMode {
  kFireAndForget,  ///< the link's own retry budget, no acks, no send queue
  kAckRetry        ///< stop-and-wait ack with exponential backoff + checksums
};

/// Policy of one reliable channel. All times are virtual seconds.
struct ChannelParams {
  ChannelMode mode = ChannelMode::kFireAndForget;
  double ack_timeout_s = 0.25;       ///< grace past the attempt before a timeout
  double backoff_base_s = 0.05;      ///< first retransmit wait
  double backoff_cap_s = 2.0;        ///< backoff ceiling
  std::size_t max_attempts = 4;      ///< total payload transmissions (>= 1)
  std::size_t queue_capacity = 64;   ///< bounded in-flight sends (backpressure)
};

/// Channel counters, aggregated into FleetReport::channels; a fleet run
/// publishes them as net.channel.* obs counters (sim::publish_counters).
struct ChannelStats {
  std::uint64_t sends = 0;            ///< payloads accepted onto the queue
  std::uint64_t delivered = 0;        ///< payloads that reached the receiver
  std::uint64_t acks = 0;             ///< ack frames that made it back
  std::uint64_t timeouts = 0;         ///< attempts that expired unacknowledged
  std::uint64_t retransmits = 0;      ///< payload re-sends after a timeout
  std::uint64_t backoff_waits = 0;    ///< backoff sleeps taken
  double backoff_wait_s = 0.0;        ///< total virtual time spent backing off
  std::uint64_t dead_letters = 0;     ///< sends refused by a full queue
  std::uint64_t corrupt_rejected = 0; ///< frames discarded on checksum mismatch
};

/// Outcome of one Channel::send, computed at send time (the discrete-event
/// scheduler turns arrival times into delivery events).
struct ChannelOutcome {
  bool accepted = false;      ///< false: dead-lettered by backpressure
  bool delivered = false;     ///< payload reached the receiver intact
  bool corrupted = false;     ///< landed but checksum-rejected (FF mode only)
  double arrival_s = 0.0;     ///< when the delivered (or corrupt) frame landed
  bool duplicated = false;    ///< link-level straggler copy exists
  double duplicate_arrival_s = 0.0;
  std::size_t attempts = 0;   ///< payload transmissions made
  /// Ack mode: this send's attempts the receiver checksum-rejected (each
  /// one repaired by a retransmit or given up on). Fire-and-forget reports
  /// its one corrupt landing through `corrupted` instead.
  std::size_t corrupt_rejects = 0;
};

/// The transport over one Link, and the one place a frame's retries are
/// decided; the link itself only makes single wire attempts.
///
/// Both policies back off on one capped exponential schedule: retry k
/// (0-based) waits min(base * 2^k, cap).
///
/// kFireAndForget retries a lost frame within the link's own budget
/// (LinkParams::max_retries, retry_backoff_s, retry_backoff_cap_s) and
/// never hears back: a frame that lands corrupt is delivered, then
/// *detected* and rejected by the receiver's checksum.
/// kAckRetry runs stop-and-wait: the receiver checks the payload checksum
/// and acks intact frames over the reverse path (modelled with the same
/// loss probability), and the sender retransmits after a timeout with
/// capped exponential backoff, stretched by a seeded factor in [1, 1.2), so
/// corrupt frames are *repaired*. Its bounded in-flight queue applies
/// backpressure: sends beyond `queue_capacity` are dead-lettered without
/// touching the wire. All simulator traffic goes through this API — wire
/// attempts outside src/net/ are banned by lint rule R8.
class Channel {
 public:
  /// Throws InvalidArgument unless max_attempts >= 1, queue_capacity >= 1
  /// and ack_timeout/backoffs are non-negative.
  Channel(Link& link, ChannelParams params);

  const Link& link() const noexcept { return *link_; }
  const ChannelParams& params() const noexcept { return params_; }
  const ChannelStats& stats() const noexcept { return stats_; }
  ChannelMode mode() const noexcept { return params_.mode; }

  /// Sends still occupying the channel (wire time not yet elapsed) at `now_s`.
  std::size_t in_flight(double now_s) const;

  /// Deepest the in-flight queue has ever been, measured right after each
  /// accepted send. A backpressure watermark: high-water near
  /// `queue_capacity` means the channel has been skirting dead-letter
  /// territory even if nothing was refused yet.
  std::size_t in_flight_highwater() const noexcept { return in_flight_highwater_; }

  /// Lifetime dead-letter count (sends refused by the bounded queue) —
  /// convenience mirror of stats().dead_letters for ladder controllers.
  std::uint64_t dead_letters() const noexcept { return stats_.dead_letters; }

  /// Move `bytes` across the link at `now_s`. Deterministic given the Rng
  /// state; updates the channel's stats and the link's.
  ChannelOutcome send(double now_s, std::size_t bytes, Rng& rng);

 private:
  ChannelOutcome send_fire_and_forget(double now_s, std::size_t bytes, Rng& rng);
  ChannelOutcome send_ack_retry(double now_s, std::size_t bytes, Rng& rng);
  /// Draw whether the frame that first landed at `arrival_s` also leaves a
  /// straggler copy one propagation delay behind it.
  void draw_straggler(ChannelOutcome& outcome, double arrival_s, Rng& rng);

  Link* link_;
  ChannelParams params_;
  ChannelStats stats_;
  std::vector<double> completion_s_;  ///< in-flight send completion times
  std::size_t in_flight_highwater_ = 0;
};

}  // namespace iotml::net

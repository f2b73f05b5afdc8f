#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace iotml::net {

/// Behavioural model of one lossy, bandwidth-limited link between tiers.
/// All times are virtual-clock seconds — the fleet simulator never reads a
/// wall clock (lint rule R6), so a link's timing is fully determined by its
/// parameters, its traffic and the seeded Rng it is given. The retry fields
/// are the link's own fire-and-forget retry budget, which net::Channel
/// applies per link.
struct LinkParams {
  double latency_s = 0.01;            ///< propagation delay per delivery
  double jitter_s = 0.0;              ///< uniform [0, jitter_s) extra delay
  double bandwidth_bytes_per_s = 1e6; ///< serialization rate (must be > 0)
  double drop_prob = 0.0;             ///< per-attempt loss probability
  double corrupt_prob = 0.0;          ///< per-delivery payload corruption prob
  double duplicate_prob = 0.0;        ///< per-delivery chance of a late copy
  std::size_t max_retries = 0;        ///< retransmit attempts after a loss
  double retry_backoff_s = 0.05;      ///< base delay before a retransmit
  double retry_backoff_cap_s = 2.0;   ///< backoff ceiling (exponential growth)
};

/// Transport counters, aggregated per link for the FleetReport.
struct LinkStats {
  std::uint64_t messages = 0;     ///< delivered first copies
  std::uint64_t bytes = 0;        ///< wire bytes of delivered messages
  std::uint64_t drops = 0;        ///< messages lost (incl. link-down sends)
  std::uint64_t corrupted = 0;    ///< frames delivered with a flipped payload
  std::uint64_t duplicates = 0;   ///< extra copies generated
  std::uint64_t retransmits = 0;  ///< retransmission attempts made
};

/// One wire attempt: the primitive both net::Channel retry policies
/// compose. The frame occupies the wire for its serialization time whether
/// or not it survives; a delivered frame may still arrive corrupted.
struct Attempt {
  bool delivered = false;
  bool corrupted = false;
  double done_s = 0.0;     ///< when the wire frees up after this attempt
  double arrival_s = 0.0;  ///< meaningful only when delivered
};

/// One directed link: a single wire attempt at a time, its stats, its up/down
/// state and the chaos overrides. The wire is serial: a transmission starts
/// no earlier than the previous one finished, so bandwidth contention shows
/// up as queueing delay without any explicit queue object. Retries live in
/// net::Channel.
class Link {
 public:
  /// Throws InvalidArgument unless bandwidth > 0, latency/jitter/backoff are
  /// non-negative and the probabilities lie in [0, 1].
  Link(std::string name, LinkParams params);

  const std::string& name() const noexcept { return name_; }
  const LinkParams& params() const noexcept { return params_; }

  bool up() const noexcept { return up_; }
  void set_up(bool up) noexcept { up_ = up; }

  /// Chaos-harness overrides (loss bursts, corruption storms). Throws
  /// InvalidArgument unless the probability lies in [0, 1].
  void set_drop_prob(double p);
  void set_corrupt_prob(double p);

  const LinkStats& stats() const noexcept { return stats_; }

  /// Time the wire frees up (for tests and queue-depth introspection).
  double busy_until_s() const noexcept { return busy_until_s_; }

  /// One wire attempt with no retry policy: serialize (queueing behind the
  /// busy wire), draw loss and corruption, land one latency (+jitter) later.
  /// Stats for messages/bytes/drops are NOT updated — the caller owns the
  /// retry policy and the final accounting (see net::Channel); only the
  /// corrupted counter is bumped here because corruption is per-frame.
  Attempt try_transmit(double now_s, std::size_t bytes, Rng& rng);

  /// Accounting hooks for net::Channel: record the final fate of a send so
  /// per-link stats stay truthful whichever retry policy drove the wire.
  void record_delivery(std::size_t bytes) noexcept;
  void record_drop() noexcept { ++stats_.drops; }
  void record_retransmit() noexcept { ++stats_.retransmits; }
  void record_duplicate() noexcept { ++stats_.duplicates; }

 private:
  std::string name_;
  LinkParams params_;
  bool up_ = true;
  double busy_until_s_ = 0.0;
  LinkStats stats_;
};

}  // namespace iotml::net

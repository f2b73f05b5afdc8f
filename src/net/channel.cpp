#include "net/channel.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace iotml::net {

namespace {

/// Capped exponential backoff, the one schedule both retry policies share:
/// retry k (0-based) waits min(base * 2^k, cap). The cap is clamped to at
/// least the base, so a small cap cannot shrink the first wait, and a lossy
/// wire is never hammered at a fixed cadence.
double capped_backoff_s(double base_s, double cap_s, std::size_t retry) noexcept {
  return std::min(
      base_s * static_cast<double>(std::uint64_t{1} << std::min<std::size_t>(retry, 32)),
      std::max(cap_s, base_s));
}

/// Ack-mode backoff jitter: each wait is stretched by a seeded factor in
/// [1, 1 + kBackoffJitter).
constexpr double kBackoffJitter = 0.2;

}  // namespace

Channel::Channel(Link& link, ChannelParams params) : link_(&link), params_(params) {
  IOTML_CHECK(params.max_attempts >= 1, "Channel: max_attempts must be >= 1");
  IOTML_CHECK(params.queue_capacity >= 1, "Channel: queue_capacity must be >= 1");
  IOTML_CHECK(params.ack_timeout_s >= 0.0, "Channel: negative ack timeout");
  IOTML_CHECK(params.backoff_base_s >= 0.0 && params.backoff_cap_s >= 0.0,
              "Channel: negative backoff");
}

std::size_t Channel::in_flight(double now_s) const {
  std::size_t n = 0;
  for (double done : completion_s_) {
    if (done > now_s) ++n;
  }
  return n;
}

ChannelOutcome Channel::send(double now_s, std::size_t bytes, Rng& rng) {
  // Backpressure: prune finished sends, then refuse (dead-letter) when the
  // bounded queue is full — the caller decides whether to buffer or drop.
  // Fire-and-forget has no queue to fill: its sender blasts onto the medium
  // without tracking outstanding sends, which is exactly its failure mode,
  // so the bound applies only to the reliable mode.
  completion_s_.erase(
      std::remove_if(completion_s_.begin(), completion_s_.end(),
                     [now_s](double done) { return done <= now_s; }),
      completion_s_.end());
  if (params_.mode == ChannelMode::kAckRetry &&
      completion_s_.size() >= params_.queue_capacity) {
    ++stats_.dead_letters;
    return {};
  }
  ++stats_.sends;
  ChannelOutcome outcome = params_.mode == ChannelMode::kAckRetry
                               ? send_ack_retry(now_s, bytes, rng)
                               : send_fire_and_forget(now_s, bytes, rng);
  outcome.accepted = true;
  completion_s_.push_back(link_->busy_until_s());
  in_flight_highwater_ = std::max(in_flight_highwater_, completion_s_.size());
  return outcome;
}

void Channel::draw_straggler(ChannelOutcome& outcome, double arrival_s, Rng& rng) {
  const LinkParams& lp = link_->params();
  if (lp.duplicate_prob > 0.0 && rng.bernoulli(lp.duplicate_prob)) {
    // The receiver is expected to deduplicate the late copy by message id.
    outcome.duplicated = true;
    outcome.duplicate_arrival_s = arrival_s + lp.latency_s;
    link_->record_duplicate();
  }
}

ChannelOutcome Channel::send_fire_and_forget(double now_s, std::size_t bytes, Rng& rng) {
  ChannelOutcome outcome;
  outcome.attempts = 1;
  // Without acks the sender cannot tell a dead wire from a live one: its
  // one attempt vanishes, and it never learns to retry.
  if (!link_->up()) {
    link_->record_drop();
    return outcome;
  }
  const LinkParams& lp = link_->params();
  double start_s = now_s;
  for (std::size_t retry = 0;; ++retry) {
    const Attempt wire = link_->try_transmit(start_s, bytes, rng);
    if (wire.delivered) {
      // A corrupt frame still consumes the delivery: the receiver's
      // checksum rejects it, and nobody tells the sender.
      link_->record_delivery(bytes);
      outcome.arrival_s = wire.arrival_s;
      outcome.delivered = !wire.corrupted;
      outcome.corrupted = wire.corrupted;
      if (outcome.delivered) {
        ++stats_.delivered;
      } else {
        ++stats_.corrupt_rejected;
      }
      draw_straggler(outcome, wire.arrival_s, rng);
      return outcome;
    }
    if (retry == lp.max_retries) break;
    link_->record_retransmit();
    ++outcome.attempts;
    start_s = wire.done_s + capped_backoff_s(lp.retry_backoff_s, lp.retry_backoff_cap_s, retry);
  }
  link_->record_drop();
  return outcome;
}

ChannelOutcome Channel::send_ack_retry(double now_s, std::size_t bytes, Rng& rng) {
  ChannelOutcome outcome;
  if (!link_->up()) {
    // The radio cannot even open the wire: an immediate timeout, so the
    // caller can store-and-forward instead of pretending the send happened.
    ++stats_.timeouts;
    link_->record_drop();
    return outcome;
  }

  const LinkParams& lp = link_->params();
  double first_arrival_s = -1.0;
  double start_s = now_s;
  for (std::size_t attempt = 1; attempt <= params_.max_attempts; ++attempt) {
    ++outcome.attempts;
    if (attempt > 1) {
      ++stats_.retransmits;
      link_->record_retransmit();
    }
    const Attempt wire = link_->try_transmit(start_s, bytes, rng);
    bool acked = false;
    if (wire.delivered && !wire.corrupted) {
      if (first_arrival_s < 0.0) {
        first_arrival_s = wire.arrival_s;
        draw_straggler(outcome, wire.arrival_s, rng);
      } else {
        // A retransmit of a payload the receiver already holds (its ack was
        // lost): deduplicated on arrival, accounted as a link duplicate.
        link_->record_duplicate();
      }
      // The ack crosses the reverse path, modelled with the same loss
      // probability; its serialization time only extends the exchange.
      if (!rng.bernoulli(lp.drop_prob)) {
        acked = true;
        ++stats_.acks;
      }
    } else if (wire.delivered && wire.corrupted) {
      // Receiver recomputes the payload checksum, rejects the frame and
      // stays silent — the sender sees a timeout and retransmits, so ack
      // mode *repairs* corruption instead of merely detecting it.
      ++stats_.corrupt_rejected;
      ++outcome.corrupt_rejects;
    }
    if (acked) break;
    ++stats_.timeouts;
    if (attempt < params_.max_attempts) {
      // Capped exponential backoff with deterministic seeded jitter on top.
      const double wait_s =
          capped_backoff_s(params_.backoff_base_s, params_.backoff_cap_s, attempt - 1) *
          (1.0 + rng.uniform(0.0, kBackoffJitter));
      ++stats_.backoff_waits;
      stats_.backoff_wait_s += wait_s;
      start_s = wire.done_s + params_.ack_timeout_s + wait_s;
    }
  }

  if (first_arrival_s >= 0.0) {
    // The payload reached the receiver intact at least once — it is
    // delivered even if every ack was lost and the sender gave up.
    outcome.delivered = true;
    outcome.arrival_s = first_arrival_s;
    ++stats_.delivered;
    link_->record_delivery(bytes);
  } else {
    link_->record_drop();
  }
  return outcome;
}

}  // namespace iotml::net

#include "net/link.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace iotml::net {

Link::Link(std::string name, LinkParams params)
    : name_(std::move(name)), params_(params) {
  IOTML_CHECK(!name_.empty(), "Link: empty name");
  IOTML_CHECK(params.bandwidth_bytes_per_s > 0.0, "Link: bandwidth must be positive");
  IOTML_CHECK(params.latency_s >= 0.0, "Link: negative latency");
  IOTML_CHECK(params.jitter_s >= 0.0, "Link: negative jitter");
  IOTML_CHECK(params.retry_backoff_s >= 0.0, "Link: negative retry backoff");
  IOTML_CHECK(params.retry_backoff_cap_s >= 0.0, "Link: negative retry backoff cap");
  IOTML_CHECK(params.drop_prob >= 0.0 && params.drop_prob <= 1.0,
              "Link: drop_prob outside [0, 1]");
  IOTML_CHECK(params.corrupt_prob >= 0.0 && params.corrupt_prob <= 1.0,
              "Link: corrupt_prob outside [0, 1]");
  IOTML_CHECK(params.duplicate_prob >= 0.0 && params.duplicate_prob <= 1.0,
              "Link: duplicate_prob outside [0, 1]");
}

void Link::set_drop_prob(double p) {
  IOTML_CHECK(p >= 0.0 && p <= 1.0, "Link::set_drop_prob: outside [0, 1]");
  params_.drop_prob = p;
}

void Link::set_corrupt_prob(double p) {
  IOTML_CHECK(p >= 0.0 && p <= 1.0, "Link::set_corrupt_prob: outside [0, 1]");
  params_.corrupt_prob = p;
}

void Link::record_delivery(std::size_t bytes) noexcept {
  ++stats_.messages;
  stats_.bytes += bytes;
}

Attempt Link::try_transmit(double now_s, std::size_t bytes, Rng& rng) {
  Attempt attempt;
  const double tx_s = static_cast<double>(bytes) / params_.bandwidth_bytes_per_s;
  const double start_s = std::max(now_s, busy_until_s_);
  attempt.done_s = start_s + tx_s;
  busy_until_s_ = attempt.done_s;
  if (rng.bernoulli(params_.drop_prob)) return attempt;
  attempt.delivered = true;
  double arrival_s = attempt.done_s + params_.latency_s;
  if (params_.jitter_s > 0.0) arrival_s += rng.uniform(0.0, params_.jitter_s);
  attempt.arrival_s = arrival_s;
  if (params_.corrupt_prob > 0.0 && rng.bernoulli(params_.corrupt_prob)) {
    attempt.corrupted = true;
    ++stats_.corrupted;
  }
  return attempt;
}

}  // namespace iotml::net

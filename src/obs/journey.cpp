#include "obs/journey.hpp"

#include <limits>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace iotml::obs {

const char* hop_kind_name(HopKind kind) noexcept {
  switch (kind) {
    case HopKind::kOrigin:
      return "origin";
    case HopKind::kSend:
      return "send";
    case HopKind::kArrive:
      return "arrive";
  }
  return "?";
}

const char* hop_stream_name(HopStream stream) noexcept {
  switch (stream) {
    case HopStream::kRows:
      return "rows";
    case HopStream::kArtifact:
      return "artifact";
    case HopStream::kPredictions:
      return "predictions";
    case HopStream::kPatch:
      return "patch";
    case HopStream::kSummary:
      return "summary";
  }
  return "?";
}

JourneyLog::JourneyLog(std::size_t capacity) : capacity_(capacity) {
  IOTML_CHECK(capacity_ >= 1, "JourneyLog: capacity must be at least 1");
}

void JourneyLog::record(const HopRecord& r) {
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  IOTML_CHECK(r.src <= kMax && r.dst <= kMax, "JourneyLog::record: node id exceeds 32 bits");
  IOTML_CHECK(r.rows <= kMax && r.bytes <= kMax,
              "JourneyLog::record: rows or bytes exceed 32 bits");
  IOTML_CHECK(r.parents.size() <= kMax, "JourneyLog::record: parent count exceeds 32 bits");
  const std::lock_guard<std::mutex> lock(mu_);
  if (hops_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  hops_.push_back({.trace = r.trace,
                   .t0_s = r.t0_s,
                   .t1_s = r.t1_s,
                   .outcome = r.outcome,
                   .src = static_cast<std::uint32_t>(r.src),
                   .dst = static_cast<std::uint32_t>(r.dst),
                   .rows = static_cast<std::uint32_t>(r.rows),
                   .bytes = static_cast<std::uint32_t>(r.bytes),
                   .hop = r.hop,
                   .attempts = r.attempts,
                   .parents = static_cast<std::uint32_t>(r.parents.size()),
                   .kind = r.kind,
                   .stream = r.stream});
  for (const std::uint64_t parent : r.parents) parents_.push_back(parent);
}

template <typename F>
void JourneyLog::for_each_hop(F&& f) const {
  std::size_t first_parent = 0;
  hops_.for_each([&](const Hop& h) {
    f(h, first_parent);
    first_parent += h.parents;
  });
}

std::size_t JourneyLog::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hops_.size();
}

std::uint64_t JourneyLog::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<HopRecord> JourneyLog::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<HopRecord> out;
  out.reserve(hops_.size());
  for_each_hop([&](const Hop& h, std::size_t first_parent) {
    HopRecord& r = out.emplace_back();
    r.trace = h.trace;
    r.hop = h.hop;
    r.kind = h.kind;
    r.stream = h.stream;
    r.src = h.src;
    r.dst = h.dst;
    r.t0_s = h.t0_s;
    r.t1_s = h.t1_s;
    r.rows = h.rows;
    r.bytes = h.bytes;
    r.attempts = h.attempts;
    r.outcome = h.outcome;
    r.parents.reserve(h.parents);
    for (std::size_t i = 0; i < h.parents; ++i) r.parents.push_back(parents_[first_parent + i]);
  });
  return out;
}

void JourneyLog::write_jsonl(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  // First line is a meta record so readers know whether history was shed.
  out << "{\"meta\": {\"records\": " << hops_.size() << ", \"dropped\": " << dropped_
      << "}}\n";
  for_each_hop([&](const Hop& h, std::size_t first_parent) {
    out << "{\"trace\": " << h.trace << ", \"kind\": \"" << hop_kind_name(h.kind)
        << "\", \"stream\": \"" << hop_stream_name(h.stream) << "\", \"hop\": " << h.hop
        << ", \"src\": " << h.src << ", \"dst\": " << h.dst
        << ", \"t0\": " << json_number(h.t0_s) << ", \"t1\": " << json_number(h.t1_s)
        << ", \"rows\": " << h.rows << ", \"bytes\": " << h.bytes
        << ", \"attempts\": " << h.attempts << ", \"outcome\": \"" << h.outcome
        << "\", \"parents\": [";
    for (std::size_t i = 0; i < h.parents; ++i) {
      if (i > 0) out << ", ";
      out << parents_[first_parent + i];
    }
    out << "]}\n";
  });
}

void JourneyLog::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  hops_.clear();
  parents_.clear();
  dropped_ = 0;
}

}  // namespace iotml::obs

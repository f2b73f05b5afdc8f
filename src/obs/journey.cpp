#include "obs/journey.hpp"

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

void JourneyLog::record(HopRecord r) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  records_.push_back(std::move(r));
}

std::size_t JourneyLog::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::uint64_t JourneyLog::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<HopRecord> JourneyLog::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {records_.begin(), records_.end()};
}

void JourneyLog::write_jsonl(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  // First line is a meta record so readers know whether history was shed.
  out << "{\"meta\": {\"records\": " << records_.size() << ", \"dropped\": " << dropped_
      << "}}\n";
  for (const HopRecord& r : records_) {
    out << "{\"trace\": " << r.trace << ", \"kind\": \"" << hop_kind_name(r.kind)
        << "\", \"stream\": \"" << hop_stream_name(r.stream) << "\", \"hop\": " << r.hop
        << ", \"src\": " << r.src << ", \"dst\": " << r.dst
        << ", \"t0\": " << json_number(r.t0_s) << ", \"t1\": " << json_number(r.t1_s)
        << ", \"rows\": " << r.rows << ", \"bytes\": " << r.bytes
        << ", \"attempts\": " << r.attempts << ", \"outcome\": \"" << r.outcome
        << "\", \"parents\": [";
    for (std::size_t i = 0; i < r.parents.size(); ++i) {
      if (i > 0) out << ", ";
      out << r.parents[i];
    }
    out << "]}\n";
  }
}

void JourneyLog::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  dropped_ = 0;
}

}  // namespace iotml::obs

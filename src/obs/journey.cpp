#include "obs/journey.hpp"

#include <bit>
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

namespace {

// The flags byte: kind in bits 0-1, stream in bits 2-4, t1's mode in bits 5-6.
constexpr int kStreamShift = 2;
constexpr int kT1Shift = 5;
constexpr std::uint8_t kT1IsT0 = 0;  ///< t1 has t0's bit pattern
constexpr std::uint8_t kT1Zero = 1;  ///< t1 is +0.0 (a frame that never landed)
constexpr std::uint8_t kT1Stored = 2;
static_assert(util::enum_u8(HopKind::kArrive) < (1 << kStreamShift));
static_assert(util::enum_u8(HopStream::kSummary) < (1 << (kT1Shift - kStreamShift)));

}  // namespace

JourneyLog::JourneyLog(std::size_t capacity) : capacity_(capacity) {
  IOTML_CHECK(capacity_ >= 1, "JourneyLog: capacity must be at least 1");
}

void JourneyLog::record(const HopRecord& r, std::span<const std::uint64_t> parents) {
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  IOTML_CHECK(r.src <= kMax && r.dst <= kMax, "JourneyLog::record: node id exceeds 32 bits");
  IOTML_CHECK(r.rows <= kMax && r.bytes <= kMax,
              "JourneyLog::record: rows or bytes exceed 32 bits");
  IOTML_CHECK(parents.size() <= kMax, "JourneyLog::record: parent count exceeds 32 bits");
  const std::lock_guard<std::mutex> lock(mu_);
  if (hops_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  std::size_t outcome = 0;
  while (outcome < outcomes_.size() && outcomes_[outcome] != r.outcome) ++outcome;
  if (outcome == outcomes_.size()) outcomes_.push_back(r.outcome);
  // Bit patterns, not values: a -0.0 t1 beside a +0.0 t0 is stored.
  const std::uint64_t t0_bits = std::bit_cast<std::uint64_t>(r.t0_s);
  const std::uint64_t t1_bits = std::bit_cast<std::uint64_t>(r.t1_s);
  const std::uint8_t t1_mode = t1_bits == t0_bits ? kT1IsT0 : t1_bits == 0 ? kT1Zero : kT1Stored;
  hops_.append([&](util::ByteWriter& out) {
    out.u8(static_cast<std::uint8_t>(util::enum_u8(r.kind) |
                                      util::enum_u8(r.stream) << kStreamShift |
                                      t1_mode << kT1Shift));
    out.varint_u64(outcome);
    out.varint_i64(static_cast<std::int64_t>(r.trace - last_trace_));
    out.varint_u64(r.hop);
    out.varint_u64(r.src);
    out.varint_u64(r.dst);
    out.varint_u64(r.rows);
    out.varint_u64(r.bytes);
    out.varint_u64(r.attempts);
    out.varint_u64(parents.size());
    out.varint_i64(static_cast<std::int64_t>(t0_bits - last_t0_bits_));
    if (t1_mode == kT1Stored) out.varint_i64(static_cast<std::int64_t>(t1_bits - t0_bits));
    std::uint64_t previous = r.trace;
    for (const std::uint64_t parent : parents) {
      out.varint_i64(static_cast<std::int64_t>(parent - previous));
      previous = parent;
    }
  });
  last_trace_ = r.trace;
  last_t0_bits_ = t0_bits;
}

template <typename F>
void JourneyLog::for_each_hop(F&& f) const {
  HopRecord hop;
  std::uint64_t trace = 0;
  std::uint64_t t0_bits = 0;
  hops_.for_each([&](util::ByteReader& in) {
    const std::uint8_t flags = in.u8();
    hop.kind = static_cast<HopKind>(flags & 0x3U);
    hop.stream = static_cast<HopStream>((flags >> kStreamShift) & 0x7U);
    hop.outcome = outcomes_[in.varint_u64()];
    trace += static_cast<std::uint64_t>(in.varint_i64());
    hop.trace = trace;
    hop.hop = static_cast<std::uint32_t>(in.varint_u64());
    hop.src = in.varint_u64();
    hop.dst = in.varint_u64();
    hop.rows = in.varint_u64();
    hop.bytes = in.varint_u64();
    hop.attempts = static_cast<std::uint32_t>(in.varint_u64());
    const std::uint64_t parents = in.varint_u64();
    t0_bits += static_cast<std::uint64_t>(in.varint_i64());
    hop.t0_s = std::bit_cast<double>(t0_bits);
    switch (flags >> kT1Shift) {
      case kT1IsT0:
        hop.t1_s = hop.t0_s;
        break;
      case kT1Zero:
        hop.t1_s = 0.0;
        break;
      default:
        hop.t1_s = std::bit_cast<double>(t0_bits + static_cast<std::uint64_t>(in.varint_i64()));
    }
    hop.parents.clear();
    std::uint64_t previous = trace;
    for (std::uint64_t i = 0; i < parents; ++i) {
      previous += static_cast<std::uint64_t>(in.varint_i64());
      hop.parents.push_back(previous);
    }
    f(hop);
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

std::size_t JourneyLog::bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hops_.bytes();
}

std::vector<HopRecord> JourneyLog::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<HopRecord> out;
  out.reserve(hops_.size());
  for_each_hop([&](const HopRecord& hop) { out.push_back(hop); });
  return out;
}

void JourneyLog::write_jsonl(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  // First line is a meta record so readers know whether history was shed.
  out << "{\"meta\": {\"records\": " << hops_.size() << ", \"dropped\": " << dropped_
      << "}}\n";
  for_each_hop([&](const HopRecord& h) {
    out << "{\"trace\": " << h.trace << ", \"kind\": \"" << hop_kind_name(h.kind)
        << "\", \"stream\": \"" << hop_stream_name(h.stream) << "\", \"hop\": " << h.hop
        << ", \"src\": " << h.src << ", \"dst\": " << h.dst
        << ", \"t0\": " << json_number(h.t0_s) << ", \"t1\": " << json_number(h.t1_s)
        << ", \"rows\": " << h.rows << ", \"bytes\": " << h.bytes
        << ", \"attempts\": " << h.attempts << ", \"outcome\": \"" << h.outcome
        << "\", \"parents\": [";
    for (std::size_t i = 0; i < h.parents.size(); ++i) {
      if (i > 0) out << ", ";
      out << h.parents[i];
    }
    out << "]}\n";
  });
}

void JourneyLog::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  hops_.clear();
  outcomes_.clear();
  last_trace_ = 0;
  last_t0_bits_ = 0;
  dropped_ = 0;
}

}  // namespace iotml::obs

#include "sim/stage_log.hpp"

#include <bit>
#include <limits>

#include "util/error.hpp"

namespace iotml::sim {

namespace {

// A run's first varint: the stage index above one 2-bit mode for each of
// missing_rate_in, missing_rate_out and cost, lowest bits first. Only a
// stored value's eight bytes follow the counts.
constexpr int kModeBits = 2;
constexpr int kHeadBits = 3 * kModeBits;
constexpr std::uint64_t kModeMask = (1U << kModeBits) - 1;
constexpr std::uint64_t kZero = 0;    ///< +0.0
constexpr std::uint64_t kSame = 1;    ///< the previous run's bit pattern
constexpr std::uint64_t kStored = 2;  ///< the bit pattern follows

}  // namespace

void StageLog::push_back(const pipeline::StageReport& report) {
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  IOTML_CHECK(report.rows_in <= kMax && report.rows_out <= kMax && report.columns_out <= kMax,
              "StageLog::push_back: rows_in, rows_out or columns_out exceeds 32 bits");
  std::size_t stage = 0;
  for (; stage < stages_.size(); ++stage) {
    const Stage& s = stages_[stage];
    if (s.tier == report.tier && s.name == report.stage_name && s.player == report.player) break;
  }
  if (stage == stages_.size()) {
    stages_.push_back({.name = report.stage_name, .player = report.player, .tier = report.tier});
  }
  // Bit patterns, not values: a -0.0 beside a +0.0 is stored.
  const Values bits = {std::bit_cast<std::uint64_t>(report.missing_rate_in),
                       std::bit_cast<std::uint64_t>(report.missing_rate_out),
                       std::bit_cast<std::uint64_t>(report.cost)};
  std::uint64_t head = std::uint64_t{stage} << kHeadBits;
  for (std::size_t v = 0; v < bits.size(); ++v) {
    const std::uint64_t mode = bits[v] == 0 ? kZero : bits[v] == last_[v] ? kSame : kStored;
    head |= mode << (kModeBits * v);
  }
  runs_.append([&](util::ByteWriter& out) {
    out.varint_u64(head);
    out.varint_u64(report.rows_in);
    out.varint_u64(report.rows_out);
    out.varint_u64(report.columns_out);
    out.varint_u64(report.wall_time_us);
    for (std::size_t v = 0; v < bits.size(); ++v) {
      if (((head >> (kModeBits * v)) & kModeMask) == kStored) out.u64(bits[v]);
    }
  });
  last_ = bits;
}

std::size_t StageLog::const_iterator::decode(pipeline::StageReport* out, Values& bits) const {
  const std::vector<std::uint8_t>& chunk = log_->runs_.chunks()[chunk_];
  util::ByteReader in(chunk.data() + offset_, chunk.size() - offset_);
  const std::uint64_t head = in.varint_u64();
  const Stage& stage = log_->stages_[head >> kHeadBits];
  const std::uint64_t rows_in = in.varint_u64();
  const std::uint64_t rows_out = in.varint_u64();
  const std::uint64_t columns_out = in.varint_u64();
  const std::uint64_t wall_time_us = in.varint_u64();
  for (std::size_t v = 0; v < bits.size(); ++v) {
    const std::uint64_t mode = (head >> (kModeBits * v)) & kModeMask;
    if (mode == kZero) bits[v] = 0;
    if (mode == kStored) bits[v] = in.u64();
  }
  if (out != nullptr) {
    out->stage_name = stage.name;
    out->player = stage.player;
    out->tier = stage.tier;
    out->rows_in = rows_in;
    out->rows_out = rows_out;
    out->columns_out = columns_out;
    out->missing_rate_in = std::bit_cast<double>(bits[0]);
    out->missing_rate_out = std::bit_cast<double>(bits[1]);
    out->cost = std::bit_cast<double>(bits[2]);
    out->wall_time_us = wall_time_us;
  }
  return in.position();
}

pipeline::StageReport StageLog::const_iterator::operator*() const {
  pipeline::StageReport out;
  Values bits = previous_;
  decode(&out, bits);
  return out;
}

StageLog::const_iterator& StageLog::const_iterator::operator++() {
  offset_ += decode(nullptr, previous_);
  if (offset_ == log_->runs_.chunks()[chunk_].size()) {
    ++chunk_;
    offset_ = 0;
  }
  return *this;
}

}  // namespace iotml::sim

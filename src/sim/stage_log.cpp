#include "sim/stage_log.hpp"

#include <bit>
#include <limits>

#include "util/error.hpp"

namespace iotml::sim {

namespace {

// A run's first varint: the stage index above two bits that mark a missing
// rate of +0.0, which the record then leaves out.
constexpr int kRateBits = 2;
constexpr std::uint64_t kInZero = 1;
constexpr std::uint64_t kOutZero = 2;

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
  // A missing rate of +0.0 (bit pattern, so -0.0 is stored) is common and
  // costs one bit beside the stage index instead of eight bytes.
  const bool in_zero = std::bit_cast<std::uint64_t>(report.missing_rate_in) == 0;
  const bool out_zero = std::bit_cast<std::uint64_t>(report.missing_rate_out) == 0;
  runs_.append([&](util::ByteWriter& out) {
    out.varint_u64(std::uint64_t{stage} << kRateBits | (in_zero ? kInZero : 0U) |
                   (out_zero ? kOutZero : 0U));
    out.varint_u64(report.rows_in);
    out.varint_u64(report.rows_out);
    out.varint_u64(report.columns_out);
    out.varint_u64(report.wall_time_us);
    if (!in_zero) out.f64(report.missing_rate_in);
    if (!out_zero) out.f64(report.missing_rate_out);
    out.f64(report.cost);
  });
}

std::size_t StageLog::const_iterator::decode(pipeline::StageReport* out) const {
  const std::vector<std::uint8_t>& chunk = log_->runs_.chunks()[chunk_];
  util::ByteReader in(chunk.data() + offset_, chunk.size() - offset_);
  const std::uint64_t head = in.varint_u64();
  const Stage& stage = log_->stages_[head >> kRateBits];
  const std::uint64_t rows_in = in.varint_u64();
  const std::uint64_t rows_out = in.varint_u64();
  const std::uint64_t columns_out = in.varint_u64();
  const std::uint64_t wall_time_us = in.varint_u64();
  const double missing_rate_in = (head & kInZero) != 0 ? 0.0 : in.f64();
  const double missing_rate_out = (head & kOutZero) != 0 ? 0.0 : in.f64();
  const double cost = in.f64();
  if (out != nullptr) {
    out->stage_name = stage.name;
    out->player = stage.player;
    out->tier = stage.tier;
    out->rows_in = rows_in;
    out->rows_out = rows_out;
    out->columns_out = columns_out;
    out->missing_rate_in = missing_rate_in;
    out->missing_rate_out = missing_rate_out;
    out->cost = cost;
    out->wall_time_us = wall_time_us;
  }
  return in.position();
}

pipeline::StageReport StageLog::const_iterator::operator*() const {
  pipeline::StageReport out;
  decode(&out);
  return out;
}

StageLog::const_iterator& StageLog::const_iterator::operator++() {
  offset_ += decode(nullptr);
  if (offset_ == log_->runs_.chunks()[chunk_].size()) {
    ++chunk_;
    offset_ = 0;
  }
  return *this;
}

}  // namespace iotml::sim

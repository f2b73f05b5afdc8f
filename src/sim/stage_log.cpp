#include "sim/stage_log.hpp"

#include <limits>

#include "util/error.hpp"

namespace iotml::sim {

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
  records_.push_back({.stage = static_cast<std::uint32_t>(stage),
                      .rows_in = static_cast<std::uint32_t>(report.rows_in),
                      .rows_out = static_cast<std::uint32_t>(report.rows_out),
                      .columns_out = static_cast<std::uint32_t>(report.columns_out),
                      .missing_rate_in = report.missing_rate_in,
                      .missing_rate_out = report.missing_rate_out,
                      .cost = report.cost,
                      .wall_time_us = report.wall_time_us});
}

pipeline::StageReport StageLog::const_iterator::operator*() const {
  const Record& record = log_->records_[index_];
  const Stage& stage = log_->stages_[record.stage];
  pipeline::StageReport out;
  out.stage_name = stage.name;
  out.player = stage.player;
  out.tier = stage.tier;
  out.rows_in = record.rows_in;
  out.rows_out = record.rows_out;
  out.columns_out = record.columns_out;
  out.missing_rate_in = record.missing_rate_in;
  out.missing_rate_out = record.missing_rate_out;
  out.cost = record.cost;
  out.wall_time_us = record.wall_time_us;
  return out;
}

}  // namespace iotml::sim

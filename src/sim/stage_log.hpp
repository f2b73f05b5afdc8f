#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/stage.hpp"
#include "util/chunked_log.hpp"

namespace iotml::sim {

/// Every stage run of a fleet, in push order. Each distinct (stage_name,
/// player, tier) is stored once, and each run as a 48-byte record: the
/// stage's index, rows_in, rows_out and columns_out narrowed to 32 bits,
/// both missing rates, cost and wall_time_us. Records grow in fixed chunks
/// (ChunkedLog), so the log costs what its runs hold instead of a vector's
/// doubling, and a run owns no string. Iterating yields each pushed
/// StageReport by value, field for field.
class StageLog {
 public:
  /// Walks the runs in push order; dereferencing rebuilds the run's
  /// StageReport.
  class const_iterator {
   public:
    pipeline::StageReport operator*() const;
    const_iterator& operator++() noexcept {
      ++index_;
      return *this;
    }
    bool operator==(const const_iterator& other) const noexcept {
      return log_ == other.log_ && index_ == other.index_;
    }

   private:
    friend class StageLog;
    const_iterator(const StageLog* log, std::size_t index) noexcept : log_(log), index_(index) {}

    const StageLog* log_ = nullptr;
    std::size_t index_ = 0;
  };

  /// Appends `report`. Throws InvalidArgument, leaving the log unchanged, if
  /// report.rows_in, rows_out or columns_out exceeds 2^32 - 1, the width
  /// each is stored in.
  void push_back(const pipeline::StageReport& report);

  std::size_t size() const noexcept { return records_.size(); }
  const_iterator begin() const noexcept { return {this, 0}; }
  const_iterator end() const noexcept { return {this, records_.size()}; }

 private:
  struct Stage {
    std::string name;
    std::string player;
    pipeline::Tier tier = pipeline::Tier::kEdge;
  };
  struct Record {
    std::uint32_t stage = 0;  ///< index into stages_
    std::uint32_t rows_in = 0;
    std::uint32_t rows_out = 0;
    std::uint32_t columns_out = 0;
    double missing_rate_in = 0.0;
    double missing_rate_out = 0.0;
    double cost = 0.0;
    std::uint64_t wall_time_us = 0;
  };
  static_assert(sizeof(Record) <= 48, "a stage run stays within 48 bytes");

  std::vector<Stage> stages_;
  ChunkedLog<Record> records_;
};

}  // namespace iotml::sim

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/stage.hpp"
#include "util/record_log.hpp"

namespace iotml::sim {

/// Every stage run of a fleet, in push order. Each distinct (stage_name,
/// player, tier) is stored once, and each run as one variable-length record
/// in a util::RecordLog: the stage's index with a 2-bit mode for each of
/// the two missing rates and the cost (+0.0, the previous run's bit
/// pattern, or stored), rows_in, rows_out, columns_out and wall_time_us as
/// varints, then each stored value as raw f64 bits. A fleet-wire run costs
/// about 15 B, and a run owns no string. Iterating yields each pushed
/// StageReport by value, bit for bit.
class StageLog {
  /// The bit patterns of a run's missing_rate_in, missing_rate_out and cost.
  using Values = std::array<std::uint64_t, 3>;

 public:
  /// Walks the runs in push order by byte offset, carrying the previous
  /// run's Values that the current run's modes refer to; dereferencing
  /// decodes the run's StageReport.
  class const_iterator {
   public:
    pipeline::StageReport operator*() const;
    const_iterator& operator++();
    bool operator==(const const_iterator& other) const noexcept {
      return log_ == other.log_ && chunk_ == other.chunk_ && offset_ == other.offset_;
    }

   private:
    friend class StageLog;
    const_iterator(const StageLog* log, std::size_t chunk) noexcept : log_(log), chunk_(chunk) {}

    /// Decodes the run at this position into `out`, if given, and its
    /// Values into `bits`, which holds the previous run's on entry; returns
    /// the run's length in bytes.
    std::size_t decode(pipeline::StageReport* out, Values& bits) const;

    const StageLog* log_ = nullptr;
    std::size_t chunk_ = 0;
    std::size_t offset_ = 0;
    Values previous_ = {};
  };

  /// Appends `report`. Throws InvalidArgument, leaving the log unchanged, if
  /// report.rows_in, rows_out or columns_out exceeds 2^32 - 1.
  void push_back(const pipeline::StageReport& report);

  std::size_t size() const noexcept { return runs_.size(); }

  /// Bytes the runs' records hold.
  std::size_t bytes() const noexcept { return runs_.bytes(); }

  const_iterator begin() const noexcept { return {this, 0}; }
  const_iterator end() const noexcept { return {this, runs_.chunks().size()}; }

 private:
  struct Stage {
    std::string name;
    std::string player;
    pipeline::Tier tier = pipeline::Tier::kEdge;
  };

  std::vector<Stage> stages_;
  util::RecordLog runs_;
  Values last_ = {};  ///< the last pushed run's
};

}  // namespace iotml::sim

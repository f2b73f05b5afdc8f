#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "pipeline/sensors.hpp"

namespace iotml::pipeline {

/// Parameters of the Section IV data-integration step: "first merging the
/// time-stamps into an ordered list: the data available at each time-stamp
/// will naturally compose a multi-dimensional record typically plagued by
/// missing feature-values".
struct IntegrationParams {
  /// Timestamps closer than this are considered the same instant and merged
  /// into one record (0 = exact-match only).
  double merge_tolerance_s = 0.0;

  /// When several readings of the same stream fall into one merged record,
  /// average them (true) or keep the last (false).
  bool average_duplicates = true;
};

struct IntegrationResult {
  /// Column 0 = "timestamp" (numeric), then one numeric column per stream,
  /// named after the sensor. Cells are missing where a stream had no reading
  /// at that instant.
  data::Dataset records;
  std::size_t merged_timestamps = 0;  ///< raw stamps collapsed by tolerance
  double missing_rate = 0.0;          ///< over the sensor columns only
};

/// Merge d 1-dimensional sensor streams into a single d-dimensional view.
/// Each stream's stamps must be finite and ascending, as simulate_sensor
/// returns them: the streams are walked in one k-way merge (merge_streams),
/// and each reading joins the record open when it is reached. Throws
/// InvalidArgument when a stamp is not finite or a stream's stamps do not
/// ascend, when there are no streams, when every stream is empty, or when
/// the tolerance is negative.
IntegrationResult integrate_streams(const std::vector<SensorStream>& streams,
                                    const IntegrationParams& params = {});

/// One stream's state in a merge_streams walk: where the stream stands and
/// what it put into the open record.
struct MergeCell {
  std::size_t next = 0;   ///< the stream's next unmerged reading
  double sum = 0.0;       ///< the record's readings, summed in stream order
  double last = 0.0;      ///< the record's latest reading
  std::size_t count = 0;  ///< readings in the record; 0 is a missing cell
};

/// The cell's value under IntegrationParams::average_duplicates; `cell`
/// must hold a reading.
inline double merged_value(const MergeCell& cell, bool average_duplicates) {
  return average_duplicates ? cell.sum / static_cast<double>(cell.count) : cell.last;
}

/// The one stream-merge walk: integrate_streams builds its records with it,
/// and sim::DeviceWindows counts and fills a fleet's device windows with it.
/// Walks the readings of every stream in one timestamp-ascending k-way
/// merge, ties to the lower stream index. A reading more than `tolerance`
/// after the open record's anchor closes that record and opens one at its
/// own stamp; any other joins the open record. Each closed record is handed
/// to `record(anchor, cells)`, where cells[s] holds stream s's readings in
/// it. `cells` has one entry per stream and is the walk's only state, so
/// the walk allocates nothing. Stamps must be finite and ascending within
/// each stream (the caller checks). Returns how many readings joined an
/// earlier anchor.
template <typename Record>
std::size_t merge_streams(std::span<const SensorStream> streams, double tolerance,
                          std::span<MergeCell> cells, Record&& record) {
  for (MergeCell& cell : cells) cell = MergeCell{};
  std::size_t merged = 0;
  double anchor = 0.0;
  bool open = false;
  for (;;) {
    std::size_t best = streams.size();  // the earliest next reading
    double best_stamp = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const std::vector<Reading>& readings = streams[s].readings;
      if (cells[s].next < readings.size() && readings[cells[s].next].timestamp < best_stamp) {
        best = s;
        best_stamp = readings[cells[s].next].timestamp;
      }
    }
    if (best == streams.size()) break;
    const Reading& r = streams[best].readings[cells[best].next++];
    if (!open || r.timestamp - anchor > tolerance) {
      if (open) {
        record(anchor, std::span<const MergeCell>(cells));
        for (MergeCell& cell : cells) cell = MergeCell{.next = cell.next};
      }
      anchor = r.timestamp;
      open = true;
    } else {
      ++merged;
    }
    MergeCell& cell = cells[best];
    cell.sum += r.value;
    cell.last = r.value;
    ++cell.count;
  }
  if (open) record(anchor, std::span<const MergeCell>(cells));
  return merged;
}

}  // namespace iotml::pipeline

#include "pipeline/integration.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace iotml::pipeline {

IntegrationResult integrate_streams(const std::vector<SensorStream>& streams,
                                    const IntegrationParams& params) {
  IOTML_CHECK(!streams.empty(), "integrate_streams: no streams");
  IOTML_CHECK(params.merge_tolerance_s >= 0.0,
              "integrate_streams: tolerance must be >= 0");

  // 1. Merge all timestamps into an ordered list, collapsing stamps within
  //    tolerance of the current run's anchor into one record.
  std::vector<double> stamps;
  for (const SensorStream& s : streams) {
    for (const Reading& r : s.readings) stamps.push_back(r.timestamp);
  }
  IOTML_CHECK(!stamps.empty(), "integrate_streams: all streams empty");
  std::sort(stamps.begin(), stamps.end());

  std::vector<double> anchors;
  std::size_t merged = 0;
  for (double t : stamps) {
    if (anchors.empty() || t - anchors.back() > params.merge_tolerance_s) {
      anchors.push_back(t);
    } else {
      ++merged;
    }
  }

  auto anchor_of = [&](double t) {
    // Last anchor <= t; correct because anchors were formed left-to-right
    // with the same tolerance rule.
    auto it = std::upper_bound(anchors.begin(), anchors.end(), t);
    IOTML_CHECK(it != anchors.begin(), "integrate_streams: reading precedes anchors");
    return static_cast<std::size_t>(it - anchors.begin()) - 1;
  };

  // 2. Accumulate readings per (stream, record).
  struct Cell {
    double sum = 0.0;
    double last = 0.0;
    std::size_t count = 0;
  };
  std::vector<std::vector<Cell>> cells(streams.size(),
                                       std::vector<Cell>(anchors.size()));
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (const Reading& r : streams[s].readings) {
      Cell& cell = cells[s][anchor_of(r.timestamp)];
      cell.sum += r.value;
      cell.last = r.value;
      ++cell.count;
    }
  }

  // 3. Materialize the d-dimensional records.
  IntegrationResult out;
  out.merged_timestamps = merged;
  // Every column is reserved at its final length: a caller may keep the
  // records for a whole run (the fleet simulator keeps each device's window).
  data::Column& time_col = out.records.add_numeric_column("timestamp");
  time_col.reserve(anchors.size());
  for (double a : anchors) time_col.push_numeric(a);

  std::size_t missing_cells = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    data::Column& col = out.records.add_numeric_column(streams[s].sensor_name);
    col.reserve(anchors.size());
    for (std::size_t rec = 0; rec < anchors.size(); ++rec) {
      const Cell& cell = cells[s][rec];
      if (cell.count == 0) {
        col.push_missing();
        ++missing_cells;
      } else if (params.average_duplicates) {
        col.push_numeric(cell.sum / static_cast<double>(cell.count));
      } else {
        col.push_numeric(cell.last);
      }
    }
  }
  out.missing_rate = static_cast<double>(missing_cells) /
                     static_cast<double>(streams.size() * anchors.size());
  out.records.validate();
  return out;
}

}  // namespace iotml::pipeline

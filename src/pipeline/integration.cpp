#include "pipeline/integration.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace iotml::pipeline {

IntegrationResult integrate_streams(const std::vector<SensorStream>& streams,
                                    const IntegrationParams& params) {
  IOTML_CHECK(!streams.empty(), "integrate_streams: no streams");
  IOTML_CHECK(params.merge_tolerance_s >= 0.0,
              "integrate_streams: tolerance must be >= 0");
  std::size_t readings = 0;
  for (const SensorStream& s : streams) {
    double prev = std::numeric_limits<double>::lowest();
    for (const Reading& r : s.readings) {
      IOTML_CHECK(std::isfinite(r.timestamp) && r.timestamp >= prev,
                  "integrate_streams: stream '" + s.sensor_name +
                      "' has a stamp that is not finite or not ascending");
      prev = r.timestamp;
    }
    readings += s.readings.size();
  }
  IOTML_CHECK(readings > 0, "integrate_streams: all streams empty");
  const double tolerance = params.merge_tolerance_s;
  std::vector<MergeCell> cells(streams.size());

  // 1. Count the records first, so every column is reserved at its final
  //    length.
  std::size_t records = 0;
  merge_streams(streams, tolerance, cells,
                [&records](double, std::span<const MergeCell>) { ++records; });

  IntegrationResult out;
  data::Column& time_col = out.records.add_numeric_column("timestamp");
  time_col.reserve(records);
  std::vector<data::Column*> cols;
  cols.reserve(streams.size());
  for (const SensorStream& s : streams) {
    cols.push_back(&out.records.add_numeric_column(s.sensor_name));
    cols.back()->reserve(records);
  }

  // 2. Walk again and fill the records in order. A cell sums its own
  //    stream's readings in stream order, so the result does not depend on
  //    how readings of different streams interleave.
  std::size_t missing_cells = 0;
  out.merged_timestamps = merge_streams(
      streams, tolerance, cells, [&](double anchor, std::span<const MergeCell> record) {
        time_col.push_numeric(anchor);
        for (std::size_t s = 0; s < record.size(); ++s) {
          if (record[s].count == 0) {
            cols[s]->push_missing();
            ++missing_cells;
          } else {
            cols[s]->push_numeric(merged_value(record[s], params.average_duplicates));
          }
        }
      });

  out.missing_rate = static_cast<double>(missing_cells) /
                     static_cast<double>(streams.size() * records);
  out.records.validate();
  return out;
}

}  // namespace iotml::pipeline

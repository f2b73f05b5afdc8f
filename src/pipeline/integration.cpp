#include "pipeline/integration.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace iotml::pipeline {

namespace {

/// Walks the `readings` readings of every stream in one timestamp-ascending
/// k-way merge and applies the tolerance rule as it goes: a reading more
/// than `tolerance` after the current anchor opens a record at its own stamp
/// (`open(stamp)`), any other joins the current record. `take(stream,
/// reading)` then sees the reading. Returns how many readings joined an
/// earlier anchor. Stamps must be finite: +inf marks a spent stream.
template <typename Open, typename Take>
std::size_t merge_walk(const std::vector<SensorStream>& streams, std::size_t readings,
                       double tolerance, Open open, Take take) {
  constexpr double kSpent = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> next(streams.size(), 0);
  std::vector<double> head(streams.size(), kSpent);  // each stream's next stamp
  for (std::size_t s = 0; s < streams.size(); ++s) {
    if (!streams[s].readings.empty()) head[s] = streams[s].readings.front().timestamp;
  }
  std::size_t merged = 0;
  double anchor = 0.0;
  for (std::size_t i = 0; i < readings; ++i) {
    std::size_t best = 0;  // the earliest next reading; ties go to the lower index
    for (std::size_t s = 1; s < streams.size(); ++s) best = head[s] < head[best] ? s : best;
    const std::vector<Reading>& taken = streams[best].readings;
    const Reading& r = taken[next[best]++];
    head[best] = next[best] < taken.size() ? taken[next[best]].timestamp : kSpent;
    if (i == 0 || r.timestamp - anchor > tolerance) {
      anchor = r.timestamp;
      open(anchor);
    } else {
      ++merged;
    }
    take(best, r);
  }
  return merged;
}

}  // namespace

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

  // 1. Count the records first, so every column is reserved at its final
  //    length: a caller may keep the records for a whole run (the fleet
  //    simulator keeps each device's window).
  std::size_t records = 0;
  merge_walk(streams, readings, tolerance, [&records](double) { ++records; },
             [](std::size_t, const Reading&) {});

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
  struct Cell {
    double sum = 0.0;
    double last = 0.0;
    std::size_t count = 0;
  };
  std::vector<Cell> cells(streams.size());
  std::size_t missing_cells = 0;
  auto close_record = [&] {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const Cell& cell = cells[s];
      if (cell.count == 0) {
        cols[s]->push_missing();
        ++missing_cells;
      } else if (params.average_duplicates) {
        cols[s]->push_numeric(cell.sum / static_cast<double>(cell.count));
      } else {
        cols[s]->push_numeric(cell.last);
      }
      cells[s] = Cell{};
    }
  };
  out.merged_timestamps = merge_walk(
      streams, readings, tolerance,
      [&](double anchor) {
        if (time_col.size() > 0) close_record();
        time_col.push_numeric(anchor);
      },
      [&cells](std::size_t s, const Reading& r) {
        cells[s].sum += r.value;
        cells[s].last = r.value;
        ++cells[s].count;
      });
  close_record();

  out.missing_rate = static_cast<double>(missing_cells) /
                     static_cast<double>(streams.size() * records);
  out.records.validate();
  return out;
}

}  // namespace iotml::pipeline

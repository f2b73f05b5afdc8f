#pragma once

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
/// returns them: the streams are walked in one k-way merge, and each
/// reading joins the record open when it is reached. Throws
/// InvalidArgument when a stamp is not finite or a stream's stamps do not
/// ascend, when there are no streams, when every stream is empty, or when
/// the tolerance is negative.
IntegrationResult integrate_streams(const std::vector<SensorStream>& streams,
                                    const IntegrationParams& params = {});

}  // namespace iotml::pipeline

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "pipeline/sensors.hpp"
#include "sim/stage_log.hpp"
#include "util/rng.hpp"

namespace iotml::sim {

/// Every device's sensed rows for one fleet run (DESIGN.md §9, "Device
/// windows"). Devices are sensed in batches of kBatchDevices, and each
/// batch's rows are kept in blocks cut by time: kSlices slices of the
/// learning window, and one more for rows stamped at or after its end. A
/// block holds its devices' rows in that slice, device by device, each row
/// as `timestamp, temperature, humidity, wind` doubles (a missing cell holds
/// the quiet NaN Column::push_missing stores) and one presence byte whose
/// bit q marks sensor q present.
///
/// Each device has a cursor: the rows before it were taken. A block is
/// freed once every device of its batch has taken its rows there, less the
/// `keep_behind` rows a later recent() may still read; reading a freed row
/// throws InternalError. Every block is allocated and freed by the thread
/// that constructs and reads the store.
class DeviceWindows {
 public:
  static constexpr std::size_t kSensors = 3;
  /// Bytes one row takes in a block: its four cells and its presence byte.
  static constexpr std::size_t kRowBytes = (kSensors + 1) * sizeof(double) + 1;
  /// Devices sensed together: eight 64-device worker blocks.
  static constexpr std::size_t kBatchDevices = 512;
  /// Time slices of the learning window.
  static constexpr std::size_t kSlices = 16;

  struct Params {
    double learning_s = 0.0;  ///< the learning window [0, learning_s)
    double horizon_s = 0.0;   ///< sensed seconds, at least learning_s
    double sensor_period_s = 0.5;
    double sensor_dropout = 0.0;
    /// Rows before its time that a recent() read may ask for.
    std::size_t keep_behind = 0;
  };

  DeviceWindows() = default;

  /// Senses one device per Rng over [0, horizon_s): sensor q of device d
  /// measures truths[q], drawing only from rngs[d]. Pushes one `acquisition`
  /// run per device onto `runs`, in device order. Throws InvalidArgument
  /// when truths does not hold one signal per sensor or when a sensor could
  /// take 10^9 samples.
  DeviceWindows(const Params& params, std::span<Rng> rngs,
                std::span<const pipeline::Signal> truths, StageLog& runs);

  /// Device d's rows from its cursor up to the first stamped at or after
  /// `cutoff`, as integrate_streams' columns: "timestamp", then one per
  /// sensor. The cursor moves past them. The caller promises that no later
  /// recent() asks for a time before the cutoff, or, when the cutoff is past
  /// the learning window, before its end.
  data::Dataset take(std::size_t d, double cutoff);

  /// Device d's rows from its cursor on; the cursor stays.
  data::Dataset rest(std::size_t d) const;

  /// The last `rows` (or fewer) of device d's rows stamped before
  /// `before_s`, found by walking from the cursor.
  data::Dataset recent(std::size_t d, double before_s, std::size_t rows) const;

  /// Rows sensed over every device.
  std::size_t rows() const noexcept { return rows_; }

  /// Device d's rows from its cursor on.
  std::size_t rows_left(std::size_t d) const { return rows_of(d) - cursor_[d]; }

  /// Bytes the unfreed blocks' rows hold.
  std::size_t bytes() const noexcept;

 private:
  static constexpr std::size_t kColumns = kSensors + 1;

  struct Block {
    /// Device j of the batch owns rows [first[j], first[j + 1]).
    std::vector<std::uint32_t> first;
    std::unique_ptr<double[]> cells;          ///< kColumns per row; null once freed
    std::unique_ptr<std::uint8_t[]> present;  ///< one byte per row
    std::size_t pending = 0;  ///< devices of the batch that still need it
  };

  std::size_t slice_of(double stamp) const noexcept;
  Block* batch_blocks(std::size_t d) { return &blocks_[d / kBatchDevices * (kSlices + 1)]; }
  const Block* batch_blocks(std::size_t d) const {
    return &blocks_[d / kBatchDevices * (kSlices + 1)];
  }
  /// Device d's rows in slice s.
  std::size_t rows_in(std::size_t d, std::size_t s) const;
  std::size_t rows_of(std::size_t d) const;
  /// Device d's row r: its block and its index there.
  std::pair<const Block*, std::size_t> locate(std::size_t d, std::size_t r) const;
  double stamp(std::size_t d, std::size_t r) const;
  /// Device d's rows [from, to) as a Dataset.
  data::Dataset slice_rows(std::size_t d, std::size_t from, std::size_t to) const;
  /// Marks every slice device d no longer needs, freeing the blocks no
  /// device of its batch needs.
  void release(std::size_t d);

  double learning_s_ = 0.0;
  std::size_t keep_behind_ = 0;
  std::size_t rows_ = 0;
  std::vector<Block> blocks_;            ///< batch-major, kSlices + 1 per batch
  std::vector<std::size_t> cursor_;      ///< per device
  std::vector<std::uint8_t> released_;   ///< per device: leading slices released
};

}  // namespace iotml::sim

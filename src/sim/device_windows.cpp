#include "sim/device_windows.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <thread>

#include "obs/clock.hpp"
#include "pipeline/integration.hpp"
#include "pipeline/stage.hpp"
#include "util/error.hpp"

namespace iotml::sim {

namespace {

constexpr const char* kQuantity[DeviceWindows::kSensors] = {"temperature", "humidity",
                                                            "wind"};
/// Base measurement noise, scaled per quantity by kNoiseScale.
constexpr double kSensorNoise = 0.4;
constexpr double kNoiseScale[DeviceWindows::kSensors] = {1.0, 2.5, 1.5};

/// Runs `work(i)` for every i in [0, count). Workers claim 64-index blocks
/// from a shared counter; there are min(hardware threads, count / 64) of
/// them, the calling thread among them, so below two full blocks the
/// calling thread runs every block itself. `work(i)` may write only state of
/// index i. After every worker has joined, the failure of the lowest
/// failing index is rethrown (a block stops at its first failure).
template <typename Work>
void for_each_index_in_blocks(std::size_t count, const Work& work) {
  constexpr std::size_t kBlock = 64;
  const std::size_t blocks = (count + kBlock - 1) / kBlock;
  std::vector<std::exception_ptr> failures(blocks);
  std::atomic<std::size_t> next_block{0};
  auto worker = [&] {
    for (std::size_t b = next_block++; b < blocks; b = next_block++) {
      try {
        for (std::size_t i = b * kBlock; i < std::min(count, (b + 1) * kBlock); ++i) work(i);
      } catch (...) {
        failures[b] = std::current_exception();
      }
    }
  };
  const std::size_t workers = std::max<std::size_t>(
      1, std::min<std::size_t>(std::thread::hardware_concurrency(), count / kBlock));
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    try {
      threads.emplace_back(worker);
    } catch (const std::exception&) {
      break;  // no thread to spare: the workers already running take every block
    }
  }
  worker();
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
}

/// What one device's acquisition produced, in the shape run_stage reads:
/// before the stage body it is empty, like the Dataset it stands for.
struct Acquired {
  std::size_t row_count = 0;
  std::size_t column_count = 0;
  std::size_t missing_cells = 0;

  std::size_t rows() const noexcept { return row_count; }
  std::size_t num_columns() const noexcept { return column_count; }
  double missing_rate() const noexcept {
    const std::size_t cells = row_count * column_count;
    return cells == 0 ? 0.0 : static_cast<double>(missing_cells) / static_cast<double>(cells);
  }
};

}  // namespace

DeviceWindows::DeviceWindows(const Params& params, std::span<Rng> rngs,
                             std::span<const pipeline::Signal> truths, StageLog& runs)
    : learning_s_(params.learning_s),
      keep_behind_(params.keep_behind),
      cursor_(rngs.size(), 0),
      released_(rngs.size(), 0) {
  IOTML_CHECK(truths.size() == kSensors, "DeviceWindows: one signal per sensor");
  const std::size_t devices = rngs.size();
  // A sensor's period factor is drawn from [0.9, 1.1), which bounds its
  // samples over the horizon.
  const double most_samples =
      std::ceil(params.horizon_s / (0.9 * params.sensor_period_s)) + 2.0;
  IOTML_CHECK(most_samples < 1e9, "DeviceWindows: too many sensor samples per device");
  const double tolerance = 0.45 * params.sensor_period_s;
  const std::size_t batches = (devices + kBatchDevices - 1) / kBatchDevices;
  blocks_.resize(batches * (kSlices + 1));

  // One batch's reading buffers, reserved here once and reused by every
  // batch, so the workers write only into memory this thread allocated.
  struct Sensed {
    std::array<pipeline::SensorStream, kSensors> streams;
    std::size_t readings = 0;
    std::size_t missing_cells = 0;
    std::int64_t wall_us = 0;
    std::array<std::uint32_t, kSlices + 1> rows{};  ///< per slice
  };
  std::vector<Sensed> sensed(std::min(devices, kBatchDevices));
  for (Sensed& device : sensed) {
    for (pipeline::SensorStream& s : device.streams) {
      s.readings.reserve(static_cast<std::size_t>(most_samples));
    }
  }

  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t first_device = b * kBatchDevices;
    const std::size_t n = std::min(kBatchDevices, devices - first_device);
    Block* blocks = &blocks_[b * (kSlices + 1)];

    // 1. Sense each device and count its records per slice. Sensing draws
    //    only from the device's own stream, so devices run in any order.
    for_each_index_in_blocks(n, [&](std::size_t j) {
      const std::int64_t start_us = obs::now_us();
      Rng& rng = rngs[first_device + j];
      Sensed& device = sensed[j];
      device.readings = 0;
      device.missing_cells = 0;
      device.rows.fill(0);
      for (std::size_t q = 0; q < kSensors; ++q) {
        pipeline::SensorSpec spec;
        spec.name = kQuantity[q];
        spec.period_s = params.sensor_period_s * rng.uniform(0.9, 1.1);
        spec.clock_jitter_s = 0.02;
        spec.noise_std = kSensorNoise * kNoiseScale[q];
        spec.dropout_prob = params.sensor_dropout;
        pipeline::simulate_sensor(spec, truths[q], params.horizon_s, rng, device.streams[q]);
        device.readings += device.streams[q].readings.size();
      }
      std::array<pipeline::MergeCell, kSensors> cells;
      pipeline::merge_streams(
          device.streams, tolerance, cells,
          [&](double anchor, std::span<const pipeline::MergeCell> record) {
            ++device.rows[slice_of(anchor)];
            for (const pipeline::MergeCell& cell : record) {
              if (cell.count == 0) ++device.missing_cells;
            }
          });
      device.wall_us = obs::now_us() - start_us;
    });

    // 2. Allocate the batch's blocks at their exact size.
    for (std::size_t s = 0; s <= kSlices; ++s) {
      Block& block = blocks[s];
      block.first.resize(n + 1);
      std::size_t rows = 0;
      for (std::size_t j = 0; j < n; ++j) {
        block.first[j] = static_cast<std::uint32_t>(rows);
        rows += sensed[j].rows[s];
      }
      IOTML_CHECK(rows <= std::numeric_limits<std::uint32_t>::max(),
                  "DeviceWindows: too many rows in one block");
      block.first[n] = static_cast<std::uint32_t>(rows);
      block.pending = n;
      if (rows > 0) {
        block.cells = std::make_unique_for_overwrite<double[]>(rows * kColumns);
        block.present = std::make_unique_for_overwrite<std::uint8_t[]>(rows);
      }
    }

    // 3. Walk each device's streams again and fill its rows into the blocks.
    for_each_index_in_blocks(n, [&](std::size_t j) {
      const std::int64_t start_us = obs::now_us();
      std::array<std::uint32_t, kSlices + 1> next{};  // the device's next row per slice
      for (std::size_t s = 0; s <= kSlices; ++s) next[s] = blocks[s].first[j];
      std::array<pipeline::MergeCell, kSensors> cells;
      pipeline::merge_streams(
          sensed[j].streams, tolerance, cells,
          [&](double anchor, std::span<const pipeline::MergeCell> record) {
            const std::size_t s = slice_of(anchor);
            Block& block = blocks[s];
            const std::size_t row = next[s]++;
            double* cell = &block.cells[row * kColumns];
            cell[0] = anchor;
            std::uint8_t present = 0;
            for (std::size_t q = 0; q < kSensors; ++q) {
              if (record[q].count == 0) {
                cell[1 + q] = std::numeric_limits<double>::quiet_NaN();
              } else {
                cell[1 + q] = pipeline::merged_value(record[q], /*average_duplicates=*/true);
                present = static_cast<std::uint8_t>(present | (1U << q));
              }
            }
            block.present[row] = present;
          });
      sensed[j].wall_us += obs::now_us() - start_us;
    });

    // 4. Account each device's acquisition, in device order.
    for (std::size_t j = 0; j < n; ++j) {
      const Sensed& device = sensed[j];
      std::size_t rows = 0;
      for (const std::uint32_t in_slice : device.rows) rows += in_slice;
      Acquired window;
      pipeline::StageReport acq =
          pipeline::run_stage("acquisition", "device", pipeline::Tier::kDevice, window, [&] {
            window = {rows, kColumns, device.missing_cells};
            return 0.05 + 0.01 * static_cast<double>(device.readings);
          });
      acq.rows_in = device.readings;
      // det-sanctioned: wall_time_us is observability-only; to_json and the event log omit it
      acq.wall_time_us += static_cast<std::uint64_t>(device.wall_us);
      runs.push_back(acq);
      rows_ += rows;
      // Slices a device has no rows in up to its first row are never read.
      release(first_device + j);
    }
  }
}

std::size_t DeviceWindows::slice_of(double stamp) const noexcept {
  if (!(stamp < learning_s_)) return kSlices;
  const double width = learning_s_ / static_cast<double>(kSlices);
  return std::min(kSlices - 1, static_cast<std::size_t>(stamp / width));
}

std::size_t DeviceWindows::rows_in(std::size_t d, std::size_t s) const {
  const std::vector<std::uint32_t>& first = batch_blocks(d)[s].first;
  const std::size_t j = d % kBatchDevices;
  return first[j + 1] - first[j];
}

std::size_t DeviceWindows::rows_of(std::size_t d) const {
  std::size_t rows = 0;
  for (std::size_t s = 0; s <= kSlices; ++s) rows += rows_in(d, s);
  return rows;
}

std::pair<const DeviceWindows::Block*, std::size_t> DeviceWindows::locate(std::size_t d,
                                                                          std::size_t r) const {
  const Block* blocks = batch_blocks(d);
  for (std::size_t s = 0; s <= kSlices; ++s) {
    const std::size_t in_slice = rows_in(d, s);
    if (r < in_slice) {
      IOTML_INTERNAL_CHECK(blocks[s].cells != nullptr,
                           "DeviceWindows: a row was read after its block was freed");
      return {&blocks[s], blocks[s].first[d % kBatchDevices] + r};
    }
    r -= in_slice;
  }
  throw InternalError("DeviceWindows: row past the device's last");
}

double DeviceWindows::stamp(std::size_t d, std::size_t r) const {
  const auto [block, i] = locate(d, r);
  return block->cells[i * kColumns];
}

data::Dataset DeviceWindows::slice_rows(std::size_t d, std::size_t from, std::size_t to) const {
  data::Dataset out;
  std::array<data::Column*, kColumns> cols{};
  cols[0] = &out.add_numeric_column("timestamp");
  for (std::size_t q = 0; q < kSensors; ++q) cols[1 + q] = &out.add_numeric_column(kQuantity[q]);
  for (data::Column* col : cols) col->reserve(to - from);
  for (std::size_t r = from; r < to; ++r) {
    const auto [block, i] = locate(d, r);
    const double* cell = &block->cells[i * kColumns];
    cols[0]->push_numeric(cell[0]);
    for (std::size_t q = 0; q < kSensors; ++q) {
      if ((block->present[i] >> q & 1U) != 0) {
        cols[1 + q]->push_numeric(cell[1 + q]);
      } else {
        cols[1 + q]->push_missing();
      }
    }
  }
  return out;
}

data::Dataset DeviceWindows::take(std::size_t d, double cutoff) {
  const std::size_t begin = cursor_[d];
  const std::size_t total = rows_of(d);
  std::size_t end = begin;
  while (end < total && stamp(d, end) < cutoff) ++end;
  data::Dataset out = slice_rows(d, begin, end);
  cursor_[d] = end;
  release(d);
  return out;
}

data::Dataset DeviceWindows::rest(std::size_t d) const {
  return slice_rows(d, cursor_[d], rows_of(d));
}

data::Dataset DeviceWindows::recent(std::size_t d, double before_s, std::size_t rows) const {
  const std::size_t total = rows_of(d);
  std::size_t upto = cursor_[d];
  while (upto < total && stamp(d, upto) < before_s) ++upto;
  while (upto > 0 && stamp(d, upto - 1) >= before_s) --upto;
  return slice_rows(d, upto - std::min(rows, upto), upto);
}

std::size_t DeviceWindows::bytes() const noexcept {
  std::size_t bytes = 0;
  for (const Block& block : blocks_) {
    if (block.cells != nullptr) bytes += block.first.back() * kRowBytes;
  }
  return bytes;
}

void DeviceWindows::release(std::size_t d) {
  // Takes read from the cursor on. A recent() read asks for the keep_behind
  // rows before its time, and that time is never before a take's cutoff,
  // nor before the learning window's end once a cutoff has passed it, so at
  // least min(cursor, learning window rows) rows precede it.
  std::size_t needed = cursor_[d];
  if (keep_behind_ > 0) {
    needed = std::min(needed, rows_of(d) - rows_in(d, kSlices));
    needed -= std::min(needed, keep_behind_);
  }
  Block* blocks = batch_blocks(d);
  std::size_t through = 0;  // device d's rows up to the end of slice s
  for (std::size_t s = 0; s <= kSlices; ++s) {
    through += rows_in(d, s);
    if (s < released_[d]) continue;
    if (through > needed) break;
    released_[d] = static_cast<std::uint8_t>(s + 1);
    Block& block = blocks[s];
    if (--block.pending == 0) {
      block.cells.reset();
      block.present.reset();
    }
  }
}

}  // namespace iotml::sim

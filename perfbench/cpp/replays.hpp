#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/lattice_search.hpp"
#include "data/dataset.hpp"
#include "net/channel.hpp"

namespace perfbench {

// Replays time one layer's public function in isolation, on inputs sized
// from a workload run's own report, where no existing span isolates it.

struct SchedulerCost {
  double push_ns = 0.0;
  double pop_ns = 0.0;
};
/// sim::Scheduler push then pop of `events` events over `duration_s`.
SchedulerCost replay_scheduler(std::size_t events, double duration_s, std::uint64_t seed);

/// Rows shaped like one fleet device's integrated window (timestamp plus
/// temperature, humidity and wind), labelled with the fleet's comfort
/// concept when `labelled`.
iotml::data::Dataset sensor_rows(std::size_t rows, double sensor_period_s, bool labelled,
                                 std::uint64_t seed);

struct TdfCost {
  double encode_ns_per_row = 0.0;  ///< tdf::quantize + tdf::encode_frame
  double decode_ns_per_row = 0.0;  ///< tdf::decode_frame
  std::uint32_t schema_id = 0;     ///< of the replayed schema
  std::size_t schema_fields = 0;
};
/// Frames of `rows_per_frame` rows (on average) of sensor_rows().
TdfCost replay_tdf(double rows_per_frame, std::uint8_t scale_bits, double sensor_period_s,
                   std::uint64_t seed);

/// ns per net::Channel::send of `bytes` over a link with `link` params.
double replay_channel_send_ns(const iotml::net::LinkParams& link,
                              const iotml::net::ChannelParams& channel, std::size_t sends,
                              std::size_t bytes, double spacing_s, std::uint64_t seed);

struct ScoringCost {
  double ns_per_row = 0.0;           ///< deploy::DeviceRuntime::predict_row
  std::vector<std::uint8_t> image;   ///< the compiled, quantized artifact
};
/// A tree fit on `train_rows` sensor rows, compiled and quantized to int8.
ScoringCost replay_scoring(std::size_t train_rows, double sensor_period_s, std::uint64_t seed);

struct DiffCost {
  double delta_us = 0.0;     ///< ota::diff(base, target) + Patch::apply
  double full_us = 0.0;      ///< ota::diff({}, target)
  double patch_ratio = 0.0;  ///< replayed delta bytes / image_bytes
};
/// Images of `image_bytes` bytes derived from `artifact`; the target
/// rewrites the fewest seeded bytes whose delta reaches `patch_ratio` of the
/// image, so the diff copies and looks up as the run's deltas did.
DiffCost replay_ota_diff(const std::vector<std::uint8_t>& artifact, std::size_t image_bytes,
                         double patch_ratio, std::uint64_t seed);

struct SvmCost {
  double ns_per_iter = 0.0;
  double converged_frac = 0.0;  ///< trains that stopped before max_iterations
  std::size_t trains = 0;
};
/// kernels::train_svm on the CV-fold Grams of partitions spread over
/// `train`'s partition lattice, built with the search's options and folds.
SvmCost replay_svm(const iotml::data::Samples& train,
                   const iotml::core::SearchOptions& options);

/// Microseconds per core::BlockGramCache::gram_for on a cold cache.
double replay_gram_us_per_build(const iotml::data::Samples& train);

/// Nanoseconds per partition of comb::PartitionEnumerator over an n-set.
double replay_enum_ns_per_partition(std::size_t n);

}  // namespace perfbench

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace iotml::obs {

/// One virtual-clock observation.
struct Sample {
  double t_s = 0.0;
  double value = 0.0;
};

/// Bounded ring of virtual-time samples. Once `capacity` samples have been
/// recorded the oldest is overwritten, so a sampler left on for the whole
/// run costs fixed memory. `total()` keeps counting past the cap so readers
/// can tell how much history was shed. Recording takes a mutex (samplers are
/// shared across sim threads in tests); the sim's single-threaded hot path
/// pays an uncontended lock.
class Sampler {
 public:
  explicit Sampler(std::size_t capacity);

  void record(double t_s, double value);

  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t total() const;            ///< samples ever recorded
  std::vector<Sample> samples() const;    ///< oldest -> newest, size <= capacity

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<Sample> ring_;
  std::size_t next_ = 0;       // overwrite position once full
  std::uint64_t total_ = 0;
};

/// Series identity: what is measured, on which entity, at which tier.
struct SeriesKey {
  std::string metric;
  std::string entity;
  std::string tier;

  bool operator<(const SeriesKey& o) const noexcept {
    if (metric != o.metric) return metric < o.metric;
    if (entity != o.entity) return entity < o.entity;
    return tier < o.tier;
  }
  bool operator==(const SeriesKey& o) const noexcept {
    return metric == o.metric && entity == o.entity && tier == o.tier;
  }
};

/// Keyed collection of bounded samplers. Like obs::Registry, series are
/// created on first use and references stay valid for the store's lifetime,
/// so hot paths can cache the Sampler&. Keys live in a std::map so JSON
/// emission iterates in sorted order and output is byte-deterministic.
class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(std::size_t capacity_per_series = 512);

  Sampler& series(const std::string& metric, const std::string& entity,
                  const std::string& tier);

  std::size_t series_count() const;
  std::uint64_t samples_total() const;

  /// {"capacity": N, "series": [{metric, entity, tier, total, samples: [[t, v], ...]}]}
  /// sorted by (metric, entity, tier); samples oldest -> newest.
  void write_json(std::ostream& out) const;
  std::string to_json() const;

  void clear();

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::map<SeriesKey, std::unique_ptr<Sampler>> series_;
};

}  // namespace iotml::obs

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/journey.hpp"
#include "obs/timeseries.hpp"

namespace iotml::obs {

/// The fleet observatory: virtual-clock time-series, a causal journey log,
/// and per-entity flight recorders, composed behind one handle plus a
/// deterministic trace-id counter. Everything samples the sim's virtual
/// clock, draws nothing from any RNG and perturbs no scheduling, so a run
/// with the observatory on emits byte-identical event logs and reports to a
/// run with it off — it observes, it never participates. Memory stays
/// bounded at fleet scale: every buffer is a ring or a capped log, never an
/// unbounded vector.
class Observatory {
 public:
  /// Samples retained per (metric, entity, tier).
  static constexpr std::size_t kSeriesCapacity = 512;
  /// Events retained per entity.
  static constexpr std::size_t kFlightRing = 32;
  /// Hop records retained per run.
  static constexpr std::size_t kJourneyCapacity = std::size_t{1} << 20;

  explicit Observatory(std::size_t entities);

  TimeSeriesStore& series() noexcept { return series_; }
  const TimeSeriesStore& series() const noexcept { return series_; }

  JourneyLog& journeys() noexcept { return journeys_; }
  const JourneyLog& journeys() const noexcept { return journeys_; }

  FlightRecorder& flight() noexcept { return flight_; }
  const FlightRecorder& flight() const noexcept { return flight_; }

  /// Writes timeseries.json, journeys.jsonl, flightrec.json and events.log
  /// under `dir` (created if missing); `write_event_log` streams the event
  /// log's lines into events.log. Returns false if any file could not be
  /// written.
  bool write_artifacts(const std::string& dir,
                       const std::function<void(std::ostream&)>& write_event_log) const;

 private:
  TimeSeriesStore series_;
  JourneyLog journeys_;
  FlightRecorder flight_;
};

}  // namespace iotml::obs

#pragma once

#include <cstddef>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace iotml::sim {

/// One scheduled chaos transition: a compound scenario layered on top of
/// the base net::FaultPlan. `kind` is one of the eight chaos EventKinds
/// (kPartitionStart/End, kLossBurstStart/End, kCorruptionStart/End,
/// kLoadStormStart/End), and every *Start is paired with its *End.
/// Magnitudes (burst drop probability, storm corruption probability) live in
/// ChaosParams, so an event stays a plain (time, kind, target) triple.
/// Fleet-wide scenarios leave `target` 0.
struct ChaosEvent {
  double time_s = 0.0;
  EventKind kind = EventKind::kPartitionStart;
  std::size_t target = 0;
};

/// Intensity of the compound scenarios, expressed as expected occurrences
/// over the whole window (like net::FaultParams). Crash scenarios live in
/// FaultParams (kEdgeCrash/kCoreCrash); ChaosParams adds the scenarios that
/// mutate link behaviour rather than node liveness, plus the one timed
/// scenario the plan cannot know in advance: a crash during the deploy
/// broadcast, which FleetSim schedules itself at the broadcast instant.
struct ChaosParams {
  double partitions = 0.0;            ///< expected core partitions per window
  double partition_mean_s = 5.0;
  double loss_bursts = 0.0;           ///< expected fleet-wide loss bursts
  double burst_mean_s = 3.0;
  double burst_drop_prob = 0.5;       ///< device->edge drop prob during a burst
  double corruption_storms = 0.0;     ///< expected fleet-wide corruption storms
  double storm_mean_s = 3.0;
  double storm_corrupt_prob = 0.1;    ///< device->edge corrupt prob during a storm
  bool crash_during_broadcast = false; ///< crash edge 0 at deploy-broadcast time
  double broadcast_crash_downtime_s = 5.0;
  double load_storms = 0.0;           ///< expected fleet-wide flush storms
  double load_storm_mean_s = 4.0;
  double load_storm_factor = 4.0;     ///< flush-schedule compression (> 1)

  bool any() const noexcept {
    return partitions > 0.0 || loss_bursts > 0.0 || corruption_storms > 0.0 ||
           load_storms > 0.0 || crash_during_broadcast;
  }
};

/// Sample a reproducible chaos plan over [0, duration_s): exponential
/// inter-arrival times per scenario, exponential scenario lengths, every
/// start paired with its end, sorted by (time, kind, target). Layered on
/// the base fault plan — FleetSim schedules both streams into the same
/// event queue. Throws InvalidArgument unless duration_s > 0, the rates
/// and mean durations are non-negative and the burst/storm probabilities
/// lie in [0, 1].
std::vector<ChaosEvent> make_chaos_plan(const ChaosParams& params, double duration_s,
                                        Rng& rng);

}  // namespace iotml::sim

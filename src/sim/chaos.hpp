#pragma once

#include <cstddef>
#include <vector>

#include "net/topology.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace iotml::sim {

/// One scheduled fault or chaos transition, a plain (time, kind, target)
/// triple FleetSim pushes as is. Every down/crash/*Start is paired with its
/// up/restart/*End. `target` is a link index for link faults, a node id for
/// device churn, an edge index for edge crashes and 0 for the core and for
/// fleet-wide chaos scenarios. Magnitudes (burst drop probability, storm
/// corruption probability) live in ChaosParams.
struct ChaosEvent {
  double time_s = 0.0;
  EventKind kind = EventKind::kPartitionStart;
  std::size_t target = 0;
};

/// Intensity of the injected faults, expressed per entity over the whole
/// simulated window so the same params mean the same stress at any duration.
/// Churn (device down/up) silences a node but keeps its memory; a crash
/// (edge/core) additionally wipes volatile state — an edge restart recovers
/// only what its last checkpoint persisted (see DESIGN.md §11).
struct FaultParams {
  double link_outages = 0.0;          ///< expected outages per link
  double link_outage_mean_s = 5.0;    ///< mean outage length (exponential)
  double device_churns = 0.0;         ///< expected offline periods per device
  double device_offtime_mean_s = 10.0;
  double edge_crashes = 0.0;          ///< expected crash-restart cycles per edge
  double edge_downtime_mean_s = 5.0;
  double core_crashes = 0.0;          ///< expected crash-restart cycles of the core
};

/// Sample a reproducible fault plan over [0, duration_s): per link, device,
/// edge and the core, kLinkDown/Up, kDeviceDown/Up, kEdgeCrash/Restart and
/// kCoreCrash/Restart pairs with exponential inter-arrival times and
/// exponential outage lengths (a fixed 5 s mean for the core). Sorted by
/// (time, kind, target). Throws InvalidArgument unless duration_s > 0 and
/// the rates and mean durations are non-negative (a zero rate simply
/// injects nothing).
std::vector<ChaosEvent> make_fault_plan(const net::Topology& topo, const FaultParams& params,
                                        double duration_s, Rng& rng);

/// Intensity of the compound scenarios, expressed as expected occurrences
/// over the whole window (like FaultParams). Crash scenarios live in
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

/// Sample a reproducible chaos plan over [0, duration_s) with the fault
/// plan's sampler: exponential inter-arrival times per scenario, exponential
/// scenario lengths, every start paired with its end, sorted by (time, kind,
/// target). FleetSim pushes it after the fault plan, into the same event
/// queue. Throws InvalidArgument unless duration_s > 0, the rates and mean
/// durations are non-negative and the burst/storm probabilities lie in
/// [0, 1].
std::vector<ChaosEvent> make_chaos_plan(const ChaosParams& params, double duration_s,
                                        Rng& rng);

}  // namespace iotml::sim

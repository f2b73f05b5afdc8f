#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "util/rng.hpp"

namespace iotml::net {

/// What a scheduled fault does when its time comes. Churn (device down/up)
/// silences a node but keeps its memory; a crash (edge/core) additionally
/// wipes volatile state — an edge restart recovers only what its last
/// checkpoint persisted (see DESIGN.md §11).
enum class FaultKind {
  kLinkDown,
  kLinkUp,
  kDeviceDown,
  kDeviceUp,
  kEdgeCrash,    ///< target = edge index; buffer lost past the checkpoint
  kEdgeRestart,  ///< target = edge index; buffer restored from checkpoint
  kCoreCrash,    ///< core unreachable; edges hold and serve stale artifacts
  kCoreRestart
};

std::string fault_kind_name(FaultKind kind);

/// One scheduled fault. `target` is a link index for link faults, a node
/// id for device churn and an edge index for edge crashes.
struct Fault {
  double time_s = 0.0;
  FaultKind kind = FaultKind::kLinkDown;
  std::size_t target = 0;
};

/// Intensity of the injected faults, expressed per entity over the whole
/// simulated window so the same params mean the same stress at any duration.
struct FaultParams {
  double link_outages = 0.0;          ///< expected outages per link
  double link_outage_mean_s = 5.0;    ///< mean outage length (exponential)
  double device_churns = 0.0;         ///< expected offline periods per device
  double device_offtime_mean_s = 10.0;
  double edge_crashes = 0.0;          ///< expected crash-restart cycles per edge
  double edge_downtime_mean_s = 5.0;
  double core_crashes = 0.0;          ///< expected crash-restart cycles of the core
};

/// Sample a reproducible fault plan over [0, duration_s): exponential
/// inter-arrival times per link/device/edge (and the core), exponential
/// outage lengths (a fixed 5 s mean for the core), every down/crash paired
/// with its up/restart. Sorted by (time, kind, target). Throws
/// InvalidArgument unless duration_s > 0 and the rates and mean durations
/// are non-negative (a zero rate simply injects nothing).
std::vector<Fault> make_fault_plan(const Topology& topo, const FaultParams& params,
                                   double duration_s, Rng& rng);

}  // namespace iotml::net

#include "sim/chaos.hpp"

#include <algorithm>
#include <tuple>

#include "util/error.hpp"

namespace iotml::sim {

namespace {

/// Mean length of a core outage, in seconds.
constexpr double kCoreDowntimeMeanS = 5.0;

/// Sample alternating start/end pairs for one entity over [0, duration_s).
void sample_windows(std::vector<ChaosEvent>& plan, double expected_windows,
                    double mean_window_s, double duration_s, EventKind start,
                    EventKind end, std::size_t target, Rng& rng) {
  if (expected_windows <= 0.0 || mean_window_s <= 0.0) return;
  const double arrival_rate = expected_windows / duration_s;
  double t = rng.exponential(arrival_rate);
  while (t < duration_s) {
    const double window_s = rng.exponential(1.0 / mean_window_s);
    plan.push_back({t, start, target});
    // The end event may land past the window end; the scheduler still
    // processes it, which keeps every start paired with an end.
    plan.push_back({t + window_s, end, target});
    t += window_s + rng.exponential(arrival_rate);
  }
}

/// Stable (time, kind, target) order, so a plan is a pure function of its draws.
std::vector<ChaosEvent> sorted(std::vector<ChaosEvent> plan) {
  std::stable_sort(plan.begin(), plan.end(), [](const ChaosEvent& a, const ChaosEvent& b) {
    return std::tie(a.time_s, a.kind, a.target) < std::tie(b.time_s, b.kind, b.target);
  });
  return plan;
}

}  // namespace

std::vector<ChaosEvent> make_fault_plan(const net::Topology& topo, const FaultParams& params,
                                        double duration_s, Rng& rng) {
  IOTML_CHECK(duration_s > 0.0, "make_fault_plan: duration must be positive");
  IOTML_CHECK(params.link_outages >= 0.0 && params.device_churns >= 0.0 &&
                  params.edge_crashes >= 0.0 && params.core_crashes >= 0.0,
              "make_fault_plan: negative fault rate");
  IOTML_CHECK(params.link_outage_mean_s >= 0.0 && params.device_offtime_mean_s >= 0.0 &&
                  params.edge_downtime_mean_s >= 0.0,
              "make_fault_plan: negative outage duration");
  std::vector<ChaosEvent> plan;
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    sample_windows(plan, params.link_outages, params.link_outage_mean_s, duration_s,
                   EventKind::kLinkDown, EventKind::kLinkUp, l, rng);
  }
  for (std::size_t d = 0; d < topo.num_devices(); ++d) {
    sample_windows(plan, params.device_churns, params.device_offtime_mean_s, duration_s,
                   EventKind::kDeviceDown, EventKind::kDeviceUp, topo.device(d), rng);
  }
  for (std::size_t e = 0; e < topo.num_edges(); ++e) {
    sample_windows(plan, params.edge_crashes, params.edge_downtime_mean_s, duration_s,
                   EventKind::kEdgeCrash, EventKind::kEdgeRestart, e, rng);
  }
  sample_windows(plan, params.core_crashes, kCoreDowntimeMeanS, duration_s,
                 EventKind::kCoreCrash, EventKind::kCoreRestart, 0, rng);
  return sorted(std::move(plan));
}

std::vector<ChaosEvent> make_chaos_plan(const ChaosParams& params, double duration_s,
                                        Rng& rng) {
  IOTML_CHECK(duration_s > 0.0, "make_chaos_plan: duration must be positive");
  IOTML_CHECK(params.partitions >= 0.0 && params.loss_bursts >= 0.0 &&
                  params.corruption_storms >= 0.0,
              "make_chaos_plan: negative scenario rate");
  IOTML_CHECK(params.partition_mean_s >= 0.0 && params.burst_mean_s >= 0.0 &&
                  params.storm_mean_s >= 0.0,
              "make_chaos_plan: negative scenario duration");
  IOTML_CHECK(params.burst_drop_prob >= 0.0 && params.burst_drop_prob <= 1.0,
              "make_chaos_plan: burst_drop_prob outside [0, 1]");
  IOTML_CHECK(params.storm_corrupt_prob >= 0.0 && params.storm_corrupt_prob <= 1.0,
              "make_chaos_plan: storm_corrupt_prob outside [0, 1]");
  IOTML_CHECK(params.broadcast_crash_downtime_s >= 0.0,
              "make_chaos_plan: negative broadcast crash downtime");
  IOTML_CHECK(params.load_storms >= 0.0,
              "make_chaos_plan: negative scenario rate");
  IOTML_CHECK(params.load_storm_mean_s >= 0.0,
              "make_chaos_plan: negative scenario duration");
  IOTML_CHECK(params.load_storms <= 0.0 || params.load_storm_factor > 1.0,
              "make_chaos_plan: load_storm_factor must exceed 1");
  std::vector<ChaosEvent> plan;
  sample_windows(plan, params.partitions, params.partition_mean_s, duration_s,
                 EventKind::kPartitionStart, EventKind::kPartitionEnd, 0, rng);
  sample_windows(plan, params.loss_bursts, params.burst_mean_s, duration_s,
                 EventKind::kLossBurstStart, EventKind::kLossBurstEnd, 0, rng);
  sample_windows(plan, params.corruption_storms, params.storm_mean_s, duration_s,
                 EventKind::kCorruptionStart, EventKind::kCorruptionEnd, 0, rng);
  // Load storms sample strictly after every legacy scenario so plans with
  // load_storms == 0 replay the historical draw sequence byte-for-byte.
  sample_windows(plan, params.load_storms, params.load_storm_mean_s, duration_s,
                 EventKind::kLoadStormStart, EventKind::kLoadStormEnd, 0, rng);
  return sorted(std::move(plan));
}

}  // namespace iotml::sim

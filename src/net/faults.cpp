#include "net/faults.hpp"

#include <algorithm>
#include <tuple>

#include "util/error.hpp"

namespace iotml::net {

std::string fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
    case FaultKind::kDeviceDown: return "device-down";
    case FaultKind::kDeviceUp: return "device-up";
    case FaultKind::kEdgeCrash: return "edge-crash";
    case FaultKind::kEdgeRestart: return "edge-restart";
    case FaultKind::kCoreCrash: return "core-crash";
    case FaultKind::kCoreRestart: return "core-restart";
  }
  return "?";
}

namespace {

/// Mean length of a core outage, in seconds.
constexpr double kCoreDowntimeMeanS = 5.0;

/// Sample alternating down/up pairs for one entity over [0, duration_s).
void sample_outages(std::vector<Fault>& plan, double expected_outages,
                    double mean_outage_s, double duration_s, FaultKind down,
                    FaultKind up, std::size_t target, Rng& rng) {
  if (expected_outages <= 0.0 || mean_outage_s <= 0.0) return;
  const double arrival_rate = expected_outages / duration_s;
  double t = rng.exponential(arrival_rate);
  while (t < duration_s) {
    const double outage_s = rng.exponential(1.0 / mean_outage_s);
    plan.push_back({t, down, target});
    // The up event may land past the window end; the scheduler still
    // processes it, which keeps every down paired with an up.
    plan.push_back({t + outage_s, up, target});
    t += outage_s + rng.exponential(arrival_rate);
  }
}

}  // namespace

std::vector<Fault> make_fault_plan(const Topology& topo, const FaultParams& params,
                                   double duration_s, Rng& rng) {
  IOTML_CHECK(duration_s > 0.0, "make_fault_plan: duration must be positive");
  IOTML_CHECK(params.link_outages >= 0.0 && params.device_churns >= 0.0 &&
                  params.edge_crashes >= 0.0 && params.core_crashes >= 0.0,
              "make_fault_plan: negative fault rate");
  IOTML_CHECK(params.link_outage_mean_s >= 0.0 && params.device_offtime_mean_s >= 0.0 &&
                  params.edge_downtime_mean_s >= 0.0,
              "make_fault_plan: negative outage duration");
  std::vector<Fault> plan;
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    sample_outages(plan, params.link_outages, params.link_outage_mean_s, duration_s,
                   FaultKind::kLinkDown, FaultKind::kLinkUp, l, rng);
  }
  for (std::size_t d = 0; d < topo.num_devices(); ++d) {
    sample_outages(plan, params.device_churns, params.device_offtime_mean_s, duration_s,
                   FaultKind::kDeviceDown, FaultKind::kDeviceUp, topo.device(d), rng);
  }
  for (std::size_t e = 0; e < topo.num_edges(); ++e) {
    sample_outages(plan, params.edge_crashes, params.edge_downtime_mean_s, duration_s,
                   FaultKind::kEdgeCrash, FaultKind::kEdgeRestart, e, rng);
  }
  sample_outages(plan, params.core_crashes, kCoreDowntimeMeanS, duration_s,
                 FaultKind::kCoreCrash, FaultKind::kCoreRestart, 0, rng);
  std::stable_sort(plan.begin(), plan.end(), [](const Fault& a, const Fault& b) {
    return std::tie(a.time_s, a.kind, a.target) < std::tie(b.time_s, b.kind, b.target);
  });
  return plan;
}

}  // namespace iotml::net

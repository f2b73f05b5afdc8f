#include "sim/chaos.hpp"

#include <algorithm>
#include <tuple>

#include "util/error.hpp"

namespace iotml::sim {

namespace {

/// Sample alternating start/end pairs for one fleet-wide scenario over
/// [0, duration_s). Mirrors net::make_fault_plan's outage sampler so the
/// two plans share statistics and determinism discipline.
void sample_windows(std::vector<ChaosEvent>& plan, double expected_windows,
                    double mean_window_s, double duration_s, EventKind start,
                    EventKind end, Rng& rng) {
  if (expected_windows <= 0.0 || mean_window_s <= 0.0) return;
  const double arrival_rate = expected_windows / duration_s;
  double t = rng.exponential(arrival_rate);
  while (t < duration_s) {
    const double window_s = rng.exponential(1.0 / mean_window_s);
    plan.push_back({t, start, 0});
    // The end event may land past the window end; the scheduler still
    // processes it, which keeps every start paired with an end.
    plan.push_back({t + window_s, end, 0});
    t += window_s + rng.exponential(arrival_rate);
  }
}

}  // namespace

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
                 EventKind::kPartitionStart, EventKind::kPartitionEnd, rng);
  sample_windows(plan, params.loss_bursts, params.burst_mean_s, duration_s,
                 EventKind::kLossBurstStart, EventKind::kLossBurstEnd, rng);
  sample_windows(plan, params.corruption_storms, params.storm_mean_s, duration_s,
                 EventKind::kCorruptionStart, EventKind::kCorruptionEnd, rng);
  // Load storms sample strictly after every legacy scenario so plans with
  // load_storms == 0 replay the historical draw sequence byte-for-byte.
  sample_windows(plan, params.load_storms, params.load_storm_mean_s, duration_s,
                 EventKind::kLoadStormStart, EventKind::kLoadStormEnd, rng);
  std::stable_sort(plan.begin(), plan.end(), [](const ChaosEvent& a, const ChaosEvent& b) {
    return std::tie(a.time_s, a.kind, a.target) < std::tie(b.time_s, b.kind, b.target);
  });
  return plan;
}

}  // namespace iotml::sim

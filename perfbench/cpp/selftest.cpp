// perfbench_selftest: checks the benchmark's own machinery — span folding,
// the per-iteration output check and the replay check — without running a
// full workload.
// Exits 0 when every check holds, 1 otherwise.

#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "fold.hpp"
#include "replays.hpp"
#include "sim/fleet.hpp"
#include "workloads.hpp"

namespace {

using iotml::obs::TraceEvent;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

TraceEvent ev(const std::string& name, std::int64_t ts, std::int64_t dur, std::uint32_t depth,
              std::uint32_t tid = 1) {
  TraceEvent e;
  e.name = name;
  e.ts_us = ts;
  e.dur_us = dur;
  e.depth = depth;
  e.tid = tid;
  return e;
}

void test_fold_nested() {
  // Spans arrive in completion order, children before parents.
  const auto t = perfbench::fold_self_time(
      {ev("c", 3, 2, 2), ev("b", 2, 5, 1), ev("a", 0, 10, 0)});
  expect(t.at("a").self_us == 5, "nested: a self = 10 - 5");
  expect(t.at("b").self_us == 3, "nested: b self = 5 - 2");
  expect(t.at("c").self_us == 2, "nested: leaf self = duration");
  expect(t.at("a").total_us == 10 && t.at("a").count == 1, "nested: a totals");
}

void test_fold_siblings() {
  const auto t = perfbench::fold_self_time(
      {ev("x", 1, 2, 1), ev("y", 4, 4, 1), ev("x", 8, 2, 1), ev("root", 0, 12, 0)});
  expect(t.at("root").self_us == 12 - 2 - 4 - 2, "siblings: root self");
  expect(t.at("x").self_us == 4 && t.at("x").count == 2, "siblings: x folds two spans");
  std::int64_t sum = 0;
  for (const auto& [name, totals] : t) sum += totals.self_us;
  expect(sum == 12, "siblings: self times sum to the root duration");
}

void test_fold_zero_length() {
  // A zero-length child at each edge of its parent and a zero-length
  // sibling that starts where the parent ends.
  const auto t = perfbench::fold_self_time({ev("z", 0, 0, 1), ev("z", 10, 0, 1),
                                            ev("p", 0, 10, 0), ev("q", 10, 0, 0),
                                            ev("r", 10, 5, 0)});
  expect(t.at("p").self_us == 10, "zero-length: parent keeps its full self time");
  expect(t.at("z").self_us == 0 && t.at("z").count == 2, "zero-length: counted, no time");
  expect(t.at("q").self_us == 0, "zero-length: sibling at the boundary");
  expect(t.at("r").self_us == 5, "zero-length: following sibling unaffected");
}

void test_fold_threads() {
  // Identical timestamps on two threads must not nest across threads.
  const auto t = perfbench::fold_self_time(
      {ev("a", 0, 10, 0, 1), ev("b", 2, 3, 0, 2), ev("c", 2, 3, 1, 1)});
  expect(t.at("a").self_us == 7, "threads: only same-thread children subtract");
  expect(t.at("b").self_us == 3, "threads: root on another thread");
}

iotml::sim::FleetReport small_fleet_report() {
  iotml::sim::FleetConfig config = perfbench::fleet_wire_config(3);
  config.devices = 12;
  config.edges = 2;
  config.duration_s = 6.0;
  config.observatory.enabled = false;
  iotml::sim::FleetSim fleet(config);
  return fleet.run();
}

void test_check_tampered_reports() {
  const iotml::sim::FleetReport clean = small_fleet_report();
  expect(perfbench::check_fleet_report(clean).empty(), "an untouched report passes");
  expect(perfbench::digest(clean.to_json()) == perfbench::digest(small_fleet_report().to_json()),
         "a rerun of the same seed has the same digest");

  iotml::sim::FleetReport lost_row = clean;
  lost_row.rows_delivered += 1;
  expect(!perfbench::check_fleet_report(lost_row).empty(), "an extra delivered row fails");
  expect(perfbench::digest(lost_row.to_json()) != perfbench::digest(clean.to_json()),
         "a tampered report changes the digest");

  iotml::sim::FleetReport bad_decode = clean;
  bad_decode.telemetry.decode_identity_ok = false;
  expect(!perfbench::check_fleet_report(bad_decode).empty(), "a broken decode identity fails");

  iotml::sim::FleetReport bad_ota = clean;
  bad_ota.deploy.ota.enabled = true;
  bad_ota.deploy.ota.all_devices_verified = false;
  expect(!perfbench::check_fleet_report(bad_ota).empty(), "an unverified OTA image fails");

  iotml::sim::FleetReport empty;
  expect(!perfbench::check_fleet_report(empty).empty(), "a report of no work fails");
}

void test_carve_replays() {
  std::vector<std::string> failures;
  expect(perfbench::carve(100.0, 40.0, "x", failures) == 60.0 && failures.empty(),
         "carve: the spans keep what the replay leaves");
  expect(perfbench::carve(100.0, 110.0, "x", failures) == -10.0 && failures.empty(),
         "carve: an overshoot within the tolerance stays signed, not clamped");
  expect(perfbench::carve(100.0, 200.0, "x", failures) == -100.0 && failures.size() == 1,
         "carve: a replay far above its spans fails the check");
}

void test_ota_replay_meets_patch_ratio() {
  const std::vector<std::uint8_t> artifact = perfbench::replay_scoring(400, 1.0, 5).image;
  for (const double ratio : {0.0, 0.3, 0.99}) {
    const perfbench::DiffCost cost = perfbench::replay_ota_diff(artifact, 3000, ratio, 5);
    expect(cost.patch_ratio >= ratio && cost.patch_ratio < ratio + 0.02,
           "ota replay: the delta reaches the run's patch ratio " + std::to_string(ratio) +
               ", got " + std::to_string(cost.patch_ratio));
  }
}

void test_unknown_workload() {
  bool threw = false;
  try {
    (void)perfbench::make_workload("fleet-nope", 1);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "an unknown workload name is refused");
}

}  // namespace

int main() {
  test_fold_nested();
  test_fold_siblings();
  test_fold_zero_length();
  test_fold_threads();
  test_check_tampered_reports();
  test_carve_replays();
  test_ota_replay_meets_patch_ratio();
  test_unknown_workload();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}

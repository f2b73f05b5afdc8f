#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fold.hpp"
#include "sim/fleet.hpp"

namespace perfbench {

/// Before/after readings of the process-global obs::registry() counters
/// the per-layer metrics use. The registry is cumulative, so only deltas
/// around one iteration belong to that iteration.
struct CounterSnapshot {
  std::map<std::string, std::uint64_t> values;

  static CounterSnapshot take();
  CounterSnapshot minus(const CounterSnapshot& earlier) const;
  double operator[](const std::string& name) const;
};

/// What a traced iteration yields: per-layer metrics by name, the traced
/// wall split into layers (microseconds, summing to the traced wall) and
/// the replay checks that failed: a replay that does not match the run it
/// was sized from fails the traced iteration.
struct LayerMetrics {
  std::map<std::string, double> metrics;
  std::map<std::string, double> attribution_us;
  std::vector<std::string> failures;
};

/// Share of a span's self time by which replayed work carved out of it may
/// exceed it: the drift in host speed allowed between the traced pass and
/// the replays timed right after it. On a shared 4-vCPU VM, iterations of
/// identical work seconds apart ran up to 1.3 times slower than the one
/// before, so a replay may read that much high without being wrong.
constexpr double kReplayTolerance = 0.5;

/// What is left of `self_us`, the self time of the spans replayed work ran
/// inside, after taking out `replayed_us`: signed, so a replay that costs
/// more than the run spent shows as a negative remainder. When the replay
/// exceeds the self time by more than kReplayTolerance of it, the replay
/// does not describe the run and a failure naming `what` is recorded.
double carve(double self_us, double replayed_us, const std::string& what,
             std::vector<std::string>& failures);

/// One fixed-work benchmark workload. setup() builds the inputs from the
/// seed; the measured work is pieces() independent pieces, run in order by
/// run_piece() and timed one by one; release() drops inputs and outputs
/// outside any timing. check(), digest() and quality() read the outputs of
/// the last full pass.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual std::size_t pieces() const = 0;
  virtual void run_piece(std::size_t k) = 0;
  virtual void release() = 0;
  virtual std::string check() const = 0;
  virtual std::string digest() const = 0;
  virtual std::map<std::string, double> quality() const = 0;

  /// Per-layer metrics of a traced iteration, from its folded spans, the
  /// registry deltas around it and replays sized from its outputs.
  virtual LayerMetrics layers(const std::map<std::string, SpanTotals>& folded,
                              const CounterSnapshot& delta) = 0;
};

/// "fleet-learn", "fleet-wire" or "lattice-mkl"; throws std::invalid_argument
/// for any other name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

/// The fleet-wire workload's fleet: bench_chaos's compound scenario with its
/// fault-tolerance settings at 2,000 devices, telemetry frames on, the
/// observatory on and the degradation ladder pinned at L2.
iotml::sim::FleetConfig fleet_wire_config(std::uint64_t seed);

}  // namespace perfbench

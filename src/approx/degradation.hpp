#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace iotml::approx {

/// The four rungs of the graceful-degradation ladder. Higher levels trade
/// accuracy for edge-side cost and uplink bytes; every level still closes
/// the row-conservation ledger.
enum class DegradeLevel : int {
  kExact = 0,    ///< L0: full integration + pipeline, rows uplinked
  kSampled = 1,  ///< L1: stratified sample integrated, rest sampled out
  kSketch = 2,   ///< L2: sketch-only reduce, summary-only uplink
  kSummary = 3,  ///< L3: stale artifact + count-only summary uplink
};

/// Normalized backpressure signals an edge observes on the virtual clock.
/// The caller scales each so 1.0 means "at the reference saturation point";
/// the controller takes the max as its composite pressure, so any one
/// saturated signal is enough to climb the ladder.
struct DegradeSignals {
  double queue_fraction = 0.0;    ///< uplink in-flight depth / queue capacity
  double dead_letter_rate = 0.0;  ///< dead-letter growth vs reference rate
  double sf_occupancy = 0.0;      ///< store-and-forward rows / capacity
  double checkpoint_lag = 0.0;    ///< rows past last checkpoint / reference

  double pressure() const noexcept;
};

/// Hysteresis bands for the ladder. up[i] is the pressure at which the
/// controller jumps from level <= i to at least level i+1 (evaluated
/// highest first, so a big spike can jump straight to L3). down[i] is the
/// band the pressure must stay below, continuously for dwell_s, before the
/// controller steps down ONE level from i+1. up[i] > down[i] keeps a noisy
/// pressure signal from flapping across a boundary.
struct DegradeThresholds {
  std::array<double, 3> up{0.75, 1.5, 3.0};
  std::array<double, 3> down{0.35, 0.75, 1.5};
  double dwell_s = 4.0;
};

/// One ledgered ladder move.
struct LevelTransition {
  double t_s = 0.0;
  DegradeLevel from = DegradeLevel::kExact;
  DegradeLevel to = DegradeLevel::kExact;
};

/// Per-edge hysteresis state machine over the 4-level ladder. Driven
/// entirely by update() calls on the virtual clock — it never reads a real
/// clock — so transitions are deterministic per event schedule. Escalation
/// is immediate (pressure crossing up[i] jumps to the highest indicated
/// level); de-escalation requires pressure to sit below the current
/// level's down band for a full dwell window and then descends a single
/// level, restarting the dwell for the next step. A pinned controller
/// (pin_level >= 0) never moves — L0-pinned runs are the byte-identity
/// baseline.
class DegradationController {
 public:
  /// Throws InvalidArgument unless thresholds are ordered (up strictly
  /// increasing, down[i] < up[i], dwell_s > 0) and pin_level is in [-1, 3].
  explicit DegradationController(const DegradeThresholds& thresholds,
                                 int pin_level = -1);

  /// Feed one observation at virtual time now_s (must be non-decreasing
  /// across calls; throws InvalidArgument otherwise). Returns the level in
  /// force after the observation.
  DegradeLevel update(double now_s, const DegradeSignals& signals);

  DegradeLevel level() const noexcept { return level_; }
  bool pinned() const noexcept { return pin_level_ >= 0; }

  const std::vector<LevelTransition>& transitions() const noexcept {
    return transitions_;
  }

  /// Virtual seconds spent at each level so far (updated lazily on
  /// update(); call update() at end-of-run to close the books).
  const std::array<double, 4>& time_at_level() const noexcept {
    return time_at_level_;
  }

 private:
  void move_to(double now_s, DegradeLevel to);

  DegradeThresholds thresholds_;
  int pin_level_;
  DegradeLevel level_ = DegradeLevel::kExact;
  double last_update_s_ = 0.0;
  double calm_since_s_ = 0.0;  ///< when pressure last dropped below the band
  bool calm_ = false;
  std::array<double, 4> time_at_level_{0.0, 0.0, 0.0, 0.0};
  std::vector<LevelTransition> transitions_;
};

}  // namespace iotml::approx

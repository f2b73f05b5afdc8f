#include "approx/degradation.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace iotml::approx {

double DegradeSignals::pressure() const noexcept {
  return std::max(std::max(queue_fraction, dead_letter_rate),
                  std::max(sf_occupancy, checkpoint_lag));
}

DegradationController::DegradationController(
    const DegradeThresholds& thresholds, int pin_level)
    : thresholds_(thresholds), pin_level_(pin_level) {
  IOTML_CHECK(pin_level >= -1 && pin_level <= 3,
              "DegradationController: pin_level must be in [-1, 3]");
  IOTML_CHECK(thresholds.dwell_s > 0.0,
              "DegradationController: dwell_s must be > 0");
  for (std::size_t i = 0; i < 3; ++i) {
    IOTML_CHECK(thresholds.down[i] < thresholds.up[i],
                "DegradationController: down band must sit below up band");
    if (i > 0) {
      IOTML_CHECK(thresholds.up[i - 1] < thresholds.up[i],
                  "DegradationController: up thresholds must increase");
      IOTML_CHECK(thresholds.down[i - 1] < thresholds.down[i],
                  "DegradationController: down thresholds must increase");
    }
  }
  if (pin_level_ >= 0) level_ = static_cast<DegradeLevel>(pin_level_);
}

void DegradationController::move_to(double now_s, DegradeLevel to) {
  if (to == level_) return;
  transitions_.push_back(LevelTransition{now_s, level_, to});
  level_ = to;
  calm_ = false;
}

DegradeLevel DegradationController::update(double now_s,
                                           const DegradeSignals& signals) {
  IOTML_CHECK(now_s >= last_update_s_,
              "DegradationController: virtual time moved backwards");
  time_at_level_[static_cast<std::size_t>(level_)] += now_s - last_update_s_;
  last_update_s_ = now_s;
  if (pin_level_ >= 0) return level_;

  const double pressure = signals.pressure();
  const auto current = static_cast<int>(level_);

  // Escalate immediately to the highest level whose up band is crossed.
  int target = current;
  for (int i = 2; i >= current; --i) {
    if (pressure >= thresholds_.up[static_cast<std::size_t>(i)]) {
      target = i + 1;
      break;
    }
  }
  if (target > current) {
    move_to(now_s, static_cast<DegradeLevel>(target));
    return level_;
  }

  // De-escalate one level only after a full calm dwell below the band.
  if (current > 0) {
    const double band = thresholds_.down[static_cast<std::size_t>(current - 1)];
    if (pressure < band) {
      if (!calm_) {
        calm_ = true;
        calm_since_s_ = now_s;
      } else if (now_s - calm_since_s_ >= thresholds_.dwell_s) {
        move_to(now_s, static_cast<DegradeLevel>(current - 1));
        // A fresh dwell must elapse before the next step down.
      }
    } else {
      calm_ = false;
    }
  }
  return level_;
}

}  // namespace iotml::approx

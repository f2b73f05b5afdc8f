#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace iotml::ota {

/// Settings of the epochal OTA loop (see DESIGN.md §14). The loop's timers,
/// round limits and probe size are fixed constants of the fleet simulator,
/// the one user of the loop.
struct OtaConfig {
  bool enabled = false;

  /// Retrain epochs fired *during* the learning window, at
  /// t_e = duration_s * (e + 1) / (epochs + 1) — so chaos plans genuinely
  /// overlap patch transfers. Epoch 0 provisions the fleet (full image).
  int epochs = 3;

  /// Fraction of the fleet sampled (seeded, without replacement) into the
  /// canary cohort each epoch, floored at min_canary_devices.
  double canary_fraction = 0.2;
  std::size_t min_canary_devices = 2;

  /// Patch chunk payload size on the wire. Small enough that a loss burst
  /// costs one chunk retransmit, large enough that framing stays < 20%.
  std::size_t chunk_bytes = 96;

  /// A canary verdict promotes unless pooled new-model accuracy drops more
  /// than this below pooled old-model accuracy on the same probe rows.
  double regression_tolerance = 0.02;
};

/// One canary device's A/B probe result: the same `rows` recent rows scored
/// by the running (old) and the candidate (new) model. Pooling counts across
/// the cohort compares the two models on identical data — per-device
/// accuracies on different windows would not be comparable.
struct CanaryProbe {
  std::uint32_t device = 0;
  std::size_t rows = 0;
  std::size_t correct_old = 0;
  std::size_t correct_new = 0;
};

/// Pooled cohort verdict for one candidate version.
struct CanaryVerdict {
  std::uint32_t version_id = 0;
  int epoch = 0;
  std::size_t devices_reporting = 0;
  std::size_t pooled_rows = 0;
  double accuracy_old = 0.0;
  double accuracy_new = 0.0;
  bool promoted = false;
};

/// Sample the canary cohort for an epoch: seeded draw without replacement
/// from [0, device_count), ascending. Cohort size is
/// max(min_canary_devices, round(fraction * device_count)) clamped to the
/// fleet. Throws InvalidArgument when device_count == 0.
std::vector<std::uint32_t> pick_canaries(std::size_t device_count,
                                         const OtaConfig& cfg, Rng& rng);

/// Pool probes and decide. Promotes when pooled new accuracy >= pooled old
/// accuracy - regression_tolerance. With no probes (cohort unreachable under
/// chaos) the verdict is conservative: not promoted.
CanaryVerdict judge(std::uint32_t version_id, int epoch,
                    const std::vector<CanaryProbe>& probes,
                    const OtaConfig& cfg);

}  // namespace iotml::ota

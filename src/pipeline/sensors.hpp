#pragma once

#include <functional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace iotml::pipeline {

/// Ground-truth physical signal: value as a function of time (seconds).
using Signal = std::function<double(double)>;

/// Standard synthetic field signals.
Signal sine_signal(double mean, double amplitude, double period_s, double phase = 0.0);
Signal trend_signal(double start, double slope_per_s);
Signal composite_signal(std::vector<Signal> parts);  // sum of parts

/// Behavioural model of one peripheral sensing device (the paper's periphery:
/// sensors are "rather far from an ideal statistical measurement process").
struct SensorSpec {
  std::string name = "sensor";
  double period_s = 1.0;        ///< nominal sampling period
  double clock_jitter_s = 0.0;  ///< uniform timestamp jitter (+/-)
  double noise_std = 0.0;       ///< additive Gaussian measurement noise
  double drift_per_s = 0.0;     ///< linear calibration drift
  double dropout_prob = 0.0;    ///< per-sample probability of a lost reading
  double bias = 0.0;            ///< constant offset (an adversarial/untrusted
                                ///< sensor sets this without telling anyone)
  double outlier_prob = 0.0;    ///< probability of a gross outlier reading
  double outlier_scale = 10.0;  ///< outlier magnitude in noise_std units
};

/// One timestamped measurement.
struct Reading {
  double timestamp = 0.0;
  double value = 0.0;
};

/// The output of one device over an acquisition window.
struct SensorStream {
  std::string sensor_name;
  std::vector<Reading> readings;  ///< timestamp-ascending
  std::size_t dropped = 0;        ///< readings lost to dropout
};

/// Simulate one device sampling `truth` over [0, duration_s).
SensorStream simulate_sensor(const SensorSpec& spec, const Signal& truth,
                             double duration_s, Rng& rng);

/// The same simulation written into `out`, whose readings are replaced and
/// whose `dropped` count restarts at 0. `out.readings` keeps its capacity,
/// so a caller that reserved room for every sample gets a fill that
/// allocates nothing: the fleet simulator fills reserved buffers this way
/// on worker threads.
void simulate_sensor(const SensorSpec& spec, const Signal& truth, double duration_s,
                     Rng& rng, SensorStream& out);

/// A field of devices measuring (possibly shared) quantities. This is the
/// "sand-dust of heterogeneously distributed sensors not all of which are
/// operational at any given time" of the paper's introduction.
struct FieldQuantity {
  std::string name;  ///< e.g. "temperature"
  Signal truth;
  std::vector<SensorSpec> sensors;  ///< devices measuring this quantity
};

struct FieldAcquisition {
  std::vector<SensorStream> streams;
  double duration_s = 0.0;
  /// Map stream index -> quantity name (several sensors may share one).
  std::vector<std::string> quantity_of_stream;
};

/// Run every device of every quantity for `duration_s` seconds.
FieldAcquisition acquire_field(const std::vector<FieldQuantity>& field,
                               double duration_s, Rng& rng);

}  // namespace iotml::pipeline

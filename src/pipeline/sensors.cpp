#include "pipeline/sensors.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace iotml::pipeline {

Signal sine_signal(double mean, double amplitude, double period_s, double phase) {
  IOTML_CHECK(period_s > 0.0, "sine_signal: period must be positive");
  return [=](double t) {
    return mean + amplitude * std::sin(2.0 * std::numbers::pi * t / period_s + phase);
  };
}

Signal trend_signal(double start, double slope_per_s) {
  return [=](double t) { return start + slope_per_s * t; };
}

Signal composite_signal(std::vector<Signal> parts) {
  IOTML_CHECK(!parts.empty(), "composite_signal: no parts");
  return [parts = std::move(parts)](double t) {
    double total = 0.0;
    for (const Signal& s : parts) total += s(t);
    return total;
  };
}

SensorStream simulate_sensor(const SensorSpec& spec, const Signal& truth,
                             double duration_s, Rng& rng) {
  SensorStream out;
  // Room for every sample of a run without dropout. NaN, infinite and absurd
  // counts fail the comparison and are left to the checks of the fill.
  const double samples = std::ceil(duration_s / spec.period_s) + 1.0;
  if (samples >= 1.0 && samples < 1e9) {
    out.readings.reserve(static_cast<std::size_t>(samples));
  }
  simulate_sensor(spec, truth, duration_s, rng, out);
  return out;
}

void simulate_sensor(const SensorSpec& spec, const Signal& truth, double duration_s,
                     Rng& rng, SensorStream& out) {
  IOTML_CHECK(spec.period_s > 0.0, "simulate_sensor: period must be positive");
  IOTML_CHECK(duration_s > 0.0, "simulate_sensor: duration must be positive");
  IOTML_CHECK(spec.dropout_prob >= 0.0 && spec.dropout_prob < 1.0,
              "simulate_sensor: dropout_prob must be in [0, 1)");
  IOTML_CHECK(spec.noise_std >= 0.0, "simulate_sensor: noise_std must be >= 0");

  out.sensor_name = spec.name;
  out.readings.clear();
  out.dropped = 0;
  for (double t = 0.0; t < duration_s; t += spec.period_s) {
    if (rng.bernoulli(spec.dropout_prob)) {
      ++out.dropped;
      continue;
    }
    double stamp = t;
    if (spec.clock_jitter_s > 0.0) {
      stamp += rng.uniform(-spec.clock_jitter_s, spec.clock_jitter_s);
      stamp = std::max(stamp, 0.0);
    }
    double value = truth(stamp) + spec.bias + spec.drift_per_s * stamp;
    if (spec.noise_std > 0.0) value += rng.normal(0.0, spec.noise_std);
    if (spec.outlier_prob > 0.0 && rng.bernoulli(spec.outlier_prob)) {
      const double magnitude = spec.outlier_scale * std::max(spec.noise_std, 1e-3);
      value += rng.bernoulli(0.5) ? magnitude : -magnitude;
    }
    out.readings.push_back({stamp, value});
  }
  // Jitter can locally reorder stamps; integration expects ascending order.
  std::sort(out.readings.begin(), out.readings.end(),
            [](const Reading& a, const Reading& b) { return a.timestamp < b.timestamp; });
}

FieldAcquisition acquire_field(const std::vector<FieldQuantity>& field,
                               double duration_s, Rng& rng) {
  IOTML_CHECK(!field.empty(), "acquire_field: empty field");
  FieldAcquisition out;
  out.duration_s = duration_s;
  for (const FieldQuantity& q : field) {
    IOTML_CHECK(!q.sensors.empty(),
                "acquire_field: quantity '" + q.name + "' has no sensors");
    for (const SensorSpec& spec : q.sensors) {
      out.streams.push_back(simulate_sensor(spec, q.truth, duration_s, rng));
      out.quantity_of_stream.push_back(q.name);
    }
  }
  return out;
}

}  // namespace iotml::pipeline

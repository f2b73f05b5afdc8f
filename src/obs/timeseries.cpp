#include "obs/timeseries.hpp"

#include <algorithm>
#include <sstream>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace iotml::obs {

Sampler::Sampler(std::size_t capacity) : capacity_(capacity) {
  IOTML_CHECK(capacity_ >= 1, "Sampler: capacity must be at least 1");
  ring_.reserve(std::min<std::size_t>(capacity_, 64));
}

void Sampler::record(double t_s, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(Sample{t_s, value});
  } else {
    ring_[next_] = Sample{t_s, value};
    next_ = (next_ + 1) % capacity_;
  }
  ++total_;
}

std::uint64_t Sampler::total() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::vector<Sample> Sampler::samples() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // next_ is the oldest slot once the ring has wrapped.
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % ring_.size()]);
    }
  }
  return out;
}

TimeSeriesStore::TimeSeriesStore(std::size_t capacity_per_series)
    : capacity_(capacity_per_series) {
  IOTML_CHECK(capacity_ >= 1, "TimeSeriesStore: capacity must be at least 1");
}

Sampler& TimeSeriesStore::series(const std::string& metric, const std::string& entity,
                                 const std::string& tier) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = series_[SeriesKey{metric, entity, tier}];
  if (!slot) slot = std::make_unique<Sampler>(capacity_);
  return *slot;
}

std::size_t TimeSeriesStore::series_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

std::uint64_t TimeSeriesStore::samples_total() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, sampler] : series_) total += sampler->total();
  return total;
}

void TimeSeriesStore::write_json(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  out << "{\n  \"capacity\": " << capacity_ << ",\n  \"series\": [";
  bool first = true;
  for (const auto& [key, sampler] : series_) {
    out << (first ? "" : ",") << "\n    {\"metric\": \"" << json_escape(key.metric)
        << "\", \"entity\": \"" << json_escape(key.entity) << "\", \"tier\": \""
        << json_escape(key.tier) << "\", \"total\": " << sampler->total()
        << ", \"samples\": [";
    const std::vector<Sample> samples = sampler->samples();
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (i > 0) out << ", ";
      out << "[" << json_number(samples[i].t_s) << ", " << json_number(samples[i].value) << "]";
    }
    out << "]}";
    first = false;
  }
  out << "\n  ]\n}\n";
}

std::string TimeSeriesStore::to_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

void TimeSeriesStore::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
}

}  // namespace iotml::obs

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace iotml::obs {

/// One key/value attached to a span. Numeric values are pre-rendered JSON
/// tokens so the exported args stay typed in about:tracing.
struct TraceArg {
  std::string key;
  std::string value;  ///< JSON number token when is_number, raw text otherwise
  bool is_number = false;
};

/// A completed span (Chrome trace_event "X" complete event).
struct TraceEvent {
  std::string name;
  std::string category;
  std::int64_t ts_us = 0;   ///< start timestamp, microseconds (monotonic)
  std::int64_t dur_us = 0;  ///< duration, microseconds
  std::uint32_t tid = 0;    ///< small per-thread id, assigned on first span
  std::uint32_t depth = 0;  ///< nesting depth on its thread (0 = root)
  std::vector<TraceArg> args;
};

/// Collects spans and exports Chrome `trace_event` JSON loadable in
/// chrome://tracing or Perfetto. A disabled collector (the default) makes
/// Span construction a single relaxed atomic load — the no-op fast path.
/// Thread-safe; spans may complete concurrently on any thread.
class TraceCollector {
 public:
  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }

  /// Append a completed span (called by Span's destructor).
  void record(TraceEvent event);

  std::size_t size() const;
  std::vector<TraceEvent> snapshot() const;
  void clear();

  /// Export as Chrome trace JSON: {"traceEvents": [...]} with "X" phase
  /// events; each event carries its nesting depth and user args.
  void write_chrome_json(std::ostream& out) const;
  std::string chrome_json() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// RAII trace span. If the collector is disabled at construction the span is
/// inert: no clock reads, no recording, arg() calls are dropped. Spans nest
/// naturally with scope; nesting depth is tracked per thread.
class Span {
 public:
  Span(TraceCollector& collector, std::string name, std::string category = "iotml");

  /// Convenience: span against the process-global collector (obs.hpp).
  explicit Span(std::string name, std::string category = "iotml");

  /// Span against the process-global collector named by string literals (or
  /// other strings that outlive the constructor). The names are copied only
  /// when tracing is enabled, so an inert span costs one relaxed atomic load.
  explicit Span(const char* name, const char* category = "iotml");

  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  void arg(const std::string& key, double value);
  void arg(const std::string& key, std::int64_t value);
  void arg(const std::string& key, std::uint64_t value);
  void arg(const std::string& key, const std::string& value);
  void arg(const std::string& key, const char* value);

  bool active() const noexcept { return collector_ != nullptr; }

 private:
  /// Starts recording into `collector` once event_'s names are set.
  void begin(TraceCollector& collector);

  TraceCollector* collector_ = nullptr;  // null when tracing was disabled
  TraceEvent event_;
};

}  // namespace iotml::obs

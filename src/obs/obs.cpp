#include "obs/obs.hpp"

#include <cstdlib>
#include <fstream>

namespace iotml::obs {

namespace {

std::string env_or_empty(const char* name) {
  // Read once while constructing the magic static below; nothing in iotml
  // writes the environment, so the mt-unsafety of getenv is moot here.
  const char* value = std::getenv(name);  // NOLINT(concurrency-mt-unsafe)
  return value == nullptr ? std::string() : std::string(value);
}

// The one process-wide instance. Sinks are flushed from the destructor, so
// even benches that never call flush() still emit their files at exit.
struct Global {
  TraceCollector trace_collector;
  Registry metrics_registry;
  std::string trace_file = env_or_empty("IOTML_TRACE");
  std::string metrics_file = env_or_empty("IOTML_METRICS");

  Global() { trace_collector.set_enabled(!trace_file.empty()); }

  Global(const Global&) = delete;
  Global& operator=(const Global&) = delete;

  ~Global() { write_sinks(); }

  bool write_sinks() {
    bool wrote = false;
    if (!trace_file.empty()) {
      std::ofstream out(trace_file);
      if (out) {
        trace_collector.write_chrome_json(out);
        wrote = true;
      }
    }
    if (!metrics_file.empty()) {
      std::ofstream out(metrics_file);
      if (out) {
        metrics_registry.write_json(out);
        wrote = true;
      }
    }
    return wrote;
  }
};

Global& global() {
  static Global g;
  return g;
}

}  // namespace

TraceCollector& trace() { return global().trace_collector; }

Registry& registry() { return global().metrics_registry; }

const std::string& trace_path() { return global().trace_file; }

bool flush() { return global().write_sinks(); }

}  // namespace iotml::obs

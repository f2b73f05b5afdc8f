#pragma once

#include <string>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace iotml::obs {

/// Process-global trace collector. Tracing is enabled iff IOTML_TRACE=<file>
/// was set in the environment when the collector was first touched; the
/// Chrome trace JSON is written to that file at process exit (or on
/// flush()). With the variable unset every Span against this collector is a
/// no-op and no file is ever written.
TraceCollector& trace();

/// Process-global metrics registry. Instruments always record in memory
/// (lock-free and cheap — counters are one relaxed add); setting
/// IOTML_METRICS=<file> additionally writes the JSON snapshot at process
/// exit (or on flush()).
Registry& registry();

/// Configured trace sink path; empty when IOTML_TRACE is unset.
const std::string& trace_path();

/// Write the configured sinks now. Called automatically at process exit;
/// harmless (and false) when no sink is configured.
bool flush();

}  // namespace iotml::obs

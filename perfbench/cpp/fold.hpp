#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Per-name totals of a folded trace. `self_us` is the part of each span's
/// interval that none of its direct children covers; summed over every span
/// under a root it reproduces the root's duration exactly.
struct SpanTotals {
  std::int64_t total_us = 0;
  std::int64_t self_us = 0;
  std::uint64_t count = 0;
};

/// Fold completed spans into per-name self time. Spans are grouped by
/// thread; a span's parent is the closest enclosing open span one nesting
/// level up. Self time is the span's duration minus the union of its
/// children's intervals (clipped to the span), so zero-length and touching
/// spans fold without double counting.
std::map<std::string, SpanTotals> fold_self_time(const std::vector<iotml::obs::TraceEvent>& events);

}  // namespace perfbench

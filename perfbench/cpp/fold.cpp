#include "fold.hpp"

#include <algorithm>
#include <tuple>

namespace perfbench {

namespace {

struct Node {
  const iotml::obs::TraceEvent* event = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
};

/// Length of the union of `intervals`, each clipped to [lo, hi].
std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                     std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t sum = 0;
  std::int64_t reach = lo;
  for (auto [b, e] : intervals) {
    b = std::max(b, reach);
    e = std::min(e, hi);
    if (e > b) {
      sum += e - b;
      reach = e;
    }
  }
  return sum;
}

}  // namespace

std::map<std::string, SpanTotals> fold_self_time(
    const std::vector<iotml::obs::TraceEvent>& events) {
  std::vector<Node> nodes;
  nodes.reserve(events.size());
  for (const auto& e : events) nodes.push_back({&e, e.ts_us, e.ts_us + e.dur_us, {}});
  // Parents open before (or with) their children and sit one level up.
  std::vector<std::size_t> order(nodes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&nodes](std::size_t a, std::size_t b) {
    const auto& x = *nodes[a].event;
    const auto& y = *nodes[b].event;
    return std::tie(x.tid, x.ts_us, x.depth) < std::tie(y.tid, y.ts_us, y.depth);
  });

  std::vector<std::size_t> open;
  std::uint32_t tid = 0;
  for (std::size_t idx : order) {
    const Node& n = nodes[idx];
    if (open.empty() || n.event->tid != tid) {
      open.clear();
      tid = n.event->tid;
    }
    while (!open.empty() && (nodes[open.back()].event->depth >= n.event->depth ||
                             nodes[open.back()].end < n.begin)) {
      open.pop_back();
    }
    if (!open.empty()) nodes[open.back()].children.emplace_back(n.begin, n.end);
    open.push_back(idx);
  }

  std::map<std::string, SpanTotals> totals;
  for (const Node& n : nodes) {
    SpanTotals& t = totals[n.event->name];
    t.total_us += n.end - n.begin;
    t.self_us += (n.end - n.begin) - covered(n.children, n.begin, n.end);
    ++t.count;
  }
  return totals;
}

}  // namespace perfbench

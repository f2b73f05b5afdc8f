#include "sim/scheduler.hpp"

#include <algorithm>
#include <cstdio>

#include "util/error.hpp"

namespace iotml::sim {

const char* event_span_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kDeviceFlush: return "sim.event:device-flush";
    case EventKind::kEdgeFlush: return "sim.event:edge-flush";
    case EventKind::kArrival: return "sim.event:arrival";
    case EventKind::kLinkDown: return "sim.event:link-down";
    case EventKind::kLinkUp: return "sim.event:link-up";
    case EventKind::kDeviceDown: return "sim.event:device-down";
    case EventKind::kDeviceUp: return "sim.event:device-up";
    case EventKind::kDeployBroadcast: return "sim.event:deploy-broadcast";
    case EventKind::kArtifactArrival: return "sim.event:artifact-arrival";
    case EventKind::kPredictionArrival: return "sim.event:prediction-arrival";
    case EventKind::kEdgeCrash: return "sim.event:edge-crash";
    case EventKind::kEdgeRestart: return "sim.event:edge-restart";
    case EventKind::kCoreCrash: return "sim.event:core-crash";
    case EventKind::kCoreRestart: return "sim.event:core-restart";
    case EventKind::kPartitionStart: return "sim.event:partition-start";
    case EventKind::kPartitionEnd: return "sim.event:partition-end";
    case EventKind::kLossBurstStart: return "sim.event:loss-burst-start";
    case EventKind::kLossBurstEnd: return "sim.event:loss-burst-end";
    case EventKind::kCorruptionStart: return "sim.event:corruption-start";
    case EventKind::kCorruptionEnd: return "sim.event:corruption-end";
    case EventKind::kCheckpoint: return "sim.event:checkpoint";
    case EventKind::kCorruptArrival: return "sim.event:corrupt-arrival";
    case EventKind::kOtaEpoch: return "sim.event:ota-epoch";
    case EventKind::kOtaChunkArrival: return "sim.event:ota-chunk-arrival";
    case EventKind::kOtaResume: return "sim.event:ota-resume";
    case EventKind::kOtaReportArrival: return "sim.event:ota-report-arrival";
    case EventKind::kOtaVerdict: return "sim.event:ota-verdict";
    case EventKind::kOtaControlArrival: return "sim.event:ota-control-arrival";
    case EventKind::kLoadStormStart: return "sim.event:load-storm-start";
    case EventKind::kLoadStormEnd: return "sim.event:load-storm-end";
    case EventKind::kStormFlush: return "sim.event:storm-flush";
    case EventKind::kSummaryArrival: return "sim.event:summary-arrival";
  }
  return "sim.event:?";
}

std::string_view event_kind_name(EventKind kind) noexcept {
  std::string_view name = event_span_name(kind);
  name.remove_prefix(std::string_view("sim.event:").size());
  return name;
}

void Scheduler::push(double time_s, EventKind kind, std::size_t target,
                     std::size_t message) {
  IOTML_CHECK(time_s >= now_s_, "Scheduler::push: event scheduled into the past");
  queue_.push({time_s, next_seq_++, kind, target, message});
}

Event Scheduler::pop() {
  IOTML_CHECK(!queue_.empty(), "Scheduler::pop: queue is empty");
  Event event = queue_.top();
  queue_.pop();
  now_s_ = event.time_s;
  popped_.push_back(event);
  return event;
}

namespace {

/// Formats `event`'s log line into `line` (no newline); returns its length.
std::size_t render(const Event& event, char (&line)[128]) {
  const std::string_view kind = event_kind_name(event.kind);
  const int n =
      event.message == kNoMessage
          ? std::snprintf(line, sizeof(line), "t=%.6f #%llu %.*s target=%zu", event.time_s,
                          static_cast<unsigned long long>(event.seq),
                          static_cast<int>(kind.size()), kind.data(), event.target)
          : std::snprintf(line, sizeof(line), "t=%.6f #%llu %.*s target=%zu msg=%zu",
                          event.time_s, static_cast<unsigned long long>(event.seq),
                          static_cast<int>(kind.size()), kind.data(), event.target,
                          event.message);
  // An over-long line is cut at the buffer, as snprintf always cut it.
  return std::min(static_cast<std::size_t>(std::max(n, 0)), sizeof(line) - 1);
}

}  // namespace

std::vector<std::string> Scheduler::log() const {
  std::vector<std::string> lines;
  lines.reserve(popped_.size());
  char line[128];
  popped_.for_each([&](const Event& event) { lines.emplace_back(line, render(event, line)); });
  return lines;
}

void Scheduler::write_log(std::ostream& out) const {
  char line[128];
  popped_.for_each([&](const Event& event) {
    const std::size_t n = render(event, line);
    line[n] = '\n';
    out.write(line, static_cast<std::streamsize>(n + 1));
  });
}

}  // namespace iotml::sim

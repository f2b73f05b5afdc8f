#include "sim/scheduler.hpp"

#include <algorithm>
#include <cstdio>

#include "util/error.hpp"

namespace iotml::sim {

std::string_view event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kDeviceFlush: return "device-flush";
    case EventKind::kEdgeFlush: return "edge-flush";
    case EventKind::kArrival: return "arrival";
    case EventKind::kLinkDown: return "link-down";
    case EventKind::kLinkUp: return "link-up";
    case EventKind::kDeviceDown: return "device-down";
    case EventKind::kDeviceUp: return "device-up";
    case EventKind::kDeployBroadcast: return "deploy-broadcast";
    case EventKind::kArtifactArrival: return "artifact-arrival";
    case EventKind::kPredictionArrival: return "prediction-arrival";
    case EventKind::kEdgeCrash: return "edge-crash";
    case EventKind::kEdgeRestart: return "edge-restart";
    case EventKind::kCoreCrash: return "core-crash";
    case EventKind::kCoreRestart: return "core-restart";
    case EventKind::kPartitionStart: return "partition-start";
    case EventKind::kPartitionEnd: return "partition-end";
    case EventKind::kLossBurstStart: return "loss-burst-start";
    case EventKind::kLossBurstEnd: return "loss-burst-end";
    case EventKind::kCorruptionStart: return "corruption-start";
    case EventKind::kCorruptionEnd: return "corruption-end";
    case EventKind::kCheckpoint: return "checkpoint";
    case EventKind::kCorruptArrival: return "corrupt-arrival";
    case EventKind::kOtaEpoch: return "ota-epoch";
    case EventKind::kOtaChunkArrival: return "ota-chunk-arrival";
    case EventKind::kOtaResume: return "ota-resume";
    case EventKind::kOtaReportArrival: return "ota-report-arrival";
    case EventKind::kOtaVerdict: return "ota-verdict";
    case EventKind::kOtaControlArrival: return "ota-control-arrival";
    case EventKind::kLoadStormStart: return "load-storm-start";
    case EventKind::kLoadStormEnd: return "load-storm-end";
    case EventKind::kStormFlush: return "storm-flush";
    case EventKind::kSummaryArrival: return "summary-arrival";
  }
  return "?";
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

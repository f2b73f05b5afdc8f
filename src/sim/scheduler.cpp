#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
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

// The log keeps each kind in one byte.
static_assert(static_cast<int>(EventKind::kSummaryArrival) <= 0xFF);

void Scheduler::push(double time_s, EventKind kind, std::size_t target,
                     std::size_t message) {
  IOTML_CHECK(time_s >= now_s_, "Scheduler::push: event scheduled into the past");
  IOTML_CHECK(target <= kMaxTarget, "Scheduler::push: target exceeds 32 bits");
  enqueue({.time_s = time_s,
           .seq = next_seq_++,
           .message = message,
           .target = static_cast<std::uint32_t>(target),
           .kind = static_cast<std::uint8_t>(kind)});
}

void Scheduler::push_series(double first_s, double period_s, double until_s, EventKind kind,
                            std::size_t target) {
  IOTML_CHECK(first_s >= now_s_, "Scheduler::push_series: series starts before the current time");
  IOTML_CHECK(std::isfinite(until_s), "Scheduler::push_series: series end is not finite");
  IOTML_CHECK(period_s > 0.0 && std::isfinite(period_s),
              "Scheduler::push_series: period must be positive and finite");
  IOTML_CHECK(target <= kMaxTarget, "Scheduler::push_series: target exceeds 32 bits");
  // The seq block is sized by walking the same sums pop() will take.
  std::uint64_t count = 0;
  for (double t = first_s; t < until_s; ++count) {
    const double next_s = t + period_s;
    IOTML_CHECK(next_s > t, "Scheduler::push_series: period too small to advance the clock");
    t = next_s;
  }
  if (count == 0) return;
  enqueue({.time_s = first_s,
           .seq = next_seq_,
           .target = static_cast<std::uint32_t>(target),
           .kind = static_cast<std::uint8_t>(kind),
           .period_s = period_s,
           .until_s = until_s});
  next_seq_ += count;
}

void Scheduler::enqueue(const Entry& entry) {
  queue_.push_back(entry);
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

Event Scheduler::pop() {
  IOTML_CHECK(!queue_.empty(), "Scheduler::pop: queue is empty");
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Entry& top = queue_.back();
  const Event event{top.time_s, top.seq, static_cast<EventKind>(top.kind), top.target,
                    top.message};
  // A series re-queues itself as its successor: one period later, with the
  // next seq of its block. The successor never falls due before this event.
  if (top.period_s > 0.0 && top.time_s + top.period_s < top.until_s) {
    top.time_s += top.period_s;
    ++top.seq;
    std::push_heap(queue_.begin(), queue_.end(), Later{});
  } else {
    queue_.pop_back();
  }
  now_s_ = event.time_s;
  const std::uint64_t time_bits = std::bit_cast<std::uint64_t>(event.time_s);
  popped_.append([&](util::ByteWriter& out) {
    out.u8(static_cast<std::uint8_t>(event.kind));
    out.varint_i64(static_cast<std::int64_t>(time_bits - last_popped_time_bits_));
    out.varint_i64(static_cast<std::int64_t>(event.seq - last_popped_seq_));
    out.varint_u64(event.target);
    out.varint_u64(event.message + 1);  // kNoMessage wraps to 0
  });
  last_popped_time_bits_ = time_bits;
  last_popped_seq_ = event.seq;
  return event;
}

template <typename F>
void Scheduler::for_each_popped(F&& f) const {
  Event event;
  std::uint64_t time_bits = 0;
  popped_.for_each([&](util::ByteReader& in) {
    event.kind = static_cast<EventKind>(in.u8());
    time_bits += static_cast<std::uint64_t>(in.varint_i64());
    event.time_s = std::bit_cast<double>(time_bits);
    event.seq += static_cast<std::uint64_t>(in.varint_i64());
    event.target = in.varint_u64();
    event.message = in.varint_u64() - 1;
    f(event);
  });
}

std::size_t Scheduler::render(const Event& event, char (&line)[128]) {
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

std::vector<std::string> Scheduler::log() const {
  std::vector<std::string> lines;
  lines.reserve(popped_.size());
  char line[128];
  for_each_popped([&](const Event& event) { lines.emplace_back(line, render(event, line)); });
  return lines;
}

void Scheduler::write_log(std::ostream& out) const {
  char line[128];
  for_each_popped([&](const Event& event) {
    const std::size_t n = render(event, line);
    line[n] = '\n';
    out.write(line, static_cast<std::streamsize>(n + 1));
  });
}

}  // namespace iotml::sim

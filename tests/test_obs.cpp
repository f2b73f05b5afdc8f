// src/obs: histogram percentile math against known distributions, span
// nesting/ordering in the exported Chrome trace JSON, and concurrent
// recording into the registry (labelled tsan-critical — the tsan preset
// exercises exactly these suites).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/journey.hpp"
#include "obs/obs.hpp"
#include "obs/timeseries.hpp"
#include "pipeline/stage.hpp"
#include "util/error.hpp"

namespace {

using namespace iotml;

// ---- Histogram ------------------------------------------------------------

TEST(ObsHistogram, PercentilesOnKnownUniform) {
  // Unit-width buckets 0..100; one sample in the middle of each bucket makes
  // the interpolated percentiles exact up to one bucket width.
  std::vector<double> bounds;
  for (int i = 1; i <= 100; ++i) bounds.push_back(static_cast<double>(i));
  obs::Histogram h(bounds);
  for (int v = 0; v < 100; ++v) h.record(static_cast<double>(v) + 0.5);

  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.min(), 0.5, 1e-12);
  EXPECT_NEAR(h.max(), 99.5, 1e-12);
  EXPECT_NEAR(h.sum(), 5000.0, 1e-9);
  EXPECT_NEAR(h.mean(), 50.0, 1e-9);
  EXPECT_NEAR(h.percentile(0.50), 50.0, 1.01);
  EXPECT_NEAR(h.percentile(0.95), 95.0, 1.01);
  EXPECT_NEAR(h.percentile(0.99), 99.0, 1.01);
  EXPECT_NEAR(h.percentile(0.0), 0.5, 1.01);
  EXPECT_NEAR(h.percentile(1.0), 99.5, 1e-12);
}

TEST(ObsHistogram, PointMassIsExactRegardlessOfBucketWidth) {
  // All mass at 7 inside the huge (1, 1000] bucket: clamping percentiles to
  // the observed [min, max] makes every quantile exactly 7.
  obs::Histogram h({1.0, 1000.0});
  for (int i = 0; i < 1000; ++i) h.record(7.0);
  EXPECT_NEAR(h.percentile(0.50), 7.0, 1e-12);
  EXPECT_NEAR(h.percentile(0.99), 7.0, 1e-12);
}

TEST(ObsHistogram, SkewedTwoPointDistribution) {
  // 90 samples at ~1, 10 at ~100: p50 must sit in the low bucket, p99 in the
  // high one.
  obs::Histogram h(obs::Histogram::exponential_bounds(1.0, 2.0, 12));
  for (int i = 0; i < 90; ++i) h.record(1.0);
  for (int i = 0; i < 10; ++i) h.record(100.0);
  EXPECT_LT(h.percentile(0.50), 2.0);
  EXPECT_GT(h.percentile(0.95), 50.0);
  EXPECT_NEAR(h.percentile(0.99), 100.0, 36.1);  // within the (64, 128] bucket
}

TEST(ObsHistogram, OverflowBucketCatchesEverything) {
  obs::Histogram h({1.0, 2.0});
  h.record(5.0);
  h.record(9.0);
  EXPECT_EQ(h.count(), 2u);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[2], 2u);  // both in overflow
  // Overflow interpolates between the observed min-in-bucket floor and max.
  EXPECT_GT(h.percentile(0.99), 5.0);
  EXPECT_LE(h.percentile(0.99), 9.0);
  EXPECT_NEAR(h.percentile(1.0), 9.0, 1e-12);
}

TEST(ObsHistogram, EmptyReturnsZeros) {
  obs::Histogram h({1.0, 2.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(ObsHistogram, ResetClearsEverything) {
  obs::Histogram h({1.0, 2.0});
  h.record(1.5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(ObsHistogram, RejectsBadArguments) {
  EXPECT_THROW(obs::Histogram(std::vector<double>{}), InvalidArgument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), InvalidArgument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), InvalidArgument);
  obs::Histogram h({1.0});
  EXPECT_THROW(h.percentile(-0.1), InvalidArgument);
  EXPECT_THROW(h.percentile(1.1), InvalidArgument);
  EXPECT_THROW(obs::Histogram::exponential_bounds(0.0, 2.0, 4), InvalidArgument);
  EXPECT_THROW(obs::Histogram::exponential_bounds(1.0, 1.0, 4), InvalidArgument);
  EXPECT_THROW(obs::Histogram::exponential_bounds(1.0, 2.0, 0), InvalidArgument);
}

TEST(ObsHistogram, ExponentialBoundsDouble) {
  const auto bounds = obs::Histogram::exponential_bounds(1.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

// ---- Trace spans ----------------------------------------------------------

bool balanced_json_braces(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

TEST(ObsTrace, SpanNestingAndOrderingInExportedJson) {
  obs::TraceCollector collector;
  collector.set_enabled(true);
  {
    obs::Span outer(collector, "outer", "test");
    outer.arg("rows", std::uint64_t{42});
    {
      obs::Span inner(collector, "inner", "test");
      inner.arg("score", 0.5);
    }
    obs::Span sibling(collector, "sibling", "test");
  }

  const auto events = collector.snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Spans complete inside-out: inner and sibling close before outer.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "sibling");
  EXPECT_EQ(events[2].name, "outer");
  const obs::TraceEvent& outer_ev = events[2];
  EXPECT_EQ(outer_ev.depth, 0u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(events[i].depth, 1u);
    // Temporal containment: children start and end within the parent.
    EXPECT_GE(events[i].ts_us, outer_ev.ts_us);
    EXPECT_LE(events[i].ts_us + events[i].dur_us, outer_ev.ts_us + outer_ev.dur_us);
  }
  // Sibling ordering on the same thread.
  EXPECT_GE(events[1].ts_us, events[0].ts_us + events[0].dur_us);

  const std::string json = collector.chrome_json();
  EXPECT_TRUE(balanced_json_braces(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\": 42"), std::string::npos);       // numeric arg unquoted
  EXPECT_NE(json.find("\"score\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"depth\": 1"), std::string::npos);
}

TEST(ObsTrace, DisabledCollectorRecordsNothing) {
  obs::TraceCollector collector;  // disabled by default
  {
    obs::Span span(collector, "ghost", "test");
    span.arg("k", 1.0);
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(collector.size(), 0u);
}

TEST(ObsTrace, StringArgsAreEscaped) {
  obs::TraceCollector collector;
  collector.set_enabled(true);
  {
    obs::Span span(collector, "quote\"name", "test");
    span.arg("text", "line1\nline2\\end");
  }
  const std::string json = collector.chrome_json();
  EXPECT_TRUE(balanced_json_braces(json)) << json;
  EXPECT_NE(json.find("quote\\\"name"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2\\\\end"), std::string::npos);
}

// ---- Registry -------------------------------------------------------------

TEST(ObsRegistry, InstrumentsAreStableByName) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x");
  obs::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(reg.counter("x").value(), 3u);
  obs::Histogram& h1 = reg.histogram("h", {1.0, 2.0});
  obs::Histogram& h2 = reg.histogram("h", {1.0, 2.0});  // same bounds: same slot
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.bounds().size(), 2u);
  // Re-registering under different bounds used to silently alias onto the
  // first call's buckets; it is now a hard error.
  EXPECT_THROW(reg.histogram("h", {9.0}), InvalidArgument);
  reg.gauge("g").set(2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 2.5);
}

TEST(ObsRegistry, CrossKindNameCollisionThrows) {
  obs::Registry reg;
  reg.counter("shared_name");
  EXPECT_THROW(reg.gauge("shared_name"), InvalidArgument);
  EXPECT_THROW(reg.histogram("shared_name", {1.0}), InvalidArgument);
  EXPECT_THROW(reg.histogram("shared_name"), InvalidArgument);
  reg.gauge("g_name");
  EXPECT_THROW(reg.counter("g_name"), InvalidArgument);
  reg.histogram("h_name", {1.0});
  EXPECT_THROW(reg.counter("h_name"), InvalidArgument);
  EXPECT_THROW(reg.gauge("h_name"), InvalidArgument);
  // The original instruments are untouched by failed registrations.
  reg.counter("shared_name").add(2);
  EXPECT_EQ(reg.counter("shared_name").value(), 2u);
}

TEST(ObsRegistry, ClearDropsEveryRegistration) {
  obs::Registry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(1.0);
  reg.histogram("h", {1.0, 2.0}).record(1.5);
  reg.clear();
  // After clear() the names are free again — even for a different kind or
  // different bounds.
  reg.gauge("c").set(3.0);
  EXPECT_DOUBLE_EQ(reg.gauge("c").value(), 3.0);
  obs::Histogram& h = reg.histogram("h", {9.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bounds().size(), 1u);
  EXPECT_EQ(reg.counter("g").value(), 0u);
}

TEST(ObsRegistry, JsonSnapshotContainsEveryInstrument) {
  obs::Registry reg;
  reg.counter("events_total").add(7);
  reg.gauge("load").set(0.25);
  reg.histogram("latency_us", {10.0, 100.0}).record(42.0);
  const std::string json = reg.to_json();
  EXPECT_TRUE(balanced_json_braces(json)) << json;
  EXPECT_NE(json.find("\"events_total\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"load\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"+inf\""), std::string::npos);
}

TEST(ObsRegistry, ConcurrentCountersAndHistogramsLoseNothing) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kOps; ++i) {
        // Mix registry lookups with increments so tsan sees the map mutex
        // interleaved with the lock-free instrument updates.
        reg.counter("shared").add();
        reg.counter("per_thread_" + std::to_string(t)).add();
        reg.histogram("lat", {1.0, 8.0, 64.0}).record(static_cast<double>(i % 100));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(reg.counter("shared").value(), static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(reg.histogram("lat").count(), static_cast<std::uint64_t>(kThreads) * kOps);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter("per_thread_" + std::to_string(t)).value(),
              static_cast<std::uint64_t>(kOps));
  }
  EXPECT_DOUBLE_EQ(reg.histogram("lat").min(), 0.0);
  EXPECT_DOUBLE_EQ(reg.histogram("lat").max(), 99.0);
}

TEST(ObsRegistry, ConcurrentSpansAgainstOneCollector) {
  obs::TraceCollector collector;
  collector.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpans = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&collector] {
      for (int i = 0; i < kSpans; ++i) {
        obs::Span outer(collector, "outer", "test");
        obs::Span inner(collector, "inner", "test");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(collector.size(), static_cast<std::size_t>(kThreads) * kSpans * 2);
}

// ---- Virtual-time series --------------------------------------------------

TEST(ObsTimeSeries, DefaultLatencyBoundsDoubleFromOneMs) {
  // The fleet's per-tier virtual-latency shape: 1 ms doubling, plus overflow.
  const obs::Histogram latency(obs::Histogram::exponential_bounds(1e-3, 2.0, 20));
  const auto& bounds = latency.bounds();
  ASSERT_EQ(bounds.size(), 20u);
  EXPECT_DOUBLE_EQ(bounds[0], 0.001);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 2.0);
  }
  EXPECT_EQ(latency.bucket_counts().size(), bounds.size() + 1);  // + overflow
}

TEST(ObsTimeSeries, SamplerRingOverwritesOldestAndKeepsTotal) {
  obs::Sampler s(3);
  for (int i = 0; i < 5; ++i) s.record(static_cast<double>(i), i * 10.0);
  EXPECT_EQ(s.total(), 5u);
  const auto samples = s.samples();
  ASSERT_EQ(samples.size(), 3u);  // oldest two shed
  EXPECT_DOUBLE_EQ(samples[0].t_s, 2.0);
  EXPECT_DOUBLE_EQ(samples[1].t_s, 3.0);
  EXPECT_DOUBLE_EQ(samples[2].t_s, 4.0);
  EXPECT_DOUBLE_EQ(samples[2].value, 40.0);
}

TEST(ObsTimeSeries, StoreReturnsStableSeriesAndSortedJson) {
  obs::TimeSeriesStore store(4);
  obs::Sampler& a = store.series("zz.metric", "dev1", "device");
  obs::Sampler& b = store.series("zz.metric", "dev1", "device");
  EXPECT_EQ(&a, &b);
  store.series("aa.metric", "core", "core").record(1.0, 2.0);
  a.record(0.5, 7.0);
  EXPECT_EQ(store.series_count(), 2u);
  EXPECT_EQ(store.samples_total(), 2u);
  const std::string json = store.to_json();
  EXPECT_TRUE(balanced_json_braces(json)) << json;
  // Sorted by (metric, entity, tier): aa.metric renders before zz.metric.
  const auto aa = json.find("aa.metric");
  const auto zz = json.find("zz.metric");
  ASSERT_NE(aa, std::string::npos);
  ASSERT_NE(zz, std::string::npos);
  EXPECT_LT(aa, zz);
  EXPECT_NE(json.find("\"capacity\": 4"), std::string::npos);
  EXPECT_NE(json.find("[0.5, 7]"), std::string::npos);
}

TEST(ObsTimeSeries, ConcurrentSamplingLosesNothing) {
  obs::TimeSeriesStore store(64);
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kOps; ++i) {
        // Mix get-or-create lookups on a shared key and a per-thread key so
        // tsan sees map growth interleaved with ring writes.
        store.series("shared", "fleet", "device").record(i * 1e-3, 1.0);
        store.series("per_thread", "t" + std::to_string(t), "device")
            .record(i * 1e-3, 2.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.series_count(), 1u + kThreads);
  EXPECT_EQ(store.samples_total(),
            static_cast<std::uint64_t>(kThreads) * kOps * 2);
  const auto shared = store.series("shared", "fleet", "device").samples();
  EXPECT_EQ(shared.size(), 64u);  // ring stayed bounded
}

// ---- Journey log ----------------------------------------------------------

obs::HopRecord make_hop(std::uint64_t trace, const char* outcome) {
  obs::HopRecord r;
  r.trace = trace;
  r.hop = 0;
  r.kind = obs::HopKind::kSend;
  r.stream = obs::HopStream::kRows;
  r.src = 1;
  r.dst = 2;
  r.t0_s = 0.25;
  r.t1_s = 0.5;
  r.rows = 8;
  r.bytes = 96;
  r.attempts = 2;
  r.outcome = outcome;
  r.parents = {trace + 100};
  return r;
}

TEST(ObsJourney, BoundedAppendCountsDrops) {
  obs::JourneyLog log(2);
  log.record(make_hop(1, "delivered"));
  log.record(make_hop(2, "dropped"));
  log.record(make_hop(3, "delivered"));  // past capacity
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  const auto snap = log.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].trace, 1u);
  EXPECT_EQ(snap[1].trace, 2u);
}

TEST(ObsJourney, JsonlHasMetaLineAndFixedKeyOrder) {
  obs::JourneyLog log(16);
  log.record(make_hop(7, "delivered"));
  std::ostringstream out;
  log.write_jsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("{\"meta\": {\"records\": 1, \"dropped\": 0}}"),
            std::string::npos);
  EXPECT_NE(text.find("\"trace\": 7"), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"send\""), std::string::npos);
  EXPECT_NE(text.find("\"stream\": \"rows\""), std::string::npos);
  EXPECT_NE(text.find("\"attempts\": 2"), std::string::npos);
  EXPECT_NE(text.find("\"outcome\": \"delivered\""), std::string::npos);
  EXPECT_NE(text.find("\"parents\": [107]"), std::string::npos);
  // One meta line + one record line, each valid on its own.
  std::istringstream lines(text);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(balanced_json_braces(line)) << line;
    ++n;
  }
  EXPECT_EQ(n, 2u);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_hop(const obs::HopRecord& got, const obs::HopRecord& want) {
  EXPECT_EQ(got.trace, want.trace);
  EXPECT_EQ(got.hop, want.hop);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.stream, want.stream);
  EXPECT_EQ(got.src, want.src);
  EXPECT_EQ(got.dst, want.dst);
  EXPECT_EQ(bits(got.t0_s), bits(want.t0_s));
  EXPECT_EQ(bits(got.t1_s), bits(want.t1_s));
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.attempts, want.attempts);
  EXPECT_EQ(got.outcome, want.outcome);  // the same static string, not a copy
  EXPECT_EQ(got.parents, want.parents);
}

TEST(ObsJourney, CompactRecordsRoundTripThroughSnapshot) {
  constexpr std::size_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  const char* const outcomes[] = {"delivered", "timeout", "dead_letter", "accepted", ""};
  std::vector<obs::HopRecord> in;
  for (const obs::HopKind kind :
       {obs::HopKind::kOrigin, obs::HopKind::kSend, obs::HopKind::kArrive}) {
    for (const obs::HopStream stream :
         {obs::HopStream::kRows, obs::HopStream::kArtifact, obs::HopStream::kPredictions,
          obs::HopStream::kPatch, obs::HopStream::kSummary}) {
      const std::size_t i = in.size();
      obs::HopRecord r;
      r.trace = (std::uint64_t{1} << 63) | i;
      r.hop = static_cast<std::uint32_t>(i % 3);
      r.kind = kind;
      r.stream = stream;
      r.src = i;
      r.dst = kMax32 - i;
      r.t0_s = 0.1 * static_cast<double>(i);
      r.t1_s = 1e9 + static_cast<double>(i) / 3.0;
      r.rows = i * 1000;
      r.bytes = kMax32 - 2 * i;
      r.attempts = static_cast<std::uint32_t>(i % 4);
      r.outcome = outcomes[i % 5];
      if (i % 3 == 1) r.parents = {i + 100};
      if (i % 3 == 2) {
        for (std::size_t p = 0; p < 10 * i; ++p) r.parents.push_back(p * p);
        r.parents.back() = std::numeric_limits<std::uint64_t>::max();
      }
      in.push_back(r);
    }
  }
  // Every 32-bit field at 2^32 - 1, and more parents than fit in one
  // storage chunk.
  obs::HopRecord widest = make_hop(std::numeric_limits<std::uint64_t>::max(), "corrupt");
  widest.hop = std::numeric_limits<std::uint32_t>::max();
  widest.src = kMax32;
  widest.dst = kMax32;
  widest.rows = kMax32;
  widest.bytes = kMax32;
  widest.attempts = std::numeric_limits<std::uint32_t>::max();
  widest.parents.assign(70000, 0);
  std::iota(widest.parents.begin(), widest.parents.end(), std::uint64_t{5});
  in.push_back(widest);
  obs::JourneyLog lone(1);
  lone.record(widest);
  EXPECT_GT(lone.bytes(), 16u * 1024u);  // a record longer than a storage chunk
  // Times the t1 shortcut must tell apart by bit pattern, not by value:
  // signed zeros, NaNs with payloads, infinities and a subnormal.
  const double nan_a = std::bit_cast<double>(std::uint64_t{0x7FF8'0000'0000'0ABCu});
  const double nan_b = std::bit_cast<double>(std::uint64_t{0xFFF8'0000'DEAD'0001u});
  const double inf = std::numeric_limits<double>::infinity();
  const double subnormal = std::numeric_limits<double>::denorm_min();
  const double times[][2] = {{0.0, -0.0},     {-0.0, 0.0},     {-0.0, -0.0},
                             {0.0, 0.0},      {nan_a, nan_a},  {nan_a, nan_b},
                             {0.5, nan_a},    {nan_b, 0.0},    {inf, -inf},
                             {-inf, -inf},    {inf, 0.0},      {1.0, inf},
                             {subnormal, 0.0}, {0.0, subnormal}, {-subnormal, -subnormal}};
  for (const auto& [t0, t1] : times) {
    obs::HopRecord r = make_hop(in.size(), "delivered");
    r.t0_s = t0;
    r.t1_s = t1;
    in.push_back(r);
  }
  // Degrade-summary traces (top bit set) next to small ones, with parents
  // below and above their trace.
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  for (const std::uint64_t trace : {kTop | 3, std::uint64_t{4}, kTop, kTop | 9, std::uint64_t{0}}) {
    obs::HopRecord r = make_hop(trace, "accepted");
    r.stream = obs::HopStream::kSummary;
    r.parents = {trace - 1, trace + 1, 0, std::numeric_limits<std::uint64_t>::max(), trace,
                 kTop | 2, 7};
    in.push_back(r);
  }
  // Enough records after them that the records span several storage chunks.
  for (std::uint64_t trace = 0; trace < 1500; ++trace) {
    in.push_back(make_hop(trace, outcomes[trace % 5]));
  }

  obs::JourneyLog log(in.size());
  for (const obs::HopRecord& r : in) log.record(r);
  const std::vector<obs::HopRecord> out = log.snapshot();
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_hop(out[i], in[i]);
  }
}

// t0 is a delta from the previous stored hop's t0 and a stored t1 a delta
// from its own t0: both must survive a t1 before its t0, a t1 many binades
// or a sign away from it, and a hop equal to the previous one that opens a
// new storage chunk, where the t0 delta is 0 and the base lives in the
// chunk before.
TEST(ObsJourney, TimeDeltasRoundTripAcrossSignsAndChunks) {
  const double max = std::numeric_limits<double>::max();
  const double times[][2] = {{5.0, 1.0},     {1e-300, 1e300}, {1e300, -1e300},
                             {-1e300, 1e-300}, {max, -max},    {-max, 0.25},
                             {0.25, max},    {3.0, 2.999999}};
  std::vector<obs::HopRecord> in;
  for (const auto& [t0, t1] : times) {
    obs::HopRecord r = make_hop(in.size(), "delivered");
    r.t0_s = t0;
    r.t1_s = t1;
    in.push_back(r);
  }
  // About 18 B each: 1,200 equal hops fill the first 16 KiB chunk.
  obs::HopRecord same = make_hop(9, "timeout");
  same.t0_s = 41.5;
  same.t1_s = 41.625;
  in.insert(in.end(), 1200, same);
  obs::JourneyLog log(in.size());
  for (const obs::HopRecord& r : in) log.record(r);
  EXPECT_GT(log.bytes(), 16u * 1024u);  // the equal hops span two chunks
  const std::vector<obs::HopRecord> out = log.snapshot();
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_hop(out[i], in[i]);
  }
}

TEST(ObsJourney, JsonlRendersEachStoredRecord) {
  obs::JourneyLog log(8);
  obs::HopRecord origin;
  origin.trace = 3;
  origin.kind = obs::HopKind::kOrigin;
  origin.src = 4;
  origin.dst = 4;
  origin.t0_s = 0.5;
  origin.t1_s = 0.5;
  origin.rows = 12;
  origin.bytes = 240;
  log.record(origin);
  log.record(make_hop(7, "delivered"));
  obs::HopRecord summary = make_hop(std::numeric_limits<std::uint64_t>::max(), "dead_letter");
  summary.kind = obs::HopKind::kArrive;
  summary.stream = obs::HopStream::kSummary;
  summary.hop = 1;
  summary.src = std::numeric_limits<std::uint32_t>::max();
  summary.rows = std::numeric_limits<std::uint32_t>::max();
  summary.t1_s = 1.0 / 3.0;
  summary.attempts = 0;
  summary.parents = {1, 2, std::numeric_limits<std::uint64_t>::max()};
  log.record(summary);
  std::ostringstream out;
  log.write_jsonl(out);
  EXPECT_EQ(out.str(),
            "{\"meta\": {\"records\": 3, \"dropped\": 0}}\n"
            "{\"trace\": 3, \"kind\": \"origin\", \"stream\": \"rows\", \"hop\": 0, "
            "\"src\": 4, \"dst\": 4, \"t0\": 0.5, \"t1\": 0.5, \"rows\": 12, "
            "\"bytes\": 240, \"attempts\": 0, \"outcome\": \"\", \"parents\": []}\n"
            "{\"trace\": 7, \"kind\": \"send\", \"stream\": \"rows\", \"hop\": 0, "
            "\"src\": 1, \"dst\": 2, \"t0\": 0.25, \"t1\": 0.5, \"rows\": 8, "
            "\"bytes\": 96, \"attempts\": 2, \"outcome\": \"delivered\", "
            "\"parents\": [107]}\n"
            "{\"trace\": 18446744073709551615, \"kind\": \"arrive\", "
            "\"stream\": \"summary\", \"hop\": 1, \"src\": 4294967295, \"dst\": 2, "
            "\"t0\": 0.25, \"t1\": 0.33333333333333331, \"rows\": 4294967295, "
            "\"bytes\": 96, \"attempts\": 0, \"outcome\": \"dead_letter\", "
            "\"parents\": [1, 2, 18446744073709551615]}\n");
}

TEST(ObsJourney, ValuesWiderThanTheirFieldAreRejected) {
  constexpr std::size_t kTooWide = std::size_t{1} << 32;
  obs::JourneyLog log(8);
  for (std::size_t obs::HopRecord::*field :
       {&obs::HopRecord::src, &obs::HopRecord::dst, &obs::HopRecord::rows,
        &obs::HopRecord::bytes}) {
    obs::HopRecord r = make_hop(1, "delivered");
    r.*field = kTooWide;
    EXPECT_THROW(log.record(r), InvalidArgument);
  }
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(ObsJourney, ConcurrentRecordingKeepsEveryRecordUpToCapacity) {
  obs::JourneyLog log(1 << 14);
  constexpr int kThreads = 8;
  constexpr int kOps = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kOps; ++i) {
        log.record(make_hop(static_cast<std::uint64_t>(t) * kOps + i, "delivered"));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kThreads) * kOps);
  EXPECT_EQ(log.dropped(), 0u);
}

// ---- Flight recorder ------------------------------------------------------

TEST(ObsFlight, RingKeepsNewestEventsPerEntity) {
  obs::FlightRecorder rec(3, 2);
  rec.note(0, 0.1, "flush", 10, 0);
  rec.note(0, 0.2, "send", 10, 96);
  rec.note(0, 0.3, "rx-rows", 10, 0);  // evicts the flush
  rec.note(2, 0.25, "checkpoint", 5, 0);
  EXPECT_EQ(rec.noted(), 4u);
  const auto d0 = rec.dump(0);
  ASSERT_EQ(d0.size(), 2u);
  EXPECT_STREQ(d0[0].kind, "send");
  EXPECT_STREQ(d0[1].kind, "rx-rows");
  EXPECT_TRUE(rec.dump(1).empty());
  const auto lines = rec.dump_lines(2);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "t=0.25 checkpoint a=5 b=0");
  std::ostringstream out;
  rec.write_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(balanced_json_braces(json)) << json;
  EXPECT_NE(json.find("\"ring_capacity\": 2"), std::string::npos);
  // Entity 1 noted nothing and is omitted.
  EXPECT_EQ(json.find("\"entity\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"entity\": 2"), std::string::npos);
}

TEST(ObsFlight, ConcurrentNotesAcrossEntities) {
  obs::FlightRecorder rec(4, 8);
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kOps; ++i) {
        rec.note(static_cast<std::size_t>(t), i * 1e-3, "tick",
                 static_cast<std::uint64_t>(i), 0);
        rec.note(0, i * 1e-3, "shared", 0, 0);  // all threads hit ring 0 too
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(rec.noted(), static_cast<std::uint64_t>(kThreads) * kOps * 2);
  for (std::size_t e = 0; e < 4; ++e) {
    EXPECT_EQ(rec.dump(e).size(), 8u);  // every ring full, still bounded
  }
}

// ---- Wiring: Pipeline::run measures and reports ---------------------------

TEST(ObsWiring, PipelineRunFillsWallTimeAndGlobalInstruments) {
  const std::uint64_t stages_before = obs::registry().counter("pipeline.stages_run").value();

  data::Dataset ds;
  data::Column& col = ds.add_numeric_column("x");
  for (double v : {1.0, 2.0, 3.0, 4.0}) col.push_numeric(v);
  Rng rng(5);
  pipeline::Pipeline p;
  p.add("busywork", [](data::Dataset& d, Rng&) {
    double acc = 0.0;
    for (int i = 0; i < 50000; ++i) acc += static_cast<double>(i) * 1e-9;
    d.column(0).set_numeric(0, acc);
    return 1.0;
  });
  p.add("noop", [](data::Dataset&, Rng&) { return 0.5; });
  p.run(ds, rng);

  ASSERT_EQ(p.reports().size(), 2u);
  EXPECT_GT(p.reports()[0].wall_time_us, 0u);  // 50k flops do not finish in <1us
  EXPECT_EQ(obs::registry().counter("pipeline.stages_run").value(), stages_before + 2);
  EXPECT_GE(obs::registry().histogram("pipeline.stage_wall_us").count(), 2u);
}

TEST(ObsWiring, GlobalTraceDisabledByDefaultButCapturesWhenEnabled) {
  // Without IOTML_TRACE the global collector must be off (the no-op path).
  ASSERT_TRUE(obs::trace_path().empty()) << "test assumes IOTML_TRACE is unset";
  EXPECT_FALSE(obs::trace().enabled());

  obs::trace().set_enabled(true);
  const std::size_t before = obs::trace().size();
  {
    data::Dataset ds;
    data::Column& col = ds.add_numeric_column("x");
    col.push_numeric(1.0);
    col.push_numeric(2.0);
    Rng rng(7);
    pipeline::Pipeline p;
    p.add("traced", [](data::Dataset&, Rng&) { return 0.0; });
    p.run(ds, rng);
  }
  obs::trace().set_enabled(false);
  const auto events = obs::trace().snapshot();
  EXPECT_GT(events.size(), before);
  bool saw_stage = false;
  for (const auto& e : events) {
    if (e.name == "stage:traced") saw_stage = true;
  }
  EXPECT_TRUE(saw_stage);
  obs::trace().clear();
}

}  // namespace

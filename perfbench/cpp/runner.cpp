// perfbench_runner: runs one benchmark workload in this process and prints
// one JSON document with every iteration's timings, output digest and check
// result, the process's peak RSS and, with --trace 1, the per-layer metrics
// of one extra traced iteration. perfbench/run.py builds and invokes it; see
// BENCHMARK.json for the workloads and metrics.
//
//   perfbench_runner --workload fleet-learn --seed 1 --seconds 20 --trace 1
//                    --trace-out fleet-learn.trace.json

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fold.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Besides the one in each iteration, extra setups follow every iteration
/// for at least kExtraSetupSeconds (at least one), and a run times at least
/// kMinSetups: setup_s is then a median of many samples spread over the
/// whole run, even when one setup takes under a millisecond.
constexpr std::size_t kMinSetups = 7;
constexpr double kExtraSetupSeconds = 0.03;
constexpr std::size_t kMaxSetupsPerIteration = 100;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in --key value pairs");
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

struct Iteration {
  double setup_s = 0.0;
  std::vector<double> piece_s;
  std::string failure;
  std::string digest;
  std::map<std::string, double> quality;
};

/// Set up, run every piece and check the outputs. The spans record only
/// while obs::trace() is enabled, i.e. in the traced iteration.
Iteration run_iteration(Workload& w) {
  Iteration it;
  try {
    {
      iotml::obs::Span span("perfbench.setup", "perfbench");
      const auto t0 = Clock::now();
      w.setup();
      it.setup_s = seconds_since(t0);
    }
    {
      iotml::obs::Span span("perfbench.run", "perfbench");
      for (std::size_t k = 0; k < w.pieces(); ++k) {
        const auto t1 = Clock::now();
        w.run_piece(k);
        it.piece_s.push_back(seconds_since(t1));
      }
    }
    it.failure = w.check();
    it.digest = w.digest();
    it.quality = w.quality();
  } catch (const std::exception& e) {
    it.failure = std::string("threw: ") + e.what();
  }
  return it;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string num(double v) { return iotml::obs::json_number(v); }
std::string str(const std::string& s) {
  std::string out = "\"";
  out += iotml::obs::json_escape(s);
  out += '"';
  return out;
}

template <typename Map>
std::string num_object(const Map& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) out += (out.size() > 1 ? ", " : "") + str(k) + ": " + num(v);
  return out + "}";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);

  std::vector<Iteration> iterations;
  std::vector<double> setups;
  auto time_setup = [&w, &setups] {
    const auto t0 = Clock::now();
    w->setup();
    setups.push_back(seconds_since(t0));
    w->release();
  };
  const auto begin = Clock::now();
  do {
    iterations.push_back(run_iteration(*w));
    if (iterations.back().failure.rfind("threw", 0) != 0) {
      setups.push_back(iterations.back().setup_s);
    }
    w->release();
    const auto extra = Clock::now();
    for (std::size_t k = 0;
         k == 0 || (seconds_since(extra) < kExtraSetupSeconds && k < kMaxSetupsPerIteration);
         ++k) {
      time_setup();
    }
  } while (seconds_since(begin) < args.seconds);
  while (setups.size() < kMinSetups) time_setup();
  const double rss_mb = peak_rss_mb();

  std::optional<Iteration> traced;
  LayerMetrics layers;
  if (args.trace) {
    const CounterSnapshot before = CounterSnapshot::take();
    iotml::obs::trace().clear();
    iotml::obs::trace().set_enabled(true);
    traced = run_iteration(*w);
    iotml::obs::trace().set_enabled(false);
    const CounterSnapshot delta = CounterSnapshot::take().minus(before);
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      iotml::obs::trace().write_chrome_json(out);
    }
    const auto folded = fold_self_time(iotml::obs::trace().snapshot());
    iotml::obs::trace().clear();
    if (traced->failure.empty()) {
      layers = w->layers(folded, delta);
      for (const std::string& f : layers.failures) {
        traced->failure += (traced->failure.empty() ? "replay check: " : "; ") + f;
      }
    }
    w->release();
  }

  std::ostringstream out;
  out << "{\"workload\": " << str(args.workload) << ", \"seed\": " << args.seed
      << ", \"seconds\": " << num(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
      << ",\n \"provenance\": {\"compiler\": " << str(compiler())
      << ", \"hardware_threads\": " << std::thread::hardware_concurrency() << "}"
      << ",\n \"peak_rss_mb\": " << num(rss_mb) << ",\n \"setup_s\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) out << (i ? ", " : "") << num(setups[i]);
  out << "],\n \"iterations\": [";
  auto write_iteration = [&out](const Iteration& it) {
    out << "{\"setup_s\": " << num(it.setup_s) << ", \"piece_s\": [";
    for (std::size_t i = 0; i < it.piece_s.size(); ++i) out << (i ? ", " : "") << num(it.piece_s[i]);
    out << "], \"failure\": " << str(it.failure) << ", \"digest\": " << str(it.digest)
        << ", \"quality\": " << num_object(it.quality) << "}";
  };
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    out << (i ? ",\n  " : "\n  ");
    write_iteration(iterations[i]);
  }
  out << "]";
  if (traced) {
    out << ",\n \"traced\": ";
    write_iteration(*traced);
    out << ",\n \"per_layer\": " << num_object(layers.metrics)
        << ",\n \"attribution_us\": " << num_object(layers.attribution_us);
  }
  out << "}\n";
  std::fputs(out.str().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 2;
  }
}

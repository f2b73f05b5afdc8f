#include "obs/observatory.hpp"

#include <filesystem>
#include <fstream>

namespace iotml::obs {

Observatory::Observatory(std::size_t entities)
    : series_(kSeriesCapacity), journeys_(kJourneyCapacity), flight_(entities, kFlightRing) {}

bool Observatory::write_artifacts(
    const std::string& dir, const std::function<void(std::ostream&)>& write_event_log) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;

  const std::filesystem::path root(dir);
  {
    std::ofstream out(root / "timeseries.json");
    if (!out) return false;
    series_.write_json(out);
    if (!out) return false;
  }
  {
    std::ofstream out(root / "journeys.jsonl");
    if (!out) return false;
    journeys_.write_jsonl(out);
    if (!out) return false;
  }
  {
    std::ofstream out(root / "flightrec.json");
    if (!out) return false;
    flight_.write_json(out);
    if (!out) return false;
  }
  {
    std::ofstream out(root / "events.log");
    if (!out) return false;
    write_event_log(out);
    if (!out) return false;
  }
  return true;
}

}  // namespace iotml::obs

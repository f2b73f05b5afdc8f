#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.hpp"
#include "obs/clock.hpp"
#include "util/rng.hpp"

namespace iotml::pipeline {

/// Where in the IoT topology a stage executes (Fig. 1 of the paper: device ->
/// edge -> core).
enum class Tier { kDevice, kEdge, kCore };

std::string tier_name(Tier t);

/// Inverse of tier_name — parses "device"/"edge"/"core" (as emitted by
/// tier_name and as written in sim topology configs). Throws InvalidArgument
/// for any other spelling.
Tier tier_from_name(std::string_view name);

/// Accounting record emitted by each stage: what it did to the data and what
/// it cost. The per-stage cost is what the stage's *player* minimizes in the
/// Section IV games, while downstream players care about the quality fields.
/// Every report comes from run_stage, so every field is filled the same way
/// wherever a stage runs.
struct StageReport {
  std::string stage_name;
  std::string player;  ///< owning actor (stages of one pipeline may differ)
  Tier tier = Tier::kEdge;
  std::size_t rows_in = 0;
  std::size_t rows_out = 0;
  std::size_t columns_out = 0;
  double missing_rate_in = 0.0;
  double missing_rate_out = 0.0;
  double cost = 0.0;  ///< abstract effort units declared by the stage
  /// Measured wall time of the stage's body. Unlike `cost` this is observed,
  /// not declared — the paper's per-stage accounting needs both sides to
  /// compare what a stage claims against what it actually spends.
  std::uint64_t wall_time_us = 0;
};

/// Runs `body` on `ds` and returns its complete accounting record: rows,
/// columns and missing rate of `ds` before and after the body, the cost the
/// body returns and the measured wall time of the body. The body may replace
/// or empty `ds`. `ds` is a data::Dataset or any type with the same rows(),
/// num_columns() and missing_rate() (sim::DeviceWindows accounts a device's
/// acquisition through one). Opens no span and bumps no counter, so a
/// caller that runs a stage inside its own span adds no trace event.
template <typename Data, typename Body>
StageReport run_stage(std::string name, std::string player, Tier tier, Data& ds,
                      Body&& body) {
  StageReport report;
  report.stage_name = std::move(name);
  report.player = std::move(player);
  report.tier = tier;
  report.rows_in = ds.rows();
  report.missing_rate_in = ds.missing_rate();
  const std::int64_t start_us = obs::now_us();
  report.cost = body();
  // det-sanctioned: wall_time_us feeds obs spans only; deterministic artifacts never serialize it
  report.wall_time_us = static_cast<std::uint64_t>(obs::now_us() - start_us);
  report.rows_out = ds.rows();
  report.columns_out = ds.num_columns();
  report.missing_rate_out = ds.missing_rate();
  return report;
}

/// One service in the composed pipeline (the paper models the pipeline as a
/// composition of services pursuing different goals, Section I.B): a named
/// body that transforms the dataset in place and returns its declared cost,
/// owned by a player and placed on a tier.
struct Stage {
  using Fn = std::function<double(data::Dataset&, Rng&)>;  // returns cost

  std::string name;
  Fn fn;
  std::string player = "operator";
  Tier tier = Tier::kEdge;
};

/// Ordered composition of stages with full per-stage accounting.
class Pipeline {
 public:
  /// Append a stage. Throws InvalidArgument for an empty name or a null fn.
  Pipeline& add(std::string name, Stage::Fn fn, std::string player = "operator",
                Tier tier = Tier::kEdge);

  std::size_t size() const noexcept { return stages_.size(); }

  /// Run every stage in order through run_stage, each inside a
  /// `stage:<name>` span; the reports of this run are retained.
  data::Dataset run(data::Dataset input, Rng& rng);

  const std::vector<StageReport>& reports() const noexcept { return reports_; }

  /// Total declared cost of the last run, optionally for one player only.
  double total_cost() const;
  double player_cost(const std::string& player) const;

  /// Move the stages out (for re-hosting them elsewhere, e.g. tier placement
  /// in the fleet simulator); the pipeline is left empty with no reports.
  std::vector<Stage> take_stages();

 private:
  std::vector<Stage> stages_;
  std::vector<StageReport> reports_;
};

}  // namespace iotml::pipeline

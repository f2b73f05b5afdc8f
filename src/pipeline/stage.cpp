#include "pipeline/stage.hpp"

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace iotml::pipeline {

std::string tier_name(Tier t) {
  switch (t) {
    case Tier::kDevice: return "device";
    case Tier::kEdge: return "edge";
    case Tier::kCore: return "core";
  }
  return "?";
}

Tier tier_from_name(std::string_view name) {
  if (name == "device") return Tier::kDevice;
  if (name == "edge") return Tier::kEdge;
  if (name == "core") return Tier::kCore;
  throw InvalidArgument("tier_from_name: unknown tier '" + std::string(name) + "'");
}

Pipeline& Pipeline::add(std::string name, Stage::Fn fn, std::string player, Tier tier) {
  IOTML_CHECK(!name.empty(), "Pipeline::add: empty name");
  IOTML_CHECK(fn != nullptr, "Pipeline::add: null function");
  stages_.push_back({std::move(name), std::move(fn), std::move(player), tier});
  return *this;
}

data::Dataset Pipeline::run(data::Dataset input, Rng& rng) {
  reports_.clear();
  obs::Span run_span("pipeline.run", "pipeline");
  for (const Stage& stage : stages_) {
    // A fleet runs its device tier once per device flush, so the span's name
    // and arguments are built only when tracing is on, and the instruments
    // are looked up once.
    obs::Span span(obs::trace(),
                   obs::trace().enabled() ? "stage:" + stage.name : std::string(),
                   "pipeline");
    StageReport report = run_stage(stage.name, stage.player, stage.tier, input,
                                   [&] { return stage.fn(input, rng); });
    if (span.active()) {
      span.arg("player", report.player);
      span.arg("tier", tier_name(report.tier));
      span.arg("rows_in", static_cast<std::uint64_t>(report.rows_in));
      span.arg("rows_out", static_cast<std::uint64_t>(report.rows_out));
      span.arg("columns_out", static_cast<std::uint64_t>(report.columns_out));
      span.arg("missing_rate_in", report.missing_rate_in);
      span.arg("missing_rate_out", report.missing_rate_out);
      span.arg("cost", report.cost);
    }
    static obs::Counter& stages_run = obs::registry().counter("pipeline.stages_run");
    static obs::Histogram& stage_wall_us = obs::registry().histogram("pipeline.stage_wall_us");
    stages_run.add();
    stage_wall_us.record(static_cast<double>(report.wall_time_us));
    reports_.push_back(std::move(report));
  }
  run_span.arg("stages", static_cast<std::uint64_t>(stages_.size()));
  run_span.arg("total_cost", total_cost());
  return input;
}

std::vector<Stage> Pipeline::take_stages() {
  reports_.clear();
  std::vector<Stage> out = std::move(stages_);
  stages_.clear();
  return out;
}

double Pipeline::total_cost() const {
  double total = 0.0;
  for (const StageReport& r : reports_) total += r.cost;
  return total;
}

double Pipeline::player_cost(const std::string& player) const {
  double total = 0.0;
  for (const StageReport& r : reports_) {
    if (r.player == player) total += r.cost;
  }
  return total;
}

}  // namespace iotml::pipeline

#include "sim/report.hpp"

#include <sstream>
#include <utility>

#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace iotml::sim {

LatencySummary LatencySummary::from_histogram(const obs::Histogram& hist) {
  LatencySummary s;
  s.count = hist.count();
  s.mean_s = hist.mean();
  s.p50_s = hist.percentile(0.50);
  s.p95_s = hist.percentile(0.95);
  s.max_s = hist.max();
  return s;
}

LatencyBreakdown LatencyBreakdown::from_histogram(const obs::Histogram& hist) {
  LatencyBreakdown b;
  b.summary = LatencySummary::from_histogram(hist);
  b.bounds_s = hist.bounds();
  b.counts = hist.bucket_counts();
  return b;
}

namespace {

// Renders the OTA ledger object with `ind` as the indentation of its
// members — shared by the standalone ota.json artifact (ind = "  ") and the
// nested block inside FleetReport::to_json (ind = "    ").
void write_ota(std::ostream& out, const OtaSummary& ota, const std::string& ind) {
  using obs::json_escape;
  using obs::json_number;
  out << "{\n";
  out << ind << "\"enabled\": " << (ota.enabled ? "true" : "false") << ",\n";
  out << ind << "\"epochs\": " << ota.epochs << ",\n";
  out << ind << "\"versions_published\": " << ota.versions_published << ",\n";
  out << ind << "\"bytes\": {\"delta_downlink\": " << ota.delta_downlink_bytes
      << ", \"full_broadcast_counterfactual\": " << ota.full_broadcast_bytes
      << ", \"probe_uplink\": " << ota.probe_uplink_bytes << "},\n";
  out << ind << "\"chunks\": {\"sent\": " << ota.chunks_sent
      << ", \"delivered\": " << ota.chunks_delivered
      << ", \"corrupt_rejected\": " << ota.chunks_corrupt_rejected
      << ", \"duplicates\": " << ota.chunk_duplicates
      << ", \"stale\": " << ota.chunks_stale << "},\n";
  out << ind << "\"resume_rounds\": " << ota.resume_rounds << ",\n";
  out << ind << "\"full_fallbacks\": " << ota.full_fallbacks << ",\n";
  out << ind << "\"promotions\": " << ota.promotions << ",\n";
  out << ind << "\"rollbacks\": " << ota.rollbacks << ",\n";
  out << ind << "\"last_commit_t_s\": " << json_number(ota.last_commit_t_s)
      << ",\n";
  out << ind << "\"devices\": {\"on_head\": " << ota.devices_on_head
      << ", \"behind\": " << ota.devices_behind
      << ", \"unprovisioned\": " << ota.devices_unprovisioned
      << ", \"stuck\": " << ota.devices_stuck << "},\n";
  out << ind << "\"all_devices_verified\": "
      << (ota.all_devices_verified ? "true" : "false") << ",\n";
  out << ind << "\"version_histogram\": {";
  bool first = true;
  for (const auto& [id, count] : ota.version_histogram) {
    out << (first ? "" : ", ") << "\"" << id << "\": " << count;
    first = false;
  }
  out << "},\n";
  out << ind << "\"epochs_log\": [";
  for (std::size_t i = 0; i < ota.epochs_log.size(); ++i) {
    const OtaEpochEntry& e = ota.epochs_log[i];
    out << (i == 0 ? "" : ",") << "\n" << ind << "  {\"epoch\": " << e.epoch
        << ", \"t_s\": " << json_number(e.t_s)
        << ", \"version_id\": " << e.version_id
        << ", \"outcome\": \"" << json_escape(e.outcome) << "\""
        << ", \"train_rows\": " << e.train_rows
        << ", \"image_bytes\": " << e.image_bytes
        << ", \"patch_bytes\": " << e.patch_bytes
        << ", \"delta_downlink_bytes\": " << e.delta_downlink_bytes
        << ", \"full_broadcast_bytes\": " << e.full_broadcast_bytes
        << ", \"canary_devices\": " << e.canary_devices
        << ", \"devices_reporting\": " << e.devices_reporting
        << ", \"pooled_rows\": " << e.pooled_rows
        << ", \"accuracy_old\": " << json_number(e.accuracy_old)
        << ", \"accuracy_new\": " << json_number(e.accuracy_new)
        << ", \"devices_updated\": " << e.devices_updated
        << ", \"devices_rolled_back\": " << e.devices_rolled_back
        << ", \"full_fallbacks\": " << e.full_fallbacks
        << ", \"devices_stuck\": " << e.devices_stuck << "}";
  }
  if (!ota.epochs_log.empty()) out << "\n" << ind;
  out << "]\n";
}

// Renders the degradation ledger object with `ind` as the indentation of
// its members — shared by the standalone degradation.json artifact
// (ind = "  ") and the nested block inside FleetReport::to_json.
void write_degradation(std::ostream& out, const DegradationLedger& d,
                       const std::string& ind) {
  using obs::json_number;
  out << "{\n";
  out << ind << "\"enabled\": " << (d.enabled ? "true" : "false") << ",\n";
  out << ind << "\"pin_level\": " << d.pin_level << ",\n";
  out << ind << "\"duration_s\": " << json_number(d.duration_s) << ",\n";
  out << ind << "\"rows\": {\"exact\": " << d.rows_exact
      << ", \"approx\": " << d.rows_approx
      << ", \"sampled_out\": " << d.rows_sampled_out << "},\n";
  out << ind << "\"windows\": {\"exact\": " << d.windows_exact
      << ", \"sampled\": " << d.windows_sampled
      << ", \"sketch\": " << d.windows_sketch
      << ", \"summary\": " << d.windows_summary << "},\n";
  out << ind << "\"transitions\": {\"up\": " << d.transitions_up
      << ", \"down\": " << d.transitions_down << "},\n";
  out << ind << "\"summaries\": {\"sent\": " << d.summaries_sent
      << ", \"delivered\": " << d.summaries_delivered
      << ", \"bytes\": " << d.summary_bytes << "},\n";
  out << ind << "\"ci\": {\"windows\": " << d.ci_windows
      << ", \"covered\": " << d.ci_covered
      << ", \"coverage\": " << json_number(d.coverage())
      << ", \"mean_half_width\": " << json_number(d.mean_half_width())
      << ", \"mean_abs_error\": " << json_number(d.mean_abs_error())
      << ", \"max_abs_error\": " << json_number(d.max_abs_error) << "},\n";
  out << ind << "\"edges\": [";
  for (std::size_t i = 0; i < d.edges.size(); ++i) {
    const EdgeDegradeTimeline& e = d.edges[i];
    out << (i == 0 ? "" : ",") << "\n" << ind << "  {\"edge\": " << e.edge
        << ", \"final_level\": " << e.final_level << ", \"time_at_level_s\": ["
        << json_number(e.time_at_level_s[0]) << ", "
        << json_number(e.time_at_level_s[1]) << ", "
        << json_number(e.time_at_level_s[2]) << ", "
        << json_number(e.time_at_level_s[3]) << "], \"transitions\": [";
    for (std::size_t j = 0; j < e.transitions.size(); ++j) {
      const DegradeTransitionEntry& t = e.transitions[j];
      out << (j == 0 ? "" : ", ") << "{\"t_s\": " << json_number(t.t_s)
          << ", \"from\": " << t.from << ", \"to\": " << t.to << "}";
    }
    out << "]}";
  }
  if (!d.edges.empty()) out << "\n" << ind;
  out << "],\n";
  out << ind << "\"windows_truncated\": " << d.windows_truncated << ",\n";
  out << ind << "\"window_estimates\": [";
  for (std::size_t i = 0; i < d.windows.size(); ++i) {
    const WindowEstimate& w = d.windows[i];
    out << (i == 0 ? "" : ",") << "\n" << ind << "  {\"edge\": " << w.edge
        << ", \"t_s\": " << json_number(w.t_s) << ", \"level\": " << w.level
        << ", \"rows_window\": " << w.rows_window
        << ", \"rows_used\": " << w.rows_used
        << ", \"estimate\": " << json_number(w.estimate)
        << ", \"half_width\": " << json_number(w.half_width)
        << ", \"exact\": " << json_number(w.exact)
        << ", \"covered\": " << (w.covered ? "true" : "false") << "}";
  }
  if (!d.windows.empty()) out << "\n" << ind;
  out << "]\n";
}

}  // namespace

std::string ota_to_json(const OtaSummary& ota) {
  std::ostringstream out;
  write_ota(out, ota, "  ");
  out << "}\n";
  return out.str();
}

std::string degradation_to_json(const DegradationLedger& degradation) {
  std::ostringstream out;
  write_degradation(out, degradation, "  ");
  out << "}\n";
  return out.str();
}

std::size_t FleetReport::rows_accounted() const noexcept {
  return rows_delivered + rows_lost + rows_skipped + rows_stranded +
         faults.rows_corrupt_rejected + faults.rows_buffer_evicted +
         faults.rows_lost_to_crash + faults.rows_retained +
         degradation.rows_sampled_out;
}

std::map<std::string, StageTotals> FleetReport::stage_totals() const {
  std::map<std::string, StageTotals> totals;
  for (const pipeline::StageReport& r : stage_reports) {
    StageTotals& t = totals[r.stage_name];
    if (t.runs == 0) {
      t.player = r.player;
      t.tier = r.tier;
    }
    ++t.runs;
    t.rows_in += r.rows_in;
    t.rows_out += r.rows_out;
    t.cost += r.cost;
  }
  return totals;
}

std::string FleetReport::to_json() const {
  using obs::json_escape;
  using obs::json_number;
  std::ostringstream out;
  out << "{\n";
  out << "  \"devices\": " << devices << ",\n";
  out << "  \"edges\": " << edges << ",\n";
  out << "  \"duration_s\": " << json_number(duration_s) << ",\n";
  out << "  \"events\": " << events << ",\n";
  out << "  \"rows\": {\"generated\": " << rows_generated
      << ", \"delivered\": " << rows_delivered << ", \"lost\": " << rows_lost
      << ", \"skipped\": " << rows_skipped << ", \"stranded\": " << rows_stranded
      << "},\n";
  out << "  \"messages\": {\"sent\": " << messages_sent
      << ", \"dropped\": " << messages_dropped
      << ", \"duplicates_discarded\": " << duplicates_discarded << "},\n";

  out << "  \"faults\": {\"rows_corrupt_rejected\": " << faults.rows_corrupt_rejected
      << ", \"rows_buffer_evicted\": " << faults.rows_buffer_evicted
      << ", \"rows_lost_to_crash\": " << faults.rows_lost_to_crash
      << ", \"rows_retained\": " << faults.rows_retained
      << ", \"rows_recovered\": " << faults.rows_recovered
      << ", \"edge_crashes\": " << faults.edge_crashes
      << ", \"core_crashes\": " << faults.core_crashes
      << ", \"partitions\": " << faults.partitions
      << ", \"loss_bursts\": " << faults.loss_bursts
      << ", \"corruption_storms\": " << faults.corruption_storms;
  // Load storms joined the chaos harness after the legacy goldens froze:
  // render the counter only when one actually fired.
  if (faults.load_storms > 0) {
    out << ", \"load_storms\": " << faults.load_storms;
  }
  out << ", \"checkpoints_written\": " << faults.checkpoints_written
      << ", \"checkpoints_restored\": " << faults.checkpoints_restored
      << ", \"stale_model_devices\": " << faults.stale_model_devices
      << ", \"rows_accounted\": " << rows_accounted()
      << ", \"conserved\": " << (rows_conserved() ? "true" : "false")
      << ", \"flight_dumps_truncated\": " << faults.flight_dumps_truncated
      << ", \"flight_dumps\": [";
  for (std::size_t i = 0; i < faults.flight_dumps.size(); ++i) {
    const FlightDump& fd = faults.flight_dumps[i];
    out << (i == 0 ? "" : ",") << "\n    {\"entity\": \"" << json_escape(fd.entity)
        << "\", \"trigger\": \"" << json_escape(fd.trigger)
        << "\", \"t_s\": " << json_number(fd.t_s) << ", \"events\": [";
    for (std::size_t j = 0; j < fd.events.size(); ++j) {
      out << (j == 0 ? "" : ", ") << "\"" << json_escape(fd.events[j]) << "\"";
    }
    out << "]}";
  }
  out << "]";
  // Backpressure gauges ride with the degradation contract; legacy runs
  // keep the historical faults object byte-for-byte.
  if (degradation.enabled && !faults.edge_gauges.empty()) {
    out << ", \"edge_gauges\": [";
    for (std::size_t i = 0; i < faults.edge_gauges.size(); ++i) {
      const BackpressureGauge& g = faults.edge_gauges[i];
      out << (i == 0 ? "" : ",") << "\n    {\"edge\": " << g.edge
          << ", \"uplink_in_flight_highwater\": " << g.uplink_in_flight_highwater
          << ", \"device_in_flight_highwater\": " << g.device_in_flight_highwater
          << ", \"uplink_dead_letters\": " << g.uplink_dead_letters
          << ", \"device_dead_letters\": " << g.device_dead_letters
          << ", \"sf_rows_highwater\": " << g.sf_rows_highwater << "}";
    }
    out << "]";
  }
  out << "},\n";

  out << "  \"channels\": {\"sends\": " << channels.sends
      << ", \"delivered\": " << channels.delivered
      << ", \"acks\": " << channels.acks
      << ", \"timeouts\": " << channels.timeouts
      << ", \"retransmits\": " << channels.retransmits
      << ", \"backoff_waits\": " << channels.backoff_waits
      << ", \"backoff_wait_s\": " << json_number(channels.backoff_wait_s)
      << ", \"dead_letters\": " << channels.dead_letters
      << ", \"corrupt_rejected\": " << channels.corrupt_rejected << "},\n";

  out << "  \"stages\": {";
  bool first = true;
  for (const auto& [name, t] : stage_totals()) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(name) << "\": {"
        << "\"player\": \"" << json_escape(t.player) << "\", \"tier\": \""
        << pipeline::tier_name(t.tier) << "\", \"runs\": " << t.runs
        << ", \"rows_in\": " << t.rows_in << ", \"rows_out\": " << t.rows_out
        << ", \"cost\": " << json_number(t.cost) << "}";
    first = false;
  }
  out << "\n  },\n";

  out << "  \"links\": {";
  first = true;
  for (const LinkReport& l : links) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(l.name) << "\": {"
        << "\"messages\": " << l.stats.messages << ", \"bytes\": " << l.stats.bytes
        << ", \"drops\": " << l.stats.drops
        << ", \"corrupted\": " << l.stats.corrupted
        << ", \"duplicates\": " << l.stats.duplicates
        << ", \"retransmits\": " << l.stats.retransmits << "}";
    first = false;
  }
  out << "\n  },\n";

  out << "  \"latency\": {\"count\": " << latency.count
      << ", \"mean_s\": " << json_number(latency.mean_s)
      << ", \"p50_s\": " << json_number(latency.p50_s)
      << ", \"p95_s\": " << json_number(latency.p95_s)
      << ", \"max_s\": " << json_number(latency.max_s) << "},\n";

  out << "  \"latency_tiers\": {";
  first = true;
  for (const auto& [tier, b] : latency_tiers) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(tier) << "\": {"
        << "\"count\": " << b.summary.count
        << ", \"mean_s\": " << json_number(b.summary.mean_s)
        << ", \"p50_s\": " << json_number(b.summary.p50_s)
        << ", \"p95_s\": " << json_number(b.summary.p95_s)
        << ", \"max_s\": " << json_number(b.summary.max_s) << ", \"buckets\": [";
    for (std::size_t i = 0; i < b.counts.size(); ++i) {
      if (i > 0) out << ", ";
      out << "{\"le\": ";
      if (i < b.bounds_s.size()) {
        out << json_number(b.bounds_s[i]);
      } else {
        out << "\"+inf\"";
      }
      out << ", \"count\": " << b.counts[i] << "}";
    }
    out << "]}";
    first = false;
  }
  out << "\n  },\n";
  out << "  \"accuracy\": " << json_number(accuracy) << ",\n";
  out << "  \"train_rows\": " << train_rows << ",\n";
  out << "  \"test_rows\": " << test_rows;
  // Telemetry and deploy blocks render only when their subsystem ran, so
  // legacy report JSON stays byte-identical.
  if (telemetry.enabled) {
    out << ",\n  \"telemetry\": {\n";
    out << "    \"enabled\": true,\n";
    out << "    \"schema\": {\"id\": " << telemetry.schema_id
        << ", \"fields\": " << telemetry.schema_fields
        << ", \"negotiations\": " << telemetry.schema_negotiations
        << ", \"bytes\": " << telemetry.schema_bytes << "},\n";
    out << "    \"frames\": {\"sent\": " << telemetry.frames_sent
        << ", \"delivered\": " << telemetry.frames_delivered
        << ", \"rejected\": " << telemetry.frames_rejected
        << ", \"retransmitted\": " << telemetry.frames_retransmitted << "},\n";
    out << "    \"rows\": {\"encoded\": " << telemetry.rows_encoded
        << ", \"decoded\": " << telemetry.rows_decoded << "},\n";
    out << "    \"bytes\": {\"encoded\": " << telemetry.encoded_wire_bytes
        << ", \"legacy_counterfactual\": " << telemetry.legacy_wire_bytes
        << ", \"per_row\": " << json_number(telemetry.bytes_per_row())
        << ", \"legacy_per_row\": "
        << json_number(telemetry.legacy_bytes_per_row()) << "},\n";
    out << "    \"device_log\": {\"frames_evicted\": "
        << telemetry.log_frames_evicted
        << ", \"rows_evicted\": " << telemetry.log_rows_evicted
        << ", \"highwater_bytes\": " << telemetry.log_highwater_bytes << "},\n";
    out << "    \"decode_identity_ok\": "
        << (telemetry.decode_identity_ok ? "true" : "false") << "\n";
    out << "  }";
  }
  // An OTA-only run still renders the deploy block (its ledger lives
  // there); legacy runs without either remain byte-identical.
  if (deploy.enabled || deploy.ota.enabled) {
    out << ",\n  \"deploy\": {\n";
    out << "    \"model\": \"" << json_escape(deploy.model) << "\",\n";
    out << "    \"precision\": \"" << json_escape(deploy.precision) << "\",\n";
    out << "    \"artifact_bytes\": {\"float32\": " << deploy.artifact_bytes_float32
        << ", \"deployed\": " << deploy.artifact_bytes_deployed << "},\n";
    out << "    \"devices\": {\"deployed\": " << deploy.devices_deployed
        << ", \"stale\": " << deploy.devices_stale
        << ", \"missed\": " << deploy.devices_missed << "},\n";
    out << "    \"rows_scored\": " << deploy.rows_scored << ",\n";
    out << "    \"rows_scored_stale\": " << deploy.rows_scored_stale << ",\n";
    out << "    \"predictions\": {\"delivered\": " << deploy.predictions_delivered
        << ", \"correct\": " << deploy.predictions_correct << "},\n";
    out << "    \"bytes\": {\"downlink\": " << deploy.downlink_bytes
        << ", \"uplink_predictions\": " << deploy.uplink_prediction_bytes
        << ", \"uplink_raw_counterfactual\": " << deploy.uplink_raw_bytes << "},\n";
    out << "    \"holdout_accuracy\": {\"float32\": "
        << json_number(deploy.holdout_accuracy_float)
        << ", \"deployed\": " << json_number(deploy.holdout_accuracy_deployed)
        << "},\n";
    out << "    \"device_accuracy\": " << json_number(deploy.device_accuracy) << ",\n";
    out << "    \"cost_per_row\": {\"multiply_adds\": " << deploy.cost_multiply_adds
        << ", \"comparisons\": " << deploy.cost_comparisons
        << ", \"table_lookups\": " << deploy.cost_table_lookups << "}";
    if (deploy.ota.enabled) {
      out << ",\n    \"ota\": ";
      write_ota(out, deploy.ota, "      ");
      out << "    }\n";
    } else {
      out << "\n";
    }
    out << "  }";
  }
  if (degradation.enabled) {
    out << ",\n  \"degradation\": ";
    write_degradation(out, degradation, "    ");
    out << "  }";
  }
  out << "\n}\n";
  return out.str();
}

void publish_counters(const FleetReport& report) {
  obs::Registry& registry = obs::registry();
  auto publish = [&registry](const std::string& name, std::uint64_t total) {
    if (total > 0) registry.counter(name).add(total);
  };
  std::uint64_t wire_bytes = 0;
  for (const LinkReport& link : report.links) {
    publish("net.link." + link.name + ".bytes", link.stats.bytes);
    wire_bytes += link.stats.bytes;
  }
  const FaultLedger& f = report.faults;
  const DeploySummary& d = report.deploy;
  const OtaSummary& ota = d.ota;
  const net::ChannelStats& ch = report.channels;
  std::uint64_t commits = 0;
  std::uint64_t stuck = 0;
  std::uint64_t device_rollbacks = 0;
  for (const OtaEpochEntry& e : ota.epochs_log) {
    commits += e.devices_updated;
    stuck += e.devices_stuck;
    device_rollbacks += e.devices_rolled_back;
  }
  const std::pair<const char*, std::uint64_t> totals[] = {
      {"sim.events", report.events},
      {"sim.net.messages", report.messages_sent},
      {"sim.net.dropped", report.messages_dropped},
      {"sim.net.duplicates_discarded", report.duplicates_discarded},
      {"sim.net.rows_corrupt_rejected", f.rows_corrupt_rejected},
      {"sim.net.bytes", wire_bytes},
      {"sim.faults.edge_crash", f.edge_crashes},
      {"sim.faults.core_crash", f.core_crashes},
      {"sim.faults.rows_lost_to_crash", f.rows_lost_to_crash},
      {"sim.chaos.partitions", f.partitions},
      {"sim.chaos.loss_bursts", f.loss_bursts},
      {"sim.chaos.corruption_storms", f.corruption_storms},
      {"sim.chaos.load_storms", f.load_storms},
      {"sim.recovery.checkpoints_written", f.checkpoints_written},
      {"sim.recovery.checkpoints_restored", f.checkpoints_restored},
      {"sim.recovery.rows_recovered", f.rows_recovered},
      {"sim.recovery.rows_evicted", f.rows_buffer_evicted},
      {"sim.recovery.rows_scored_stale", d.rows_scored_stale},
      {"sim.recovery.stale_model_serves", d.devices_stale},
      {"sim.degrade.transitions",
       report.degradation.transitions_up + report.degradation.transitions_down},
      {"deploy.devices_deployed", d.devices_deployed},
      {"deploy.downlink_bytes", d.downlink_bytes},
      {"deploy.rows_scored", d.rows_scored},
      {"deploy.predictions_delivered", d.predictions_delivered},
      {"deploy.prediction_bytes", d.uplink_prediction_bytes},
      {"ota.full_fallbacks", ota.full_fallbacks},
      {"ota.probe_uplink_bytes", ota.probe_uplink_bytes},
      {"ota.resume_rounds", ota.resume_rounds},
      {"ota.promotions", ota.promotions},
      {"ota.rollbacks", ota.rollbacks},
      {"ota.downlink_bytes", ota.delta_downlink_bytes},
      {"ota.chunk_sends", ota.chunks_sent},
      {"ota.chunk_corrupt_rejected", ota.chunks_corrupt_rejected},
      {"ota.commits", commits},
      {"ota.devices_stuck", stuck},
      {"ota.device_rollbacks", device_rollbacks},
      {"net.channel.acks", ch.acks},
      {"net.channel.retransmits", ch.retransmits},
      {"net.channel.timeouts", ch.timeouts},
      {"net.channel.backoff_waits", ch.backoff_waits},
      {"net.channel.corrupt_rejected", ch.corrupt_rejected},
      {"net.channel.dead_letters", ch.dead_letters}};
  for (const auto& [name, total] : totals) publish(name, total);
}

}  // namespace iotml::sim

#include "checks.hpp"

#include <cstdio>

#include "util/fnv.hpp"

namespace perfbench {

std::string digest(const std::string& text) {
  const auto h = iotml::fnv1a64(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string check_fleet_report(const iotml::sim::FleetReport& report) {
  if (report.events == 0 || report.rows_generated == 0) return "fleet did no work";
  if (!report.rows_conserved()) return "row-conservation ledger out of balance";
  if (report.telemetry.enabled && !report.telemetry.decode_identity_ok) {
    return "telemetry decode identity broken";
  }
  if (report.deploy.ota.enabled && !report.deploy.ota.all_devices_verified) {
    return "ota device images failed verification";
  }
  return "";
}

double delivery_ratio(const iotml::sim::FleetReport& report) {
  const iotml::sim::FaultLedger& f = report.faults;
  const std::size_t lost = report.rows_lost + report.rows_skipped + report.rows_stranded +
                           f.rows_corrupt_rejected + f.rows_buffer_evicted +
                           f.rows_lost_to_crash;
  return 1.0 - static_cast<double>(lost) / static_cast<double>(report.rows_generated);
}

}  // namespace perfbench

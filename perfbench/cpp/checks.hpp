#pragma once

#include <cstdint>
#include <string>

#include "sim/report.hpp"

namespace perfbench {

/// 16-hex-digit FNV-1a 64 digest of `text`.
std::string digest(const std::string& text);

/// The invariants one fleet iteration must satisfy: the row-conservation
/// ledger closes, every telemetry decode reproduced its device encoding,
/// every OTA device image re-verifies, and the run did real work. Returns
/// an empty string when the report passes, else the first failed check.
std::string check_fleet_report(const iotml::sim::FleetReport& report);

/// Rows the conservation ledger books as lost (link loss, churn, stranded,
/// corrupt, evicted, crashed), as a share of the rows generated. Rows
/// delivered, retained for on-device scoring or answered approximately at
/// an edge are not lost.
double delivery_ratio(const iotml::sim::FleetReport& report);

}  // namespace perfbench

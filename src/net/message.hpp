#pragma once

#include <cstddef>
#include <cstdint>

#include "data/dataset.hpp"

namespace iotml::net {

/// Fixed per-frame framing overhead (ids, addresses, timestamps). A row
/// frame's causal trace tag, an 8-byte trace id plus a 2-byte hop index
/// kept across retries, rides inside this allowance: real telemetry headers
/// pack it alongside the addressing fields, so tracing adds no marginal wire
/// cost and enabling it changes no simulated number.
inline constexpr std::size_t kMessageHeaderBytes = 24;

/// FNV-1a over the payload's shape, column names, presence bitmap, labels
/// and cell bits. A sender stamps each row frame with this; receivers
/// recompute and reject any frame whose stored and recomputed sums differ —
/// a corrupted payload is detected, never silently scored.
std::uint64_t payload_checksum(const data::Dataset& ds);

/// Serialization cost model for a dataset on the wire: a small per-column
/// header (name + type tag), 8 bytes per numeric cell, 2 bytes per
/// categorical cell (dictionary index), and a presence bitmap of one bit
/// per cell. NaN-valued numeric cells are charged as missing (bitmap bit
/// only) — the real telemetry codec normalizes NaN readings to missing on
/// the wire, and the counterfactual ledger must compare like with like.
/// This is what a compact row-batch encoding costs, and it is what the
/// link bandwidth model charges.
std::size_t wire_size_bytes(const data::Dataset& ds);

}  // namespace iotml::net

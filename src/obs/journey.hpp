#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "util/record_log.hpp"

namespace iotml::obs {

/// What a journey record describes.
enum class HopKind : std::uint8_t {
  kOrigin,  ///< a flush window was born at a device (rows entered the fleet)
  kSend,    ///< a message left a node (outcome says how the transfer ended)
  kArrive,  ///< a message reached a node (outcome says what the receiver did)
};

/// Which traffic class the record belongs to.
enum class HopStream : std::uint8_t {
  kRows,         ///< sensor rows, device -> edge -> core
  kArtifact,     ///< compiled model broadcast, core -> edge -> device
  kPredictions,  ///< on-device scores, device -> edge -> core
  kPatch,        ///< OTA delta-update chunks, core -> edge -> device
  kSummary,      ///< degrade-ladder window summaries, edge -> core
};

const char* hop_kind_name(HopKind kind) noexcept;
const char* hop_stream_name(HopStream stream) noexcept;

/// One per-hop trace record. `trace` identifies the message (or, for
/// kOrigin, the flush window); `parents` lists the origin-window trace ids
/// folded into the payload, which is what lets a reader reconstruct a row's
/// device -> edge -> core journey after edge-side batching merges windows.
/// All times are virtual-clock seconds, so the log is byte-deterministic
/// per seed.
struct HopRecord {
  std::uint64_t trace = 0;
  std::uint32_t hop = 0;  ///< 0 = first wire hop from the originator, 1 = second, ...
  HopKind kind = HopKind::kSend;
  HopStream stream = HopStream::kRows;
  std::size_t src = 0;
  std::size_t dst = 0;
  double t0_s = 0.0;  ///< sent / created time
  double t1_s = 0.0;  ///< arrival / event time (0 when the frame never landed)
  std::size_t rows = 0;
  std::size_t bytes = 0;
  std::uint32_t attempts = 0;  ///< 1 + retransmits for kSend
  const char* outcome = "";    ///< static string: delivered, dropped, dead_letter, ...
  std::vector<std::uint64_t> parents;
};

/// Bounded append-only log of hop records. Appends past `capacity` are
/// counted in dropped() rather than stored, so a runaway sim cannot OOM the
/// observatory. Each hop is stored as one variable-length record in a
/// util::RecordLog: a flags byte (kind, stream, and whether t1 is t0's bit
/// pattern, +0.0 or stored), the outcome as an index into the log's table of
/// distinct outcome pointers, the trace as a zigzag delta from the previous
/// stored hop's, then hop, src, dst, rows, bytes, attempts and the parent
/// count as varints, t0 as the zigzag varint of its f64 bit pattern's
/// difference from the previous stored hop's t0, a stored t1 as the same
/// against its own t0, and the parents as zigzag deltas chained from the
/// trace. A fleet hop costs 17.8 B, parents included (fleet-wire, seed 1).
/// snapshot() and
/// write_jsonl() rebuild the recorded HopRecords bit for bit. Thread-safe;
/// write_jsonl emits one fixed-key-order JSON object per line in append
/// order.
class JourneyLog {
 public:
  explicit JourneyLog(std::size_t capacity);

  /// Appends `r` with `parents` in place of r.parents, or counts it as
  /// dropped once the log holds `capacity` records. Allocates only to start
  /// a chunk, to grow the one reused encode buffer or to list a new outcome
  /// pointer, so a caller whose parent ids sit in a buffer of its own copies
  /// none. Throws InvalidArgument, storing nothing, if r.src, r.dst, r.rows,
  /// r.bytes or the number of parents exceeds 2^32 - 1.
  void record(const HopRecord& r, std::span<const std::uint64_t> parents);

  /// record(r, r.parents).
  void record(const HopRecord& r) { record(r, r.parents); }

  std::size_t size() const;
  std::uint64_t dropped() const;

  /// Bytes the stored records hold.
  std::size_t bytes() const;

  std::vector<HopRecord> snapshot() const;

  void write_jsonl(std::ostream& out) const;

  void clear();

 private:
  /// Calls `f(hop)` for every stored hop in append order; `hop` is one
  /// HopRecord reused for each.
  template <typename F>
  void for_each_hop(F&& f) const;

  mutable std::mutex mu_;
  std::size_t capacity_;
  util::RecordLog hops_;
  std::vector<const char*> outcomes_;  ///< each distinct outcome pointer, first use first
  std::uint64_t last_trace_ = 0;       ///< the last stored hop's trace
  std::uint64_t last_t0_bits_ = 0;     ///< the last stored hop's t0 bit pattern
  std::uint64_t dropped_ = 0;
};

}  // namespace iotml::obs

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace iotml::util {

/// Append-only log of variable-length byte records, kept in chunks of about
/// 16 KiB. A record never straddles two chunks, and a record longer than a
/// chunk gets a chunk of its own. An append never moves a stored byte and
/// never holds an old and a new copy of the whole log, as a vector's
/// regrowth does, so a run-long log costs its records' bytes plus each
/// chunk's unused tail. Records carry no length: each user's decoder reads
/// exactly the record it encoded, and a user's deltas from the previous
/// record chain across chunks, so the log decodes from its first byte.
class RecordLog {
 public:
  /// Calls `encode(writer)` on the log's one reused encode buffer, emptied
  /// first, and appends what it wrote as one record of at least one byte.
  /// Nothing is appended if `encode` throws.
  template <typename F>
  void append(F&& encode) {
    encode_.clear();
    encode(encode_);
    store(encode_.bytes());
  }

  /// Records appended.
  std::size_t size() const noexcept { return size_; }

  /// Bytes the records hold; the unused tail of each chunk is not counted.
  std::size_t bytes() const noexcept { return bytes_; }

  /// The chunks in append order, each a run of whole records.
  const std::vector<std::vector<std::uint8_t>>& chunks() const noexcept { return chunks_; }

  /// Calls `decode(reader)` once per record, in append order, with `reader`
  /// at the record's first byte; `decode` must read exactly that record.
  template <typename F>
  void for_each(F&& decode) const {
    std::size_t records = 0;
    for (const std::vector<std::uint8_t>& chunk : chunks_) {
      ByteReader reader(chunk);
      for (; !reader.done(); ++records) decode(reader);
    }
    IOTML_INTERNAL_CHECK(records == size_, "RecordLog: a decoder misread a record's length");
  }

  void clear() noexcept;

 private:
  static constexpr std::size_t kChunkBytes = 16 * 1024;

  void store(const std::vector<std::uint8_t>& record);

  std::vector<std::vector<std::uint8_t>> chunks_;
  ByteWriter encode_;
  std::size_t size_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace iotml::util

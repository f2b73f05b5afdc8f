#include "ota/transfer.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/fnv.hpp"

namespace iotml::ota {

ChunkedPatch::ChunkedPatch(std::vector<std::uint8_t> patch_bytes,
                           std::size_t chunk_bytes, std::uint32_t version_id)
    : bytes_(std::move(patch_bytes)),
      chunk_bytes_(chunk_bytes),
      version_id_(version_id) {
  IOTML_CHECK(chunk_bytes_ > 0, "ChunkedPatch: chunk_bytes must be > 0");
  IOTML_CHECK(!bytes_.empty(), "ChunkedPatch: empty patch");
  num_chunks_ = (bytes_.size() + chunk_bytes_ - 1) / chunk_bytes_;
  IOTML_CHECK(num_chunks_ <= kMaxChunks, "ChunkedPatch: patch needs more than kMaxChunks chunks");
}

ChunkFrame ChunkedPatch::frame(std::size_t index) const {
  IOTML_CHECK(index < num_chunks_, "ChunkedPatch::frame: index out of range");
  const std::size_t begin = index * chunk_bytes_;
  const std::size_t end = std::min(begin + chunk_bytes_, bytes_.size());
  ChunkFrame f;
  f.version_id = version_id_;
  f.index = static_cast<std::uint32_t>(index);
  f.total = static_cast<std::uint32_t>(num_chunks_);
  f.patch_size = static_cast<std::uint32_t>(bytes_.size());
  f.payload.assign(bytes_.begin() + static_cast<std::ptrdiff_t>(begin),
                   bytes_.begin() + static_cast<std::ptrdiff_t>(end));
  f.checksum = fnv1a32(f.payload.data(), f.payload.size());
  return f;
}

std::size_t ChunkedPatch::total_wire_bytes() const noexcept {
  return bytes_.size() + num_chunks_ * kChunkFramingBytes;
}

PatchApplier::Accept PatchApplier::accept(const ChunkFrame& frame) {
  if (frame.total == 0 || frame.total > kMaxChunks || frame.index >= frame.total ||
      frame.patch_size == 0) {
    return Accept::kShapeMismatch;
  }
  if (started()) {
    if (frame.version_id != version_id_ || frame.total != total_ ||
        frame.patch_size != patch_size_) {
      return Accept::kShapeMismatch;
    }
  }
  if (fnv1a32(frame.payload.data(), frame.payload.size()) != frame.checksum) {
    return Accept::kChecksumMismatch;
  }
  // Every chunk except the last carries the sender's fixed chunk size and
  // the last carries the remainder; the sizes must sum to patch_size. The
  // fixed size is not on the wire — it is learned from the first accepted
  // frame and cross-checked against every later one.
  const std::size_t total = frame.total;
  const std::size_t size = frame.patch_size;
  const std::size_t got = frame.payload.size();
  const bool last = frame.index + 1 == total;
  std::size_t whole = whole_;
  if (total == 1) {
    if (got != size) return Accept::kShapeMismatch;
    whole = got;
  } else if (!last) {
    if (whole == 0) {
      // This size must leave the last chunk between 1 and `got` bytes.
      if (got == 0 || got * (total - 1) >= size || got * total < size) {
        return Accept::kShapeMismatch;
      }
      whole = got;
    } else if (got != whole) {
      return Accept::kShapeMismatch;
    }
  } else {
    if (whole == 0) {
      // Infer the fixed size from the remainder: it must divide the rest
      // evenly and be at least as large as the remainder it leaves.
      if (got == 0 || got > size || (size - got) % (total - 1) != 0) {
        return Accept::kShapeMismatch;
      }
      whole = (size - got) / (total - 1);
      if (whole < got) return Accept::kShapeMismatch;
    } else if (got != size - whole * (total - 1)) {
      return Accept::kShapeMismatch;
    }
  }

  if (!started()) {
    version_id_ = frame.version_id;
    total_ = total;
    patch_size_ = size;
    have_.assign(total_, 0);
    chunks_.assign(total_, {});
  }
  if (have_[frame.index]) return Accept::kDuplicate;
  whole_ = whole;
  have_[frame.index] = 1;
  chunks_[frame.index] = frame.payload;
  ++verified_;
  return Accept::kAccepted;
}

void PatchApplier::reset() {
  version_id_ = 0;
  total_ = 0;
  patch_size_ = 0;
  whole_ = 0;
  verified_ = 0;
  have_.clear();
  chunks_.clear();
}

std::vector<std::size_t> PatchApplier::missing() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < total_; ++i) {
    if (!have_[i]) out.push_back(i);
  }
  return out;
}

std::vector<std::uint8_t> PatchApplier::assemble() const {
  IOTML_CHECK(complete(), "PatchApplier::assemble: transfer incomplete");
  std::vector<std::uint8_t> out;
  out.reserve(patch_size_);
  for (const auto& c : chunks_) out.insert(out.end(), c.begin(), c.end());
  IOTML_INTERNAL_CHECK(out.size() == patch_size_,
                       "PatchApplier::assemble: reassembled size mismatch");
  return out;
}

}  // namespace iotml::ota

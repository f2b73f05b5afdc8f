#pragma once

#include <cstddef>
#include <vector>

namespace iotml {

/// Append-only sequence stored in fixed chunks of about 16 KiB. An append
/// never moves a stored element and never holds an old and a new copy of the
/// whole sequence, as a vector's regrowth does, and every chunk has one size,
/// so a run-long log costs its elements plus one partly filled chunk and the
/// allocator can hand a freed log's chunks to the next one.
template <typename T>
class ChunkedLog {
 public:
  void push_back(const T& value) {
    if (size_ % kPerChunk == 0) {
      chunks_.emplace_back();
      chunks_.back().reserve(kPerChunk);
    }
    chunks_.back().push_back(value);
    ++size_;
  }

  std::size_t size() const noexcept { return size_; }

  /// Element `i` in append order; `i` must be below size().
  const T& operator[](std::size_t i) const { return chunks_[i / kPerChunk][i % kPerChunk]; }

  /// Calls `f(element)` for every element, in append order.
  template <typename F>
  void for_each(F&& f) const {
    for (const std::vector<T>& chunk : chunks_) {
      for (const T& value : chunk) f(value);
    }
  }

  void clear() noexcept {
    chunks_.clear();
    size_ = 0;
  }

 private:
  static constexpr std::size_t kChunkBytes = 16 * 1024;
  static constexpr std::size_t kPerChunk =
      sizeof(T) < kChunkBytes ? kChunkBytes / sizeof(T) : 1;

  std::vector<std::vector<T>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace iotml

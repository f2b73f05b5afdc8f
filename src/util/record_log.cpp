#include "util/record_log.hpp"

#include <algorithm>

namespace iotml::util {

void RecordLog::store(const std::vector<std::uint8_t>& record) {
  IOTML_INTERNAL_CHECK(!record.empty(), "RecordLog: a record holds at least one byte");
  if (chunks_.empty() || chunks_.back().size() + record.size() > kChunkBytes) {
    chunks_.emplace_back().reserve(std::max(record.size(), kChunkBytes));
  }
  std::vector<std::uint8_t>& chunk = chunks_.back();
  chunk.insert(chunk.end(), record.begin(), record.end());
  ++size_;
  bytes_ += record.size();
}

void RecordLog::clear() noexcept {
  chunks_.clear();
  size_ = 0;
  bytes_ = 0;
}

}  // namespace iotml::util

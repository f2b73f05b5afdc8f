#include "net/message.hpp"

#include <bit>
#include <cmath>

#include "util/fnv.hpp"

namespace iotml::net {

namespace {

inline void fnv1a(std::uint64_t& h, std::uint64_t v) { h = fnv1a64_word(h, v); }

}  // namespace

std::uint64_t payload_checksum(const data::Dataset& ds) {
  std::uint64_t h = kFnv64Basis;
  fnv1a(h, ds.rows());
  fnv1a(h, ds.num_columns());
  for (std::size_t c = 0; c < ds.num_columns(); ++c) {
    const data::Column& col = ds.column(c);
    for (char ch : col.name()) fnv1a(h, static_cast<unsigned char>(ch));
    fnv1a(h, col.type() == data::ColumnType::kNumeric ? 1U : 2U);
    for (std::size_t r = 0; r < col.size(); ++r) {
      if (col.is_missing(r)) {
        fnv1a(h, 0x4d495353U);  // "MISS"
      } else if (col.type() == data::ColumnType::kNumeric) {
        fnv1a(h, std::bit_cast<std::uint64_t>(col.numeric(r)));
      } else {
        fnv1a(h, col.category(r));
      }
    }
  }
  if (ds.has_labels()) {
    for (int label : ds.labels()) fnv1a(h, static_cast<std::uint64_t>(label));
  }
  return h;
}

std::size_t wire_size_bytes(const data::Dataset& ds) {
  std::size_t bytes = 8;  // row count + column count
  for (std::size_t c = 0; c < ds.num_columns(); ++c) {
    const data::Column& col = ds.column(c);
    bytes += col.name().size() + 2;             // name + type tag
    bytes += (col.size() + 7) / 8;              // presence bitmap
    std::size_t present = col.size() - col.missing_count();
    if (col.type() == data::ColumnType::kNumeric) {
      // A NaN reading carries no information the presence bitmap does not:
      // every codec (the abstract model here, the real tdf frames) ships it
      // as an absent cell, so the model must not charge it 8 value bytes.
      for (std::size_t r = 0; r < col.size(); ++r) {
        if (!col.is_missing(r) && std::isnan(col.numeric(r))) --present;
      }
    }
    bytes += present * (col.type() == data::ColumnType::kNumeric ? 8 : 2);
  }
  if (ds.has_labels()) bytes += ds.labels().size();  // small-int labels
  return bytes;
}

}  // namespace iotml::net

#include "tdf/codec.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace iotml::tdf {

namespace {

using util::ByteReader;
using util::ByteWriter;

/// Column-block encoding tags. A tag is chosen per column per frame: the
/// scaled paths need every present value to be an exact multiple of
/// 2^-scale_bits (what tdf::quantize produces); anything else — full-
/// precision doubles, NaN payloads — takes the lossless raw-bits path.
constexpr std::uint8_t kTagScaledDelta = 1;  ///< varint zigzag deltas of scaled ints
constexpr std::uint8_t kTagScaledDod = 2;    ///< second-order deltas (timestamps)
constexpr std::uint8_t kTagRawBits = 3;      ///< varint of bitcast u64 XOR previous
constexpr std::uint8_t kTagCategorical = 4;  ///< inline dictionary + varint codes

/// Largest magnitude the scaled-integer paths accept: dyadic rationals up
/// to 2^53 round-trip through a double exactly.
constexpr double kMaxScaled = 9007199254740992.0;  // 2^53

bool scaled_exactly(double v, std::uint8_t scale_bits, std::int64_t& out) {
  if (!std::isfinite(v)) return false;
  const double s = std::ldexp(v, scale_bits);
  if (!(std::fabs(s) <= kMaxScaled)) return false;
  const double r = std::nearbyint(s);
  if (r != s) return false;
  out = static_cast<std::int64_t>(r);
  // Exactness both ways: unscaling the integer must reproduce v bit-for-bit.
  return std::ldexp(static_cast<double>(out), -static_cast<int>(scale_bits)) == v;
}

/// Encode one stream of present values; returns the tag and payload bytes.
/// Scaled candidates are built only when every value is representable; the
/// smaller of delta / delta-of-delta wins (ties prefer plain delta).
std::pair<std::uint8_t, std::vector<std::uint8_t>> encode_stream(
    const std::vector<double>& values, std::uint8_t scale_bits) {
  std::vector<std::int64_t> scaled;
  scaled.reserve(values.size());
  bool exact = true;
  for (double v : values) {
    std::int64_t s = 0;
    if (!scaled_exactly(v, scale_bits, s)) {
      exact = false;
      break;
    }
    scaled.push_back(s);
  }
  if (exact) {
    ByteWriter delta;
    ByteWriter dod;
    std::int64_t prev = 0;
    std::int64_t prev_delta = 0;
    for (std::size_t i = 0; i < scaled.size(); ++i) {
      const std::int64_t d = scaled[i] - prev;
      delta.varint_i64(d);
      dod.varint_i64(i < 2 ? d : d - prev_delta);
      prev_delta = d;
      prev = scaled[i];
    }
    return dod.size() < delta.size()
               ? std::make_pair(kTagScaledDod, dod.take())
               : std::make_pair(kTagScaledDelta, delta.take());
  }
  ByteWriter raw;
  std::uint64_t prev_bits = 0;
  for (double v : values) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    raw.varint_u64(bits ^ prev_bits);
    prev_bits = bits;
  }
  return {kTagRawBits, raw.take()};
}

std::vector<double> decode_stream(ByteReader& r, std::uint8_t tag,
                                  std::uint8_t scale_bits, std::size_t count) {
  std::vector<double> values;
  values.reserve(r.count(count, 1));  // a varint is at least one byte
  if (tag == kTagRawBits) {
    std::uint64_t prev_bits = 0;
    for (std::size_t i = 0; i < count; ++i) {
      prev_bits ^= r.varint_u64();
      values.push_back(std::bit_cast<double>(prev_bits));
    }
    return values;
  }
  IOTML_CHECK(tag == kTagScaledDelta || tag == kTagScaledDod,
              "tdf: unknown numeric stream tag");
  std::int64_t prev = 0;
  std::int64_t prev_delta = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::int64_t d = r.varint_i64();
    if (tag == kTagScaledDod && i >= 2) d += prev_delta;
    prev_delta = d;
    prev += d;
    values.push_back(std::ldexp(static_cast<double>(prev), -static_cast<int>(scale_bits)));
  }
  return values;
}

/// A numeric cell is absent on the wire when flagged missing or NaN-valued:
/// both decode back to a missing cell (see tdf::quantize) and both cost one
/// presence bit — the same price net::wire_size_bytes charges the legacy
/// model for them.
bool cell_absent(const data::Column& col, std::size_t row) {
  if (col.is_missing(row)) return true;
  return col.type() == data::ColumnType::kNumeric && std::isnan(col.numeric(row));
}

void write_presence(ByteWriter& w, const std::vector<bool>& absent,
                    std::size_t absent_count) {
  if (absent_count == 0) {
    w.u8(0);
    return;
  }
  w.u8(1);
  std::size_t acc = 0;
  for (std::size_t i = 0; i < absent.size(); ++i) {
    if (!absent[i]) acc |= std::size_t{1} << (i % 8);
    if (i % 8 == 7 || i + 1 == absent.size()) {
      w.u8(util::narrow_u8(acc, "presence bitmap byte"));
      acc = 0;
    }
  }
}

std::vector<bool> read_presence(ByteReader& r, std::size_t rows) {
  const std::uint8_t mode = r.u8();
  IOTML_CHECK(mode <= 1, "tdf: bad presence mode");
  std::vector<bool> present(rows, true);
  if (mode == 0) return present;
  for (std::size_t base = 0; base < rows; base += 8) {
    const std::uint8_t byte = r.u8();
    for (std::size_t bit = 0; bit < 8 && base + bit < rows; ++bit) {
      present[base + bit] = ((byte >> bit) & 1U) != 0;
    }
  }
  return present;
}

void check_schema_match(const Schema& schema, const data::Dataset& ds) {
  IOTML_CHECK(!ds.has_labels(), "tdf: telemetry frames never carry labels");
  IOTML_CHECK(schema.size() == ds.num_columns(),
              "tdf: dataset column count does not match schema");
  for (std::size_t c = 0; c < schema.size(); ++c) {
    const FieldSpec& f = schema.fields()[c];
    IOTML_CHECK(f.name == ds.column(c).name(), "tdf: column name mismatch");
    IOTML_CHECK(f.type == ds.column(c).type(), "tdf: column type mismatch");
  }
}

}  // namespace

double quantize_value(double v, std::uint8_t scale_bits) {
  if (!std::isfinite(v)) return v;
  const double s = std::round(std::ldexp(v, scale_bits));
  if (!(std::fabs(s) <= kMaxScaled)) return v;  // too wide to scale: keep raw
  return std::ldexp(s, -static_cast<int>(scale_bits));
}

void quantize(data::Dataset& ds, std::uint8_t scale_bits) {
  IOTML_CHECK(scale_bits <= 52, "tdf: scale_bits exceeds double mantissa");
  for (std::size_t c = 0; c < ds.num_columns(); ++c) {
    data::Column& col = ds.column(c);
    if (col.type() != data::ColumnType::kNumeric) continue;
    for (std::size_t r = 0; r < col.size(); ++r) {
      if (col.is_missing(r)) continue;
      const double v = col.numeric(r);
      if (std::isnan(v)) {
        col.set_missing(r);  // NaN carries no reading: normalize to missing
      } else {
        col.set_numeric(r, quantize_value(v, scale_bits));
      }
    }
  }
}

std::vector<std::uint8_t> encode_frame(const Schema& schema,
                                       const data::Dataset& ds,
                                       const std::vector<double>& origin_s,
                                       std::uint32_t device_id, std::uint32_t seq,
                                       bool include_schema) {
  check_schema_match(schema, ds);
  const std::size_t rows = ds.rows();
  IOTML_CHECK(rows <= 0xFFFF, "tdf: frame row count exceeds the u16 field");

  ByteWriter w;
  for (std::uint8_t m : kFrameMagic) w.u8(m);
  w.u8(kFrameVersion);
  w.u8(include_schema ? kFlagSchemaInline : 0);
  w.u32(schema.id());
  w.u32(device_id);
  w.u32(seq);
  w.u16(util::narrow_u16(rows, "frame row count"));
  w.u16(util::narrow_u16(schema.size(), "frame column count"));
  if (include_schema) {
    const std::vector<std::uint8_t>& blob = schema.encoded();
    w.u16(util::narrow_u16(blob.size(), "schema blob length"));
    for (std::uint8_t b : blob) w.u8(b);
  }

  for (std::size_t c = 0; c < schema.size(); ++c) {
    const data::Column& col = ds.column(c);
    const FieldSpec& field = schema.fields()[c];
    w.u8(util::narrow_u8(c, "column id"));

    std::vector<bool> absent(rows, false);
    std::size_t absent_count = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      absent[r] = cell_absent(col, r);
      if (absent[r]) ++absent_count;
    }

    if (field.type == data::ColumnType::kCategorical) {
      w.u8(kTagCategorical);
      write_presence(w, absent, absent_count);
      const std::vector<std::string>& dict = col.categories();
      w.u16(util::narrow_u16(dict.size(), "category dictionary size"));
      for (const std::string& label : dict) {
        w.u8(util::narrow_u8(label.size(), "category label length"));
        for (char ch : label) {
          w.u8(util::narrow_u8(static_cast<unsigned char>(ch), "label byte"));
        }
      }
      for (std::size_t r = 0; r < rows; ++r) {
        if (!absent[r]) w.varint_u64(col.category(r));
      }
      continue;
    }

    std::vector<double> present_values;
    present_values.reserve(rows - absent_count);
    for (std::size_t r = 0; r < rows; ++r) {
      if (!absent[r]) present_values.push_back(col.numeric(r));
    }
    auto [tag, payload] = encode_stream(present_values, field.scale_bits);
    w.u8(tag);
    write_presence(w, absent, absent_count);
    for (std::uint8_t b : payload) w.u8(b);
  }

  // Provenance timestamps ride delta-encoded at the widest field scale —
  // the 8-bytes-per-origin the legacy wire model charges collapses to ~1.
  std::uint8_t origin_scale = 0;
  for (const FieldSpec& f : schema.fields()) {
    if (f.scale_bits > origin_scale) origin_scale = f.scale_bits;
  }
  w.u32(util::narrow_u32(origin_s.size(), "origin count"));
  w.u8(origin_scale);
  auto [origin_tag, origin_payload] = encode_stream(origin_s, origin_scale);
  w.u8(origin_tag);
  for (std::uint8_t b : origin_payload) w.u8(b);

  const std::uint32_t trailer = util::fnv1a(w.bytes().data(), w.size());
  w.u32(trailer);
  return w.take();
}

bool frame_intact(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kFrameOverheadBytes) return false;
  for (std::size_t i = 0; i < 4; ++i) {
    if (bytes[i] != kFrameMagic[i]) return false;
  }
  if (bytes[4] != kFrameVersion) return false;
  const std::size_t body = bytes.size() - 4;
  std::uint32_t stamped = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    stamped |= static_cast<std::uint32_t>(bytes[body + i]) << (8 * i);
  }
  return util::fnv1a(bytes.data(), body) == stamped;
}

Frame decode_frame(const std::vector<std::uint8_t>& bytes, SchemaRegistry& registry) {
  IOTML_CHECK(frame_intact(bytes),
              "tdf: damaged frame (bad magic, version or checksum)");
  ByteReader r(bytes.data(), bytes.size() - 4);  // trailer verified above

  Frame frame;
  for (std::size_t i = 0; i < 4; ++i) r.u8();  // magic
  r.u8();                                      // version
  const std::uint8_t flags = r.u8();
  IOTML_CHECK((flags & ~kFlagSchemaInline) == 0, "tdf: unknown frame flags");
  frame.schema_inline = (flags & kFlagSchemaInline) != 0;
  frame.schema_id = r.u32();
  frame.device_id = r.u32();
  frame.seq = r.u32();
  const std::size_t rows = r.u16();
  const std::size_t cols = r.u16();

  const Schema* schema = nullptr;
  Schema inline_schema;
  if (frame.schema_inline) {
    const std::size_t blob_len = r.u16();
    inline_schema = Schema::decode(r, blob_len);
    IOTML_CHECK(inline_schema.id() == frame.schema_id,
                "tdf: inline schema does not hash to the frame's schema id");
    registry.add(inline_schema);  // idempotent session open
    schema = &inline_schema;
  } else {
    schema = registry.find(frame.schema_id);
    IOTML_CHECK(schema != nullptr, "tdf: frame references an unnegotiated schema");
  }
  IOTML_CHECK(schema->size() == cols, "tdf: frame column count disagrees with schema");

  for (std::size_t c = 0; c < cols; ++c) {
    const FieldSpec& field = schema->fields()[c];
    const std::size_t column_id = r.u8();
    IOTML_CHECK(column_id == c, "tdf: column blocks out of order");
    const std::uint8_t tag = r.u8();

    data::Column& col = field.type == data::ColumnType::kNumeric
                            ? frame.rows.add_numeric_column(field.name)
                            : frame.rows.add_categorical_column(field.name);
    const std::vector<bool> present = read_presence(r, rows);
    std::size_t present_count = 0;
    for (std::size_t i = 0; i < rows; ++i) {
      if (present[i]) ++present_count;
    }

    if (field.type == data::ColumnType::kCategorical) {
      IOTML_CHECK(tag == kTagCategorical, "tdf: bad tag for categorical column");
      const std::size_t dict_size = r.u16();
      std::vector<std::string> dict;
      dict.reserve(r.count(dict_size, 1));  // each label has a length byte
      for (std::size_t i = 0; i < dict_size; ++i) {
        const std::size_t len = r.u8();
        std::string label;
        label.reserve(len);
        for (std::size_t j = 0; j < len; ++j) label.push_back(static_cast<char>(r.u8()));
        // Re-intern in dictionary order so category codes replay exactly.
        const std::size_t code = col.intern(label);
        IOTML_CHECK(code == i, "tdf: duplicate category label in dictionary");
        dict.push_back(std::move(label));
      }
      for (std::size_t row = 0; row < rows; ++row) {
        if (!present[row]) {
          col.push_missing();
          continue;
        }
        const std::uint64_t code = r.varint_u64();
        IOTML_CHECK(code < dict.size(), "tdf: category code outside dictionary");
        col.push_category(dict[static_cast<std::size_t>(code)]);
      }
      continue;
    }

    const std::vector<double> values =
        decode_stream(r, tag, field.scale_bits, present_count);
    std::size_t next = 0;
    for (std::size_t row = 0; row < rows; ++row) {
      if (present[row]) {
        col.push_numeric(values[next++]);
      } else {
        col.push_missing();
      }
    }
  }

  const std::size_t origin_count = r.u32();
  const std::uint8_t origin_scale = r.u8();
  const std::uint8_t origin_tag = r.u8();
  frame.origin_s = decode_stream(r, origin_tag, origin_scale, origin_count);
  IOTML_CHECK(r.done(), "tdf: trailing bytes after frame body");
  return frame;
}

}  // namespace iotml::tdf

#include "tdf/schema.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/fnv.hpp"

namespace iotml::tdf {

namespace {

std::vector<std::uint8_t> encode_fields(const std::vector<FieldSpec>& fields) {
  util::ByteWriter w;
  w.u8(util::narrow_u8(fields.size(), "schema field count"));
  for (const FieldSpec& f : fields) {
    IOTML_CHECK(!f.name.empty(), "Schema: empty field name");
    w.u8(util::narrow_u8(f.name.size(), "schema field name length"));
    for (char c : f.name) w.u8(util::narrow_u8(static_cast<unsigned char>(c), "name byte"));
    w.u8(f.type == data::ColumnType::kNumeric ? 1 : 2);
    w.u8(f.scale_bits);
  }
  return w.take();
}

}  // namespace

Schema::Schema(std::vector<FieldSpec> fields) : fields_(std::move(fields)) {
  blob_ = encode_fields(fields_);
  id_ = fnv1a32(blob_.data(), blob_.size());
}

Schema Schema::infer(const data::Dataset& ds, std::uint8_t scale_bits) {
  std::vector<FieldSpec> fields;
  fields.reserve(ds.num_columns());
  for (std::size_t c = 0; c < ds.num_columns(); ++c) {
    const data::Column& col = ds.column(c);
    FieldSpec f;
    f.name = col.name();
    f.type = col.type();
    f.scale_bits = col.type() == data::ColumnType::kNumeric ? scale_bits : 0;
    fields.push_back(std::move(f));
  }
  return Schema(std::move(fields));
}

Schema Schema::decode(util::ByteReader& reader, std::size_t blob_size) {
  const std::size_t end = reader.position() + blob_size;
  IOTML_CHECK(blob_size <= reader.remaining(), "Schema: truncated blob");
  const std::size_t count = reader.u8();
  std::vector<FieldSpec> fields;
  fields.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FieldSpec f;
    const std::size_t name_len = reader.u8();
    f.name.reserve(name_len);
    for (std::size_t j = 0; j < name_len; ++j) {
      f.name.push_back(static_cast<char>(reader.u8()));
    }
    const std::uint8_t type = reader.u8();
    IOTML_CHECK(type == 1 || type == 2, "Schema: unknown field type tag");
    f.type = type == 1 ? data::ColumnType::kNumeric : data::ColumnType::kCategorical;
    f.scale_bits = reader.u8();
    IOTML_CHECK(f.scale_bits <= 52, "Schema: scale_bits exceeds double mantissa");
    fields.push_back(std::move(f));
  }
  IOTML_CHECK(reader.position() == end, "Schema: blob length mismatch");
  return Schema(std::move(fields));
}

bool SchemaRegistry::add(const Schema& schema) {
  IOTML_CHECK(schema.size() > 0, "SchemaRegistry: empty schema");
  return schemas_.emplace(schema.id(), schema).second;
}

const Schema* SchemaRegistry::find(std::uint32_t id) const {
  const auto it = schemas_.find(id);
  return it == schemas_.end() ? nullptr : &it->second;
}

}  // namespace iotml::tdf

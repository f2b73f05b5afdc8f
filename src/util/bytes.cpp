#include "util/bytes.hpp"

#include <bit>
#include <limits>

#include "util/error.hpp"
#include "util/fnv.hpp"

namespace iotml::util {

void ByteWriter::u16(std::uint16_t v) {
  bytes_.push_back(static_cast<std::uint8_t>(v & 0xFFU));
  bytes_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFFU));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFFU));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFFU));
  }
}

void ByteWriter::i8(std::int8_t v) { u8(static_cast<std::uint8_t>(v)); }
void ByteWriter::i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
void ByteWriter::f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(const std::string& s) {
  u32(narrow_u32(s.size(), "string length"));
  for (char c : s) bytes_.push_back(static_cast<std::uint8_t>(c));
}

void ByteWriter::varint_u64(std::uint64_t v) {
  while (v >= 0x80U) {
    bytes_.push_back(static_cast<std::uint8_t>((v & 0x7FU) | 0x80U));
    v >>= 7;
  }
  bytes_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::varint_i64(std::int64_t v) {
  // ZigZag: arithmetic shift keeps the mapping branch-free and total.
  varint_u64((static_cast<std::uint64_t>(v) << 1) ^
             static_cast<std::uint64_t>(v >> 63));
}

void ByteReader::need(std::size_t n) const {
  IOTML_CHECK(n <= size_ - pos_, "ByteReader: truncated artifact (read past end)");
}

std::size_t ByteReader::count(std::uint64_t n, std::size_t min_bytes) const {
  IOTML_CHECK(min_bytes >= 1, "ByteReader: element size must be positive");
  IOTML_CHECK(n <= remaining() / min_bytes,
              "ByteReader: element count exceeds the bytes left");
  return static_cast<std::size_t>(n);
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  const std::uint16_t v = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(data_[pos_]) |
      static_cast<std::uint16_t>(static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::int8_t ByteReader::i8() { return static_cast<std::int8_t>(u8()); }
std::int16_t ByteReader::i16() { return static_cast<std::int16_t>(u16()); }
float ByteReader::f32() { return std::bit_cast<float>(u32()); }
double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);  // codec-sanctioned
  pos_ += n;
  return s;
}

std::uint64_t ByteReader::varint_u64() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    const std::uint8_t byte = u8();
    IOTML_CHECK(shift < 64, "ByteReader: varint wider than 64 bits");
    IOTML_CHECK(shift != 63 || (byte & 0x7EU) == 0,
                "ByteReader: varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(byte & 0x7FU) << shift;
    if ((byte & 0x80U) == 0) return v;
  }
  throw InvalidArgument("ByteReader: unterminated varint");
}

std::int64_t ByteReader::varint_i64() {
  const std::uint64_t z = varint_u64();
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

std::uint8_t narrow_u8(std::size_t v, const char* what) {
  IOTML_CHECK(v <= 0xFFU, std::string("narrow_u8: ") + what + " out of range");
  return static_cast<std::uint8_t>(v);
}

std::uint16_t narrow_u16(std::size_t v, const char* what) {
  IOTML_CHECK(v <= 0xFFFFU, std::string("narrow_u16: ") + what + " out of range");
  return static_cast<std::uint16_t>(v);
}

std::uint32_t narrow_u32(std::size_t v, const char* what) {
  IOTML_CHECK(v <= 0xFFFFFFFFU, std::string("narrow_u32: ") + what + " out of range");
  return static_cast<std::uint32_t>(v);
}

std::int8_t narrow_i8(long long v, const char* what) {
  IOTML_CHECK(v >= std::numeric_limits<std::int8_t>::min() &&
                  v <= std::numeric_limits<std::int8_t>::max(),
              std::string("narrow_i8: ") + what + " out of range");
  return static_cast<std::int8_t>(v);
}

std::int16_t narrow_i16(long long v, const char* what) {
  IOTML_CHECK(v >= std::numeric_limits<std::int16_t>::min() &&
                  v <= std::numeric_limits<std::int16_t>::max(),
              std::string("narrow_i16: ") + what + " out of range");
  return static_cast<std::int16_t>(v);
}

std::uint32_t fnv1a(const std::uint8_t* data, std::size_t size) {
  return iotml::fnv1a32(data, size);
}

}  // namespace iotml::util

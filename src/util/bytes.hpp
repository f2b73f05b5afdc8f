#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace iotml::util {

/// The one sanctioned place for byte-level narrowing in wire serialization
/// (invariant lint rule R7 bans reinterpret_cast everywhere and unchecked
/// narrow casts in serialization code outside this file). Every multi-byte
/// value is written little-endian with explicit shifts, so the encoding is
/// identical on every architecture, compiler and sanitizer preset — the
/// deploy-artifact, ota-patch and tdf-frame golden bytes are all pinned in
/// tests/golden/ against this writer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i8(std::int8_t v);
  void i16(std::int16_t v);
  void f32(float v);
  void f64(double v);

  /// u32 length prefix + raw UTF-8 bytes.
  void str(const std::string& s);

  /// LEB128 varint: 7 value bits per byte, low bits first, high bit set on
  /// every byte but the last. Small magnitudes cost one byte; a full
  /// 64-bit value costs ten. The telemetry codec's workhorse.
  void varint_u64(std::uint64_t v);

  /// ZigZag-mapped signed varint: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...,
  /// so small deltas of either sign stay one byte.
  void varint_i64(std::int64_t v);

  std::size_t size() const noexcept { return bytes_.size(); }
  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader over an encoded artifact or frame.
/// Every read past the end throws InvalidArgument (a truncated or corrupt
/// buffer must never crash a device), so decode failures are catchable
/// library errors.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {
    IOTML_CHECK(data != nullptr || size == 0, "ByteReader: null data with nonzero size");
  }
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int8_t i8();
  std::int16_t i16();
  float f32();
  double f64();
  std::string str();

  /// LEB128 varint; throws InvalidArgument on truncation or a value wider
  /// than 64 bits (more than ten continuation bytes).
  std::uint64_t varint_u64();
  std::int64_t varint_i64();

  /// `n`, once `n` elements of at least `min_bytes` each are known to fit
  /// in the bytes left: decoders size buffers only from counts the input
  /// can back. Throws InvalidArgument otherwise.
  std::size_t count(std::uint64_t n, std::size_t min_bytes) const;

  std::size_t position() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return size_ - pos_; }
  bool done() const noexcept { return pos_ == size_; }

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Byte view of a uint8-backed enum for encoding. Lossless by construction;
/// lives here so rule R7 can ban bare narrowing static_casts in the rest of
/// the serialization code.
template <typename E>
constexpr std::uint8_t enum_u8(E e) noexcept {
  static_assert(std::is_enum_v<E> && sizeof(E) == 1);
  return static_cast<std::uint8_t>(e);  // codec-sanctioned
}

/// Checked narrowing for wire fields: throws InvalidArgument when the value
/// does not fit, instead of silently wrapping. Serialization code outside
/// this header must use these rather than bare static_casts (R7).
std::uint8_t narrow_u8(std::size_t v, const char* what);
std::uint16_t narrow_u16(std::size_t v, const char* what);
std::uint32_t narrow_u32(std::size_t v, const char* what);
std::int8_t narrow_i8(long long v, const char* what);
std::int16_t narrow_i16(long long v, const char* what);

/// FNV-1a over a byte range — the trailer checksum of every wire format in
/// the tree. Delegates to the shared iotml::fnv1a32 (src/util/fnv.hpp), the
/// one implementation the net payload checksum and the ota patch codec also
/// use.
std::uint32_t fnv1a(const std::uint8_t* data, std::size_t size);

}  // namespace iotml::util

#pragma once

#include <cstddef>
#include <cstdint>

namespace iotml {

/// FNV-1a, the repo's one non-cryptographic integrity hash. Three call sites
/// share this header so their constants can never drift apart: the
/// net::payload_checksum row-frame stamp (64-bit, word-fed), the deploy artifact
/// trailer (32-bit over the encoded bytes) and the ota patch codec (32-bit
/// per chunk and per image). It catches truncation and bit rot on the
/// simulated wire; it is not a defense against an adversary.

inline constexpr std::uint32_t kFnv32Basis = 0x811C9DC5U;
inline constexpr std::uint32_t kFnv32Prime = 0x01000193U;
inline constexpr std::uint64_t kFnv64Basis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnv64Prime = 1099511628211ULL;

/// Fold one byte into a running 32-bit FNV-1a state.
inline constexpr std::uint32_t fnv1a32_byte(std::uint32_t h, std::uint8_t b) {
  return (h ^ b) * kFnv32Prime;
}

/// Fold one byte into a running 64-bit FNV-1a state.
inline constexpr std::uint64_t fnv1a64_byte(std::uint64_t h, std::uint8_t b) {
  return (h ^ b) * kFnv64Prime;
}

/// One-shot 32-bit FNV-1a over a byte range. Hash of the empty range is the
/// offset basis — the ota codec uses that as the "no base image" checksum.
inline constexpr std::uint32_t fnv1a32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t h = kFnv32Basis;
  for (std::size_t i = 0; i < size; ++i) h = fnv1a32_byte(h, data[i]);
  return h;
}

/// One-shot 64-bit FNV-1a over a byte range.
inline constexpr std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = kFnv64Basis;
  for (std::size_t i = 0; i < size; ++i) h = fnv1a64_byte(h, data[i]);
  return h;
}

/// Fold a 64-bit word into a running 64-bit state, little-endian bytewise —
/// the feeding order net::payload_checksum has always used, kept stable so
/// checksums of identical payloads replay across PRs.
inline constexpr std::uint64_t fnv1a64_word(std::uint64_t h, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    h = fnv1a64_byte(h, static_cast<std::uint8_t>((v >> shift) & 0xFFU));
  }
  return h;
}

}  // namespace iotml

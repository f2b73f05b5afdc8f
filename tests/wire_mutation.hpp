#pragma once

// Count-inflation mutants for the tree's wire formats. Every format (TDF
// frames, IOTP patches, IOML artifacts) ends in a little-endian FNV-1a
// trailer over the bytes before it, so a mutant whose trailer is re-stamped
// gets past the checksum to the parser proper.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace iotml::wire_mutation {

/// `bytes` with 0xFF written over [at, at + 4) — the widest count or length
/// a u32 field can claim — and the trailer re-stamped.
inline std::vector<std::uint8_t> inflated(std::vector<std::uint8_t> bytes, std::size_t at) {
  for (std::size_t i = at; i < at + 4; ++i) bytes[i] = 0xFF;
  const std::size_t body = bytes.size() - 4;
  const std::uint32_t sum = util::fnv1a(bytes.data(), body);
  for (std::size_t i = 0; i < 4; ++i) bytes[body + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  return bytes;
}

/// Runs `decode` on the inflated mutant of every 4-byte window before the
/// trailer. A mutant must decode or throw InvalidArgument; returns one line
/// per mutant that threw anything else (std::bad_alloc from a buffer sized
/// by an unchecked count, say).
template <typename Decode>
std::vector<std::string> escapes(const std::vector<std::uint8_t>& bytes, Decode decode) {
  std::vector<std::string> out;
  for (std::size_t at = 0; at + 8 <= bytes.size(); ++at) {
    try {
      decode(inflated(bytes, at));
    } catch (const InvalidArgument&) {
    } catch (const std::exception& e) {
      out.push_back("window at byte " + std::to_string(at) + ": " + e.what());
    }
  }
  return out;
}

}  // namespace iotml::wire_mutation

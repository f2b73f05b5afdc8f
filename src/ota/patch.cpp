#include "ota/patch.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "deploy/codec.hpp"
#include "util/error.hpp"

namespace iotml::ota {

using deploy::ByteReader;
using deploy::ByteWriter;
using deploy::narrow_u32;

namespace {

constexpr std::uint8_t kMagic[4] = {'I', 'O', 'T', 'P'};
constexpr std::uint16_t kWireVersion = 1;

std::uint32_t seed_key(const std::uint8_t* p, std::size_t n) {
  // Little-endian packing of up to 4 seed bytes; seeds are only compared
  // for equality so any stable injective packing works.
  std::uint32_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    k |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return k;
}

}  // namespace

std::uint32_t image_checksum(const std::vector<std::uint8_t>& image) {
  return fnv1a32(image.data(), image.size());
}

std::size_t Patch::literal_bytes() const noexcept {
  std::size_t total = 0;
  for (const PatchOp& op : ops) {
    if (op.kind == OpKind::kData) total += op.length;
  }
  return total;
}

std::vector<std::uint8_t> Patch::encode() const {
  ByteWriter w;
  for (std::uint8_t m : kMagic) w.u8(m);
  w.u16(version);
  w.u32(base_checksum);
  w.u32(target_checksum);
  w.u32(target_size);
  w.u32(narrow_u32(ops.size(), "patch op count"));
  for (const PatchOp& op : ops) {
    w.u8(deploy::enum_u8(op.kind));
    w.u32(op.length);
    if (op.kind == OpKind::kCopy) {
      w.u32(op.base_offset);
    } else {
      IOTML_INTERNAL_CHECK(op.data.size() == op.length,
                           "Patch::encode: data op length mismatch");
      for (std::uint8_t b : op.data) w.u8(b);
    }
  }
  const std::uint32_t trailer = fnv1a32(w.bytes().data(), w.size());
  w.u32(trailer);
  return w.take();
}

Patch Patch::decode(const std::vector<std::uint8_t>& bytes) {
  IOTML_CHECK(bytes.size() >= 22, "Patch::decode: truncated patch");
  const std::uint32_t expect = fnv1a32(bytes.data(), bytes.size() - 4);
  ByteReader trailer(bytes.data() + bytes.size() - 4, 4);
  IOTML_CHECK(trailer.u32() == expect,
              "Patch::decode: checksum mismatch (corrupt patch)");

  ByteReader r(bytes.data(), bytes.size() - 4);
  for (std::uint8_t m : kMagic) {
    IOTML_CHECK(r.u8() == m, "Patch::decode: bad magic (not an IOTP patch)");
  }
  Patch p;
  p.version = r.u16();
  IOTML_CHECK(p.version == kWireVersion, "Patch::decode: unsupported patch version");
  p.base_checksum = r.u32();
  p.target_checksum = r.u32();
  p.target_size = r.u32();
  const std::uint32_t count = r.u32();
  p.ops.reserve(r.count(count, 5));  // an op is at least kind + length
  std::uint64_t produced = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    PatchOp op;
    const std::uint8_t kind = r.u8();
    IOTML_CHECK(kind == deploy::enum_u8(OpKind::kCopy) ||
                    kind == deploy::enum_u8(OpKind::kData),
                "Patch::decode: unknown op kind");
    op.kind = kind == deploy::enum_u8(OpKind::kCopy) ? OpKind::kCopy : OpKind::kData;
    op.length = r.u32();
    if (op.kind == OpKind::kCopy) {
      op.base_offset = r.u32();
    } else {
      op.data.reserve(r.count(op.length, 1));
      for (std::uint32_t b = 0; b < op.length; ++b) op.data.push_back(r.u8());
    }
    produced += op.length;
    p.ops.push_back(std::move(op));
  }
  IOTML_CHECK(r.done(), "Patch::decode: trailing bytes after ops");
  IOTML_CHECK(produced == p.target_size,
              "Patch::decode: ops do not produce target_size bytes");
  return p;
}

std::size_t Patch::size_bytes() const {
  // Header (magic 4 + version 2 + checksums 8 + size 4 + count 4) + ops +
  // trailer 4; each op is kind 1 + length 4 + (offset 4 | data).
  std::size_t bytes = 4 + 2 + 4 + 4 + 4 + 4 + 4;
  for (const PatchOp& op : ops) {
    bytes += 1 + 4 + (op.kind == OpKind::kCopy ? 4 : op.data.size());
  }
  return bytes;
}

std::vector<std::uint8_t> Patch::apply(const std::vector<std::uint8_t>& base) const {
  IOTML_CHECK(image_checksum(base) == base_checksum,
              "Patch::apply: base image does not match the patch's base checksum");
  // Reserve what the ops can produce, never just what the header claims.
  std::uint64_t producible = 0;
  for (const PatchOp& op : ops) {
    producible += op.kind == OpKind::kCopy ? std::min<std::uint64_t>(op.length, base.size())
                                           : op.data.size();
  }
  std::vector<std::uint8_t> target;
  target.reserve(std::min<std::uint64_t>(target_size, producible));
  for (const PatchOp& op : ops) {
    if (op.kind == OpKind::kCopy) {
      IOTML_CHECK(static_cast<std::uint64_t>(op.base_offset) + op.length <= base.size(),
                  "Patch::apply: copy op reads past the base image");
      target.insert(target.end(), base.begin() + op.base_offset,
                    base.begin() + op.base_offset + op.length);
    } else {
      target.insert(target.end(), op.data.begin(), op.data.end());
    }
  }
  IOTML_CHECK(target.size() == target_size,
              "Patch::apply: rebuilt image has the wrong size");
  IOTML_CHECK(image_checksum(target) == target_checksum,
              "Patch::apply: rebuilt image fails the target checksum");
  return target;
}

Patch diff(const std::vector<std::uint8_t>& base,
           const std::vector<std::uint8_t>& target, DiffParams params) {
  IOTML_CHECK(params.seed_bytes >= 1 && params.seed_bytes <= 4,
              "ota::diff: seed_bytes must be in [1, 4]");
  IOTML_CHECK(params.min_match >= params.seed_bytes,
              "ota::diff: min_match must be >= seed_bytes");
  IOTML_CHECK(base.size() <= std::numeric_limits<std::uint32_t>::max() &&
                  target.size() <= std::numeric_limits<std::uint32_t>::max(),
              "ota::diff: image exceeds the u32 wire range");

  Patch p;
  p.base_checksum = image_checksum(base);
  p.target_checksum = image_checksum(target);
  p.target_size = narrow_u32(target.size(), "patch target size");

  // Index every base position by its seed window. Positions are kept in
  // ascending order; candidate lists are scanned newest-first so long
  // repeated regions prefer nearby (cache-friendly) copies.
  // det-sanctioned: key-lookup only, never iterated; per-key position lists are append-ordered
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> index;
  if (base.size() >= params.seed_bytes) {
    for (std::size_t i = 0; i + params.seed_bytes <= base.size(); ++i) {
      index[seed_key(base.data() + i, params.seed_bytes)].push_back(
          narrow_u32(i, "diff base offset"));
    }
  }

  std::vector<std::uint8_t> pending;  // literal run being accumulated
  auto flush_pending = [&]() {
    if (pending.empty()) return;
    PatchOp op;
    op.kind = OpKind::kData;
    op.length = narrow_u32(pending.size(), "diff literal length");
    op.data = std::move(pending);
    pending.clear();
    p.ops.push_back(std::move(op));
  };

  std::size_t t = 0;
  while (t < target.size()) {
    std::size_t best_len = 0;
    std::size_t best_off = 0;
    if (t + params.seed_bytes <= target.size() && !index.empty()) {
      const auto it = index.find(seed_key(target.data() + t, params.seed_bytes));
      if (it != index.end()) {
        // Cap candidate scanning so pathological inputs (one repeated byte)
        // stay linear; 16 candidates is plenty for artifact-sized images.
        std::size_t scanned = 0;
        for (auto cand = it->second.rbegin();
             cand != it->second.rend() && scanned < 16; ++cand, ++scanned) {
          const std::size_t b = *cand;
          std::size_t len = 0;
          while (b + len < base.size() && t + len < target.size() &&
                 base[b + len] == target[t + len]) {
            ++len;
          }
          if (len > best_len) {
            best_len = len;
            best_off = b;
          }
        }
      }
    }
    if (best_len >= params.min_match) {
      flush_pending();
      PatchOp op;
      op.kind = OpKind::kCopy;
      op.base_offset = narrow_u32(best_off, "diff copy offset");
      op.length = narrow_u32(best_len, "diff copy length");
      p.ops.push_back(op);
      t += best_len;
    } else {
      pending.push_back(target[t]);
      ++t;
    }
  }
  flush_pending();
  return p;
}

}  // namespace iotml::ota

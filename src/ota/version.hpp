#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ota/patch.hpp"

namespace iotml::ota {

/// One link of the fleet's version chain: version `id` was built by patching
/// the image whose checksum is `base_checksum` into the image whose checksum
/// is `target_checksum`. The chain starts at the empty image (checksum
/// kEmptyImageChecksum), so a device can always report where it stands with
/// a single checksum and the core can always tell which patch — if any —
/// moves it forward.
struct VersionLink {
  std::uint32_t id = 0;
  std::uint32_t base_checksum = kEmptyImageChecksum;
  std::uint32_t target_checksum = kEmptyImageChecksum;
  std::uint32_t image_bytes = 0;   ///< size of the target image
  std::uint32_t patch_bytes = 0;   ///< encoded delta size (vs. this base)
};

/// Core-side append-only history of *promoted* versions. Candidate ids are
/// allocated by the rollout controller before the canary verdict; only a
/// promoted candidate enters the chain, so ids may skip (a gap is a rolled
/// back or superseded candidate). Id 0 is reserved for "unprovisioned" (the
/// empty image).
class VersionChain {
 public:
  /// Append a promoted version built against the current head. Throws
  /// InvalidArgument unless `id` is nonzero and greater than the head's
  /// (ids are monotone along the chain).
  void append(std::uint32_t id, std::uint32_t target_checksum,
              std::uint32_t image_bytes, std::uint32_t patch_bytes);

  /// Drop the head link (a promoted version later found bad). The id is
  /// retired, never reused, so the deploy ledger's version histogram stays
  /// unambiguous.
  void retire_head();

  bool empty() const noexcept { return links_.empty(); }
  std::size_t size() const noexcept { return links_.size(); }
  const std::vector<VersionLink>& links() const noexcept { return links_; }

  /// Checksum of the current head image (kEmptyImageChecksum when empty).
  std::uint32_t head_checksum() const noexcept;
  /// Id of the current head (0 when empty).
  std::uint32_t head_id() const noexcept;

 private:
  std::vector<VersionLink> links_;
};

/// Device-side image storage with commit-after-verification semantics: the
/// running image only ever changes in commit(), which requires a fully
/// checksum-verified replacement — so a crash or interrupted transfer at any
/// moment leaves the device on a consistent, verified version. The previous
/// image is retained, making rollback a local operation with zero downlink
/// cost.
class DeviceImageStore {
 public:
  bool provisioned() const noexcept { return current_id_ != 0; }
  std::uint32_t current_id() const noexcept { return current_id_; }
  std::uint32_t current_checksum() const noexcept;
  const std::vector<std::uint8_t>& current_image() const noexcept { return current_; }
  bool has_previous() const noexcept { return previous_id_ != 0; }
  std::uint32_t previous_id() const noexcept { return previous_id_; }

  /// Atomically install `image` as version `id`. Throws InvalidArgument
  /// unless the image hashes to `expected_checksum` — an unverified image
  /// can never become the running one.
  void commit(std::uint32_t id, std::vector<std::uint8_t> image,
              std::uint32_t expected_checksum);

  /// Swap back to the retained previous image. Throws InvalidArgument when
  /// there is none. The abandoned image becomes the new "previous" so a
  /// re-promote is equally free.
  void rollback();

 private:
  std::uint32_t current_id_ = 0;
  std::uint32_t previous_id_ = 0;
  std::vector<std::uint8_t> current_;
  std::vector<std::uint8_t> previous_;
};

}  // namespace iotml::ota

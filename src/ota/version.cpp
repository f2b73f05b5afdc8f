#include "ota/version.hpp"

#include <utility>

#include "util/error.hpp"

namespace iotml::ota {

void VersionChain::append(std::uint32_t id, std::uint32_t target_checksum,
                          std::uint32_t image_bytes, std::uint32_t patch_bytes) {
  IOTML_CHECK(id != 0, "VersionChain::append: id 0 is reserved");
  IOTML_CHECK(id > head_id(), "VersionChain::append: ids must be monotone");
  VersionLink link;
  link.id = id;
  link.base_checksum = head_checksum();
  link.target_checksum = target_checksum;
  link.image_bytes = image_bytes;
  link.patch_bytes = patch_bytes;
  links_.push_back(link);
}

void VersionChain::retire_head() {
  IOTML_CHECK(!links_.empty(), "VersionChain::retire_head: chain is empty");
  links_.pop_back();
}

std::uint32_t VersionChain::head_checksum() const noexcept {
  return links_.empty() ? kEmptyImageChecksum : links_.back().target_checksum;
}

std::uint32_t VersionChain::head_id() const noexcept {
  return links_.empty() ? 0 : links_.back().id;
}

std::uint32_t DeviceImageStore::current_checksum() const noexcept {
  return current_id_ == 0 ? kEmptyImageChecksum : image_checksum(current_);
}

void DeviceImageStore::commit(std::uint32_t id, std::vector<std::uint8_t> image,
                              std::uint32_t expected_checksum) {
  IOTML_CHECK(id != 0, "DeviceImageStore::commit: id 0 is reserved");
  IOTML_CHECK(image_checksum(image) == expected_checksum,
              "DeviceImageStore::commit: image fails its checksum");
  previous_ = std::move(current_);
  previous_id_ = current_id_;
  current_ = std::move(image);
  current_id_ = id;
}

void DeviceImageStore::rollback() {
  IOTML_CHECK(has_previous(), "DeviceImageStore::rollback: no previous image");
  std::swap(current_, previous_);
  std::swap(current_id_, previous_id_);
}

}  // namespace iotml::ota

// One-sided-traversable leaf page layout (DESIGN.md §13). The shard
// serializes B+-tree leaves into an MR-registered page arena, one exact-fit
// block per leaf; clients RDMA-Read a page and validate it locally: magic,
// checksum over the encoded prefix, (leaf_id, leaf_version) against the
// hint that advertised the page, and the routing epoch stamped at
// serialization time. Any mismatch (torn read, freed or reused block, stale
// page, epoch advance) falls back to the message path, which is always
// correct.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hydra::index {

inline constexpr std::uint32_t kLeafPageMagic = 0x484C4631;  // "HLF1"
inline constexpr std::size_t kLeafPageHeaderBytes = 48;
inline constexpr std::uint32_t kLeafPageFlagLast = 1;  ///< no leaf follows on this shard

struct LeafPage {
  std::uint64_t leaf_id = 0;
  std::uint64_t leaf_version = 0;
  std::uint64_t epoch = 0;  ///< routing epoch at serialization time
  bool last = false;
  std::vector<std::pair<std::string, std::string>> entries;  ///< (key, value), sorted
};

/// Encoded size for the given entries, header included.
[[nodiscard]] std::size_t leaf_page_bytes(
    const std::vector<std::pair<std::string_view, std::string_view>>& entries);

/// Serializes a page into `out` (which may be larger; the slack past the
/// encoded prefix is ignored by the decoder). Returns false when `out` is
/// too small or an entry overflows the length fields.
bool encode_leaf_page(std::span<std::byte> out, std::uint64_t leaf_id,
                      std::uint64_t leaf_version, std::uint64_t epoch, bool last,
                      const std::vector<std::pair<std::string_view, std::string_view>>& entries);

/// Overwrites a page's header so no later read of the block decodes: the
/// shard poisons a block before freeing it, so an in-flight read of a freed
/// page fails closed instead of trusting whatever the block holds next.
void poison_leaf_page(std::span<std::byte> page) noexcept;

/// Hardened decode: every length is bounds-checked against the declared
/// payload, the checksum must match, and the entry region must be consumed
/// exactly. Returns nullopt on any inconsistency -- never a wild read.
[[nodiscard]] std::optional<LeafPage> decode_leaf_page(std::span<const std::byte> bytes);

}  // namespace hydra::index

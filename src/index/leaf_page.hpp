// One-sided-traversable leaf page layout (DESIGN.md §13). The shard
// serializes B+-tree leaves into an MR-registered page arena, one exact-fit
// block per leaf; clients RDMA-Read a page and validate it locally: magic,
// checksum over the encoded bytes, the leaf id the reader expected, and the
// routing epoch stamped at serialization time. The shard poisons a page's
// fixed prefix whenever its leaf changes, so a page that decodes is the
// leaf's current content. The header also names the successor leaf, flags
// the shard's first leaf and stamps the index's left-shift count, so a
// reader can walk the chain one-sidedly. Any mismatch (torn read, poisoned,
// freed or reused block, epoch advance) falls back to the message path,
// which is always correct.
//
// Pages are compact because a one-sided scan is bound by the bytes the
// server NIC sends: header fields are varints, and each key is front-coded
// against the previous one (LevelDB-block style).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hydra::index {

inline constexpr std::uint32_t kLeafPageMagic = 0x484C4632;  // "HLF2"
/// The fixed prefix: magic u32, then a u64 checksum of every encoded byte
/// after it. Everything past the prefix is varint-coded.
inline constexpr std::size_t kLeafPagePrefixBytes = 12;
inline constexpr std::uint64_t kLeafPageFlagLast = 1;   ///< no leaf follows on this shard
inline constexpr std::uint64_t kLeafPageFlagFirst = 2;  ///< no leaf precedes it on this shard

/// What a page says about its leaf, besides the entries.
struct LeafPageHeader {
  std::uint64_t leaf_id = 0;
  std::uint64_t leaf_version = 0;
  std::uint64_t epoch = 0;    ///< routing epoch at serialization time
  std::uint64_t next_id = 0;  ///< successor leaf on this shard; 0 on the last leaf
  /// OrderedIndex::left_shifts() at serialization time. A successor page
  /// stamped no later than this page lost no entry to its predecessor
  /// since this page was current.
  std::uint64_t left_shifts = 0;
  bool first = false;
};

struct LeafPage : LeafPageHeader {
  bool last = false;
  std::vector<std::pair<std::string, std::string>> entries;  ///< (key, value), sorted
};

using LeafPageEntries = std::vector<std::pair<std::string_view, std::string_view>>;

/// Exact encoded size of a page with this header and these entries.
[[nodiscard]] std::size_t leaf_page_bytes(const LeafPageHeader& header,
                                          const LeafPageEntries& entries);

/// Serializes a page into `out` (which may be larger; the decoder ignores
/// the slack past the encoded page). `next_id` 0 marks the last
/// leaf. Returns false when `out` is too small.
bool encode_leaf_page(std::span<std::byte> out, const LeafPageHeader& header,
                      const LeafPageEntries& entries);

/// Zeroes a page's fixed prefix so no later read of the block decodes: the
/// shard poisons a page when its leaf changes and before freeing its block,
/// so an in-flight read of a stale or freed page fails closed instead of
/// trusting whatever the block holds.
void poison_leaf_page(std::span<std::byte> page) noexcept;

/// Hardened decode: varints are canonical and at most 10 bytes, every
/// length is bounds-checked against the declared payload, the count is
/// bounded before any allocation, only known flags pass, a front-coded key
/// shares no more than the previous key holds, the checksum must match, and
/// the payload must be consumed exactly. Returns nullopt on any
/// inconsistency -- never a wild read.
[[nodiscard]] std::optional<LeafPage> decode_leaf_page(std::span<const std::byte> bytes);

}  // namespace hydra::index

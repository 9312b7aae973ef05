#include "index/leaf_page.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/hash.hpp"

namespace hydra::index {

namespace {

// Header layout (kLeafPageHeaderBytes = 64, little-endian):
//   [0]  magic          u32
//   [4]  count          u32
//   [8]  leaf_id        u64
//   [16] leaf_version   u64
//   [24] epoch          u64
//   [32] payload_bytes  u32   (entry region length, header excluded)
//   [36] flags          u32   (bit0: last leaf on this shard, set iff next_id
//                              is 0; bit1: first leaf on this shard)
//   [40] next_id        u64   (successor leaf id; 0 on the last leaf)
//   [48] left_shifts    u64   (the index's left-shift count at encode time)
//   [56] checksum       u64   (hash of header bytes [0, 56) and of the payload)
// Entries: repeated { klen u16, vlen u32, key bytes, value bytes }.
constexpr std::size_t kEntryOverhead = 6;
constexpr std::size_t kChecksumOffset = 56;
constexpr std::uint32_t kKnownFlags = kLeafPageFlagLast | kLeafPageFlagFirst;

void put_u16(std::byte* p, std::uint16_t v) { std::memcpy(p, &v, sizeof v); }
void put_u32(std::byte* p, std::uint32_t v) { std::memcpy(p, &v, sizeof v); }
void put_u64(std::byte* p, std::uint64_t v) { std::memcpy(p, &v, sizeof v); }

std::uint16_t get_u16(const std::byte* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
std::uint64_t get_u64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t page_checksum(std::span<const std::byte> encoded) {
  // The header up to the checksum field, then the payload: the field itself
  // never feeds its own hash.
  const std::uint64_t header = hash_bytes(encoded.data(), kChecksumOffset);
  const std::uint64_t payload = hash_bytes(encoded.data() + kLeafPageHeaderBytes,
                                           encoded.size() - kLeafPageHeaderBytes);
  return header ^ mix64(payload);
}

}  // namespace

std::size_t leaf_page_bytes(
    const std::vector<std::pair<std::string_view, std::string_view>>& entries) {
  std::size_t n = kLeafPageHeaderBytes;
  for (const auto& [k, v] : entries) n += kEntryOverhead + k.size() + v.size();
  return n;
}

bool encode_leaf_page(
    std::span<std::byte> out, std::uint64_t leaf_id, std::uint64_t leaf_version,
    std::uint64_t epoch, std::uint64_t next_id, std::uint64_t left_shifts, bool first,
    const std::vector<std::pair<std::string_view, std::string_view>>& entries) {
  const std::size_t total = leaf_page_bytes(entries);
  if (out.size() < total) return false;
  std::size_t off = kLeafPageHeaderBytes;
  for (const auto& [k, v] : entries) {
    if (k.size() > std::numeric_limits<std::uint16_t>::max() ||
        v.size() > std::numeric_limits<std::uint32_t>::max()) {
      return false;
    }
    put_u16(out.data() + off, static_cast<std::uint16_t>(k.size()));
    put_u32(out.data() + off + 2, static_cast<std::uint32_t>(v.size()));
    std::memcpy(out.data() + off + kEntryOverhead, k.data(), k.size());
    std::memcpy(out.data() + off + kEntryOverhead + k.size(), v.data(), v.size());
    off += kEntryOverhead + k.size() + v.size();
  }
  put_u32(out.data(), kLeafPageMagic);
  put_u32(out.data() + 4, static_cast<std::uint32_t>(entries.size()));
  put_u64(out.data() + 8, leaf_id);
  put_u64(out.data() + 16, leaf_version);
  put_u64(out.data() + 24, epoch);
  put_u32(out.data() + 32, static_cast<std::uint32_t>(total - kLeafPageHeaderBytes));
  put_u32(out.data() + 36,
          (next_id == 0 ? kLeafPageFlagLast : 0) | (first ? kLeafPageFlagFirst : 0));
  put_u64(out.data() + 40, next_id);
  put_u64(out.data() + 48, left_shifts);
  put_u64(out.data() + kChecksumOffset, page_checksum(out.first(total)));
  return true;
}

void poison_leaf_page(std::span<std::byte> page) noexcept {
  std::memset(page.data(), 0, std::min(page.size(), kLeafPageHeaderBytes));
}

std::optional<LeafPage> decode_leaf_page(std::span<const std::byte> bytes) {
  if (bytes.size() < kLeafPageHeaderBytes) return std::nullopt;
  if (get_u32(bytes.data()) != kLeafPageMagic) return std::nullopt;
  const std::uint32_t count = get_u32(bytes.data() + 4);
  const std::uint32_t payload_bytes = get_u32(bytes.data() + 32);
  if (payload_bytes > bytes.size() - kLeafPageHeaderBytes) return std::nullopt;
  // Each entry needs at least its length fields; reject absurd counts before
  // walking (or allocating for) the payload.
  if (static_cast<std::uint64_t>(count) * kEntryOverhead > payload_bytes) {
    return std::nullopt;
  }
  const std::uint32_t flags = get_u32(bytes.data() + 36);
  if ((flags & ~kKnownFlags) != 0) return std::nullopt;
  const std::uint64_t next_id = get_u64(bytes.data() + 40);
  if (((flags & kLeafPageFlagLast) != 0) != (next_id == 0)) return std::nullopt;

  const std::span<const std::byte> encoded =
      bytes.first(kLeafPageHeaderBytes + payload_bytes);
  if (get_u64(bytes.data() + kChecksumOffset) != page_checksum(encoded)) {
    return std::nullopt;
  }

  LeafPage page;
  page.leaf_id = get_u64(bytes.data() + 8);
  page.leaf_version = get_u64(bytes.data() + 16);
  page.epoch = get_u64(bytes.data() + 24);
  page.next_id = next_id;
  page.left_shifts = get_u64(bytes.data() + 48);
  page.first = (flags & kLeafPageFlagFirst) != 0;
  page.last = next_id == 0;
  page.entries.reserve(count);
  std::size_t off = kLeafPageHeaderBytes;
  const std::size_t end = kLeafPageHeaderBytes + payload_bytes;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (end - off < kEntryOverhead) return std::nullopt;
    const std::uint16_t klen = get_u16(bytes.data() + off);
    const std::uint32_t vlen = get_u32(bytes.data() + off + 2);
    off += kEntryOverhead;
    if (end - off < static_cast<std::size_t>(klen) + vlen) return std::nullopt;
    const char* kp = reinterpret_cast<const char*>(bytes.data() + off);
    const char* vp = kp + klen;
    page.entries.emplace_back(std::string(kp, klen), std::string(vp, vlen));
    off += static_cast<std::size_t>(klen) + vlen;
  }
  if (off != end) return std::nullopt;  // undeclared trailing bytes in the payload
  return page;
}

}  // namespace hydra::index

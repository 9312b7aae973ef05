#include "index/leaf_page.hpp"

#include <algorithm>
#include <cstring>

#include "common/hash.hpp"

namespace hydra::index {

namespace {

// Layout (little-endian fixed prefix, LEB128 varints after it):
//   [0]  magic     u32
//   [4]  checksum  u64  (hash_bytes of every encoded byte from [12] on)
//   [12] varints   count, leaf_id, leaf_version, epoch, flags (bit0: last
//                  leaf on this shard, set iff next_id is 0; bit1: first
//                  leaf on this shard), next_id, left_shifts, payload_bytes
//   payload        count x { shared, unshared, vlen varints, key suffix,
//                  value }, where a key is the previous key's first `shared`
//                  bytes followed by its `unshared` suffix bytes.
constexpr std::size_t kChecksumOffset = 4;
constexpr std::size_t kMaxVarintBytes = 10;  // 64 bits in 7-bit groups
constexpr std::size_t kMinEntryBytes = 3;    // three one-byte varints
constexpr std::uint64_t kKnownFlags = kLeafPageFlagLast | kLeafPageFlagFirst;

std::size_t varint_bytes(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

std::byte* put_varint(std::byte* p, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) *p++ = static_cast<std::byte>((v & 0x7F) | 0x80);
  *p++ = static_cast<std::byte>(v);
  return p;
}

/// Reads one canonical varint at `off`, advancing it. Fails on truncation,
/// on a value past 64 bits (which also bounds a varint to 10 bytes), and on
/// a non-minimal encoding (a trailing zero group).
bool get_varint(std::span<const std::byte> in, std::size_t& off, std::uint64_t& v) {
  v = 0;
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (off == in.size()) return false;
    const auto b = std::to_integer<std::uint64_t>(in[off++]);
    if (i == kMaxVarintBytes - 1 && b > 1) return false;
    v |= (b & 0x7F) << (7 * i);
    if ((b & 0x80) == 0) return b != 0 || i == 0;
  }
  return false;
}

std::size_t shared_prefix(std::string_view a, std::string_view b) {
  return static_cast<std::size_t>(std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
                                  a.begin());
}

std::uint64_t page_flags(const LeafPageHeader& h) {
  return (h.next_id == 0 ? kLeafPageFlagLast : 0) | (h.first ? kLeafPageFlagFirst : 0);
}

std::size_t payload_bytes(const LeafPageEntries& entries) {
  std::size_t n = 0;
  std::string_view prev;
  for (const auto& [k, v] : entries) {
    const std::size_t shared = shared_prefix(prev, k);
    n += varint_bytes(shared) + varint_bytes(k.size() - shared) + varint_bytes(v.size()) +
         (k.size() - shared) + v.size();
    prev = k;
  }
  return n;
}

std::size_t header_bytes(const LeafPageHeader& h, std::size_t count, std::size_t payload) {
  return kLeafPagePrefixBytes + varint_bytes(count) + varint_bytes(h.leaf_id) +
         varint_bytes(h.leaf_version) + varint_bytes(h.epoch) + varint_bytes(page_flags(h)) +
         varint_bytes(h.next_id) + varint_bytes(h.left_shifts) + varint_bytes(payload);
}

std::uint64_t page_checksum(std::span<const std::byte> encoded) {
  return hash_bytes(encoded.data() + kLeafPagePrefixBytes,
                    encoded.size() - kLeafPagePrefixBytes);
}

}  // namespace

std::size_t leaf_page_bytes(const LeafPageHeader& header, const LeafPageEntries& entries) {
  const std::size_t payload = payload_bytes(entries);
  return header_bytes(header, entries.size(), payload) + payload;
}

bool encode_leaf_page(std::span<std::byte> out, const LeafPageHeader& header,
                      const LeafPageEntries& entries) {
  const std::size_t payload = payload_bytes(entries);
  const std::size_t total = header_bytes(header, entries.size(), payload) + payload;
  if (out.size() < total) return false;
  const std::uint32_t magic = kLeafPageMagic;
  std::memcpy(out.data(), &magic, sizeof magic);
  std::byte* p = out.data() + kLeafPagePrefixBytes;
  for (const std::uint64_t field :
       {std::uint64_t{entries.size()}, header.leaf_id, header.leaf_version, header.epoch,
        page_flags(header), header.next_id, header.left_shifts, std::uint64_t{payload}}) {
    p = put_varint(p, field);
  }
  std::string_view prev;
  for (const auto& [k, v] : entries) {
    const std::size_t shared = shared_prefix(prev, k);
    p = put_varint(p, shared);
    p = put_varint(p, k.size() - shared);
    p = put_varint(p, v.size());
    std::memcpy(p, k.data() + shared, k.size() - shared);
    p += k.size() - shared;
    std::memcpy(p, v.data(), v.size());
    p += v.size();
    prev = k;
  }
  const std::uint64_t sum = page_checksum(out.first(total));
  std::memcpy(out.data() + kChecksumOffset, &sum, sizeof sum);
  return true;
}

void poison_leaf_page(std::span<std::byte> page) noexcept {
  std::memset(page.data(), 0, std::min(page.size(), kLeafPagePrefixBytes));
}

std::optional<LeafPage> decode_leaf_page(std::span<const std::byte> bytes) {
  if (bytes.size() < kLeafPagePrefixBytes) return std::nullopt;
  std::uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof magic);
  if (magic != kLeafPageMagic) return std::nullopt;

  std::size_t off = kLeafPagePrefixBytes;
  std::uint64_t count = 0;
  std::uint64_t flags = 0;
  std::uint64_t payload = 0;
  LeafPage page;
  for (std::uint64_t* field : {&count, &page.leaf_id, &page.leaf_version, &page.epoch, &flags,
                               &page.next_id, &page.left_shifts, &payload}) {
    if (!get_varint(bytes, off, *field)) return std::nullopt;
  }
  if (payload > bytes.size() - off) return std::nullopt;
  // Every entry takes at least its three length varints: reject absurd
  // counts before walking (or allocating for) the payload.
  if (count > payload / kMinEntryBytes) return std::nullopt;
  if ((flags & ~kKnownFlags) != 0) return std::nullopt;
  if (((flags & kLeafPageFlagLast) != 0) != (page.next_id == 0)) return std::nullopt;

  const std::size_t end = off + payload;
  std::uint64_t sum = 0;
  std::memcpy(&sum, bytes.data() + kChecksumOffset, sizeof sum);
  if (sum != page_checksum(bytes.first(end))) return std::nullopt;

  page.first = (flags & kLeafPageFlagFirst) != 0;
  page.last = page.next_id == 0;
  page.entries.reserve(count);
  const std::span<const std::byte> body = bytes.first(end);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t shared = 0;
    std::uint64_t unshared = 0;
    std::uint64_t vlen = 0;
    if (!get_varint(body, off, shared) || !get_varint(body, off, unshared) ||
        !get_varint(body, off, vlen)) {
      return std::nullopt;
    }
    const std::string_view prev =
        page.entries.empty() ? std::string_view{} : page.entries.back().first;
    if (shared > prev.size()) return std::nullopt;
    if (unshared > end - off || vlen > end - off - unshared) return std::nullopt;
    const char* suffix = reinterpret_cast<const char*>(bytes.data() + off);
    std::string key(prev.substr(0, shared));
    key.append(suffix, unshared);
    page.entries.emplace_back(std::move(key), std::string(suffix + unshared, vlen));
    off += unshared + vlen;
  }
  if (off != end) return std::nullopt;  // undeclared trailing bytes in the payload
  return page;
}

}  // namespace hydra::index

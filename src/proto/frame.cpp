#include "proto/frame.hpp"

#include <algorithm>
#include <cstring>

namespace hydra::proto {
namespace {

std::uint64_t make_head(std::uint16_t flags, std::uint32_t size) noexcept {
  return (static_cast<std::uint64_t>(kHeadMagic) << 48) |
         (static_cast<std::uint64_t>(flags) << 32) | size;
}

/// The tail echoes the head's flags; a flag-less frame's tail is the bare
/// indicator.
std::uint64_t make_tail(std::uint16_t flags) noexcept { return kTailIndicator ^ flags; }

std::uint64_t load_word(const std::byte* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

std::size_t encode_frame(std::span<std::byte> dst, std::span<const std::byte> payload,
                         std::uint16_t flags) {
  const std::size_t framed = frame_size(payload.size());
  // Head word first in memory; the fabric guarantees in-order commit, so a
  // receiver that sees the tail knows the head and payload already landed.
  const std::uint64_t head = make_head(flags, static_cast<std::uint32_t>(payload.size()));
  std::memcpy(dst.data(), &head, 8);
  if (!payload.empty()) std::memcpy(dst.data() + 8, payload.data(), payload.size());
  const std::size_t pad = align8_sz(payload.size()) - payload.size();
  if (pad != 0) std::memset(dst.data() + 8 + payload.size(), 0, pad);
  const std::uint64_t tail = make_tail(flags);
  std::memcpy(dst.data() + 8 + align8_sz(payload.size()), &tail, 8);
  return framed;
}

std::optional<std::uint32_t> poll_frame(std::span<const std::byte> buf) {
  if (buf.size() < 16) return std::nullopt;
  const std::uint64_t head = load_word(buf.data());
  if ((head >> 48) != kHeadMagic) return std::nullopt;
  const auto size = static_cast<std::uint32_t>(head & 0xFFFFFFFFu);
  if (frame_size(size) > buf.size()) return std::nullopt;  // corrupt size field
  const std::uint64_t tail = load_word(buf.data() + 8 + align8_sz(size));
  const auto flags = static_cast<std::uint16_t>((head >> 32) & 0xFFFF);
  if (tail != make_tail(flags)) return std::nullopt;  // payload still streaming
  return size;
}

FrameState probe_frame(std::span<const std::byte> buf) {
  if (buf.size() < 16) return FrameState::kMalformed;  // slot can't hold a frame
  const std::uint64_t head = load_word(buf.data());
  if (head == 0) return FrameState::kEmpty;
  if ((head >> 48) != kHeadMagic) return FrameState::kMalformed;
  const auto size = static_cast<std::uint32_t>(head & 0xFFFFFFFFu);
  if (frame_size(size) > buf.size()) return FrameState::kMalformed;  // lying size field
  const std::uint64_t tail = load_word(buf.data() + 8 + align8_sz(size));
  const auto flags = static_cast<std::uint16_t>((head >> 32) & 0xFFFF);
  if (tail == make_tail(flags)) return FrameState::kReady;
  // A zero tail is a frame mid-delivery (head commits before tail on RC);
  // any other value means the payload overran into the tail word.
  return tail == 0 ? FrameState::kPartial : FrameState::kMalformed;
}

std::uint16_t frame_flags(std::span<const std::byte> buf) {
  const std::uint64_t head = load_word(buf.data());
  return static_cast<std::uint16_t>((head >> 32) & 0xFFFF);
}

std::span<const std::byte> frame_payload(std::span<const std::byte> buf) {
  const std::uint64_t head = load_word(buf.data());
  const auto size = static_cast<std::uint32_t>(head & 0xFFFFFFFFu);
  return buf.subspan(8, size);
}

void clear_frame(std::span<std::byte> buf) {
  if (buf.size() < 8) return;
  const std::uint64_t head = load_word(buf.data());
  const auto size = static_cast<std::uint32_t>(head & 0xFFFFFFFFu);
  // Clamp: a garbage size field must not turn the wipe into a heap smash.
  std::memset(buf.data(), 0, std::min(frame_size(size), buf.size()));
}

}  // namespace hydra::proto

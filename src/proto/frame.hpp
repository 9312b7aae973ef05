// Indicator-encapsulated message framing (paper section 4.2.1, Figure 7).
//
// Messages travel by one-sided RDMA Write into a buffer that the receiver
// polls. Because RC adapters commit writes of one QP in increasing memory
// order, a frame can announce itself without any completion event:
//
//   word 0 : [16-bit magic | 16-bit flags | 32-bit payload size]   (head)
//   ...    : payload, padded to 8 bytes
//   last   : tail indicator word, echoing the head's flags         (tail)
//
// The receiver polls word 0; a set head guarantees the size field is
// consistent, so it skips payload-size bytes and polls the tail word. Only
// when the tail is also set, with the head's flags, is the whole frame known
// to have landed: a head paired with the tail of an older frame of another
// flag set (a torn write over stale bytes) never reads as complete. After
// processing, the receiver zeroes the frame region so the buffer can signal
// the next arrival.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace hydra::proto {

inline constexpr std::uint16_t kHeadMagic = 0x4DB1;
inline constexpr std::uint64_t kTailIndicator = 0x7A11F1A6'7A11F1A6ULL;

/// Flags carried in the head word; the replication stream uses kAckRequest
/// to ask the secondary for a cumulative acknowledgement (section 5.2).
enum FrameFlags : std::uint16_t {
  kFlagNone = 0,
  kFlagAckRequest = 1 << 0,
};

constexpr std::size_t align8_sz(std::size_t n) noexcept { return (n + 7) & ~std::size_t{7}; }

/// Bytes a frame with `payload_size` bytes of payload occupies on the wire.
constexpr std::size_t frame_size(std::size_t payload_size) noexcept {
  return 8 + align8_sz(payload_size) + 8;
}

/// Largest payload that fits a buffer of `buffer_size` bytes.
constexpr std::size_t max_payload(std::size_t buffer_size) noexcept {
  return buffer_size < 16 ? 0 : buffer_size - 16;
}

/// Writes a complete frame into `dst` (dst.size() >= frame_size(payload)).
/// Returns the framed size actually written.
std::size_t encode_frame(std::span<std::byte> dst, std::span<const std::byte> payload,
                         std::uint16_t flags = kFlagNone);

/// Polls `buf` for a complete frame. Returns the payload size when both
/// indicators are set and consistent; nullopt while the frame is absent or
/// still streaming in.
std::optional<std::uint32_t> poll_frame(std::span<const std::byte> buf);

/// What a receiver found when probing a slot. `kMalformed` distinguishes
/// torn/garbage buffers (bad magic, size field exceeding the slot, corrupt
/// tail) from frames that are merely absent or still streaming in -- a
/// malformed slot must be scrubbed or it wedges the ring forever.
enum class FrameState : std::uint8_t {
  kEmpty,      ///< head word is zero: nothing written yet
  kPartial,    ///< head landed, tail not yet (frame still streaming in)
  kReady,      ///< complete frame, payload consistent
  kMalformed,  ///< garbage head/size/tail: scrub the slot
};

/// Probing variant of poll_frame used by ring sweeps: classifies the slot
/// instead of collapsing "not ready" and "garbage" into one answer.
FrameState probe_frame(std::span<const std::byte> buf);

// --- slot-ring sequencing helpers ------------------------------------------
// Both sides of a connection carve their message buffers into `window`
// consecutive slots of `slot_bytes` each; request i goes into slot
// (i mod window) and its response comes back in the same slot index of the
// peer ring, so slot occupancy is released exactly by the matching response.

/// Byte offset of ring slot `slot` within a ring of `slot_bytes` slots.
constexpr std::uint64_t ring_slot_offset(std::uint32_t slot, std::uint32_t slot_bytes) noexcept {
  return static_cast<std::uint64_t>(slot) * slot_bytes;
}

/// Slot index a byte offset into a ring falls into.
constexpr std::uint32_t ring_slot_of(std::uint64_t offset, std::uint32_t slot_bytes) noexcept {
  return static_cast<std::uint32_t>(offset / slot_bytes);
}

/// Flags of a frame whose head indicator is set.
std::uint16_t frame_flags(std::span<const std::byte> buf);

/// Payload view of a complete frame.
std::span<const std::byte> frame_payload(std::span<const std::byte> buf);

/// Zeroes the frame region (head word through tail word) so the buffer is
/// ready to detect the next message. The wiped extent is clamped to the
/// buffer, so clearing a slot whose size field lies never scribbles past it.
void clear_frame(std::span<std::byte> buf);

}  // namespace hydra::proto

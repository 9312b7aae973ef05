// Placement arithmetic for the replication ring buffer.
//
// The secondary exposes one large memory chunk; the primary writes framed
// log records into it sequentially and wraps to offset 0 when a record
// would not fit, leaving a 16-byte wrap-marker frame so the consumer knows
// to jump. Producer and consumer run this same deterministic placement
// rule, so no head/tail pointers ever cross the wire.
#pragma once

#include <cstdint>

#include "proto/frame.hpp"

namespace hydra::replication {

/// Flag on a 0-payload frame marking "continue at offset 0".
inline constexpr std::uint16_t kFlagWrap = 1 << 1;

/// Flag on a 0-payload frame asking the secondary to re-send its cumulative
/// acknowledgement. The primary writes one when an expected ack was torn or
/// never arrived (secondary stalled, crashed, or the ack write was lost);
/// it carries no record and does not advance the sequence stream.
inline constexpr std::uint16_t kFlagAckProbe = 1 << 2;

/// Flag on every frame placed in an odd lap of the ring. The consumer takes
/// a complete frame only from its own lap: a frame of the other lap is a
/// copy a retransmit rewrote behind the cursor after the consumer had taken
/// it, and reads as not yet landed (DESIGN.md §4, "Replication doorbell
/// runs").
inline constexpr std::uint16_t kFlagOddLap = 1 << 3;

/// Size of the wrap-marker frame.
inline constexpr std::uint64_t kWrapMarkerBytes = proto::frame_size(0);

struct RingCursor {
  std::uint64_t ring_size = 0;
  std::uint64_t offset = 0;
  std::uint64_t lap = 0;  ///< wraps taken

  /// Whether a frame of `framed` bytes placed next would wrap. A data frame
  /// must always leave room for a subsequent wrap marker.
  [[nodiscard]] bool needs_wrap(std::uint64_t framed) const noexcept {
    return offset + framed + kWrapMarkerBytes > ring_size;
  }

  /// Bytes dead at the end of the ring if we wrap now (marker + slack).
  [[nodiscard]] std::uint64_t wrap_waste() const noexcept { return ring_size - offset; }

  void wrap() noexcept {
    offset = 0;
    ++lap;
  }

  /// The lap flag a frame placed now carries.
  [[nodiscard]] std::uint16_t lap_flag() const noexcept {
    return (lap & 1) != 0 ? kFlagOddLap : 0;
  }

  /// Places a frame of `framed` bytes at the current offset and advances.
  std::uint64_t place(std::uint64_t framed) noexcept {
    const std::uint64_t at = offset;
    offset += framed;
    return at;
  }
};

}  // namespace hydra::replication

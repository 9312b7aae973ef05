// Tests for indicator-encapsulated framing and message codecs.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "proto/frame.hpp"
#include "proto/messages.hpp"

namespace hydra::proto {
namespace {

std::vector<std::byte> to_bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

// ---------------------------------------------------------------- frames

TEST(Frame, SizeArithmetic) {
  EXPECT_EQ(frame_size(0), 16u);
  EXPECT_EQ(frame_size(1), 24u);
  EXPECT_EQ(frame_size(8), 24u);
  EXPECT_EQ(frame_size(9), 32u);
  EXPECT_EQ(max_payload(16), 0u);
  EXPECT_EQ(max_payload(1024), 1008u);
}

TEST(Frame, EncodePollRoundTrip) {
  std::vector<std::byte> buf(256);
  const auto payload = to_bytes("hello frame");
  const std::size_t framed = encode_frame(buf, payload);
  EXPECT_EQ(framed, frame_size(payload.size()));

  const auto size = poll_frame(buf);
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(*size, payload.size());
  const auto got = frame_payload(buf);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), payload.begin()));
  EXPECT_EQ(frame_flags(buf), kFlagNone);
}

TEST(Frame, EmptyBufferIsNotAFrame) {
  std::vector<std::byte> buf(64);
  EXPECT_FALSE(poll_frame(buf).has_value());
}

TEST(Frame, HeadWithoutTailIsIncomplete) {
  // Simulates polling mid-delivery: head word landed, tail not yet.
  std::vector<std::byte> buf(64);
  const auto payload = to_bytes("partial");
  encode_frame(buf, payload);
  // Knock out the tail indicator.
  std::memset(buf.data() + 8 + align8_sz(payload.size()), 0, 8);
  EXPECT_FALSE(poll_frame(buf).has_value());
}

TEST(Frame, TailWithoutHeadIsIncomplete) {
  std::vector<std::byte> buf(64);
  const auto payload = to_bytes("partial");
  encode_frame(buf, payload);
  std::memset(buf.data(), 0, 8);  // knock out the head
  EXPECT_FALSE(poll_frame(buf).has_value());
}

TEST(Frame, OversizedLengthFieldRejected) {
  std::vector<std::byte> buf(32);
  // Hand-craft a head claiming a payload larger than the buffer.
  const std::uint64_t head = (static_cast<std::uint64_t>(kHeadMagic) << 48) | 1000u;
  std::memcpy(buf.data(), &head, 8);
  EXPECT_FALSE(poll_frame(buf).has_value());
}

TEST(Frame, ClearMakesBufferReusable) {
  std::vector<std::byte> buf(128);
  encode_frame(buf, to_bytes("first"));
  ASSERT_TRUE(poll_frame(buf).has_value());
  clear_frame(buf);
  EXPECT_FALSE(poll_frame(buf).has_value());
  encode_frame(buf, to_bytes("second message"));
  ASSERT_TRUE(poll_frame(buf).has_value());
  const auto got = frame_payload(buf);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(got.data()), got.size()),
            "second message");
}

TEST(Frame, FlagsCarryThrough) {
  std::vector<std::byte> buf(64);
  encode_frame(buf, to_bytes("x"), kFlagAckRequest);
  ASSERT_TRUE(poll_frame(buf).has_value());
  EXPECT_EQ(frame_flags(buf) & kFlagAckRequest, kFlagAckRequest);
}

TEST(Frame, ZeroPayloadFrameWorks) {
  std::vector<std::byte> buf(32);
  encode_frame(buf, {}, kFlagAckRequest);
  const auto size = poll_frame(buf);
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(*size, 0u);
}

// ---------------------------------------------------------------- probing

TEST(Probe, DistinguishesEmptyPartialReady) {
  std::vector<std::byte> buf(64);
  EXPECT_EQ(probe_frame(buf), FrameState::kEmpty);

  const auto payload = to_bytes("probe me");
  encode_frame(buf, payload);
  EXPECT_EQ(probe_frame(buf), FrameState::kReady);

  // Head landed, tail still zero: mid-delivery.
  std::memset(buf.data() + 8 + align8_sz(payload.size()), 0, 8);
  EXPECT_EQ(probe_frame(buf), FrameState::kPartial);
}

TEST(Probe, GarbageMagicIsMalformed) {
  std::vector<std::byte> buf(64, std::byte{0xEE});
  EXPECT_EQ(probe_frame(buf), FrameState::kMalformed);
}

TEST(Probe, LyingSizeFieldIsMalformed) {
  std::vector<std::byte> buf(32);
  const std::uint64_t head = (static_cast<std::uint64_t>(kHeadMagic) << 48) | 100000u;
  std::memcpy(buf.data(), &head, 8);
  EXPECT_EQ(probe_frame(buf), FrameState::kMalformed);
}

TEST(Probe, OverrunTailIsMalformed) {
  // Valid head + size, but the tail word holds junk instead of the
  // indicator or zero: something scribbled past the payload.
  std::vector<std::byte> buf(64);
  const auto payload = to_bytes("x");
  encode_frame(buf, payload);
  const std::uint64_t junk = 0xDEADBEEFDEADBEEFull;
  std::memcpy(buf.data() + 8 + align8_sz(payload.size()), &junk, 8);
  EXPECT_EQ(probe_frame(buf), FrameState::kMalformed);
}

TEST(Probe, TooSmallBufferIsMalformed) {
  std::vector<std::byte> buf(8);
  EXPECT_EQ(probe_frame(buf), FrameState::kMalformed);
}

TEST(Frame, ClearClampsALyingSizeField) {
  // clear_frame on a head claiming more bytes than the buffer holds must
  // stay inside the buffer (would be a heap smash otherwise).
  std::vector<std::byte> buf(32, std::byte{0x55});
  const std::uint64_t head = (static_cast<std::uint64_t>(kHeadMagic) << 48) | 100000u;
  std::memcpy(buf.data(), &head, 8);
  clear_frame(buf);
  for (const std::byte b : buf) EXPECT_EQ(b, std::byte{0});
  std::vector<std::byte> tiny(4, std::byte{0x55});
  clear_frame(tiny);  // smaller than a head word: must be a no-op
  EXPECT_EQ(tiny[0], std::byte{0x55});
}

TEST(Frame, RingSlotArithmetic) {
  EXPECT_EQ(ring_slot_offset(0, 4096), 0u);
  EXPECT_EQ(ring_slot_offset(3, 4096), 3u * 4096u);
  EXPECT_EQ(ring_slot_of(0, 4096), 0u);
  EXPECT_EQ(ring_slot_of(3 * 4096 + 17, 4096), 3u);
}

// ---------------------------------------------------------------- messages

TEST(Messages, RequestRoundTrip) {
  Request req;
  req.type = MsgType::kPut;
  req.req_id = 12345;
  req.client = 7;
  req.key = "user000000000042";
  req.value = std::string(32, 'v');
  const auto payload = encode_request(req);
  const auto back = decode_request(payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, req.type);
  EXPECT_EQ(back->req_id, req.req_id);
  EXPECT_EQ(back->client, req.client);
  EXPECT_EQ(back->key, req.key);
  EXPECT_EQ(back->value, req.value);
}

TEST(Messages, ResponseRoundTripWithRemotePtr) {
  Response resp;
  resp.req_id = 99;
  resp.status = Status::kOk;
  resp.version = 3;
  resp.remote_ptr.rkey = 11;
  resp.remote_ptr.offset = 0x123456;
  resp.remote_ptr.total_len = 88;
  resp.remote_ptr.lease_expiry = 5'000'000'000ULL;
  resp.remote_ptr.version = 3;
  resp.remote_ptr.shard = 2;
  resp.value = "the-value";
  const auto payload = encode_response(resp);
  const auto back = decode_response(payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->status, Status::kOk);
  EXPECT_EQ(back->remote_ptr.offset, 0x123456u);
  EXPECT_EQ(back->remote_ptr.total_len, 88u);
  EXPECT_TRUE(back->remote_ptr.valid());
  EXPECT_EQ(back->value, "the-value");
}

TEST(Messages, InvalidRemotePtrIsNotValid) {
  RemotePtr ptr;
  EXPECT_FALSE(ptr.valid());
}

TEST(Messages, ResponseRoundTripWithReplicaAdvertisement) {
  Response resp;
  resp.req_id = 7;
  resp.status = Status::kOk;
  resp.remote_ptr.rkey = 11;
  resp.remote_ptr.total_len = 64;
  resp.value = "v";
  for (std::uint64_t i = 0; i < 3; ++i) {
    ReplicaPtr rep;
    rep.node = 10 + i;
    rep.rkey = 100 + static_cast<std::uint32_t>(i);
    rep.offset = 0x1000 * (i + 1);
    rep.total_len = 64;
    resp.replicas.push_back(rep);
  }
  const auto back = decode_response(encode_response(resp));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->replicas.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back->replicas[i].node, 10 + i);
    EXPECT_EQ(back->replicas[i].rkey, 100 + i);
    EXPECT_EQ(back->replicas[i].offset, 0x1000 * (i + 1));
    EXPECT_EQ(back->replicas[i].total_len, 64u);
    EXPECT_TRUE(back->replicas[i].valid());
  }
}

TEST(Messages, EmptyReplicaSetKeepsLegacyResponseLayout) {
  // The advertisement block is trailing-optional: a response with no
  // promoted replicas must encode byte-for-byte like the pre-promotion
  // protocol, so promotion-off clusters produce identical histories.
  Response resp;
  resp.req_id = 3;
  resp.status = Status::kOk;
  resp.value = "legacy";
  const auto without = encode_response(resp);
  ReplicaPtr rep;
  rep.node = 1;
  rep.rkey = 2;
  rep.total_len = 32;
  resp.replicas.push_back(rep);
  const auto with = encode_response(resp);
  EXPECT_GT(with.size(), without.size());
  // Prefix-compatible: the legacy fields encode first and unchanged.
  EXPECT_TRUE(std::equal(without.begin(), without.end(), with.begin()));
  const auto back = decode_response(without);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->replicas.empty());
}

TEST(Messages, ReplicaBlockRejectsBadCounts) {
  Response resp;
  resp.req_id = 5;
  resp.status = Status::kOk;
  ReplicaPtr rep;
  rep.node = 1;
  rep.rkey = 2;
  rep.total_len = 16;
  resp.replicas.push_back(rep);
  auto payload = encode_response(resp);
  // The count byte sits right after the value string; locate it from the
  // back: count (1) + one ReplicaPtr record (4 + 4 + 8 + 4).
  const std::size_t count_at = payload.size() - 1 - 20;
  ASSERT_EQ(std::to_integer<std::uint8_t>(payload[count_at]), 1u);
  auto zero = payload;
  zero[count_at] = std::byte{0};  // present-but-empty block is malformed
  EXPECT_FALSE(decode_response(zero).has_value());
  auto over = payload;
  over[count_at] = std::byte{kMaxReplicaPtrs + 1};  // count > records present
  EXPECT_FALSE(decode_response(over).has_value());
  // A truncated replica record must not decode either.
  auto cut = payload;
  cut.resize(payload.size() - 3);
  EXPECT_FALSE(decode_response(cut).has_value());
}

TEST(Messages, EncoderCapsReplicaFanout) {
  Response resp;
  resp.req_id = 9;
  resp.status = Status::kOk;
  for (std::uint64_t i = 0; i < kMaxReplicaPtrs + 3; ++i) {
    ReplicaPtr rep;
    rep.node = i;
    rep.rkey = 1;
    rep.total_len = 8;
    resp.replicas.push_back(rep);
  }
  const auto back = decode_response(encode_response(resp));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->replicas.size(), kMaxReplicaPtrs);
}

TEST(Messages, RepRecordRoundTrip) {
  RepRecord rec;
  rec.seq = 777;
  rec.op = MsgType::kRemove;
  rec.op_time = 123456789;
  rec.key = "k";
  rec.value = "";
  const auto payload = encode_rep_record(rec);
  const auto back = decode_rep_record(payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, 777u);
  EXPECT_EQ(back->op, MsgType::kRemove);
  EXPECT_EQ(back->op_time, 123456789u);
  EXPECT_EQ(back->key, "k");
}

TEST(Messages, RepAckRoundTrip) {
  RepAck ack{42, 43};
  const auto back = decode_rep_ack(encode_rep_ack(ack));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->acked_seq, 42u);
  EXPECT_EQ(back->first_failed_seq, 43u);
}

TEST(Messages, TruncatedPayloadsRejected) {
  Request req;
  req.key = "some-key";
  req.value = "some-value";
  auto payload = encode_request(req);
  for (std::size_t cut = 0; cut < payload.size(); cut += 3) {
    auto truncated = payload;
    truncated.resize(cut);
    EXPECT_FALSE(decode_request(truncated).has_value()) << "cut=" << cut;
  }
  // Trailing garbage is rejected too (exhaustion check).
  payload.push_back(std::byte{1});
  EXPECT_FALSE(decode_request(payload).has_value());
}

TEST(Messages, LengthFieldLyingAboutSizeRejected) {
  Request req;
  req.key = "abcdefgh";
  auto payload = encode_request(req);
  // Corrupt the key length to exceed the buffer.
  const std::uint32_t huge = 1 << 30;
  std::memcpy(payload.data() + 1 + 8 + 4, &huge, 4);
  EXPECT_FALSE(decode_request(payload).has_value());
}

// --- ordered range scans (DESIGN.md §13) ------------------------------------

TEST(Messages, ScanReqRoundTrip) {
  for (const std::uint8_t flags : {std::uint8_t{0}, kScanFlagExclusive}) {
    ScanReq req;
    req.epoch = 0xFEEDFACECAFEBEEFULL;
    req.limit = 321;
    req.flags = flags;
    req.want = 4000;
    const auto back = decode_scan_req(encode_scan_req(req));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->epoch, req.epoch);
    EXPECT_EQ(back->limit, 321u);
    EXPECT_EQ(back->flags, flags);
    EXPECT_EQ(back->want, 4000u);
  }
}

TEST(Messages, ScanReqHardened) {
  ScanReq req;
  req.epoch = 7;
  req.limit = 5;
  req.flags = kScanFlagExclusive;
  req.want = 9;
  auto payload = encode_scan_req(req);
  // Truncation at every boundary.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    auto truncated = payload;
    truncated.resize(cut);
    EXPECT_FALSE(decode_scan_req(truncated).has_value()) << "cut=" << cut;
  }
  // Trailing garbage (exhaustion check).
  auto padded = payload;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(decode_scan_req(padded).has_value());
  // Undefined flag bits: a newer/corrupt client must be rejected, not
  // silently half-understood.
  auto flagged = payload;
  flagged[8 + 4] = std::byte{0x80};
  EXPECT_FALSE(decode_scan_req(flagged).has_value());
}

TEST(Messages, ScanReqTruncatedInsideWantRejected) {
  ScanReq req;
  req.epoch = 7;
  req.limit = 5;
  req.want = 0x01020304;
  const auto payload = encode_scan_req(req);
  constexpr std::size_t kWantOffset = 8 + 4 + 1;
  ASSERT_EQ(payload.size(), kWantOffset + 4);
  // A request without `want` (the old 13-byte layout) and every cut inside
  // the field are refused rather than read as a partial count.
  for (std::size_t cut = kWantOffset; cut < payload.size(); ++cut) {
    auto truncated = payload;
    truncated.resize(cut);
    EXPECT_FALSE(decode_scan_req(truncated).has_value()) << "cut=" << cut;
  }
}

ScanLeafHint sample_hint(std::uint64_t i) {
  ScanLeafHint h;
  h.node = 3;
  h.rkey = 77;
  h.offset = 8192 + 1024 * i;
  h.len = 912;
  h.leaf_id = 19 + i;
  h.leaf_version = 6;
  return h;
}

ScanResp sample_scan_resp(std::size_t hints) {
  ScanResp resp;
  resp.epoch = 12;
  resp.done = false;
  resp.entries = {{"a-key", "a-value"}, {"b-key", ""}, {"c", "ccc"}};
  for (std::size_t i = 0; i < hints; ++i) resp.hints.push_back(sample_hint(i));
  return resp;
}

TEST(Messages, ScanRespRoundTrip) {
  for (const std::size_t hints : {std::size_t{0}, std::size_t{1}, std::size_t{3}, kMaxScanHints}) {
    const ScanResp resp = sample_scan_resp(hints);
    const auto back = decode_scan_resp(encode_scan_resp(resp));
    ASSERT_TRUE(back.has_value()) << "hints=" << hints;
    EXPECT_EQ(back->epoch, 12u);
    EXPECT_FALSE(back->done);
    ASSERT_EQ(back->entries.size(), 3u);
    EXPECT_EQ(back->entries[0].first, "a-key");
    EXPECT_EQ(back->entries[0].second, "a-value");
    EXPECT_EQ(back->entries[1].second, "");
    ASSERT_EQ(back->hints.size(), hints);
    for (std::size_t i = 0; i < hints; ++i) {
      const ScanLeafHint want = sample_hint(i);
      EXPECT_EQ(back->hints[i].node, want.node);
      EXPECT_EQ(back->hints[i].rkey, want.rkey);
      EXPECT_EQ(back->hints[i].offset, want.offset);
      EXPECT_EQ(back->hints[i].len, want.len);
      EXPECT_EQ(back->hints[i].leaf_id, want.leaf_id);
      EXPECT_EQ(back->hints[i].leaf_version, want.leaf_version);
    }
  }
}

TEST(Messages, ScanRespSingleHintKeepsItsLayout) {
  // A one-hint list is the layout a lone hint always had: a 1 byte, then
  // node u32, rkey u32, offset u64, len u32, leaf_id u64, leaf_version u64.
  const auto bare = encode_scan_resp(sample_scan_resp(0));
  const auto one = encode_scan_resp(sample_scan_resp(1));
  ASSERT_EQ(one.size(), bare.size() + 1 + kScanHintBytes);
  EXPECT_EQ(one[bare.size()], std::byte{1});
  std::uint64_t offset = 0;
  std::memcpy(&offset, one.data() + bare.size() + 1 + 4 + 4, 8);
  EXPECT_EQ(offset, 8192u);
}

TEST(Messages, ScanRespEmptyDoneRoundTrip) {
  ScanResp resp;
  resp.epoch = 1;
  resp.done = true;
  const auto back = decode_scan_resp(encode_scan_resp(resp));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->done);
  EXPECT_TRUE(back->entries.empty());
  EXPECT_TRUE(back->hints.empty());
}

TEST(Messages, ScanRespTruncationRejected) {
  const std::size_t hint_off = encode_scan_resp(sample_scan_resp(0)).size();
  for (const std::size_t hints : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    const auto payload = encode_scan_resp(sample_scan_resp(hints));
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      auto truncated = payload;
      truncated.resize(cut);
      if (hints > 0 && cut == hint_off) {
        // Cutting exactly the optional trailing hint block yields a valid
        // hint-less batch -- indistinguishable by design; the frame-level
        // checksum is what guards against real truncation there.
        const auto back = decode_scan_resp(truncated);
        ASSERT_TRUE(back.has_value());
        EXPECT_TRUE(back->hints.empty());
        continue;
      }
      // Any other cut, mid-list included (between two hints or inside one),
      // is refused.
      EXPECT_FALSE(decode_scan_resp(truncated).has_value())
          << "hints=" << hints << " cut=" << cut;
    }
    auto padded = payload;
    padded.push_back(std::byte{2});
    EXPECT_FALSE(decode_scan_resp(padded).has_value()) << "hints=" << hints;
  }
}

TEST(Messages, ScanRespOpCountCorruptionRejected) {
  auto payload = encode_scan_resp(sample_scan_resp(0));
  // Entry count lives after epoch (8) + done (1). A count the frame cannot
  // carry must be rejected before any allocation is sized from it.
  const std::uint32_t huge = 0x40000000;
  std::memcpy(payload.data() + 9, &huge, 4);
  EXPECT_FALSE(decode_scan_resp(payload).has_value());
  // Off-by-small lies are caught by the walk, not just the bound check.
  const std::uint32_t plus_one = 4;
  std::memcpy(payload.data() + 9, &plus_one, 4);
  EXPECT_FALSE(decode_scan_resp(payload).has_value());
}

TEST(Messages, ScanRespDoneCorruptionRejected) {
  auto payload = encode_scan_resp(sample_scan_resp(0));
  payload[8] = std::byte{2};  // done must be exactly 0 or 1
  EXPECT_FALSE(decode_scan_resp(payload).has_value());
}

TEST(Messages, ScanRespHintCorruptionRejected) {
  const ScanResp resp = sample_scan_resp(1);
  auto payload = encode_scan_resp(resp);
  const std::size_t hint_off = encode_scan_resp(sample_scan_resp(0)).size();
  // The count byte must match the hints that follow.
  for (const std::uint8_t count : {std::uint8_t{0}, std::uint8_t{2}}) {
    auto forged = payload;
    forged[hint_off] = std::byte{count};
    EXPECT_FALSE(decode_scan_resp(forged).has_value()) << "count=" << int(count);
  }
  // A structurally complete hint that is semantically invalid (rkey == 0)
  // must be rejected too -- clients never see a non-actionable hint.
  auto forged = payload;
  const std::uint32_t zero = 0;
  std::memcpy(forged.data() + hint_off + 1 + 4, &zero, 4);  // rkey
  EXPECT_FALSE(decode_scan_resp(forged).has_value());
}

TEST(Messages, ScanRespHintListCountOutOfRangeRejected) {
  const std::size_t hint_off = encode_scan_resp(sample_scan_resp(0)).size();
  // Count 0 is never sent: a hint-less batch omits the block entirely.
  auto zero = encode_scan_resp(sample_scan_resp(0));
  zero.push_back(std::byte{0});
  EXPECT_FALSE(decode_scan_resp(zero).has_value());
  // Above the cap, even when that many well-formed hints follow.
  ScanResp over = sample_scan_resp(kMaxScanHints);
  over.hints.push_back(sample_hint(kMaxScanHints));
  const auto payload = encode_scan_resp(over);
  ASSERT_EQ(payload.size(), hint_off + 1 + (kMaxScanHints + 1) * kScanHintBytes);
  EXPECT_FALSE(decode_scan_resp(payload).has_value());
}

TEST(Messages, ScanRespInvalidHintInsideListRejected) {
  // One non-actionable hint poisons the whole list, wherever it sits.
  const std::size_t hint_off = encode_scan_resp(sample_scan_resp(0)).size();
  const auto payload = encode_scan_resp(sample_scan_resp(3));
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t at = hint_off + 1 + i * kScanHintBytes;
    const std::uint32_t zero = 0;
    auto no_rkey = payload;
    std::memcpy(no_rkey.data() + at + 4, &zero, 4);
    EXPECT_FALSE(decode_scan_resp(no_rkey).has_value()) << "rkey, hint " << i;
    auto no_len = payload;
    std::memcpy(no_len.data() + at + 4 + 4 + 8, &zero, 4);
    EXPECT_FALSE(decode_scan_resp(no_len).has_value()) << "len, hint " << i;
  }
}

}  // namespace
}  // namespace hydra::proto

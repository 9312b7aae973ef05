// Request/response/replication message encodings.
//
// All messages travel as frame payloads (see frame.hpp). Encoding is a
// simple explicit little-endian binary layout -- no varints, no reflection
// -- so the codec cost on the shard's critical path stays negligible and
// deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace hydra::proto {

enum class MsgType : std::uint8_t {
  kGet = 1,
  kInsert,
  kUpdate,
  kPut,       ///< upsert
  kRemove,
  kRenewLease,
  kResponse,
  kRepRecord,  ///< replication log record (primary -> secondary)
  kRepAck,     ///< cumulative acknowledgement (secondary -> primary)
  kTxnCommit,  ///< multi-key transactional commit group (DESIGN.md §11)
  kScan,       ///< ordered range-scan batch against one shard (DESIGN.md §13)
};

/// A remote pointer: everything a client needs to RDMA-Read an item
/// directly from server memory and to know until when that is permitted
/// (paper sections 4.2.2/4.2.3).
struct RemotePtr {
  std::uint32_t rkey = 0;
  std::uint64_t offset = 0;
  std::uint32_t total_len = 0;
  std::uint64_t lease_expiry = 0;
  std::uint64_t version = 0;
  ShardId shard = kInvalidShard;
  /// Routing epoch the pointer was cached under. Client-side only (never on
  /// the wire): stamped at cache-insert time and compared against the
  /// current epoch before every one-sided read, so a promotion or migration
  /// invalidates every pointer leased under the old ownership map.
  std::uint64_t epoch = 0;

  [[nodiscard]] bool valid() const noexcept { return total_len != 0; }
};

struct Request {
  MsgType type = MsgType::kGet;
  std::uint64_t req_id = 0;
  ClientId client = 0;
  std::string key;
  std::string value;
};

/// A readable replica of a hot key's item, promoted to a replication
/// follower's promo slab (DESIGN.md §12). Carries everything the client
/// needs to RDMA-Read the copy from the follower's memory; version/lease
/// are shared with the primary pointer it rides along with.
struct ReplicaPtr {
  NodeId node = kInvalidNode;  ///< follower node hosting the copy
  std::uint32_t rkey = 0;      ///< promo-slab memory region
  std::uint64_t offset = 0;    ///< slot offset within the slab MR
  std::uint32_t total_len = 0;

  [[nodiscard]] bool valid() const noexcept { return total_len != 0; }
};

/// Upper bound on advertised replicas per key (and per response). Keeps the
/// client's cached fan-out entry trivially copyable and fixed-size.
inline constexpr std::size_t kMaxReplicaPtrs = 4;

struct Response {
  std::uint64_t req_id = 0;
  Status status = Status::kOk;
  std::uint64_t version = 0;
  RemotePtr remote_ptr;  ///< granted on successful GETs, renewals and writes
  std::string value;
  /// Promotion advertisement: replicas the client may spread one-sided
  /// reads across. Encoded as a trailing optional block -- responses with
  /// no promoted replicas are byte-identical to the pre-promotion wire
  /// format.
  std::vector<ReplicaPtr> replicas;
};

/// One record in the replication log stream (section 5.2). `op` is kPut or
/// kRemove; the sequence number is assigned by the primary and echoed back
/// in acknowledgements.
struct RepRecord {
  std::uint64_t seq = 0;
  MsgType op = MsgType::kPut;
  Time op_time = 0;  ///< primary's virtual time, so leases replay identically
  std::string key;
  std::string value;
};

/// Cumulative ack: "I have applied everything through `acked_seq`". When
/// the secondary hit a malformed/failed record it reports that record in
/// `first_failed_seq` (0 = none) so the primary can roll back and resend.
struct RepAck {
  std::uint64_t acked_seq = 0;
  std::uint64_t first_failed_seq = 0;
};

/// Envelope prepended to a request payload when many logical client
/// endpoints multiplex over one shared request ring (DESIGN.md §10). The
/// shard demultiplexes by `endpoint` and writes the response into slot
/// `resp_slot` of that endpoint's private response ring. Legacy (one ring
/// per connection) frames never carry the envelope, so their wire bytes are
/// unchanged.
struct MuxHeader {
  std::uint32_t endpoint = 0;
  std::uint32_t resp_slot = 0;
};

inline constexpr std::size_t kMuxHeaderBytes = 2 * sizeof(std::uint32_t);

std::vector<std::byte> encode_request(const Request& req);
std::optional<Request> decode_request(std::span<const std::byte> payload);

/// Mux-framed request: MuxHeader followed by the standard request encoding.
std::vector<std::byte> encode_mux_request(const MuxHeader& hdr, const Request& req);
/// Splits the envelope off a mux-framed payload; nullopt when too short.
/// The request itself is recovered with decode_request(mux_request_body()).
std::optional<MuxHeader> decode_mux_header(std::span<const std::byte> payload);
[[nodiscard]] inline std::span<const std::byte> mux_request_body(
    std::span<const std::byte> payload) noexcept {
  return payload.size() >= kMuxHeaderBytes ? payload.subspan(kMuxHeaderBytes)
                                           : std::span<const std::byte>{};
}

std::vector<std::byte> encode_response(const Response& resp);
std::optional<Response> decode_response(std::span<const std::byte> payload);

std::vector<std::byte> encode_rep_record(const RepRecord& rec);
std::optional<RepRecord> decode_rep_record(std::span<const std::byte> payload);

std::vector<std::byte> encode_rep_ack(const RepAck& ack);
std::optional<RepAck> decode_rep_ack(std::span<const std::byte> payload);

// --- transactions (DESIGN.md §11) ------------------------------------------

/// Lock-conflict policy carried in the commit header (and driving the
/// client's acquire loop): NO_WAIT aborts on any conflict, WAIT_DIE lets an
/// older transaction (smaller txn_id) wait for a younger holder and kills a
/// younger requester immediately.
enum class TxnMode : std::uint8_t { kNoWait = 0, kWaitDie = 1 };

/// Header of a kTxnCommit request's payload (travels in Request::value).
struct TxnHeader {
  std::uint64_t txn_id = 0;  ///< also the age stamp: smaller == older
  TxnMode mode = TxnMode::kNoWait;
  /// Routing epoch the client locked under; the shard rejects the commit
  /// (kTxnConflict, nothing applied) when its own epoch has moved on, so a
  /// commit can never land through a promotion or migration it predates.
  std::uint64_t epoch = 0;
  std::uint32_t op_count = 0;
};

/// One write of a commit group. `op` is kPut or kRemove.
struct TxnOp {
  MsgType op = MsgType::kPut;
  std::string key;
  std::string value;
};

/// A shard-local commit group: header + the ops this shard must apply
/// atomically (all-or-nothing within one handler invocation).
struct TxnCommit {
  TxnHeader hdr;
  std::vector<TxnOp> ops;
};

std::vector<std::byte> encode_txn_commit(const TxnCommit& txn);
std::optional<TxnCommit> decode_txn_commit(std::span<const std::byte> payload);

// --- ordered range scans (DESIGN.md §13) ------------------------------------

/// Resume-key semantics for a scan request: set on every continuation so the
/// last key the client already consumed is not returned again.
inline constexpr std::uint8_t kScanFlagExclusive = 1;

/// Body of a kScan request (travels in Request::value; the start/resume key
/// travels in Request::key). Together (epoch, key, flags) form the
/// continuation token: the shard rejects the request with kWrongOwner when
/// `epoch` is not its live routing epoch, so a token can never read through
/// a migration or promotion it predates.
struct ScanReq {
  std::uint64_t epoch = 0;
  std::uint32_t limit = 0;  ///< max entries this batch may return
  std::uint8_t flags = 0;   ///< kScanFlagExclusive
  /// Entries the whole scan still needs, 0 from a client that does not read
  /// leaf pages. The shard hints leaf pages past the batch until they cover
  /// this many; above `limit`, it also ends the batch at its first leaf.
  std::uint32_t want = 0;
};

/// Advertisement of a mirrored leaf page the client may RDMA-Read to
/// continue the scan one-sidedly. `len` is the page's encoded length.
/// (leaf_id, leaf_version) must match the page header after the read -- a
/// mismatch means the leaf changed or its block was freed or reused
/// underneath the reader, and the client falls back to the message path.
struct ScanLeafHint {
  NodeId node = kInvalidNode;
  std::uint32_t rkey = 0;
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
  std::uint64_t leaf_id = 0;
  std::uint64_t leaf_version = 0;

  [[nodiscard]] bool valid() const noexcept { return rkey != 0 && len != 0; }
};

/// Most leaf hints one ScanResp carries.
inline constexpr std::size_t kMaxScanHints = 8;
/// Wire bytes of one encoded ScanLeafHint.
inline constexpr std::size_t kScanHintBytes = 36;

/// Body of a kScan response (travels in Response::value).
struct ScanResp {
  std::uint64_t epoch = 0;
  bool done = false;  ///< no entries past this batch remain on this shard
  std::vector<std::pair<std::string, std::string>> entries;  ///< sorted (key, value)
  /// Optional trailing block: mirror pages of the leaf holding the
  /// continuation and of the leaves that followed it in key order when the
  /// batch was answered, at most kMaxScanHints.
  std::vector<ScanLeafHint> hints;
};

std::vector<std::byte> encode_scan_req(const ScanReq& req);
std::optional<ScanReq> decode_scan_req(std::span<const std::byte> payload);

std::vector<std::byte> encode_scan_resp(const ScanResp& resp);
std::optional<ScanResp> decode_scan_resp(std::span<const std::byte> payload);

constexpr const char* to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::kGet: return "GET";
    case MsgType::kInsert: return "INSERT";
    case MsgType::kUpdate: return "UPDATE";
    case MsgType::kPut: return "PUT";
    case MsgType::kRemove: return "REMOVE";
    case MsgType::kRenewLease: return "RENEW_LEASE";
    case MsgType::kResponse: return "RESPONSE";
    case MsgType::kRepRecord: return "REP_RECORD";
    case MsgType::kRepAck: return "REP_ACK";
    case MsgType::kTxnCommit: return "TXN_COMMIT";
    case MsgType::kScan: return "SCAN";
  }
  return "?";
}

}  // namespace hydra::proto

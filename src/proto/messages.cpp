#include "proto/messages.hpp"

#include <algorithm>
#include <cstring>

namespace hydra::proto {
namespace {

// Minimal append/consume codec helpers. All integers little-endian (we
// target x86_64; a production codec would byte-swap on big-endian hosts).

template <typename T>
void append(std::vector<std::byte>& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

void append_str(std::vector<std::byte>& out, const std::string& s) {
  append(out, static_cast<std::uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  out.insert(out.end(), p, p + s.size());
}

class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  template <typename T>
  bool read(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > data_.size()) return false;
    std::memcpy(v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool read_str(std::string* s) {
    std::uint32_t len = 0;
    if (!read(&len)) return false;
    if (pos_ + len > data_.size()) return false;
    s->assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return true;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::byte> encode_request(const Request& req) {
  std::vector<std::byte> out;
  out.reserve(32 + req.key.size() + req.value.size());
  append(out, req.type);
  append(out, req.req_id);
  append(out, req.client);
  append_str(out, req.key);
  append_str(out, req.value);
  return out;
}

std::optional<Request> decode_request(std::span<const std::byte> payload) {
  Request req;
  Reader r(payload);
  if (!r.read(&req.type) || !r.read(&req.req_id) || !r.read(&req.client) ||
      !r.read_str(&req.key) || !r.read_str(&req.value) || !r.exhausted()) {
    return std::nullopt;
  }
  return req;
}

std::vector<std::byte> encode_mux_request(const MuxHeader& hdr, const Request& req) {
  std::vector<std::byte> out;
  out.reserve(kMuxHeaderBytes + 32 + req.key.size() + req.value.size());
  append(out, hdr.endpoint);
  append(out, hdr.resp_slot);
  const auto body = encode_request(req);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::optional<MuxHeader> decode_mux_header(std::span<const std::byte> payload) {
  MuxHeader hdr;
  Reader r(payload);
  if (!r.read(&hdr.endpoint) || !r.read(&hdr.resp_slot)) return std::nullopt;
  return hdr;
}

std::vector<std::byte> encode_response(const Response& resp) {
  std::vector<std::byte> out;
  out.reserve(64 + resp.value.size());
  append(out, resp.req_id);
  append(out, resp.status);
  append(out, resp.version);
  append(out, resp.remote_ptr.rkey);
  append(out, resp.remote_ptr.offset);
  append(out, resp.remote_ptr.total_len);
  append(out, resp.remote_ptr.lease_expiry);
  append(out, resp.remote_ptr.version);
  append(out, resp.remote_ptr.shard);
  append_str(out, resp.value);
  // Promotion advertisement: emitted only when present, so a response with
  // no promoted replicas is byte-identical to the pre-promotion layout.
  if (!resp.replicas.empty()) {
    append(out, static_cast<std::uint8_t>(
                    std::min(resp.replicas.size(), kMaxReplicaPtrs)));
    std::size_t emitted = 0;
    for (const auto& rep : resp.replicas) {
      if (emitted++ == kMaxReplicaPtrs) break;
      append(out, rep.node);
      append(out, rep.rkey);
      append(out, rep.offset);
      append(out, rep.total_len);
    }
  }
  return out;
}

std::optional<Response> decode_response(std::span<const std::byte> payload) {
  Response resp;
  Reader r(payload);
  if (!r.read(&resp.req_id) || !r.read(&resp.status) || !r.read(&resp.version) ||
      !r.read(&resp.remote_ptr.rkey) || !r.read(&resp.remote_ptr.offset) ||
      !r.read(&resp.remote_ptr.total_len) || !r.read(&resp.remote_ptr.lease_expiry) ||
      !r.read(&resp.remote_ptr.version) || !r.read(&resp.remote_ptr.shard) ||
      !r.read_str(&resp.value)) {
    return std::nullopt;
  }
  if (!r.exhausted()) {
    // Trailing replica-advertisement block (absent on the legacy layout).
    std::uint8_t count = 0;
    if (!r.read(&count) || count == 0 || count > kMaxReplicaPtrs) return std::nullopt;
    resp.replicas.resize(count);
    for (auto& rep : resp.replicas) {
      if (!r.read(&rep.node) || !r.read(&rep.rkey) || !r.read(&rep.offset) ||
          !r.read(&rep.total_len)) {
        return std::nullopt;
      }
    }
  }
  if (!r.exhausted()) return std::nullopt;
  return resp;
}

std::vector<std::byte> encode_rep_record(const RepRecord& rec) {
  std::vector<std::byte> out;
  out.reserve(40 + rec.key.size() + rec.value.size());
  append(out, rec.seq);
  append(out, rec.op);
  append(out, rec.op_time);
  append_str(out, rec.key);
  append_str(out, rec.value);
  return out;
}

std::optional<RepRecord> decode_rep_record(std::span<const std::byte> payload) {
  RepRecord rec;
  Reader r(payload);
  if (!r.read(&rec.seq) || !r.read(&rec.op) || !r.read(&rec.op_time) ||
      !r.read_str(&rec.key) || !r.read_str(&rec.value) || !r.exhausted()) {
    return std::nullopt;
  }
  return rec;
}

std::vector<std::byte> encode_rep_ack(const RepAck& ack) {
  std::vector<std::byte> out;
  append(out, ack.acked_seq);
  append(out, ack.first_failed_seq);
  return out;
}

std::optional<RepAck> decode_rep_ack(std::span<const std::byte> payload) {
  RepAck ack;
  Reader r(payload);
  if (!r.read(&ack.acked_seq) || !r.read(&ack.first_failed_seq) || !r.exhausted()) {
    return std::nullopt;
  }
  return ack;
}

std::vector<std::byte> encode_txn_commit(const TxnCommit& txn) {
  std::vector<std::byte> out;
  std::size_t body = 0;
  for (const auto& op : txn.ops) body += 16 + op.key.size() + op.value.size();
  out.reserve(24 + body);
  append(out, txn.hdr.txn_id);
  append(out, txn.hdr.mode);
  append(out, txn.hdr.epoch);
  append(out, static_cast<std::uint32_t>(txn.ops.size()));
  for (const auto& op : txn.ops) {
    append(out, op.op);
    append_str(out, op.key);
    append_str(out, op.value);
  }
  return out;
}

std::optional<TxnCommit> decode_txn_commit(std::span<const std::byte> payload) {
  TxnCommit txn;
  Reader r(payload);
  if (!r.read(&txn.hdr.txn_id) || !r.read(&txn.hdr.mode) || !r.read(&txn.hdr.epoch) ||
      !r.read(&txn.hdr.op_count)) {
    return std::nullopt;
  }
  // Each op costs at least 9 payload bytes (type + two length words), so an
  // op_count a torn frame could not actually carry is rejected before any
  // allocation is sized from it.
  if (static_cast<std::size_t>(txn.hdr.op_count) * 9 > payload.size()) return std::nullopt;
  txn.ops.resize(txn.hdr.op_count);
  for (auto& op : txn.ops) {
    if (!r.read(&op.op) || !r.read_str(&op.key) || !r.read_str(&op.value)) {
      return std::nullopt;
    }
  }
  if (!r.exhausted()) return std::nullopt;
  return txn;
}

std::vector<std::byte> encode_scan_req(const ScanReq& req) {
  std::vector<std::byte> out;
  out.reserve(17);
  append(out, req.epoch);
  append(out, req.limit);
  append(out, req.flags);
  append(out, req.want);
  return out;
}

std::optional<ScanReq> decode_scan_req(std::span<const std::byte> payload) {
  ScanReq req;
  Reader r(payload);
  if (!r.read(&req.epoch) || !r.read(&req.limit) || !r.read(&req.flags) ||
      !r.read(&req.want) || !r.exhausted()) {
    return std::nullopt;
  }
  if ((req.flags & ~kScanFlagExclusive) != 0) return std::nullopt;
  return req;
}

std::vector<std::byte> encode_scan_resp(const ScanResp& resp) {
  std::vector<std::byte> out;
  std::size_t body = 0;
  for (const auto& [k, v] : resp.entries) body += 8 + k.size() + v.size();
  out.reserve(14 + body + 1 + resp.hints.size() * kScanHintBytes);
  append(out, resp.epoch);
  append(out, static_cast<std::uint8_t>(resp.done ? 1 : 0));
  append(out, static_cast<std::uint32_t>(resp.entries.size()));
  for (const auto& [k, v] : resp.entries) {
    append_str(out, k);
    append_str(out, v);
  }
  // Leaf hints: a count byte then the hints, emitted only when there are
  // any, so batches without one keep the shorter layout.
  if (!resp.hints.empty()) {
    append(out, static_cast<std::uint8_t>(resp.hints.size()));
    for (const ScanLeafHint& h : resp.hints) {
      append(out, h.node);
      append(out, h.rkey);
      append(out, h.offset);
      append(out, h.len);
      append(out, h.leaf_id);
      append(out, h.leaf_version);
    }
  }
  return out;
}

std::optional<ScanResp> decode_scan_resp(std::span<const std::byte> payload) {
  ScanResp resp;
  Reader r(payload);
  std::uint8_t done = 0;
  std::uint32_t count = 0;
  if (!r.read(&resp.epoch) || !r.read(&done) || !r.read(&count)) return std::nullopt;
  if (done > 1) return std::nullopt;
  resp.done = done != 0;
  // Each entry costs at least its two length words; reject counts the frame
  // could not carry before sizing any allocation from them.
  if (static_cast<std::size_t>(count) * 8 > payload.size()) return std::nullopt;
  resp.entries.resize(count);
  for (auto& [k, v] : resp.entries) {
    if (!r.read_str(&k) || !r.read_str(&v)) return std::nullopt;
  }
  if (!r.exhausted()) {
    std::uint8_t hints = 0;
    if (!r.read(&hints) || hints == 0 || hints > kMaxScanHints) return std::nullopt;
    resp.hints.resize(hints);
    for (ScanLeafHint& h : resp.hints) {
      if (!r.read(&h.node) || !r.read(&h.rkey) || !r.read(&h.offset) || !r.read(&h.len) ||
          !r.read(&h.leaf_id) || !r.read(&h.leaf_version) || !h.valid()) {
        return std::nullopt;
      }
    }
  }
  if (!r.exhausted()) return std::nullopt;
  return resp;
}

}  // namespace hydra::proto

#include "megate/net/frame.h"

#include <utility>

namespace megate::net {
namespace {

/// Strict finish: the payload must be fully consumed.
bool finish(const WireReader& r) { return r.done(); }

}  // namespace

bool frame_type_known(std::uint8_t t) noexcept {
  return t >= static_cast<std::uint8_t>(FrameType::kHello) &&
         t <= static_cast<std::uint8_t>(FrameType::kError);
}

const char* frame_type_name(FrameType t) noexcept {
  switch (t) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kHelloAck: return "HELLO_ACK";
    case FrameType::kVersionReq: return "VERSION_REQ";
    case FrameType::kVersionResp: return "VERSION_RESP";
    case FrameType::kMultiGetReq: return "MULTI_GET_REQ";
    case FrameType::kMultiGetResp: return "MULTI_GET_RESP";
    case FrameType::kPublishDeltaReq: return "PUBLISH_DELTA_REQ";
    case FrameType::kPublishDeltaResp: return "PUBLISH_DELTA_RESP";
    case FrameType::kSetShardUpReq: return "SET_SHARD_UP_REQ";
    case FrameType::kSetShardUpResp: return "SET_SHARD_UP_RESP";
    case FrameType::kError: return "ERROR";
  }
  return "UNKNOWN";
}

void encode_frame(const FrameHeader& header, std::string_view payload,
                  std::string* out) {
  WireWriter w(out);
  w.u32(static_cast<std::uint32_t>(kHeaderTail + payload.size()));
  w.u16(kFrameMagic);
  w.u8(header.proto_version);
  w.u8(static_cast<std::uint8_t>(header.type));
  w.u32(header.request_id);
  out->append(payload.data(), payload.size());
}

void FrameDecoder::feed(const char* data, std::size_t size) {
  if (poisoned_) return;  // connection is dead; don't buffer garbage
  buf_.append(data, size);
}

bool FrameDecoder::next(Frame* frame) {
  if (poisoned_) return false;
  // Compact lazily so steady-state decoding is append + view, not move.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 4) return false;
  WireReader peek(buf_.data() + pos_, avail);
  std::uint32_t length = 0;
  peek.u32(&length);
  if (length > kMaxFrameLength) {
    ++counters_.oversized;
    poisoned_ = true;
    return false;
  }
  if (length < kHeaderTail) {
    ++counters_.undersized;
    poisoned_ = true;
    return false;
  }
  if (avail < 4 + static_cast<std::size_t>(length)) return false;

  WireReader r(buf_.data() + pos_ + 4, length);
  std::uint16_t magic = 0;
  std::uint8_t version = 0, type = 0;
  std::uint32_t request_id = 0;
  r.u16(&magic);
  r.u8(&version);
  r.u8(&type);
  r.u32(&request_id);
  if (magic != kFrameMagic) {
    ++counters_.bad_magic;
    poisoned_ = true;
    return false;
  }
  if (version != kProtoVersion) {
    ++counters_.bad_version;
    poisoned_ = true;
    return false;
  }
  if (!frame_type_known(type)) {
    ++counters_.bad_type;
    poisoned_ = true;
    return false;
  }
  frame->header.proto_version = version;
  frame->header.type = static_cast<FrameType>(type);
  frame->header.request_id = request_id;
  frame->payload.assign(buf_.data() + pos_ + 4 + kHeaderTail,
                        length - kHeaderTail);
  pos_ += 4 + length;
  ++counters_.frames;
  counters_.bytes += 4 + length;
  return true;
}

// --- HelloMsg --------------------------------------------------------------

std::string HelloMsg::encode() const {
  std::string out;
  WireWriter w(&out);
  w.u8(proto_version);
  w.u8(role);
  w.u64(last_known_version);
  w.str(peer_name);
  return out;
}

bool HelloMsg::decode(std::string_view payload, HelloMsg* out) {
  WireReader r(payload);
  return r.u8(&out->proto_version) && r.u8(&out->role) &&
         r.u64(&out->last_known_version) && r.str(&out->peer_name) &&
         finish(r);
}

// --- HelloAckMsg -----------------------------------------------------------

std::string HelloAckMsg::encode() const {
  std::string out;
  WireWriter w(&out);
  w.u8(proto_version);
  w.u64(last_applied);
  w.u8(recovering ? 1 : 0);
  w.str(server_name);
  return out;
}

bool HelloAckMsg::decode(std::string_view payload, HelloAckMsg* out) {
  WireReader r(payload);
  std::uint8_t recovering = 0;
  if (!(r.u8(&out->proto_version) && r.u64(&out->last_applied) &&
        r.u8(&recovering) && r.str(&out->server_name) && finish(r))) {
    return false;
  }
  if (recovering > 1) return false;
  out->recovering = recovering != 0;
  return true;
}

// --- VersionRespMsg --------------------------------------------------------

std::string VersionRespMsg::encode() const {
  std::string out;
  WireWriter w(&out);
  w.u64(version);
  return out;
}

bool VersionRespMsg::decode(std::string_view payload, VersionRespMsg* out) {
  WireReader r(payload);
  return r.u64(&out->version) && finish(r);
}

// --- MultiGetReqMsg --------------------------------------------------------

std::string MultiGetReqMsg::encode() const {
  std::string out;
  WireWriter w(&out);
  w.u32(static_cast<std::uint32_t>(keys.size()));
  for (const std::string& k : keys) w.str(k);
  return out;
}

bool MultiGetReqMsg::decode(std::string_view payload, MultiGetReqMsg* out) {
  WireReader r(payload);
  std::uint32_t n = 0;
  if (!r.u32(&n)) return false;
  // Each key costs >= 4 bytes (its length prefix): an insane count with
  // a short payload is rejected before any allocation.
  if (static_cast<std::size_t>(n) * 4 > r.remaining()) return false;
  out->keys.clear();
  out->keys.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string key;
    if (!r.str(&key)) return false;
    out->keys.push_back(std::move(key));
  }
  return finish(r);
}

// --- MultiGetRespMsg -------------------------------------------------------

std::string MultiGetRespMsg::encode() const {
  std::string out;
  WireWriter w(&out);
  w.u64(version);
  w.u8(consistent ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    w.u8(e.status);
    w.u64(e.version);
    w.str(e.value);
  }
  return out;
}

bool MultiGetRespMsg::decode(std::string_view payload, MultiGetRespMsg* out) {
  WireReader r(payload);
  std::uint8_t consistent = 0;
  std::uint32_t n = 0;
  if (!(r.u64(&out->version) && r.u8(&consistent) && r.u32(&n))) {
    return false;
  }
  if (consistent > 1) return false;
  out->consistent = consistent != 0;
  // Each entry costs >= 13 bytes (status + version + value length).
  if (static_cast<std::size_t>(n) * 13 > r.remaining()) return false;
  out->entries.clear();
  out->entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Entry e;
    if (!(r.u8(&e.status) && r.u64(&e.version) && r.str(&e.value))) {
      return false;
    }
    if (e.status > static_cast<std::uint8_t>(ctrl::GetStatus::kUnavailable)) {
      return false;
    }
    out->entries.push_back(std::move(e));
  }
  return finish(r);
}

// --- PublishDeltaReqMsg ----------------------------------------------------

std::string PublishDeltaReqMsg::encode() const {
  std::string out;
  WireWriter w(&out);
  w.u64(version);
  w.u8(snapshot ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(delta.upserts.size()));
  for (const auto& [key, value] : delta.upserts) {
    w.str(key);
    w.str(value);
  }
  w.u32(static_cast<std::uint32_t>(delta.erases.size()));
  for (const std::string& key : delta.erases) w.str(key);
  return out;
}

bool PublishDeltaReqMsg::decode(std::string_view payload,
                                PublishDeltaReqMsg* out) {
  WireReader r(payload);
  std::uint8_t snapshot = 0;
  std::uint32_t n_upserts = 0;
  if (!(r.u64(&out->version) && r.u8(&snapshot) && r.u32(&n_upserts))) {
    return false;
  }
  if (snapshot > 1) return false;
  out->snapshot = snapshot != 0;
  if (static_cast<std::size_t>(n_upserts) * 8 > r.remaining()) return false;
  out->delta.upserts.clear();
  out->delta.upserts.reserve(n_upserts);
  for (std::uint32_t i = 0; i < n_upserts; ++i) {
    std::string key, value;
    if (!(r.str(&key) && r.str(&value))) return false;
    out->delta.upserts.emplace_back(std::move(key), std::move(value));
  }
  std::uint32_t n_erases = 0;
  if (!r.u32(&n_erases)) return false;
  if (static_cast<std::size_t>(n_erases) * 4 > r.remaining()) return false;
  out->delta.erases.clear();
  out->delta.erases.reserve(n_erases);
  for (std::uint32_t i = 0; i < n_erases; ++i) {
    std::string key;
    if (!r.str(&key)) return false;
    out->delta.erases.push_back(std::move(key));
  }
  return finish(r);
}

// --- PublishDeltaRespMsg ---------------------------------------------------

std::string PublishDeltaRespMsg::encode() const {
  std::string out;
  WireWriter w(&out);
  w.u8(static_cast<std::uint8_t>(status));
  w.u64(applied);
  return out;
}

bool PublishDeltaRespMsg::decode(std::string_view payload,
                                 PublishDeltaRespMsg* out) {
  WireReader r(payload);
  std::uint8_t status = 0;
  if (!(r.u8(&status) && r.u64(&out->applied) && finish(r))) return false;
  if (status > static_cast<std::uint8_t>(PublishStatus::kStale)) return false;
  out->status = static_cast<PublishStatus>(status);
  return true;
}

// --- SetShardUpReqMsg / SetShardUpRespMsg ----------------------------------

std::string SetShardUpReqMsg::encode() const {
  std::string out;
  WireWriter w(&out);
  w.u8(up ? 1 : 0);
  return out;
}

bool SetShardUpReqMsg::decode(std::string_view payload, SetShardUpReqMsg* out) {
  WireReader r(payload);
  std::uint8_t up = 0;
  if (!(r.u8(&up) && finish(r)) || up > 1) return false;
  out->up = up != 0;
  return true;
}

std::string SetShardUpRespMsg::encode() const {
  std::string out;
  WireWriter w(&out);
  w.u8(up ? 1 : 0);
  return out;
}

bool SetShardUpRespMsg::decode(std::string_view payload,
                               SetShardUpRespMsg* out) {
  WireReader r(payload);
  std::uint8_t up = 0;
  if (!(r.u8(&up) && finish(r)) || up > 1) return false;
  out->up = up != 0;
  return true;
}

// --- ErrorMsg ---------------------------------------------------------------

std::string ErrorMsg::encode() const {
  std::string out;
  WireWriter w(&out);
  w.str(message);
  return out;
}

bool ErrorMsg::decode(std::string_view payload, ErrorMsg* out) {
  WireReader r(payload);
  return r.str(&out->message) && finish(r);
}

}  // namespace megate::net

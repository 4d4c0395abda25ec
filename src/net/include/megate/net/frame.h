#pragma once
// Control-plane wire protocol v1 (DESIGN.md §11).
//
// Every message travels as one frame:
//
//   [u32 length][u16 magic 0x4D54 "MT"][u8 version][u8 type]
//   [u32 request_id][payload ...]
//
// `length` counts everything after itself (header tail + payload), so a
// reader needs exactly 4 bytes to learn how much more to buffer. The
// magic and version live inside the length-covered region: a stream
// that desynchronises or speaks a future protocol fails loudly at the
// first frame instead of mis-parsing payload bytes. request_id echoes
// from request to response so a client can pipeline.
//
// Payload encodings are strict: a decoder consumes the whole payload or
// rejects it (trailing bytes are an error). All multi-byte integers are
// little-endian via wire.h. Decode failures never throw and never read
// out of bounds — the fuzz suite in tests/net_test.cpp feeds truncations
// at every length and random corruption through the decoder and asserts
// clean rejection with per-reason drop accounting.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "megate/ctrl/kvstore.h"
#include "megate/net/wire.h"

namespace megate::net {

inline constexpr std::uint16_t kFrameMagic = 0x4D54;  // "MT"
inline constexpr std::uint8_t kProtoVersion = 1;
/// Hard ceiling on `length` (64 MiB): anything larger is a corrupt or
/// hostile stream, not a real control-plane message.
inline constexpr std::uint32_t kMaxFrameLength = 1u << 26;
/// Bytes of header covered by `length` (magic + version + type + req id).
inline constexpr std::size_t kHeaderTail = 2 + 1 + 1 + 4;

enum class FrameType : std::uint8_t {
  kHello = 1,        ///< client -> server, first frame on a connection
  kHelloAck = 2,     ///< server -> client handshake reply
  kVersionReq = 3,
  kVersionResp = 4,
  kMultiGetReq = 5,
  kMultiGetResp = 6,
  kPublishDeltaReq = 7,
  kPublishDeltaResp = 8,
  kSetShardUpReq = 9,   ///< admin fault seam (chaos kAdmin mode)
  kSetShardUpResp = 10,
  kError = 11,  ///< the last value: frame_type_known checks [kHello, kError]
};

/// True iff `t` is a value the protocol defines.
bool frame_type_known(std::uint8_t t) noexcept;
const char* frame_type_name(FrameType t) noexcept;

struct FrameHeader {
  std::uint8_t proto_version = kProtoVersion;
  FrameType type = FrameType::kError;
  std::uint32_t request_id = 0;
};

struct Frame {
  FrameHeader header;
  std::string payload;
};

/// Why the decoder dropped a frame / poisoned the stream. Mirrors the
/// dataplane's drop-reason accounting style (PR 3): every rejection is
/// attributed, nothing vanishes silently.
struct CodecCounters {
  std::uint64_t frames = 0;       ///< frames decoded successfully
  std::uint64_t bytes = 0;        ///< payload + header bytes consumed
  std::uint64_t oversized = 0;    ///< length > kMaxFrameLength
  std::uint64_t undersized = 0;   ///< length < kHeaderTail
  std::uint64_t bad_magic = 0;
  std::uint64_t bad_version = 0;
  std::uint64_t bad_type = 0;
  std::uint64_t bad_payload = 0;  ///< typed payload failed strict decode
};

/// Appends one encoded frame to `out`.
void encode_frame(const FrameHeader& header, std::string_view payload,
                  std::string* out);

/// Incremental frame decoder over a byte stream. Feed arbitrary chunks;
/// pop complete frames. Header-level corruption (bad magic / version /
/// unknown type / insane length) poisons the stream permanently — after
/// desync there is no reliable way to resynchronise, so the connection
/// owner must close. Payload-level errors are per-frame and counted by
/// the typed decode helpers, not here.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t size);
  void feed(std::string_view chunk) { feed(chunk.data(), chunk.size()); }

  /// Extracts the next complete frame. Returns false when more bytes are
  /// needed or the stream is poisoned.
  bool next(Frame* frame);

  /// Set permanently once header-level corruption is seen.
  bool poisoned() const noexcept { return poisoned_; }
  const CodecCounters& counters() const noexcept { return counters_; }
  CodecCounters& counters() noexcept { return counters_; }
  /// Bytes buffered but not yet consumed as frames.
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  bool poisoned_ = false;
  CodecCounters counters_;
};

// --- Typed payloads --------------------------------------------------------
// Each message has encode() -> payload string and a static decode that
// returns false on any malformed input (including trailing bytes).

/// Client hello: who is connecting and the newest DB version it has seen
/// (lets the server answer "are you behind me").
struct HelloMsg {
  std::uint8_t proto_version = kProtoVersion;
  std::uint8_t role = 0;  ///< RoleController / RoleAgent below
  ctrl::Version last_known_version = 0;
  std::string peer_name;

  static constexpr std::uint8_t kRoleController = 1;
  static constexpr std::uint8_t kRoleAgent = 2;

  std::string encode() const;
  static bool decode(std::string_view payload, HelloMsg* out);
};

struct HelloAckMsg {
  std::uint8_t proto_version = kProtoVersion;
  ctrl::Version last_applied = 0;  ///< server's shard version
  /// True while the server was restarted with --recover and has not yet
  /// received a snapshot/delta: reads answer kUnavailable.
  bool recovering = false;
  std::string server_name;

  std::string encode() const;
  static bool decode(std::string_view payload, HelloAckMsg* out);
};

struct VersionRespMsg {
  ctrl::Version version = 0;

  std::string encode() const;
  static bool decode(std::string_view payload, VersionRespMsg* out);
};

struct MultiGetReqMsg {
  std::vector<std::string> keys;

  std::string encode() const;
  static bool decode(std::string_view payload, MultiGetReqMsg* out);
};

struct MultiGetRespMsg {
  struct Entry {
    std::uint8_t status = 0;  ///< static_cast of ctrl::GetStatus
    ctrl::Version version = 0;
    std::string value;
  };
  ctrl::Version version = 0;  ///< store version the batch was served at
  bool consistent = true;
  std::vector<Entry> entries;

  std::string encode() const;
  static bool decode(std::string_view payload, MultiGetRespMsg* out);
};

/// Controller -> shard: apply this delta as exactly version `version`.
/// With `snapshot` set the delta carries the shard's complete state and
/// the server applies it via KvStore::reset_to (restart catch-up).
struct PublishDeltaReqMsg {
  ctrl::Version version = 0;
  bool snapshot = false;
  ctrl::KvDelta delta;

  std::string encode() const;
  static bool decode(std::string_view payload, PublishDeltaReqMsg* out);
};

enum class PublishStatus : std::uint8_t {
  kApplied = 0,
  /// Version gap: the server missed publishes and needs a snapshot.
  kNeedResync = 1,
  /// version <= server's current: duplicate delivery, safely ignored.
  kStale = 2,
};

struct PublishDeltaRespMsg {
  PublishStatus status = PublishStatus::kApplied;
  ctrl::Version applied = 0;  ///< server version after handling

  std::string encode() const;
  static bool decode(std::string_view payload, PublishDeltaRespMsg* out);
};

struct SetShardUpReqMsg {
  bool up = false;

  std::string encode() const;
  static bool decode(std::string_view payload, SetShardUpReqMsg* out);
};

struct SetShardUpRespMsg {
  bool up = false;  ///< state after the change

  std::string encode() const;
  static bool decode(std::string_view payload, SetShardUpRespMsg* out);
};

struct ErrorMsg {
  std::string message;

  std::string encode() const;
  static bool decode(std::string_view payload, ErrorMsg* out);
};

}  // namespace megate::net

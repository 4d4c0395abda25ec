#pragma once
// Client side of one shard connection: a blocking request/response
// channel with the §11 reconnect/backoff state machine.
//
//   kDisconnected --connect+HELLO ok--> kReady
//   kReady --send/recv/timeout error--> kBackoff (delay doubles, capped)
//   kBackoff --delay elapsed, retry ok--> kReady
//   any --set_reachable(false)--> kUnreachable (fail-fast, no dialing)
//   kUnreachable --set_reachable(true)--> kDisconnected (backoff reset)
//
// Requests are strictly serialized per channel (the chaos loop and the
// transport are single-threaded by design), but a caller may have one
// request in flight on each of several channels at once: request() is
// send_request() followed by await_reply(), and a transport that fans out
// to every shard sends all requests before awaiting any response, so the
// shards serve them concurrently and the fan-out costs one round trip.
// A response timeout closes the connection — the stream has an in-flight
// response of unknown length and cannot be reused.
//
// kUnreachable exists for the chaos harness: SIGSTOPping a shardd leaves
// its socket open but mute, and without the failure-detector hint every
// request would eat a full wall-clock timeout (a timeout storm that
// would swamp the simulated-time fingerprint).

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "megate/net/frame.h"
#include "megate/net/socket.h"

namespace megate::net {

struct ChannelOptions {
  std::uint16_t port = 0;
  int connect_timeout_ms = 1000;
  int request_timeout_ms = 1000;
  int backoff_initial_ms = 50;
  int backoff_cap_ms = 2000;
  std::uint8_t role = HelloMsg::kRoleController;
  std::string peer_name = "client";
};

class ShardChannel {
 public:
  enum class State : std::uint8_t {
    kDisconnected,  ///< never connected / cleanly reset
    kReady,         ///< handshake done, requests flow
    kBackoff,       ///< recent failure; dialing suppressed until deadline
    kUnreachable,   ///< failure-detector override: fail-fast, no dialing
  };

  struct Stats {
    std::uint64_t connects = 0;        ///< successful handshakes
    std::uint64_t connect_failures = 0;
    std::uint64_t requests = 0;        ///< completed request/response pairs
    std::uint64_t request_failures = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t backoffs = 0;        ///< transitions into kBackoff
  };

  explicit ShardChannel(ChannelOptions options);

  State state() const noexcept { return state_; }
  bool ready() const noexcept { return state_ == State::kReady; }
  std::uint16_t port() const noexcept { return options_.port; }

  /// One serialized request: sends `payload` as `type`, waits for
  /// `expect` with the same request id. False on any failure (channel
  /// transitions per the state machine; *out untouched on failure). A
  /// server ERROR reply also returns false but keeps the connection.
  bool request(FrameType type, std::string_view payload, FrameType expect,
               std::string* out);
  /// Send half of request(): sends `payload` as `type` and stores the
  /// request id in *id. At most one request may be in flight per channel:
  /// each send must be followed by await_reply() before the next send.
  bool send_request(FrameType type, std::string_view payload,
                    std::uint32_t* id);
  /// Await half of request(): waits for the response to `id`, with the
  /// same failure handling as request().
  bool await_reply(std::uint32_t id, FrameType expect, std::string* out);

  /// Ensures a live handshaken connection (dials if allowed). False in
  /// kUnreachable, during backoff, or when the dial/handshake fails.
  bool ensure_connected();

  /// Failure-detector hint (chaos SIGSTOP/kill seam): false fails every
  /// request instantly without consuming timeouts; true re-enables
  /// dialing with a fresh backoff.
  void set_reachable(bool reachable);

  /// Drops the connection and starts (or extends) backoff.
  void fail();
  /// Drops the connection without entering backoff (clean shutdown).
  void reset();

  /// HELLO_ACK data from the most recent successful handshake.
  const HelloAckMsg& last_hello_ack() const noexcept { return hello_ack_; }

  const Stats& stats() const noexcept { return stats_; }
  const CodecCounters& codec_counters() const noexcept { return codec_; }
  /// Current reconnect delay (exposed for the backoff state tests).
  int backoff_delay_ms() const noexcept { return backoff_delay_ms_; }

 private:
  using Clock = std::chrono::steady_clock;

  bool dial();
  /// Reads until a frame with request id `id` arrives or deadline passes.
  bool await_response(std::uint32_t id, Frame* out);

  ChannelOptions options_;
  State state_ = State::kDisconnected;
  Fd fd_;
  FrameDecoder decoder_;
  CodecCounters codec_;  ///< folded from decoders of closed connections
  HelloAckMsg hello_ack_;
  std::uint32_t next_request_id_ = 1;
  int backoff_delay_ms_ = 0;
  Clock::time_point backoff_until_{};
  Stats stats_;
};

}  // namespace megate::net

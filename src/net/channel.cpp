#include "megate/net/channel.h"

#include <algorithm>
#include <utility>

namespace megate::net {
namespace {

void fold_codec(const CodecCounters& from, CodecCounters* into) {
  into->frames += from.frames;
  into->bytes += from.bytes;
  into->oversized += from.oversized;
  into->undersized += from.undersized;
  into->bad_magic += from.bad_magic;
  into->bad_version += from.bad_version;
  into->bad_type += from.bad_type;
  into->bad_payload += from.bad_payload;
}

}  // namespace

ShardChannel::ShardChannel(ChannelOptions options)
    : options_(std::move(options)),
      backoff_delay_ms_(options_.backoff_initial_ms) {}

void ShardChannel::reset() {
  if (fd_.valid()) {
    fold_codec(decoder_.counters(), &codec_);
    decoder_ = FrameDecoder();
    fd_.reset();
  }
  if (state_ != State::kUnreachable) state_ = State::kDisconnected;
}

void ShardChannel::fail() {
  const bool unreachable = state_ == State::kUnreachable;
  reset();
  if (unreachable) return;  // stays unreachable until the hint flips
  state_ = State::kBackoff;
  ++stats_.backoffs;
  backoff_until_ = Clock::now() + std::chrono::milliseconds(backoff_delay_ms_);
  backoff_delay_ms_ = std::min(backoff_delay_ms_ * 2, options_.backoff_cap_ms);
}

void ShardChannel::set_reachable(bool reachable) {
  if (!reachable) {
    reset();
    state_ = State::kUnreachable;
    return;
  }
  if (state_ == State::kUnreachable) {
    state_ = State::kDisconnected;
    backoff_delay_ms_ = options_.backoff_initial_ms;
  }
}

bool ShardChannel::dial() {
  fd_ = tcp_connect(options_.port, options_.connect_timeout_ms);
  if (!fd_.valid()) {
    ++stats_.connect_failures;
    fail();
    return false;
  }
  decoder_ = FrameDecoder();
  // Handshake: HELLO / HELLO_ACK before any request. Uses the same
  // request plumbing but from state kReady so request() doesn't recurse.
  state_ = State::kReady;
  HelloMsg hello;
  hello.role = options_.role;
  hello.last_known_version = hello_ack_.last_applied;
  hello.peer_name = options_.peer_name;
  std::string ack_payload;
  if (!request(FrameType::kHello, hello.encode(), FrameType::kHelloAck,
               &ack_payload) ||
      !HelloAckMsg::decode(ack_payload, &hello_ack_)) {
    ++stats_.connect_failures;
    fail();
    return false;
  }
  ++stats_.connects;
  backoff_delay_ms_ = options_.backoff_initial_ms;
  return true;
}

bool ShardChannel::ensure_connected() {
  switch (state_) {
    case State::kReady:
      return true;
    case State::kUnreachable:
      return false;
    case State::kBackoff:
      if (Clock::now() < backoff_until_) return false;
      state_ = State::kDisconnected;
      [[fallthrough]];
    case State::kDisconnected:
      return dial();
  }
  return false;
}

// How long a waiting client probes its socket with non-blocking recvs
// before it blocks in poll(). A loopback round trip to a polling shard
// takes ~10 µs (VERSION) to ~25 µs (a 16-key MULTI_GET), and up to ~50 µs
// when the shard has to be woken first; each blocking wait adds two
// cross-CPU wakeups (~10 µs each on a VM). 100 µs covers every one of
// those answers with room to spare, and a response slower than that
// (a shard busy applying a publish, a mute server) waits on the blocking
// path with the deadline as before.
constexpr auto kClientSpinWindow = std::chrono::microseconds(100);

bool ShardChannel::await_response(std::uint32_t id, Frame* out) {
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::milliseconds(options_.request_timeout_ms);
  const auto spin_until = spin_waits_pay() ? start + kClientSpinWindow : start;
  char buf[1 << 16];
  while (true) {
    Frame f;
    while (decoder_.next(&f)) {
      if (f.header.request_id != id) continue;  // stale response, skip
      *out = std::move(f);
      return true;
    }
    if (decoder_.poisoned()) return false;
    const auto now = Clock::now();
    if (now >= deadline) {
      ++stats_.timeouts;
      return false;
    }
    const int remaining_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    // Spin (wait 0: one non-blocking recv) inside the window, then block.
    const int wait_ms = now < spin_until ? 0 : std::max(remaining_ms, 1);
    bool timed_out = false;
    const long n = recv_some(fd_.get(), buf, sizeof(buf), wait_ms, &timed_out);
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0 && timed_out) continue;  // loop re-checks the deadline
    return false;                       // peer closed or hard error
  }
}

bool ShardChannel::send_request(FrameType type, std::string_view payload,
                                std::uint32_t* id) {
  if (!ensure_connected()) {
    ++stats_.request_failures;
    return false;
  }
  FrameHeader h;
  h.type = type;
  h.request_id = next_request_id_++;
  std::string wire;
  encode_frame(h, payload, &wire);
  if (!send_all(fd_.get(), wire.data(), wire.size(),
                options_.request_timeout_ms)) {
    ++stats_.request_failures;
    fail();
    return false;
  }
  *id = h.request_id;
  return true;
}

bool ShardChannel::await_reply(std::uint32_t id, FrameType expect,
                               std::string* out) {
  Frame resp;
  if (!await_response(id, &resp)) {
    // Timeout / close / poisoned stream: the connection has an unknown
    // amount of in-flight state and cannot be reused.
    ++stats_.request_failures;
    fail();
    return false;
  }
  if (resp.header.type == FrameType::kError) {
    // Application-level rejection: the stream itself is still framed
    // correctly, so the connection survives.
    ++stats_.request_failures;
    return false;
  }
  if (resp.header.type != expect) {
    ++stats_.request_failures;
    fail();
    return false;
  }
  ++stats_.requests;
  *out = std::move(resp.payload);
  return true;
}

bool ShardChannel::request(FrameType type, std::string_view payload,
                           FrameType expect, std::string* out) {
  std::uint32_t id = 0;
  return send_request(type, payload, &id) && await_reply(id, expect, out);
}

}  // namespace megate::net

#include "megate/net/shard_server.h"

#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <utility>
#include <vector>

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

ShardServer::ShardServer(ctrl::KvStore* kv, ShardServerOptions options)
    : kv_(kv), options_(std::move(options)),
      recovering_(options_.recovering) {}

ShardServer::~ShardServer() = default;

bool ShardServer::start() {
  if (!loop_.valid()) return false;
  listen_ = tcp_listen(options_.port, &port_);
  if (!listen_.valid()) return false;
  return loop_.add(listen_.get(), kReadable,
                   [this](int, std::uint32_t) { accept_pending(); });
}

// How long after its last dispatched event the server keeps polling
// epoll without sleeping. In a fleet pull round a shard sees a request
// every ~15–40 µs, so a 100 µs window keeps it awake through a round and
// saves each request the wakeup a blocked epoll_wait costs (~10 µs per
// cross-CPU wakeup on a VM). Between rounds the shard idles for a whole
// solve, far longer than the window, so it goes back to blocking.
constexpr auto kServerSpinWindow = std::chrono::microseconds(100);

int ShardServer::poll(int timeout_ms) {
  const auto spin_until = last_dispatch_ + kServerSpinWindow;
  int n = 0;
  if (timeout_ms != 0 && spin_waits_pay() && Clock::now() < spin_until) {
    // A window that ends quietly returns 0 like a timeout: the caller
    // re-checks its stop flag (a wake() this spin drained would otherwise
    // go unseen), and its next call blocks.
    do {
      n = loop_.poll(0);
    } while (n == 0 && Clock::now() < spin_until);
  } else {
    n = loop_.poll(timeout_ms);
  }
  if (n > 0) last_dispatch_ = Clock::now();
  return n;
}

void ShardServer::run(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    if (poll(100) < 0) break;
  }
}

void ShardServer::accept_pending() {
  while (true) {
    Fd conn = tcp_accept(listen_.get());
    if (!conn.valid()) break;
    const int fd = conn.get();
    auto c = std::make_unique<Connection>();
    c->fd = std::move(conn);
    if (!loop_.add(fd, kReadable, [this](int f, std::uint32_t ev) {
          on_connection_event(f, ev);
        })) {
      continue;  // conn closes via RAII
    }
    connections_[fd] = std::move(c);
    ++stats_.connections;
  }
}

void ShardServer::on_connection_event(int fd, std::uint32_t events) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& c = *it->second;

  if (events & kReadable) {
    char buf[16384];
    while (true) {
      long n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.decoder.feed(buf, static_cast<std::size_t>(n));
        // A short read drained the socket; the loop is level-triggered,
        // so bytes that land later report readable again, and probing
        // now would only return EAGAIN. A hangup still reads on to the
        // close.
        if (static_cast<std::size_t>(n) < sizeof(buf) &&
            !(events & kClosed)) {
          break;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close_connection(fd);  // orderly close (0) or hard error
      return;
    }
    Frame f;
    while (c.decoder.next(&f)) {
      handle_frame(c, f);
      if (connections_.find(fd) == connections_.end()) return;
    }
    if (c.decoder.poisoned()) {
      // Header-level corruption: the stream cannot be resynchronised.
      ++stats_.poisoned_streams;
      close_connection(fd);
      return;
    }
  }
  if (events & kWritable) flush(c);
  if (events & kClosed) close_connection(fd);
}

void ShardServer::handle_frame(Connection& c, const Frame& f) {
  ++stats_.frames;
  const std::uint32_t id = f.header.request_id;
  switch (f.header.type) {
    case FrameType::kHello: {
      HelloMsg hello;
      if (!HelloMsg::decode(f.payload, &hello)) break;
      if (hello.proto_version != kProtoVersion) {
        send_error(c, id, "unsupported protocol version");
        return;
      }
      HelloAckMsg ack;
      ack.last_applied = kv_->version();
      ack.recovering = recovering_;
      ack.server_name = options_.name;
      send_frame(c, FrameType::kHelloAck, id, ack.encode());
      return;
    }
    case FrameType::kVersionReq: {
      // Answered even while recovering: a stale version is harmless
      // because clients take the max with the controller-fed version.
      VersionRespMsg resp;
      resp.version = kv_->version();
      send_frame(c, FrameType::kVersionResp, id, resp.encode());
      return;
    }
    case FrameType::kMultiGetReq: {
      MultiGetReqMsg req;
      if (!MultiGetReqMsg::decode(f.payload, &req)) break;
      MultiGetRespMsg resp;
      if (recovering_) {
        // Restarted with an empty store: answering kMiss here would be a
        // stale read (the key may exist at the cluster version). Refuse.
        resp.version = kv_->version();
        resp.consistent = true;
        resp.entries.resize(req.keys.size());
        for (auto& e : resp.entries) {
          e.status =
              static_cast<std::uint8_t>(ctrl::GetStatus::kUnavailable);
          e.version = resp.version;
        }
      } else {
        ctrl::MultiGetResult got = kv_->multi_get(req.keys);
        resp.version = got.version;
        resp.consistent = got.consistent;
        resp.entries.reserve(got.entries.size());
        for (ctrl::GetResult& g : got.entries) {
          MultiGetRespMsg::Entry e;
          e.status = static_cast<std::uint8_t>(g.status);
          e.version = g.version;
          e.value = std::move(g.value);
          resp.entries.push_back(std::move(e));
        }
      }
      send_frame(c, FrameType::kMultiGetResp, id, resp.encode());
      return;
    }
    case FrameType::kPublishDeltaReq: {
      PublishDeltaReqMsg req;
      if (!PublishDeltaReqMsg::decode(f.payload, &req)) break;
      PublishDeltaRespMsg resp;
      const ctrl::Version have = kv_->version();
      if (req.snapshot) {
        if (req.version < have) {
          resp.status = PublishStatus::kStale;
          resp.applied = have;
        } else {
          kv_->reset_to(req.delta, req.version);
          recovering_ = false;
          ++stats_.snapshots;
          resp.status = PublishStatus::kApplied;
          resp.applied = req.version;
        }
      } else if (req.version == have + 1) {
        const ctrl::Version applied = kv_->publish_delta(req.delta);
        recovering_ = false;
        ++stats_.publishes;
        resp.status = PublishStatus::kApplied;
        resp.applied = applied;
      } else if (req.version <= have) {
        // Duplicate delivery (client retry after a lost response).
        ++stats_.stale_publishes;
        resp.status = PublishStatus::kStale;
        resp.applied = have;
      } else {
        // Version gap: this server was dead for >= 1 publish.
        ++stats_.resyncs_requested;
        resp.status = PublishStatus::kNeedResync;
        resp.applied = have;
      }
      send_frame(c, FrameType::kPublishDeltaResp, id, resp.encode());
      return;
    }
    case FrameType::kSetShardUpReq: {
      SetShardUpReqMsg req;
      if (!SetShardUpReqMsg::decode(f.payload, &req)) break;
      kv_->set_shard_up(0, req.up);
      SetShardUpRespMsg resp;
      resp.up = req.up;
      send_frame(c, FrameType::kSetShardUpResp, id, resp.encode());
      return;
    }
    default:
      send_error(c, id, "unexpected frame type");
      return;
  }
  // Shared fall-through: the typed payload failed strict decode. Counted
  // in the server aggregate directly (not the connection decoder) so the
  // drop is visible while the connection is still open.
  ++codec_.bad_payload;
  send_error(c, id, "malformed payload");
}

void ShardServer::send_frame(Connection& c, FrameType type,
                             std::uint32_t request_id,
                             std::string_view payload) {
  FrameHeader h;
  h.type = type;
  h.request_id = request_id;
  encode_frame(h, payload, &c.outbuf);
  flush(c);
}

void ShardServer::send_error(Connection& c, std::uint32_t request_id,
                             const std::string& message) {
  ++stats_.errors_sent;
  ErrorMsg err;
  err.message = message;
  send_frame(c, FrameType::kError, request_id, err.encode());
}

void ShardServer::flush(Connection& c) {
  const int fd = c.fd.get();
  while (c.out_pos < c.outbuf.size()) {
    long n = ::send(fd, c.outbuf.data() + c.out_pos,
                    c.outbuf.size() - c.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      set_write_interest(c, true);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_connection(fd);
    return;
  }
  c.outbuf.clear();
  c.out_pos = 0;
  set_write_interest(c, false);
}

void ShardServer::set_write_interest(Connection& c, bool want) {
  if (c.want_write == want) return;
  c.want_write = want;
  loop_.modify(c.fd.get(), want ? kReadable | kWritable : kReadable);
}

void ShardServer::close_connection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  fold_codec(it->second->decoder.counters(), &codec_);
  loop_.remove(fd);
  connections_.erase(it);  // Fd RAII closes
}

void ShardServer::bind_metrics(obs::MetricsRegistry& registry,
                               const std::string& prefix) const {
  const auto expose = [&](const char* name, const std::uint64_t* field) {
    registry.expose_counter(prefix + "." + name,
                            [field]() { return *field; });
  };
  expose("connections", &stats_.connections);
  expose("frames", &stats_.frames);
  expose("publishes", &stats_.publishes);
  expose("snapshots", &stats_.snapshots);
  expose("stale_publishes", &stats_.stale_publishes);
  expose("resyncs_requested", &stats_.resyncs_requested);
  expose("errors_sent", &stats_.errors_sent);
  expose("poisoned_streams", &stats_.poisoned_streams);
  expose("codec.frames", &codec_.frames);
  expose("codec.bytes", &codec_.bytes);
  expose("codec.oversized", &codec_.oversized);
  expose("codec.undersized", &codec_.undersized);
  expose("codec.bad_magic", &codec_.bad_magic);
  expose("codec.bad_version", &codec_.bad_version);
  expose("codec.bad_type", &codec_.bad_type);
  expose("codec.bad_payload", &codec_.bad_payload);
  registry.expose_gauge(prefix + ".recovering", [this]() {
    return recovering_ ? 1.0 : 0.0;
  });
  registry.expose_gauge(prefix + ".open_connections", [this]() {
    return static_cast<double>(connections_.size());
  });
}

}  // namespace megate::net

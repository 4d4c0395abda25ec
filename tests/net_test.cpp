// Wire-protocol and socket-layer tests (PR 6 satellite): codec
// round-trips with truncation at every byte length, random-corruption
// fuzzing with drop-reason accounting, FrameDecoder poisoning, the epoll
// event loop, and an in-thread ShardServer driven through ShardChannel —
// including the reconnect/backoff state machine and the resync protocol.

#include <gtest/gtest.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "megate/ctrl/kvstore.h"
#include "megate/ctrl/transport.h"
#include "megate/net/channel.h"
#include "megate/net/event_loop.h"
#include "megate/net/frame.h"
#include "megate/net/shard_server.h"
#include "megate/net/socket.h"
#include "megate/net/tcp_transport.h"
#include "megate/net/wire.h"
#include "megate/util/rng.h"

namespace megate {
namespace {

using ctrl::GetStatus;
using net::CodecCounters;
using net::Frame;
using net::FrameDecoder;
using net::FrameHeader;
using net::FrameType;

// --- wire primitives --------------------------------------------------------

TEST(WireTest, RoundTripsEveryPrimitive) {
  std::string buf;
  net::WireWriter w(&buf);
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.str("hello");
  w.str("");  // empty strings are legal

  net::WireReader r(buf);
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t d = 0;
  std::string s, t;
  ASSERT_TRUE(r.u8(&a));
  ASSERT_TRUE(r.u16(&b));
  ASSERT_TRUE(r.u32(&c));
  ASSERT_TRUE(r.u64(&d));
  ASSERT_TRUE(r.str(&s));
  ASSERT_TRUE(r.str(&t));
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xBEEF);
  EXPECT_EQ(c, 0xDEADBEEFu);
  EXPECT_EQ(d, 0x0123456789ABCDEFull);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(t, "");
  EXPECT_TRUE(r.done());
  // Reading past the end fails without moving the cursor.
  EXPECT_FALSE(r.u8(&a));
  EXPECT_TRUE(r.done());
}

TEST(WireTest, IsLittleEndianOnTheWire) {
  std::string buf;
  net::WireWriter w(&buf);
  w.u32(0x01020304u);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(buf[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(buf[1]), 0x03);
  EXPECT_EQ(static_cast<unsigned char>(buf[2]), 0x02);
  EXPECT_EQ(static_cast<unsigned char>(buf[3]), 0x01);
}

TEST(WireTest, StringLengthPastBufferEndIsRejected) {
  std::string buf;
  net::WireWriter w(&buf);
  w.u32(1000);  // claims 1000 bytes, buffer has none
  net::WireReader r(buf);
  std::string s;
  EXPECT_FALSE(r.str(&s));
  // Cursor unchanged: the length prefix is still readable.
  std::uint32_t n = 0;
  EXPECT_TRUE(r.u32(&n));
  EXPECT_EQ(n, 1000u);
}

// --- typed payload codecs ---------------------------------------------------

// Strict-codec property: the payload decodes whole, every strict prefix
// is rejected (truncation at EVERY length), and one trailing byte is
// rejected (no garbage can hide behind a valid message).
template <typename M>
void ExpectStrictCodec(const M& msg) {
  const std::string payload = msg.encode();
  M out;
  ASSERT_TRUE(M::decode(payload, &out));
  // Re-encode equality is field equality for these deterministic codecs.
  EXPECT_EQ(out.encode(), payload);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    M t;
    EXPECT_FALSE(M::decode(std::string_view(payload.data(), len), &t))
        << "prefix of length " << len << " decoded";
  }
  M t;
  EXPECT_FALSE(M::decode(payload + '\0', &t)) << "trailing byte accepted";
}

TEST(CodecTest, EveryMessageRoundTripsAndRejectsEveryTruncation) {
  net::HelloMsg hello;
  hello.role = net::HelloMsg::kRoleAgent;
  hello.last_known_version = 41;
  hello.peer_name = "agent-7";
  ExpectStrictCodec(hello);

  net::HelloAckMsg ack;
  ack.last_applied = 9;
  ack.recovering = true;
  ack.server_name = "shardd1";
  ExpectStrictCodec(ack);

  net::VersionRespMsg ver;
  ver.version = 123456789;
  ExpectStrictCodec(ver);

  net::MultiGetReqMsg mreq;
  mreq.keys = {"path/1", "path/22", ""};
  ExpectStrictCodec(mreq);

  net::MultiGetRespMsg mresp;
  mresp.version = 7;
  mresp.consistent = false;
  mresp.entries.push_back({static_cast<std::uint8_t>(GetStatus::kOk), 7,
                           "dst:1,2|dst:3"});
  mresp.entries.push_back(
      {static_cast<std::uint8_t>(GetStatus::kUnavailable), 0, ""});
  ExpectStrictCodec(mresp);

  net::PublishDeltaReqMsg pub;
  pub.version = 3;
  pub.snapshot = true;
  pub.delta.upserts = {{"path/1", "dst:1"}, {"path/2", ""}};
  pub.delta.erases = {"path/9"};
  ExpectStrictCodec(pub);

  net::PublishDeltaRespMsg presp;
  presp.status = net::PublishStatus::kNeedResync;
  presp.applied = 2;
  ExpectStrictCodec(presp);

  net::SetShardUpReqMsg up;
  up.up = true;
  ExpectStrictCodec(up);

  net::SetShardUpRespMsg upresp;
  upresp.up = false;
  ExpectStrictCodec(upresp);

  net::ErrorMsg err;
  err.message = "bad payload";
  ExpectStrictCodec(err);
}

TEST(CodecTest, RejectsOutOfRangeEnumsAndBools) {
  // SET_SHARD_UP with a bool byte of 2.
  {
    std::string p;
    net::WireWriter(&p).u8(2);
    net::SetShardUpReqMsg m;
    EXPECT_FALSE(net::SetShardUpReqMsg::decode(p, &m));
  }
  // Publish response with status byte 3 (outside PublishStatus).
  {
    std::string p;
    net::WireWriter w(&p);
    w.u8(3);
    w.u64(1);
    net::PublishDeltaRespMsg m;
    EXPECT_FALSE(net::PublishDeltaRespMsg::decode(p, &m));
  }
  // Multi-get entry with a GetStatus byte past kUnavailable.
  {
    net::MultiGetRespMsg good;
    good.version = 1;
    good.entries.push_back({static_cast<std::uint8_t>(GetStatus::kOk), 1, "v"});
    std::string p = good.encode();
    // The entry status byte sits right after version(8) + consistent(1) +
    // count(4).
    p[8 + 1 + 4] = 9;
    net::MultiGetRespMsg m;
    EXPECT_FALSE(net::MultiGetRespMsg::decode(p, &m));
  }
}

TEST(CodecTest, RejectsAllocationBaitCounts) {
  // A multi-get request claiming 2^31 keys in a 12-byte payload must be
  // rejected before any reserve() happens.
  std::string p;
  net::WireWriter w(&p);
  w.u32(0x80000000u);
  w.u64(0);  // filler bytes, far fewer than the count demands
  net::MultiGetReqMsg m;
  EXPECT_FALSE(net::MultiGetReqMsg::decode(p, &m));
}

// --- frame decoder ----------------------------------------------------------

std::string encoded_frame(FrameType type, std::uint32_t request_id,
                          std::string_view payload) {
  std::string out;
  net::encode_frame(FrameHeader{net::kProtoVersion, type, request_id}, payload,
                    &out);
  return out;
}

TEST(FrameDecoderTest, DecodesFramesAcrossArbitraryChunking) {
  const std::string a =
      encoded_frame(FrameType::kVersionReq, 1, "");
  const std::string b = encoded_frame(FrameType::kVersionResp, 2,
                                      net::VersionRespMsg{77}.encode());
  const std::string stream = a + b;

  // Byte-at-a-time feeding produces exactly the two frames.
  FrameDecoder d;
  std::vector<Frame> got;
  for (char ch : stream) {
    d.feed(&ch, 1);
    Frame f;
    while (d.next(&f)) got.push_back(f);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].header.type, FrameType::kVersionReq);
  EXPECT_EQ(got[0].header.request_id, 1u);
  EXPECT_EQ(got[1].header.type, FrameType::kVersionResp);
  net::VersionRespMsg resp;
  ASSERT_TRUE(net::VersionRespMsg::decode(got[1].payload, &resp));
  EXPECT_EQ(resp.version, 77u);
  EXPECT_EQ(d.counters().frames, 2u);
  EXPECT_EQ(d.counters().bytes, stream.size());
  EXPECT_EQ(d.buffered(), 0u);
  EXPECT_FALSE(d.poisoned());

  // Both frames in one feed work the same.
  FrameDecoder d2;
  d2.feed(stream);
  Frame f;
  ASSERT_TRUE(d2.next(&f));
  ASSERT_TRUE(d2.next(&f));
  EXPECT_FALSE(d2.next(&f));
}

TEST(FrameDecoderTest, TruncationAtEveryLengthYieldsNoFrameAndResumes) {
  const std::string frame = encoded_frame(
      FrameType::kError, 9, net::ErrorMsg{"something went wrong"}.encode());
  for (std::size_t len = 0; len < frame.size(); ++len) {
    FrameDecoder d;
    d.feed(frame.data(), len);
    Frame f;
    EXPECT_FALSE(d.next(&f)) << "prefix " << len << " produced a frame";
    EXPECT_FALSE(d.poisoned()) << "prefix " << len << " poisoned the stream";
    // Feeding the remainder completes the frame: truncation is just
    // "wait for more bytes", never data loss.
    d.feed(frame.data() + len, frame.size() - len);
    ASSERT_TRUE(d.next(&f)) << "resume after prefix " << len;
    EXPECT_EQ(f.header.type, FrameType::kError);
    EXPECT_EQ(f.payload, net::ErrorMsg{"something went wrong"}.encode());
  }
}

TEST(FrameDecoderTest, HeaderCorruptionPoisonsWithAttribution) {
  const std::string good =
      encoded_frame(FrameType::kVersionReq, 5, "");

  struct Case {
    const char* name;
    std::size_t offset;  // byte to corrupt (after the 4-byte length)
    char value;
    std::uint64_t CodecCounters::*reason;
  };
  const Case cases[] = {
      {"bad magic", 4, '\x00', &CodecCounters::bad_magic},
      {"bad version", 6, '\x7F', &CodecCounters::bad_version},
      {"bad type", 7, '\x63', &CodecCounters::bad_type},
  };
  for (const Case& c : cases) {
    std::string bad = good;
    bad[c.offset] = c.value;
    FrameDecoder d;
    d.feed(bad);
    Frame f;
    EXPECT_FALSE(d.next(&f)) << c.name;
    EXPECT_TRUE(d.poisoned()) << c.name;
    EXPECT_EQ(d.counters().*(c.reason), 1u) << c.name;
    // Poisoning is permanent: a subsequent valid frame is never parsed.
    d.feed(good);
    EXPECT_FALSE(d.next(&f)) << c.name;
  }

  // Oversized length.
  {
    std::string bad = good;
    const std::uint32_t huge = net::kMaxFrameLength + 1;
    bad[0] = static_cast<char>(huge & 0xFF);
    bad[1] = static_cast<char>((huge >> 8) & 0xFF);
    bad[2] = static_cast<char>((huge >> 16) & 0xFF);
    bad[3] = static_cast<char>((huge >> 24) & 0xFF);
    FrameDecoder d;
    d.feed(bad);
    Frame f;
    EXPECT_FALSE(d.next(&f));
    EXPECT_TRUE(d.poisoned());
    EXPECT_EQ(d.counters().oversized, 1u);
  }
  // Undersized length (shorter than the header tail).
  {
    std::string bad = good;
    bad[0] = 3;
    bad[1] = bad[2] = bad[3] = 0;
    FrameDecoder d;
    d.feed(bad);
    Frame f;
    EXPECT_FALSE(d.next(&f));
    EXPECT_TRUE(d.poisoned());
    EXPECT_EQ(d.counters().undersized, 1u);
  }
}

// Typed decode dispatch used by the fuzzer: returns false on bad payload.
bool typed_decode(const Frame& f) {
  switch (f.header.type) {
    case FrameType::kHello: {
      net::HelloMsg m;
      return net::HelloMsg::decode(f.payload, &m);
    }
    case FrameType::kHelloAck: {
      net::HelloAckMsg m;
      return net::HelloAckMsg::decode(f.payload, &m);
    }
    case FrameType::kVersionReq:
      return f.payload.empty();
    case FrameType::kVersionResp: {
      net::VersionRespMsg m;
      return net::VersionRespMsg::decode(f.payload, &m);
    }
    case FrameType::kMultiGetReq: {
      net::MultiGetReqMsg m;
      return net::MultiGetReqMsg::decode(f.payload, &m);
    }
    case FrameType::kMultiGetResp: {
      net::MultiGetRespMsg m;
      return net::MultiGetRespMsg::decode(f.payload, &m);
    }
    case FrameType::kPublishDeltaReq: {
      net::PublishDeltaReqMsg m;
      return net::PublishDeltaReqMsg::decode(f.payload, &m);
    }
    case FrameType::kPublishDeltaResp: {
      net::PublishDeltaRespMsg m;
      return net::PublishDeltaRespMsg::decode(f.payload, &m);
    }
    case FrameType::kSetShardUpReq: {
      net::SetShardUpReqMsg m;
      return net::SetShardUpReqMsg::decode(f.payload, &m);
    }
    case FrameType::kSetShardUpResp: {
      net::SetShardUpRespMsg m;
      return net::SetShardUpRespMsg::decode(f.payload, &m);
    }
    case FrameType::kError: {
      net::ErrorMsg m;
      return net::ErrorMsg::decode(f.payload, &m);
    }
  }
  return false;
}

// The fuzz corpus: one representative valid frame per message type.
std::vector<std::string> fuzz_corpus() {
  std::vector<std::string> corpus;
  net::HelloMsg hello;
  hello.peer_name = "fuzz";
  corpus.push_back(encoded_frame(FrameType::kHello, 1, hello.encode()));
  corpus.push_back(encoded_frame(FrameType::kVersionReq, 2, ""));
  corpus.push_back(
      encoded_frame(FrameType::kVersionResp, 3,
                    net::VersionRespMsg{42}.encode()));
  net::MultiGetReqMsg mget;
  mget.keys = {"path/1", "path/2", "path/3"};
  corpus.push_back(encoded_frame(FrameType::kMultiGetReq, 4, mget.encode()));
  net::MultiGetRespMsg mresp;
  mresp.version = 6;
  mresp.entries.push_back({static_cast<std::uint8_t>(GetStatus::kOk), 6,
                           "dst:1,2|dst:3,4"});
  corpus.push_back(encoded_frame(FrameType::kMultiGetResp, 5, mresp.encode()));
  net::PublishDeltaReqMsg pub;
  pub.version = 7;
  pub.delta.upserts = {{"path/1", "dst:1"}};
  pub.delta.erases = {"path/2"};
  corpus.push_back(
      encoded_frame(FrameType::kPublishDeltaReq, 6, pub.encode()));
  net::PublishDeltaRespMsg presp;
  presp.applied = 99;
  corpus.push_back(
      encoded_frame(FrameType::kPublishDeltaResp, 7, presp.encode()));
  corpus.push_back(encoded_frame(FrameType::kError, 8,
                                 net::ErrorMsg{"oops"}.encode()));
  return corpus;
}

TEST(FuzzTest, RandomCorruptionNeverCrashesAndEveryDropIsAttributed) {
  const std::vector<std::string> corpus = fuzz_corpus();
  util::Rng rng(20240601);
  CodecCounters totals;
  std::uint64_t decoded = 0, payload_rejects = 0, pending = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string bytes = corpus[rng.uniform_int(0, corpus.size() - 1)];
    const std::size_t flips = 1 + rng.uniform_int(0, 3);
    for (std::size_t i = 0; i < flips; ++i) {
      bytes[rng.uniform_int(0, bytes.size() - 1)] ^=
          static_cast<char>(1u << rng.uniform_int(0, 7));
    }
    FrameDecoder d;
    d.feed(bytes);
    Frame f;
    while (d.next(&f)) {
      ++decoded;
      if (!typed_decode(f)) {
        ++d.counters().bad_payload;
        ++payload_rejects;
      }
    }
    const CodecCounters& c = d.counters();
    // Accounting invariant: every fed buffer ends fully explained — a
    // decoded frame, a poison reason, or bytes still waiting for more
    // input (a corrupt length pointing past the buffer).
    const bool explained =
        c.frames > 0 || d.poisoned() || d.buffered() > 0;
    EXPECT_TRUE(explained) << "iteration " << iter << " vanished silently";
    if (!d.poisoned() && c.frames == 0) ++pending;
    totals.frames += c.frames;
    totals.oversized += c.oversized;
    totals.undersized += c.undersized;
    totals.bad_magic += c.bad_magic;
    totals.bad_version += c.bad_version;
    totals.bad_type += c.bad_type;
    totals.bad_payload += c.bad_payload;
  }
  // 4000 corruptions must have exercised every rejection class at least
  // once (the corpus offsets cover length, magic, version, type and
  // payload bytes) — otherwise the fuzzer is not reaching the decoder.
  EXPECT_GT(totals.bad_magic, 0u);
  EXPECT_GT(totals.bad_version, 0u);
  EXPECT_GT(totals.bad_type, 0u);
  EXPECT_GT(totals.bad_payload, 0u);
  EXPECT_GT(totals.oversized + totals.undersized + pending, 0u);
  EXPECT_GT(decoded, 0u);  // some flips only touch payload content bytes
  EXPECT_GT(payload_rejects, 0u);
}

TEST(FuzzTest, RandomGarbageStreamsNeverCrashTheDecoder) {
  util::Rng rng(77);
  for (int iter = 0; iter < 500; ++iter) {
    const std::size_t n = rng.uniform_int(0, 200);
    std::string bytes(n, '\0');
    for (char& ch : bytes) {
      ch = static_cast<char>(rng.uniform_int(0, 255));
    }
    FrameDecoder d;
    // Feed in random-sized chunks to stress resumption paths.
    std::size_t off = 0;
    while (off < bytes.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.uniform_int(0, 16),
                                bytes.size() - off);
      d.feed(bytes.data() + off, chunk);
      off += chunk;
      Frame f;
      while (d.next(&f)) (void)typed_decode(f);
    }
  }
}

// --- event loop -------------------------------------------------------------

TEST(EventLoopTest, DispatchesReadableEventsAndWakes) {
  net::EventLoop loop;
  ASSERT_TRUE(loop.valid());

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  net::Fd rd(fds[0]), wr(fds[1]);

  std::uint32_t seen = 0;
  ASSERT_TRUE(loop.add(rd.get(), net::kReadable,
                       [&seen](int, std::uint32_t events) { seen = events; }));
  // Nothing to read yet: poll times out.
  EXPECT_EQ(loop.poll(0), 0);

  ASSERT_EQ(::write(wr.get(), "x", 1), 1);
  EXPECT_EQ(loop.poll(1000), 1);
  EXPECT_TRUE(seen & net::kReadable);

  char buf[1];
  ASSERT_EQ(::read(rd.get(), buf, 1), 1);
  loop.remove(rd.get());

  // wake() makes a long poll return promptly.
  loop.wake();
  EXPECT_GE(loop.poll(5000), 0);  // returns without waiting 5 s
}

// --- server + channel -------------------------------------------------------

// One ShardServer on a background thread. Stats/kv reads from the test
// thread only happen after shutdown() joins the server thread.
struct TestServer {
  ctrl::KvStore kv{1};
  net::ShardServer server;
  std::thread thread;
  std::atomic<bool> stop{false};

  explicit TestServer(net::ShardServerOptions o = {}) : server(&kv, o) {}
  ~TestServer() { shutdown(); }

  bool start() {
    if (!server.start()) return false;
    thread = std::thread([this] { server.run(stop); });
    return true;
  }
  void shutdown() {
    if (!thread.joinable()) return;
    stop = true;
    server.wake();
    thread.join();
  }
};

net::ChannelOptions channel_options(std::uint16_t port) {
  net::ChannelOptions o;
  o.port = port;
  o.request_timeout_ms = 5000;  // sanitizer runs are slow
  o.peer_name = "net-test";
  return o;
}

TEST(ServerChannelTest, HandshakeRequestResponseAndAdminSeam) {
  TestServer ts;
  ASSERT_TRUE(ts.start());
  net::ShardChannel ch(channel_options(ts.server.port()));

  ASSERT_TRUE(ch.ensure_connected());
  EXPECT_EQ(ch.state(), net::ShardChannel::State::kReady);
  EXPECT_FALSE(ch.last_hello_ack().recovering);
  EXPECT_EQ(ch.last_hello_ack().last_applied, 0u);

  // Version starts at 0.
  std::string resp;
  ASSERT_TRUE(ch.request(FrameType::kVersionReq, "", FrameType::kVersionResp,
                         &resp));
  net::VersionRespMsg ver;
  ASSERT_TRUE(net::VersionRespMsg::decode(resp, &ver));
  EXPECT_EQ(ver.version, 0u);

  // Publish v1, read it back through MULTI_GET.
  net::PublishDeltaReqMsg pub;
  pub.version = 1;
  pub.delta.upserts = {{"path/1", "dst:1,2"}};
  ASSERT_TRUE(ch.request(FrameType::kPublishDeltaReq, pub.encode(),
                         FrameType::kPublishDeltaResp, &resp));
  net::PublishDeltaRespMsg presp;
  ASSERT_TRUE(net::PublishDeltaRespMsg::decode(resp, &presp));
  EXPECT_EQ(presp.status, net::PublishStatus::kApplied);
  EXPECT_EQ(presp.applied, 1u);

  net::MultiGetReqMsg mreq;
  mreq.keys = {"path/1", "path/404"};
  ASSERT_TRUE(ch.request(FrameType::kMultiGetReq, mreq.encode(),
                         FrameType::kMultiGetResp, &resp));
  net::MultiGetRespMsg mresp;
  ASSERT_TRUE(net::MultiGetRespMsg::decode(resp, &mresp));
  EXPECT_EQ(mresp.version, 1u);
  ASSERT_EQ(mresp.entries.size(), 2u);
  EXPECT_EQ(mresp.entries[0].status,
            static_cast<std::uint8_t>(GetStatus::kOk));
  EXPECT_EQ(mresp.entries[0].value, "dst:1,2");
  EXPECT_EQ(mresp.entries[1].status,
            static_cast<std::uint8_t>(GetStatus::kMiss));

  // Admin seam: shard down -> reads answer kUnavailable; a publish while
  // down lands in the redo log; shard up replays it.
  net::SetShardUpReqMsg down;
  down.up = false;
  ASSERT_TRUE(ch.request(FrameType::kSetShardUpReq, down.encode(),
                         FrameType::kSetShardUpResp, &resp));
  ASSERT_TRUE(ch.request(FrameType::kMultiGetReq, mreq.encode(),
                         FrameType::kMultiGetResp, &resp));
  ASSERT_TRUE(net::MultiGetRespMsg::decode(resp, &mresp));
  EXPECT_EQ(mresp.entries[0].status,
            static_cast<std::uint8_t>(GetStatus::kUnavailable));

  pub.version = 2;
  pub.delta.upserts = {{"path/1", "dst:3"}};
  ASSERT_TRUE(ch.request(FrameType::kPublishDeltaReq, pub.encode(),
                         FrameType::kPublishDeltaResp, &resp));
  ASSERT_TRUE(net::PublishDeltaRespMsg::decode(resp, &presp));
  EXPECT_EQ(presp.status, net::PublishStatus::kApplied);

  net::SetShardUpReqMsg up;
  up.up = true;
  ASSERT_TRUE(ch.request(FrameType::kSetShardUpReq, up.encode(),
                         FrameType::kSetShardUpResp, &resp));
  ASSERT_TRUE(ch.request(FrameType::kMultiGetReq, mreq.encode(),
                         FrameType::kMultiGetResp, &resp));
  ASSERT_TRUE(net::MultiGetRespMsg::decode(resp, &mresp));
  EXPECT_EQ(mresp.entries[0].status,
            static_cast<std::uint8_t>(GetStatus::kOk));
  EXPECT_EQ(mresp.entries[0].value, "dst:3");

  ts.shutdown();
  EXPECT_EQ(ts.server.stats().publishes, 2u);
  EXPECT_EQ(ts.server.stats().connections, 1u);
  EXPECT_EQ(ts.kv.redo_replayed(), 1u);
}

TEST(ServerChannelTest, VersionGapTriggersResyncAndStaleIsIgnored) {
  TestServer ts;
  ASSERT_TRUE(ts.start());
  net::ShardChannel ch(channel_options(ts.server.port()));
  std::string resp;

  auto publish = [&](ctrl::Version v, bool snapshot) {
    net::PublishDeltaReqMsg pub;
    pub.version = v;
    pub.snapshot = snapshot;
    pub.delta.upserts = {{"path/1", "v" + std::to_string(v)}};
    EXPECT_TRUE(ch.request(FrameType::kPublishDeltaReq, pub.encode(),
                           FrameType::kPublishDeltaResp, &resp));
    net::PublishDeltaRespMsg presp;
    EXPECT_TRUE(net::PublishDeltaRespMsg::decode(resp, &presp));
    return presp;
  };

  EXPECT_EQ(publish(1, false).status, net::PublishStatus::kApplied);
  // Gap: v3 without v2 -> the server demands a resync and stays at 1.
  auto gap = publish(3, false);
  EXPECT_EQ(gap.status, net::PublishStatus::kNeedResync);
  EXPECT_EQ(gap.applied, 1u);
  // Duplicate/old version: ignored as stale.
  EXPECT_EQ(publish(1, false).status, net::PublishStatus::kStale);
  // Snapshot closes the gap (reset_to jumps the version).
  auto snap = publish(5, true);
  EXPECT_EQ(snap.status, net::PublishStatus::kApplied);
  EXPECT_EQ(snap.applied, 5u);
  // Contiguous publishing resumes after the jump.
  EXPECT_EQ(publish(6, false).status, net::PublishStatus::kApplied);

  ts.shutdown();
  EXPECT_EQ(ts.server.stats().resyncs_requested, 1u);
  EXPECT_EQ(ts.server.stats().stale_publishes, 1u);
  EXPECT_EQ(ts.server.stats().snapshots, 1u);
  EXPECT_EQ(ts.kv.version(), 6u);
  EXPECT_EQ(ts.kv.try_get("path/1").value, "v6");
}

TEST(ServerChannelTest, MalformedPayloadGetsErrorButKeepsConnection) {
  TestServer ts;
  ASSERT_TRUE(ts.start());
  net::ShardChannel ch(channel_options(ts.server.port()));
  std::string resp;

  // Garbage MULTI_GET payload: server answers ERROR; request() reports
  // failure but the connection stays usable.
  EXPECT_FALSE(ch.request(FrameType::kMultiGetReq, "\xFF\xFF\xFF",
                          FrameType::kMultiGetResp, &resp));
  EXPECT_EQ(ch.state(), net::ShardChannel::State::kReady);
  ASSERT_TRUE(ch.request(FrameType::kVersionReq, "", FrameType::kVersionResp,
                         &resp));

  ts.shutdown();
  EXPECT_EQ(ts.server.stats().errors_sent, 1u);
  EXPECT_EQ(ts.server.codec_counters().bad_payload, 1u);
}

TEST(ServerChannelTest, RecoveringServerRefusesReadsUntilFirstPublish) {
  net::ShardServerOptions opt;
  opt.recovering = true;
  TestServer ts(opt);
  ASSERT_TRUE(ts.start());
  net::ShardChannel ch(channel_options(ts.server.port()));
  std::string resp;

  ASSERT_TRUE(ch.ensure_connected());
  EXPECT_TRUE(ch.last_hello_ack().recovering);

  net::MultiGetReqMsg mreq;
  mreq.keys = {"path/1"};
  ASSERT_TRUE(ch.request(FrameType::kMultiGetReq, mreq.encode(),
                         FrameType::kMultiGetResp, &resp));
  net::MultiGetRespMsg mresp;
  ASSERT_TRUE(net::MultiGetRespMsg::decode(resp, &mresp));
  EXPECT_EQ(mresp.entries[0].status,
            static_cast<std::uint8_t>(GetStatus::kUnavailable));

  // The catch-up snapshot closes the stale-read window.
  net::PublishDeltaReqMsg pub;
  pub.version = 4;
  pub.snapshot = true;
  pub.delta.upserts = {{"path/1", "dst:9"}};
  ASSERT_TRUE(ch.request(FrameType::kPublishDeltaReq, pub.encode(),
                         FrameType::kPublishDeltaResp, &resp));
  ASSERT_TRUE(ch.request(FrameType::kMultiGetReq, mreq.encode(),
                         FrameType::kMultiGetResp, &resp));
  ASSERT_TRUE(net::MultiGetRespMsg::decode(resp, &mresp));
  EXPECT_EQ(mresp.entries[0].status,
            static_cast<std::uint8_t>(GetStatus::kOk));
  EXPECT_EQ(mresp.entries[0].value, "dst:9");

  ts.shutdown();
  EXPECT_FALSE(ts.server.recovering());
}

// CPU seconds `t` has run so far (-1 when the clock is unavailable).
double thread_cpu_seconds(std::thread& t) {
  clockid_t clock = 0;
  timespec now{};
  if (pthread_getcpuclockid(t.native_handle(), &clock) != 0 ||
      clock_gettime(clock, &now) != 0) {
    return -1.0;
  }
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

TEST(ServerChannelTest, ResponseLargerThanSendBufferThenSmallRequest) {
  TestServer ts;
  ASSERT_TRUE(ts.start());
  net::ShardChannel ch(channel_options(ts.server.port()));
  std::string resp;

  // 8 MiB of values, twice a loopback socket's largest send buffer: the
  // server's send stops at EAGAIN and the rest of the response goes out
  // through the kWritable path.
  constexpr std::size_t kKeys = 8;
  constexpr std::size_t kValueBytes = std::size_t{1} << 20;
  const auto value_of = [](std::size_t i) {
    return std::string(kValueBytes, static_cast<char>('a' + i));
  };
  net::PublishDeltaReqMsg pub;
  pub.version = 1;
  net::MultiGetReqMsg mreq;
  for (std::size_t i = 0; i < kKeys; ++i) {
    mreq.keys.push_back("path/" + std::to_string(i));
    pub.delta.upserts.emplace_back(mreq.keys.back(), value_of(i));
  }
  ASSERT_TRUE(ch.request(FrameType::kPublishDeltaReq, pub.encode(),
                         FrameType::kPublishDeltaResp, &resp));
  ASSERT_TRUE(ch.request(FrameType::kMultiGetReq, mreq.encode(),
                         FrameType::kMultiGetResp, &resp));
  net::MultiGetRespMsg mresp;
  ASSERT_TRUE(net::MultiGetRespMsg::decode(resp, &mresp));
  ASSERT_EQ(mresp.entries.size(), kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ(mresp.entries[i].status,
              static_cast<std::uint8_t>(GetStatus::kOk));
    EXPECT_TRUE(mresp.entries[i].value == value_of(i)) << "key " << i;
  }

  // Write interest went back to read-only once the response was out: a
  // small request on the same connection is answered...
  ASSERT_TRUE(ch.request(FrameType::kVersionReq, "", FrameType::kVersionResp,
                         &resp));
  net::VersionRespMsg ver;
  ASSERT_TRUE(net::VersionRespMsg::decode(resp, &ver));
  EXPECT_EQ(ver.version, 1u);

  // ...and the idle server sleeps instead of waking on a writable socket.
  const double before = thread_cpu_seconds(ts.thread);
  ASSERT_GE(before, 0.0);
  ::usleep(100000);
  EXPECT_LT(thread_cpu_seconds(ts.thread) - before, 0.03);

  ts.shutdown();
  EXPECT_EQ(ts.server.stats().connections, 1u);
}

// --- reconnect / backoff state machine --------------------------------------

// A port with no listener: bind, record, close — nothing listens there
// afterwards (nothing else grabs it within the test's lifetime).
std::uint16_t dead_port() {
  std::uint16_t port = 0;
  net::Fd fd = net::tcp_listen(0, &port);
  EXPECT_TRUE(fd.valid());
  return port;
}

TEST(BackoffTest, FailureDoublesDelayUpToCapAndSuppressesDialing) {
  net::ChannelOptions o = channel_options(dead_port());
  o.connect_timeout_ms = 100;
  o.backoff_initial_ms = 50;
  o.backoff_cap_ms = 400;
  net::ShardChannel ch(o);

  // First dial fails -> kBackoff. The initial 50 ms delay was consumed
  // by this failure; backoff_delay_ms() reports the NEXT (doubled) one.
  EXPECT_FALSE(ch.ensure_connected());
  EXPECT_EQ(ch.state(), net::ShardChannel::State::kBackoff);
  EXPECT_EQ(ch.backoff_delay_ms(), 100);
  EXPECT_EQ(ch.stats().connect_failures, 1u);
  EXPECT_EQ(ch.stats().backoffs, 1u);

  // While the backoff deadline is pending, dialing is suppressed — the
  // connect_failures counter must not move.
  EXPECT_FALSE(ch.ensure_connected());
  EXPECT_EQ(ch.stats().connect_failures, 1u);

  // Repeated failures double the delay and saturate at the cap.
  ch.fail();
  EXPECT_EQ(ch.backoff_delay_ms(), 200);
  ch.fail();
  EXPECT_EQ(ch.backoff_delay_ms(), 400);
  ch.fail();
  EXPECT_EQ(ch.backoff_delay_ms(), 400);  // capped

  // Requests during backoff fail fast (no dial attempt, no timeout).
  std::string resp;
  EXPECT_FALSE(ch.request(FrameType::kVersionReq, "", FrameType::kVersionResp,
                          &resp));
}

TEST(BackoffTest, UnreachableFailsFastAndReenableResetsBackoff) {
  net::ChannelOptions o = channel_options(dead_port());
  o.connect_timeout_ms = 100;
  net::ShardChannel ch(o);

  EXPECT_FALSE(ch.ensure_connected());
  ch.fail();
  const int delay_before = ch.backoff_delay_ms();
  EXPECT_GT(delay_before, o.backoff_initial_ms);

  ch.set_reachable(false);
  EXPECT_EQ(ch.state(), net::ShardChannel::State::kUnreachable);
  // Fail-fast: no dialing, no timeout consumption.
  const std::uint64_t dials = ch.stats().connect_failures;
  std::string resp;
  EXPECT_FALSE(ch.request(FrameType::kVersionReq, "", FrameType::kVersionResp,
                          &resp));
  EXPECT_FALSE(ch.ensure_connected());
  EXPECT_EQ(ch.stats().connect_failures, dials);
  EXPECT_EQ(ch.stats().timeouts, 0u);

  // Re-enable: fresh backoff, dialing allowed again.
  ch.set_reachable(true);
  EXPECT_EQ(ch.state(), net::ShardChannel::State::kDisconnected);
  EXPECT_FALSE(ch.ensure_connected());  // still nothing listening
  EXPECT_EQ(ch.stats().connect_failures, dials + 1);
}

// A listener that completes the handshake on one connection and then
// never answers another frame.
struct MuteServer {
  std::uint16_t port = 0;
  net::Fd listener = net::tcp_listen(0, &port);
  std::atomic<bool> stop{false};
  std::thread thread;

  MuteServer() {
    if (listener.valid()) thread = std::thread([this] { serve(); });
  }
  ~MuteServer() {
    stop = true;
    if (thread.joinable()) thread.join();
  }

  void serve() {
    net::Fd conn;
    while (!stop && !conn.valid()) {
      pollfd p{listener.get(), POLLIN, 0};
      ::poll(&p, 1, 10);
      conn = net::tcp_accept(listener.get());
    }
    FrameDecoder d;
    bool greeted = false;
    char buf[4096];
    while (!stop) {
      pollfd p{conn.get(), POLLIN, 0};
      if (::poll(&p, 1, 10) <= 0) continue;
      const long n = ::recv(conn.get(), buf, sizeof(buf), 0);
      if (n <= 0) break;  // the client gave up and closed
      d.feed(buf, static_cast<std::size_t>(n));
      Frame f;
      while (!greeted && d.next(&f)) {
        if (f.header.type != FrameType::kHello) continue;
        FrameHeader h;
        h.type = FrameType::kHelloAck;
        h.request_id = f.header.request_id;
        std::string wire;
        net::encode_frame(h, net::HelloAckMsg{}.encode(), &wire);
        greeted = net::send_all(conn.get(), wire.data(), wire.size(), 1000);
      }
    }
  }
};

TEST(BackoffTest, MuteServerTimesOutAtTheRequestDeadline) {
  // The client's spin-then-block wait must neither cut the request
  // deadline short nor overrun it.
  MuteServer mute;
  ASSERT_TRUE(mute.listener.valid());
  net::ChannelOptions o = channel_options(mute.port);
  o.request_timeout_ms = 300;
  net::ShardChannel ch(o);
  ASSERT_TRUE(ch.ensure_connected());
  std::uint32_t id = 0;
  ASSERT_TRUE(ch.send_request(FrameType::kVersionReq, "", &id));
  const auto start = std::chrono::steady_clock::now();
  std::string resp;
  EXPECT_FALSE(ch.await_reply(id, FrameType::kVersionResp, &resp));
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, std::chrono::milliseconds(o.request_timeout_ms));
  EXPECT_LT(waited, std::chrono::milliseconds(2 * o.request_timeout_ms));
  EXPECT_EQ(ch.stats().timeouts, 1u);
  EXPECT_EQ(ch.state(), net::ShardChannel::State::kBackoff);
}

TEST(BackoffTest, ReconnectsAfterServerComesBack) {
  // Start a server, kill it, watch the channel fail, restart on the same
  // port, watch the channel recover once backoff elapses.
  auto ts = std::make_unique<TestServer>();
  ASSERT_TRUE(ts->start());
  const std::uint16_t port = ts->server.port();

  net::ChannelOptions o = channel_options(port);
  o.backoff_initial_ms = 10;
  net::ShardChannel ch(o);
  ASSERT_TRUE(ch.ensure_connected());

  ts.reset();  // server gone, port released
  std::string resp;
  EXPECT_FALSE(ch.request(FrameType::kVersionReq, "", FrameType::kVersionResp,
                          &resp));
  EXPECT_NE(ch.state(), net::ShardChannel::State::kReady);

  net::ShardServerOptions so;
  so.port = port;
  TestServer back(so);
  ASSERT_TRUE(back.start());
  // Retry until backoff elapses and the dial lands (bounded wait).
  bool reconnected = false;
  for (int i = 0; i < 200 && !reconnected; ++i) {
    reconnected = ch.request(FrameType::kVersionReq, "",
                             FrameType::kVersionResp, &resp);
    if (!reconnected) ::usleep(10000);
  }
  EXPECT_TRUE(reconnected);
  EXPECT_GE(ch.stats().connects, 2u);
}

// --- TcpKvTransport against in-thread servers -------------------------------

struct TwoShardRig {
  TestServer s0, s1;
  std::unique_ptr<net::TcpKvTransport> transport;

  bool start() {
    if (!s0.start() || !s1.start()) return false;
    net::TcpTransportOptions o;
    o.ports = {s0.server.port(), s1.server.port()};
    o.request_timeout_ms = 5000;
    transport = std::make_unique<net::TcpKvTransport>(o);
    return true;
  }
};

TEST(TcpTransportTest, MatchesInProcessKvStoreSemantics) {
  TwoShardRig rig;
  ASSERT_TRUE(rig.start());
  net::TcpKvTransport& tcp = *rig.transport;
  ctrl::KvStore local(2);
  ctrl::InProcessTransport inproc(&local);

  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) keys.push_back("path/" + std::to_string(i));

  // Same key placement under both transports.
  for (const std::string& k : keys) {
    EXPECT_EQ(tcp.shard_index(k), inproc.shard_index(k)) << k;
  }

  // publish / publish_delta / put produce the same versions and reads.
  // The base-class publish and put are publish_deltas, so each one bumps
  // the version on both transports.
  std::vector<std::pair<std::string, std::string>> batch;
  for (int i = 0; i < 16; ++i) batch.emplace_back(keys[i], "v" + std::to_string(i));
  EXPECT_EQ(tcp.publish(batch), inproc.publish(batch));
  ctrl::KvDelta delta;
  delta.upserts = {{"path/3", "updated"}};
  delta.erases = {"path/5"};
  const ctrl::Version v_delta = tcp.publish_delta(delta);
  EXPECT_EQ(v_delta, inproc.publish_delta(delta));
  tcp.put("meta/epoch", "7");
  inproc.put("meta/epoch", "7");

  EXPECT_EQ(tcp.version(), v_delta + 1);
  EXPECT_EQ(tcp.version(), inproc.version());

  auto all_keys = keys;
  all_keys.push_back("meta/epoch");
  all_keys.push_back("path/404");
  const ctrl::MultiGetResult a = tcp.multi_get(all_keys);
  const ctrl::MultiGetResult b = inproc.multi_get(all_keys);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.consistent, b.consistent);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].status, b.entries[i].status) << all_keys[i];
    EXPECT_EQ(a.entries[i].value, b.entries[i].value) << all_keys[i];
    EXPECT_EQ(a.entries[i].version, b.entries[i].version) << all_keys[i];
  }

  // Single-key get parity, including the miss case.
  for (const std::string& k : {std::string("path/3"), std::string("path/5"),
                               std::string("path/404")}) {
    const ctrl::GetResult ga = tcp.get(k);
    const ctrl::GetResult gb = inproc.get(k);
    EXPECT_EQ(ga.status, gb.status) << k;
    EXPECT_EQ(ga.value, gb.value) << k;
  }

  // Admin shard-down parity: the same keys become unavailable.
  tcp.set_shard_up(0, false);
  inproc.set_shard_up(0, false);
  EXPECT_FALSE(tcp.shard_up(0));
  const ctrl::MultiGetResult da = tcp.multi_get(all_keys);
  const ctrl::MultiGetResult db = inproc.multi_get(all_keys);
  ASSERT_EQ(da.entries.size(), db.entries.size());
  for (std::size_t i = 0; i < da.entries.size(); ++i) {
    EXPECT_EQ(da.entries[i].status, db.entries[i].status) << all_keys[i];
  }
  tcp.set_shard_up(0, true);
  inproc.set_shard_up(0, true);
  const ctrl::MultiGetResult ua = tcp.multi_get(all_keys);
  EXPECT_TRUE(ua.all_available());
}

TEST(TcpTransportTest, ResyncReplaysFullStateAfterServerRestart) {
  auto s0 = std::make_unique<TestServer>();
  TestServer s1;
  ASSERT_TRUE(s0->start());
  ASSERT_TRUE(s1.start());
  const std::uint16_t port0 = s0->server.port();

  net::TcpTransportOptions o;
  o.ports = {port0, s1.server.port()};
  o.request_timeout_ms = 5000;
  o.backoff_initial_ms = 10;
  net::TcpKvTransport tcp(o);

  std::vector<std::pair<std::string, std::string>> batch;
  for (int i = 0; i < 12; ++i) {
    batch.emplace_back("path/" + std::to_string(i), "v" + std::to_string(i));
  }
  const ctrl::Version v1 = tcp.publish(batch);

  // "Crash" shard 0 and publish while it is gone (its share is only in
  // the controller-side mirror now).
  tcp.set_reachable(0, false);
  s0.reset();
  ctrl::KvDelta delta;
  for (int i = 0; i < 12; ++i) {
    delta.upserts.emplace_back("path/" + std::to_string(i), "w" + std::to_string(i));
  }
  const ctrl::Version v2 = tcp.publish_delta(delta);
  EXPECT_EQ(v2, v1 + 1);

  // Restart empty on the same port in recovery mode, then resync.
  net::ShardServerOptions so;
  so.port = port0;
  so.recovering = true;
  TestServer back(so);
  ASSERT_TRUE(back.start());
  ASSERT_TRUE(tcp.resync_shard(0));

  // Every key reads back at the post-crash state and version.
  std::vector<std::string> keys;
  for (int i = 0; i < 12; ++i) keys.push_back("path/" + std::to_string(i));
  const ctrl::MultiGetResult r = tcp.multi_get(keys);
  EXPECT_TRUE(r.all_available());
  EXPECT_EQ(r.version, v2);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(r.entries[i].value, "w" + std::to_string(i)) << keys[i];
  }

  back.shutdown();
  EXPECT_EQ(back.kv.version(), v2);
  EXPECT_EQ(back.server.stats().snapshots, 1u);
}

TEST(TcpTransportTest, AgentRoleVersionTracksTheNewestShard) {
  TwoShardRig rig;
  ASSERT_TRUE(rig.start());
  // Controller publishes through its own transport...
  rig.transport->publish({{"path/1", "a"}, {"path/2", "b"}});
  rig.transport->publish({{"path/1", "c"}});

  // ...and an agent-role transport on the same ports observes the
  // version and the data without ever writing.
  net::TcpTransportOptions o;
  o.ports = {rig.s0.server.port(), rig.s1.server.port()};
  o.role = net::HelloMsg::kRoleAgent;
  o.peer_name = "agent";
  o.request_timeout_ms = 5000;
  net::TcpKvTransport agent(o);
  EXPECT_EQ(agent.version(), 2u);
  const ctrl::GetResult g = agent.get("path/1");
  EXPECT_EQ(g.status, GetStatus::kOk);
  EXPECT_EQ(g.value, "c");
}

// Pipelined reads: an agent-role transport whose version() poll cached
// the cut pays one MULTI_GET per touched shard and nothing else.

std::unique_ptr<net::TcpKvTransport> agent_transport(const TwoShardRig& rig) {
  net::TcpTransportOptions o;
  o.ports = {rig.s0.server.port(), rig.s1.server.port()};
  o.role = net::HelloMsg::kRoleAgent;
  o.peer_name = "agent";
  o.request_timeout_ms = 5000;
  auto tcp = std::make_unique<net::TcpKvTransport>(o);
  // Handshake up front, so request counts below are the reads alone.
  for (std::size_t s = 0; s < tcp->num_shards(); ++s) {
    EXPECT_TRUE(tcp->channel(s).ensure_connected());
  }
  return tcp;
}

std::vector<std::string> spread_keys(const net::TcpKvTransport& tcp) {
  std::vector<std::string> keys;
  bool shard_seen[2] = {false, false};
  for (int i = 0; i < 16; ++i) {
    keys.push_back("path/" + std::to_string(i));
    shard_seen[tcp.shard_index(keys.back())] = true;
  }
  EXPECT_TRUE(shard_seen[0] && shard_seen[1]) << "keys must span 2 shards";
  return keys;
}

std::vector<std::pair<std::string, std::string>> tagged(
    const std::vector<std::string>& keys, const std::string& tag) {
  std::vector<std::pair<std::string, std::string>> batch;
  for (const std::string& k : keys) batch.emplace_back(k, tag + k);
  return batch;
}

std::uint64_t requests(const net::TcpKvTransport& tcp, std::size_t shard) {
  return tcp.channel(shard).stats().requests;
}

TEST(TcpTransportTest, MultiGetIsOneRequestPerTouchedShard) {
  TwoShardRig rig;
  ASSERT_TRUE(rig.start());
  const std::vector<std::string> keys = spread_keys(*rig.transport);
  rig.transport->publish(tagged(keys, "a"));

  auto agent = agent_transport(rig);
  ASSERT_EQ(agent->version(), 1u);
  const std::uint64_t r0 = requests(*agent, 0);
  const std::uint64_t r1 = requests(*agent, 1);
  const ctrl::MultiGetResult r = agent->multi_get(keys);
  EXPECT_TRUE(r.consistent);
  EXPECT_TRUE(r.all_available());
  EXPECT_EQ(r.version, 1u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(r.entries[i].value, "a" + keys[i]);
  }
  // One MULTI_GET per shard and no VERSION request: the cut came from
  // the version() poll's cache.
  EXPECT_EQ(requests(*agent, 0), r0 + 1);
  EXPECT_EQ(requests(*agent, 1), r1 + 1);
}

TEST(TcpTransportTest, MultiGetRecutsWhenCachedVersionIsStale) {
  TwoShardRig rig;
  ASSERT_TRUE(rig.start());
  const std::vector<std::string> keys = spread_keys(*rig.transport);
  rig.transport->publish(tagged(keys, "a"));
  auto agent = agent_transport(rig);
  ASSERT_EQ(agent->version(), 1u);

  // A publish lands between the agent's poll and its read: both shards
  // answer above the cached cut, both responses are drained, and one
  // fresh version() re-cuts at v2.
  rig.transport->publish(tagged(keys, "b"));
  const std::uint64_t before = requests(*agent, 0) + requests(*agent, 1);
  const ctrl::MultiGetResult r = agent->multi_get(keys);
  EXPECT_TRUE(r.consistent);
  EXPECT_TRUE(r.all_available());
  EXPECT_EQ(r.version, 2u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(r.entries[i].value, "b" + keys[i]);
    EXPECT_EQ(r.entries[i].version, 2u);
  }
  EXPECT_EQ(requests(*agent, 0) + requests(*agent, 1), before + 5);
  EXPECT_EQ(agent->channel(0).stats().request_failures, 0u);
  EXPECT_EQ(agent->channel(1).stats().request_failures, 0u);
}

TEST(TcpTransportTest, MultiGetWithoutPriorVersionCutsFresh) {
  TwoShardRig rig;
  ASSERT_TRUE(rig.start());
  const std::vector<std::string> keys = spread_keys(*rig.transport);
  rig.transport->publish(tagged(keys, "a"));
  rig.transport->publish(tagged(keys, "b"));

  // No version() poll yet: the empty cache forces one VERSION request
  // before the two MULTI_GETs.
  auto agent = agent_transport(rig);
  const std::uint64_t before = requests(*agent, 0) + requests(*agent, 1);
  const ctrl::MultiGetResult r = agent->multi_get(keys);
  EXPECT_TRUE(r.consistent);
  EXPECT_TRUE(r.all_available());
  EXPECT_EQ(r.version, 2u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(r.entries[i].value, "b" + keys[i]);
  }
  EXPECT_EQ(requests(*agent, 0) + requests(*agent, 1), before + 3);
}

TEST(TcpTransportTest, ShardBehindTheCutIsUnavailableWhileOtherDrains) {
  TwoShardRig rig;
  ASSERT_TRUE(rig.start());
  net::TcpKvTransport& ctl = *rig.transport;
  const std::vector<std::string> keys = spread_keys(ctl);
  ctl.publish(tagged(keys, "a"));
  // Shard 0 misses v2.
  ctl.set_reachable(0, false);
  ctl.publish(tagged(keys, "b"));
  ctl.set_reachable(0, true);

  // The agent's poll reaches shard 1 and caches v2.
  auto agent = agent_transport(rig);
  agent->set_reachable(0, false);
  ASSERT_EQ(agent->version(), 2u);
  agent->set_reachable(0, true);

  const ctrl::MultiGetResult r = agent->multi_get(keys);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.version, 2u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (agent->shard_index(keys[i]) == 0) {
      EXPECT_EQ(r.entries[i].status, GetStatus::kUnavailable) << keys[i];
    } else {
      EXPECT_EQ(r.entries[i].status, GetStatus::kOk) << keys[i];
      EXPECT_EQ(r.entries[i].value, "b" + keys[i]);
    }
  }

  // Both channels stay usable: after shard 0 catches up, the next read
  // is one clean request per channel.
  ASSERT_TRUE(ctl.resync_shard(0));
  const std::uint64_t r0 = requests(*agent, 0);
  const std::uint64_t r1 = requests(*agent, 1);
  const std::uint64_t f0 = agent->channel(0).stats().request_failures;
  const std::uint64_t f1 = agent->channel(1).stats().request_failures;
  const ctrl::MultiGetResult again = agent->multi_get(keys);
  EXPECT_TRUE(again.consistent);
  EXPECT_TRUE(again.all_available());
  EXPECT_EQ(again.version, 2u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(again.entries[i].value, "b" + keys[i]);
  }
  EXPECT_EQ(requests(*agent, 0), r0 + 1);
  EXPECT_EQ(requests(*agent, 1), r1 + 1);
  EXPECT_EQ(agent->channel(0).stats().request_failures, f0);
  EXPECT_EQ(agent->channel(1).stats().request_failures, f1);
}

}  // namespace
}  // namespace megate

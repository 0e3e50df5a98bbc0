// Network front-end contract tests over real loopback sockets: frames
// apply through the ClientPort path with exact wire + admission
// ledgers, malformed input fails closed with a typed error and a
// connection close, the connection table sheds at accept time, the
// slowloris deadline evicts stuck partial frames, graceful drain
// flushes in-flight frames into the `stopped` bucket, and the
// deterministic wire mode is bit-identical to per-shard sequential
// Simulate().
#include "server/net/net_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/trace.h"
#include "server/cache_server.h"
#include "server/net/wire_client.h"
#include "sim/simulator.h"

namespace clic::server::net {
namespace {

Trace MakeSynthetic(const std::string& name, std::uint32_t salt,
                    std::size_t n, std::size_t num_clients = 2) {
  Trace trace;
  trace.name = name;
  std::vector<HintSetId> hints;
  for (std::uint32_t c = 0; c < num_clients; ++c) {
    hints.push_back(trace.hints->Intern(
        HintVector{static_cast<ClientId>(c), {c + 1, 100 + salt + c}}));
  }
  trace.requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.page = static_cast<PageId>(
        i % 3 == 0 ? (i * 7919 + salt) % 61 : (i * 104729 + salt) % 509);
    r.client = static_cast<ClientId>(i % num_clients);
    r.hint_set = hints[r.client];
    if (i % 5 == 0) {
      r.op = OpType::kWrite;
      r.write_kind =
          i % 10 == 0 ? WriteKind::kRecovery : WriteKind::kReplacement;
    }
    trace.requests.push_back(r);
  }
  return trace;
}

NetServerOptions SmallServer() {
  NetServerOptions opts;
  opts.server.shards = 2;
  opts.server.cache_pages = 64;
  opts.conn_limit = 4;
  return opts;
}

int ConnectRaw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads until one reply frame parses (or EOF/timeout); returns the
/// wire code, or -1 on EOF before a frame.
int ReadReplyCode(int fd) {
  FrameParser parser(kWireMaxBatch);
  ParsedFrame frame;
  std::uint8_t buf[256];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r <= 0) return -1;
    const std::uint8_t* p = buf;
    std::size_t len = static_cast<std::size_t>(r);
    const ParseStatus st = parser.Consume(&p, &len, &frame);
    if (st == ParseStatus::kFrame) return frame.code;
    if (st == ParseStatus::kError) return -2;
  }
}

bool ReadEof(int fd) {
  std::uint8_t buf[64];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r == 0) return true;
    if (r < 0) return false;
  }
}

TEST(NetServerTest, AppliesBatchesWithExactLedgers) {
  const Trace trace = MakeSynthetic("net_apply", 1, 4000);
  NetServer server(SmallServer());
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port())) << client.error();
  std::uint64_t sent = 0;
  for (std::size_t off = 0; off < trace.requests.size(); off += 64) {
    const std::size_t n = std::min<std::size_t>(64, trace.size() - off);
    ASSERT_EQ(client.Call(&trace.requests[off], n), kWireApplied)
        << client.error();
    sent += n;
  }
  client.Close();
  server.Drain();
  const NetStats net = server.Stats();
  EXPECT_EQ(net.accepted, 1u);
  EXPECT_EQ(net.frame_requests, sent);
  EXPECT_EQ(net.rejected_frames, 0u);
  const AdmissionStats adm = server.cache().TotalAdmission();
  EXPECT_EQ(adm.submitted_requests, sent);
  EXPECT_EQ(adm.applied_requests, sent);
  EXPECT_EQ(server.cache().requests_applied(), sent);
}

TEST(NetServerTest, MalformedFrameGetsTypedErrorThenClose) {
  NetServer server(SmallServer());
  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  // 32 bytes of garbage: bad magic at header time.
  const std::string garbage(32, '\x5A');
  ASSERT_EQ(::write(fd, garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));
  EXPECT_EQ(ReadReplyCode(fd), kWireBadMagic);
  EXPECT_TRUE(ReadEof(fd));  // fail closed: the connection dies
  ::close(fd);
  server.Drain();
  EXPECT_EQ(server.Stats().rejected_frames, 1u);
  EXPECT_EQ(server.cache().requests_applied(), 0u);
}

TEST(NetServerTest, PatchedGiantLengthRejectedBeforePayload) {
  NetServerOptions opts = SmallServer();
  opts.max_batch = 16;
  NetServer server(opts);
  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  // A consistent header claiming 0xFFFF requests (786KB payload): the
  // server must reject from the header alone — we never send a payload
  // byte, so anything other than header-time rejection would hang here.
  Request r;
  std::string frame;
  AppendBatchFrame(&r, 1, 1, &frame);
  frame[6] = static_cast<char>(0xFF);
  frame[7] = static_cast<char>(0xFF);
  const std::uint32_t giant = 0xFFFFu * 12u;
  for (int i = 0; i < 4; ++i) {
    frame[8 + i] = static_cast<char>((giant >> (8 * i)) & 0xFF);
  }
  ASSERT_EQ(::write(fd, frame.data(), kFrameHeaderBytes),
            static_cast<ssize_t>(kFrameHeaderBytes));
  EXPECT_EQ(ReadReplyCode(fd), kWireBadCount);
  EXPECT_TRUE(ReadEof(fd));
  ::close(fd);
  server.Drain();
  EXPECT_EQ(server.Stats().rejected_frames, 1u);
}

TEST(NetServerTest, FullConnectionTableShedsAtAccept) {
  NetServerOptions opts = SmallServer();
  opts.conn_limit = 1;
  NetServer server(opts);
  WireClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()));
  // Prove the first connection is actually registered before racing a
  // second one against it.
  Request r;
  ASSERT_EQ(first.Call(&r, 1), kWireApplied);
  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  EXPECT_EQ(ReadReplyCode(fd), kWireServerBusy);
  EXPECT_TRUE(ReadEof(fd));
  ::close(fd);
  first.Close();
  server.Drain();
  EXPECT_EQ(server.Stats().accept_shed, 1u);
  EXPECT_EQ(server.Stats().accepted, 1u);
}

TEST(NetServerTest, SlowlorisPartialFrameEvicted) {
  NetServerOptions opts = SmallServer();
  opts.read_timeout_ms = 40.0;
  NetServer server(opts);
  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  // Send half a header and then stall: the slowloris case.
  Request r;
  std::string frame;
  AppendBatchFrame(&r, 1, 1, &frame);
  ASSERT_EQ(::write(fd, frame.data(), 10), 10);
  EXPECT_EQ(ReadReplyCode(fd), kWireReadTimeout);
  EXPECT_TRUE(ReadEof(fd));
  ::close(fd);
  server.Drain();
  EXPECT_EQ(server.Stats().evicted_read, 1u);
}

TEST(NetServerTest, HealthyConnectionUnaffectedByDeadline) {
  // A connection that always completes its frames must never trip the
  // partial-frame timer, even when it pauses BETWEEN frames far longer
  // than the read deadline.
  NetServerOptions opts = SmallServer();
  opts.read_timeout_ms = 30.0;
  NetServer server(opts);
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  Request r;
  ASSERT_EQ(client.Call(&r, 1), kWireApplied);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  ASSERT_EQ(client.Call(&r, 1), kWireApplied) << client.error();
  client.Close();
  server.Drain();
  EXPECT_EQ(server.Stats().evicted_read, 0u);
}

TEST(NetServerTest, DrainFlushesInFlightFramesToStopped) {
  NetServer server(SmallServer());
  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  // Complete one frame so the connection is live, then write another
  // whole frame and drain before reading its reply: the drain pass must
  // answer it `stopped` (or have applied it just before the stop), and
  // the admission ledger must stay exact either way.
  Request r;
  std::string frame;
  AppendBatchFrame(&r, 1, 1, &frame);
  ASSERT_EQ(::write(fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  EXPECT_EQ(ReadReplyCode(fd), kWireApplied);
  std::string second;
  AppendBatchFrame(&r, 1, 2, &second);
  ASSERT_EQ(::write(fd, second.data(), second.size()),
            static_cast<ssize_t>(second.size()));
  server.Drain();
  const AdmissionStats adm = server.cache().TotalAdmission();
  EXPECT_EQ(adm.submitted_requests,
            adm.applied_requests + adm.shed_requests +
                adm.timed_out_requests + adm.expired_requests +
                adm.stopped_requests);
  const NetStats net = server.Stats();
  // The second frame was either applied before the stop or flushed by
  // the drain pass — never lost.
  EXPECT_EQ(net.frames, adm.submitted_batches);
  ::close(fd);
}

TEST(NetServerTest, DeterministicWireMatchesPartitionedSimulate) {
  const Trace trace = MakeSynthetic("net_determinism", 7, 6000, 3);
  ServerOptions sopts;
  sopts.shards = 4;
  sopts.cache_pages = 96;
  sopts.deterministic = true;

  NetServerOptions nopts;
  nopts.server = sopts;
  nopts.conn_limit = 3;
  nopts.io_threads = 1;
  NetServer server(nopts);

  WireLoadOptions wopts;
  wopts.port = server.port();
  wopts.clients = 3;
  wopts.batch_size = 32;
  wopts.deterministic = true;
  const WireLoadResult wire = RunWireLoad(trace, wopts);
  server.Drain();
  EXPECT_EQ(wire.applied_requests, trace.requests.size());
  EXPECT_EQ(wire.conn_lost_batches, 0u);

  const SimResult expected = PartitionedSimulate(trace, sopts);
  const CacheStats served = server.cache().TotalStats();
  EXPECT_EQ(served.reads, expected.total.reads);
  EXPECT_EQ(served.writes, expected.total.writes);
  EXPECT_EQ(served.read_hits, expected.total.read_hits);
  EXPECT_EQ(served.write_hits, expected.total.write_hits);
  const auto per_client = server.cache().PerClientStats();
  ASSERT_EQ(per_client.size(), expected.per_client.size());
  for (const auto& [client, stats] : expected.per_client) {
    const auto it = per_client.find(client);
    ASSERT_NE(it, per_client.end()) << "client " << client;
    EXPECT_EQ(it->second.read_hits, stats.read_hits) << "client " << client;
    EXPECT_EQ(it->second.write_hits, stats.write_hits)
        << "client " << client;
  }
}

TEST(NetServerTest, DeterministicModeRejectsMultipleIoThreads) {
  NetServerOptions opts = SmallServer();
  opts.server.deterministic = true;
  opts.io_threads = 2;
  EXPECT_THROW(NetServer{opts}, std::invalid_argument);
}

TEST(NetServerTest, NetFaultsPreserveDecisionsAndCount) {
  const Trace trace = MakeSynthetic("net_chaos", 3, 5000, 2);
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultPlan(
      "net:torn-write=3,partial-read=4,accept-stall=2,stall-ms=1", &plan,
      &error))
      << error;

  ServerOptions sopts;
  sopts.shards = 2;
  sopts.cache_pages = 64;
  sopts.deterministic = true;

  NetServerOptions nopts;
  nopts.server = sopts;
  nopts.server.fault = &plan;
  nopts.conn_limit = 2;
  NetServer server(nopts);

  WireLoadOptions wopts;
  wopts.port = server.port();
  wopts.clients = 2;
  wopts.batch_size = 32;
  wopts.deterministic = true;
  const WireLoadResult wire = RunWireLoad(trace, wopts);
  server.Drain();

  // Torn writes / partial reads / accept stalls re-chunk or delay
  // bytes; every decision must match the fault-free baseline exactly.
  EXPECT_EQ(wire.applied_requests, trace.requests.size());
  const NetStats net = server.Stats();
  EXPECT_GT(net.torn_writes, 0u);
  EXPECT_GT(net.partial_reads, 0u);
  EXPECT_GT(net.accept_stalls, 0u);
  const SimResult expected = PartitionedSimulate(trace, sopts);
  const CacheStats served = server.cache().TotalStats();
  EXPECT_EQ(served.read_hits, expected.total.read_hits);
  EXPECT_EQ(served.write_hits, expected.total.write_hits);
}

// The wire-client ledger adds conn_lost to the admission terms; every
// term, batch- or request-granular, must be able to break it.
TEST(NetServerTest, WireLedgerBalancedFlagsEveryTerm) {
  WireLoadResult w;
  w.submitted_batches = 12;
  w.submitted_requests = 120;
  w.applied_batches = w.shed_batches = w.timed_out_batches =
      w.expired_batches = w.stopped_batches = w.conn_lost_batches = 2;
  w.applied_requests = w.shed_requests = w.timed_out_requests =
      w.expired_requests = w.stopped_requests = w.conn_lost_requests = 20;
  ASSERT_TRUE(w.Balanced());
  for (std::uint64_t WireLoadResult::*term :
       {&WireLoadResult::submitted_batches, &WireLoadResult::submitted_requests,
        &WireLoadResult::applied_batches, &WireLoadResult::applied_requests,
        &WireLoadResult::shed_batches, &WireLoadResult::shed_requests,
        &WireLoadResult::timed_out_batches,
        &WireLoadResult::timed_out_requests,
        &WireLoadResult::expired_batches, &WireLoadResult::expired_requests,
        &WireLoadResult::stopped_batches, &WireLoadResult::stopped_requests,
        &WireLoadResult::conn_lost_batches,
        &WireLoadResult::conn_lost_requests}) {
    WireLoadResult off = w;
    ++(off.*term);
    EXPECT_FALSE(off.Balanced());
  }
}

}  // namespace
}  // namespace clic::server::net

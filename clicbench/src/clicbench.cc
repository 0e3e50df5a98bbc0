// clicbench: the CLIC end-to-end benchmark.
//
// One binary runs one seeded workload for a fixed wall-clock budget and
// writes its metrics, correctness verdict and (with --trace 1) the
// per-layer metrics plus a span file. clicbench/run.py builds it, runs
// it and prints the final result line; clicbench/README.md documents
// the workloads, metrics and the layer -> end-to-end map.
//
// Workloads (why each exists is in README.md):
//   tpcc-offline      DB2_C60 + one seeded noise hint attribute through
//                     SweepRunner over the Figure-6 cache axis (CLIC).
//   tpcc-wire         the same trace served by NetServer on loopback:
//                     a fixed offered rate (latency), then pipelined
//                     saturation (throughput).
//   xl-writes-served  a 4M-page, 30%-write Zipf scenario served in
//                     process by CacheServer (1 consumer) from 2
//                     closed-loop clients.
//
// Every rate and latency comes from std::chrono::steady_clock wall time.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fnv1a.h"
#include "core/clic.h"
#include "server/cache_server.h"
#include "server/net/net_server.h"
#include "server/net/wire_client.h"
#include "server/net/wire_format.h"
#include "sim/policy_factory.h"
#include "sim/simulator.h"
#include "sim/trace_ops.h"
#include "spans.h"
#include "sweep/sweep.h"
#include "sweep/trace_cache.h"
#include "workload/scenario.h"
#include "workload/trace_factory.h"

namespace clicbench {
namespace {

using clic::CacheStats;
using clic::ClicOptions;
using clic::ClicPolicy;
using clic::Policy;
using clic::PolicyKind;
using clic::Request;
using clic::SeqNum;
using clic::Trace;
using clic::server::AdmissionStats;
using clic::server::CacheServer;
using clic::server::ServerOptions;
using clic::server::SubmitResult;
namespace net = clic::server::net;

/// Requests per submitted batch on every served path (and per timed
/// kernel call for the offline latency figures).
constexpr std::size_t kBatch = 64;
/// Set-up is timed this many times, setup_s is the median: the first
/// kSetupRepsBefore before the timed phase (the last of those rigs is
/// the one measured), the rest after it, so the median spans the host's
/// speed drift over the run rather than the few seconds before it.
constexpr int kSetupReps = 5;
constexpr int kSetupRepsBefore = 2;
/// Frames kept outstanding per connection in the wire saturation phase.
constexpr std::size_t kPipelineDepth = 64;
/// Served applied-request counts are kept per window of this length;
/// throughput is taken over the whole windows of the timed phase.
constexpr std::int64_t kRateWindowNs = 250'000'000;
/// Untimed serving before xl-writes-served's timed phase: the first
/// pass over the trace grows the page tables and fills the cache, and
/// runs at about half the steady rate.
constexpr double kServedWarmupS = 2.0;
/// Requests replayed by each per-layer probe of the serving path.
constexpr std::uint64_t kProbeRequests = 256 * 1024;
/// Sweep pool size for tpcc-offline (clamped to the machine's cores).
constexpr unsigned kSweepThreads = 4;
constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Workload { kTpccOffline, kTpccWire, kXlWritesServed };

struct Args {
  Workload workload = Workload::kTpccOffline;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double wire_rate = 0.0;  // offered requests/s for the tpcc-wire latency phase
  bool tiny = false;       // self-test scale: tiny traces
  bool digest = false;     // print the workload trace digest and exit
  std::string out;         // result JSON path
  std::string spans;       // span dump path (trace mode)
  std::string scratch;     // scratch directory for the trace-cache probe
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "clicbench: %s\n", msg.c_str());
  std::exit(2);
}

double ParseNumber(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0' || !std::isfinite(v)) {
    Die("bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (flag == "--digest") {
      a.digest = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload_name = v;
      if (v == "tpcc-offline") {
        a.workload = Workload::kTpccOffline;
      } else if (v == "tpcc-wire") {
        a.workload = Workload::kTpccWire;
      } else if (v == "xl-writes-served") {
        a.workload = Workload::kXlWritesServed;
      } else {
        Die("unknown workload '" + v +
            "' (tpcc-offline, tpcc-wire, xl-writes-served)");
      }
    } else if (flag == "--seed") {
      char* end = nullptr;
      errno = 0;
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (errno != 0 || v.empty() || v[0] == '-' || *end != '\0') {
        Die("--seed must be a whole number, got '" + v + "'");
      }
    } else if (flag == "--seconds") {
      a.seconds = ParseNumber(flag, v);
      if (a.seconds <= 0 || a.seconds > 600) Die("--seconds must be in (0, 600]");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Die("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--wire-rate") {
      a.wire_rate = ParseNumber(flag, v);
      if (a.wire_rate < kBatch) Die("--wire-rate must be >= 64 requests/s");
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--spans") {
      a.spans = v;
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload_name.empty()) Die("--workload is required");
  if (!a.digest) {
    if (a.out.empty()) Die("--out is required");
    if (a.wire_rate <= 0) Die("--wire-rate is required");
    if (a.trace && (a.spans.empty() || a.scratch.empty())) {
      Die("--trace 1 needs --spans and --scratch");
    }
  }
  return a;
}

// ---- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<Metric> context;  // repetitions, sample counts, topology
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
      std::fprintf(stderr, "clicbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
};

void Put(std::vector<Metric>* m, const std::string& name, double value,
         const std::string& unit) {
  m->push_back({name, value, unit});
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean of the values between the first and the third quartile; at
/// least one value (the median) for any non-empty input.
double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// Nearest-rank percentile of unsorted samples. A sample of +inf (a
/// failed or refused batch) is over any limit; when the percentile
/// lands on one, the result is `cap` — the length of the measurement,
/// longer than any latency the run could have observed.
double Percentile(std::vector<double> v, double q, double cap) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size()))) - 1;
  const double x = v[std::min(rank, v.size() - 1)];
  return std::isinf(x) ? cap : x;
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool SameStats(const CacheStats& a, const CacheStats& b) {
  return a.reads == b.reads && a.writes == b.writes &&
         a.read_hits == b.read_hits && a.write_hits == b.write_hits;
}

std::string StatsText(const CacheStats& s) {
  return "reads=" + std::to_string(s.reads) +
         " read_hits=" + std::to_string(s.read_hits) +
         " writes=" + std::to_string(s.writes) +
         " write_hits=" + std::to_string(s.write_hits);
}

/// Per-window applied-request counts on a shared time origin; the
/// served throughput is the requests applied in the whole windows ÷
/// their wall time. The host's speed drifts over tens of seconds; a
/// mean over the whole phase averages that drift, where a median of
/// windows would follow whichever speed held most of the run.
struct Windows {
  std::int64_t t0 = 0;
  std::vector<std::uint64_t> applied;

  void Add(std::int64_t now_ns, std::uint64_t requests) {
    const std::size_t w = static_cast<std::size_t>((now_ns - t0) / kRateWindowNs);
    if (w >= applied.size()) applied.resize(w + 1, 0);
    applied[w] += requests;
  }
  void Merge(const Windows& o) {
    if (o.applied.size() > applied.size()) applied.resize(o.applied.size(), 0);
    for (std::size_t i = 0; i < o.applied.size(); ++i) applied[i] += o.applied[i];
  }
  /// req/s over the windows that lie wholly inside [t0, end).
  double Rate(std::int64_t end_ns, std::size_t* count) const {
    const std::size_t whole = static_cast<std::size_t>((end_ns - t0) / kRateWindowNs);
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < whole && i < applied.size(); ++i) n += applied[i];
    *count = whole;
    return whole > 0 ? static_cast<double>(n) / Seconds(static_cast<std::int64_t>(whole) *
                                                        kRateWindowNs)
                     : 0.0;
  }
};

/// Per-batch latency samples in 1-second windows of a shared time
/// origin. A run's latency percentile is the interquartile mean over its
/// windows of each window's percentile: a stalled second moves its own
/// window, which the trim drops, while the mean of the middle half
/// follows the host's speed drift across the run rather than the speed
/// that held in the median window. Every stall still counts inside its
/// window. Windows too small for a p99 with ten samples beyond it are
/// left out; a run with fewer than three full windows pools its samples.
/// Each window keeps a uniform reservoir of at most kReservoir samples,
/// so the log's memory does not grow with the run's speed (it would
/// otherwise move peak_rss_mb with throughput).
struct LatencyLog {
  static constexpr std::int64_t kWindowNs = 1'000'000'000;
  static constexpr std::size_t kMinSamples = 1000;
  static constexpr std::size_t kReservoir = 16384;
  struct Window {
    std::uint64_t seen = 0;
    std::vector<double> kept;
  };
  std::int64_t t0 = 0;
  std::vector<Window> windows;
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;  // xorshift64 state

  void Add(std::int64_t now_ns, double us) {
    const std::size_t w = static_cast<std::size_t>((now_ns - t0) / kWindowNs);
    if (w >= windows.size()) windows.resize(w + 1);
    Window& win = windows[w];
    if (win.kept.size() < kReservoir) {
      win.kept.push_back(us);
    } else {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      const std::uint64_t slot = rng % (win.seen + 1);
      if (slot < kReservoir) win.kept[slot] = us;
    }
    ++win.seen;
  }
  void Merge(const LatencyLog& o) {
    if (o.windows.size() > windows.size()) windows.resize(o.windows.size());
    for (std::size_t i = 0; i < o.windows.size(); ++i) {
      windows[i].seen += o.windows[i].seen;
      windows[i].kept.insert(windows[i].kept.end(), o.windows[i].kept.begin(),
                             o.windows[i].kept.end());
    }
  }
  std::uint64_t size() const {
    std::uint64_t n = 0;
    for (const Window& w : windows) n += w.seen;
    return n;
  }
  double Summary(double q, double cap) const {
    std::vector<double> per;
    for (const Window& w : windows) {
      if (w.seen >= kMinSamples) per.push_back(Percentile(w.kept, q, cap));
    }
    if (per.size() >= 3) return InterquartileMean(std::move(per));
    std::vector<double> pooled;
    for (const Window& w : windows) {
      pooled.insert(pooled.end(), w.kept.begin(), w.kept.end());
    }
    return Percentile(std::move(pooled), q, cap);
  }
};

// ---- workloads --------------------------------------------------------------

constexpr const char* kTpccTrace = "DB2_C60";
/// Self-test scale: enough requests for every path to run, far below
/// one CLIC evaluation window.
constexpr std::uint64_t kTinyRequests = 40'000;

std::string XlSpec(std::uint64_t seed) {
  return "zipf:pages=4000000,theta=0.8,write=0.3,n=4000000,seed=" +
         std::to_string(seed);
}

/// The generator token TraceCache resolves for this workload (noise
/// injection is the benchmark's own step on top of it).
std::string GeneratorName(const Args& a) {
  return a.workload == Workload::kXlWritesServed ? XlSpec(a.seed) : kTpccTrace;
}

/// Cache size read_hit_ratio is reported at, and the served cache.
std::size_t CachePages(Workload w) {
  switch (w) {
    case Workload::kTpccOffline: return 12'000;
    case Workload::kTpccWire: return 60'000;
    case Workload::kXlWritesServed: return 262'144;
  }
  return 0;
}

/// CLIC at the paper's Section 6.1 options, 4 shards, 2 owning consumers.
ServerOptions ServedOptions(std::size_t cache_pages) {
  ServerOptions o;
  o.shards = 4;
  o.consumers = 2;
  o.cache_pages = cache_pages;
  o.policy = PolicyKind::kClic;
  return o;
}

/// xl-writes-served's server: the served options with one consumer
/// owning all four shards. Its two closed-loop clients then keep that
/// consumer's rings non-empty, so it never naps and a client's wake-up
/// overlaps the other client's batch. With two consumers each one idles
/// between batches, and on a shared 4-vCPU host the nap and park
/// wake-ups made throughput bimodal from run to run (1.8M vs 3.8M req/s
/// at the same seed, back to back).
ServerOptions XlServerOptions(std::size_t cache_pages) {
  ServerOptions o = ServedOptions(cache_pages);
  o.consumers = 1;
  return o;
}

Trace MakeWorkloadTrace(const Args& a) {
  const std::uint64_t cap = a.tiny ? kTinyRequests : 0;
  if (a.workload == Workload::kXlWritesServed) {
    std::string error;
    const auto spec = clic::ResolveWorkload(XlSpec(a.seed), &error);
    if (!spec) Die("xl spec: " + error);
    ScopedSpan span("workload.MakeScenarioTrace");
    return clic::MakeScenarioTrace(*spec, cap);
  }
  Trace base;
  {
    ScopedSpan span("workload.MakeNamedTrace");
    base = clic::MakeNamedTrace(kTpccTrace, cap);
  }
  // One Section-6.3 noise attribute over a 10-value Zipf(1.0) domain,
  // seeded by the benchmark seed: the hint-set count grows from tens
  // to a few hundred without adding information.
  ScopedSpan span("workload.InjectNoiseHints");
  return clic::InjectNoiseHints(base, 1, 10, 1.0, a.seed);
}

std::uint64_t TraceDigest(const Trace& t) {
  clic::Fnv1a h;
  for (const Request& r : t.requests) {
    h.MixScalar(r.page);
    h.MixScalar(r.hint_set);
    h.MixScalar(r.client);
    h.MixScalar(static_cast<std::uint8_t>(r.op));
    h.MixScalar(static_cast<std::uint8_t>(r.write_kind));
  }
  for (std::size_t i = 0; i < t.hints->size(); ++i) {
    const clic::HintVector& v = t.hints->Get(static_cast<clic::HintSetId>(i));
    h.MixScalar(v.client);
    for (std::uint32_t x : v.attrs) h.MixScalar(x);
    h.MixScalar(std::uint32_t{0xFFFFFFFFu});
  }
  return h.value();
}

// ---- wire load generator ----------------------------------------------------

/// One non-blocking loopback connection driven by the single generator
/// thread: frames are encoded with AppendBatchFrame, replies decoded
/// with FrameParser, and each outstanding frame remembers when it was
/// due so latency counts from the schedule, not from the send.
class WireConn {
 public:
  WireConn(std::uint16_t port, std::uint64_t begin, std::uint64_t end)
      : begin_(begin), end_(end), pos_(begin) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) Die(std::string("socket: ") + std::strerror(errno));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      Die(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~WireConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  struct InFlight {
    std::int64_t due_ns;
    std::uint64_t seq;
    std::uint32_t count;
  };

  int fd() const { return fd_; }
  bool dead() const { return dead_; }
  bool want_write() const { return off_ < out_.size(); }
  std::size_t outstanding() const { return inflight_.size(); }

  /// Encodes the next batch of this connection's trace chunk (wrapping
  /// at its end) and writes as much as the socket takes.
  std::uint32_t Send(const Trace& trace, std::int64_t due_ns) {
    const std::uint32_t count = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kBatch, end_ - pos_));
    {
      ScopedSpan span("net.AppendBatchFrame", seq_ + 1);
      net::AppendBatchFrame(trace.requests.data() + pos_, count, ++seq_, &out_);
    }
    inflight_.push_back({due_ns, seq_, count});
    pos_ += count;
    if (pos_ >= end_) pos_ = begin_;
    Flush();
    return count;
  }

  void Flush() {
    if (dead_) return;
    ScopedSpan span("net.write");
    while (off_ < out_.size()) {
      const ssize_t w = ::write(fd_, out_.data() + off_, out_.size() - off_);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        Fail(std::string("write: ") + std::strerror(errno));
        return;
      }
      off_ += static_cast<std::size_t>(w);
    }
    out_.clear();
    off_ = 0;
  }

  /// Reads every available reply and hands (frame, code) to `on_reply`.
  template <typename OnReply>
  void Read(OnReply&& on_reply) {
    if (dead_) return;
    std::uint8_t buf[1 << 16];
    for (;;) {
      ssize_t r;
      {
        ScopedSpan span("net.read");
        r = ::read(fd_, buf, sizeof(buf));
      }
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        Fail(std::string("read: ") + std::strerror(errno));
        return;
      }
      if (r == 0) {
        Fail("server closed the connection");
        return;
      }
      const std::uint8_t* p = buf;
      std::size_t len = static_cast<std::size_t>(r);
      ScopedSpan span("net.FrameParser.Consume");
      while (len > 0) {
        const net::ParseStatus st = parser_.Consume(&p, &len, &reply_);
        if (st == net::ParseStatus::kNeedMore) break;
        if (st == net::ParseStatus::kError) {
          Fail("malformed reply: " + parser_.error());
          return;
        }
        if (inflight_.empty() || reply_.seq != inflight_.front().seq ||
            reply_.type != net::FrameType::kStatus) {
          Fail("reply does not answer the oldest outstanding frame");
          return;
        }
        const InFlight f = inflight_.front();
        inflight_.pop_front();
        on_reply(f, reply_.code);
      }
    }
  }

  /// Forgets the frames that will never be answered (after a failure)
  /// and returns how many there were.
  std::size_t DropOutstanding() {
    const std::size_t n = inflight_.size();
    inflight_.clear();
    return n;
  }
  const std::string& error() const { return error_; }

 private:
  void Fail(const std::string& why) {
    if (!dead_) error_ = why;
    dead_ = true;
  }

  int fd_ = -1;
  std::uint64_t begin_, end_, pos_;
  std::uint64_t seq_ = 0;
  std::string out_;
  std::size_t off_ = 0;
  net::FrameParser parser_{net::kWireMaxBatch};
  net::ParsedFrame reply_;
  std::deque<InFlight> inflight_;
  bool dead_ = false;
  std::string error_;
};

/// Client-side wire ledger and samples for one phase.
struct WireTally {
  std::uint64_t submitted_batches = 0, submitted_requests = 0;
  std::uint64_t applied_batches = 0, applied_requests = 0;
  std::uint64_t refused_batches = 0;  // shed/timed_out/expired/stopped/error
  std::uint64_t lost_batches = 0;     // transport died before the reply
  LatencyLog latency;                 // due -> reply; +inf if not applied
  std::vector<double> late_us;        // due -> send
  Windows windows;
};

std::vector<std::unique_ptr<WireConn>> ConnectPair(std::uint16_t port,
                                                   const Trace& trace) {
  std::vector<std::unique_ptr<WireConn>> conns;
  const std::uint64_t n = trace.size();
  for (std::uint64_t c = 0; c < 2; ++c) {
    conns.push_back(std::make_unique<WireConn>(port, n * c / 2, n * (c + 1) / 2));
  }
  return conns;
}

/// Waits up to `timeout_ns` for socket events, then services them.
void PollService(std::vector<std::unique_ptr<WireConn>>& conns,
                 std::int64_t timeout_ns, WireTally* tally,
                 bool record_latency) {
  pollfd pfd[2];
  const std::size_t n = conns.size();
  for (std::size_t i = 0; i < n; ++i) {
    pfd[i].fd = conns[i]->dead() ? -1 : conns[i]->fd();
    pfd[i].events = static_cast<short>(POLLIN | (conns[i]->want_write() ? POLLOUT : 0));
    pfd[i].revents = 0;
  }
  const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                    static_cast<long>(timeout_ns % 1'000'000'000)};
  {
    ScopedSpan span("net.poll");
    ::ppoll(pfd, static_cast<nfds_t>(n), &ts, nullptr);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (pfd[i].revents == 0) continue;
    WireConn& c = *conns[i];
    if (pfd[i].revents & POLLOUT) c.Flush();
    c.Read([&](const WireConn::InFlight& f, std::uint16_t code) {
      const std::int64_t now = NowNs();
      if (code == net::kWireApplied) {
        ++tally->applied_batches;
        tally->applied_requests += f.count;
        tally->windows.Add(now, f.count);
        if (record_latency) {
          tally->latency.Add(now, static_cast<double>(now - f.due_ns) * 1e-3);
        }
      } else {
        ++tally->refused_batches;
        if (record_latency) tally->latency.Add(now, kInf);
      }
    });
  }
}

/// Waits for every outstanding reply (bounded); unanswered frames are
/// counted as lost.
void DrainReplies(std::vector<std::unique_ptr<WireConn>>& conns,
                  WireTally* tally, bool record_latency, Report* report) {
  const std::int64_t give_up = NowNs() + 10'000'000'000;
  auto outstanding = [&] {
    std::size_t k = 0;
    for (const auto& c : conns) k += c->dead() ? 0 : c->outstanding();
    return k;
  };
  while (outstanding() > 0 && NowNs() < give_up) {
    PollService(conns, 5'000'000, tally, record_latency);
  }
  for (auto& c : conns) {
    report->Check(!c->dead(), "wire connection failed: " + c->error());
    const std::size_t lost = c->DropOutstanding();
    tally->lost_batches += lost;
    for (std::size_t i = 0; record_latency && i < lost; ++i) {
      tally->latency.Add(NowNs(), kInf);
    }
  }
}

/// Open loop: batch k is due at t0 + k * 64 / rate and goes to
/// connection k % 2, whether or not earlier batches have been answered.
WireTally OpenLoop(std::vector<std::unique_ptr<WireConn>>& conns,
                   const Trace& trace, double rate, double seconds,
                   Report* report) {
  // The generator sleeps to each batch's due time; a 1 µs timer slack
  // (this thread only, restored after) keeps the wake-up from adding the
  // default 50 µs.
  const int slack = ::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  WireTally t;
  const double interval_ns = 1e9 * static_cast<double>(kBatch) / rate;
  const std::int64_t t0 = NowNs();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  t.windows.t0 = t0;
  t.latency.t0 = t0;
  std::uint64_t k = 0;
  auto due = [&](std::uint64_t i) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
  };
  for (;;) {
    const std::int64_t now = NowNs();
    if (now >= end) break;
    while (due(k) <= now && due(k) < end) {
      WireConn& c = *conns[k % conns.size()];
      t.late_us.push_back(static_cast<double>(NowNs() - due(k)) * 1e-3);
      t.submitted_requests += c.Send(trace, due(k));
      ++t.submitted_batches;
      ++k;
    }
    const std::int64_t wait = std::max<std::int64_t>(0, std::min(due(k), end) - NowNs());
    PollService(conns, wait, &t, true);
  }
  DrainReplies(conns, &t, true, report);
  if (slack > 0) ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(slack), 0, 0, 0);
  return t;
}

/// Pipelined saturation: each connection keeps kPipelineDepth frames
/// outstanding for `seconds`.
WireTally Saturate(std::vector<std::unique_ptr<WireConn>>& conns,
                   const Trace& trace, double seconds, Report* report,
                   std::int64_t* end_out) {
  WireTally t;
  const std::int64_t t0 = NowNs();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  t.windows.t0 = t0;
  *end_out = end;
  while (NowNs() < end) {
    for (auto& c : conns) {
      while (!c->dead() && c->outstanding() < kPipelineDepth) {
        t.submitted_requests += c->Send(trace, NowNs());
        ++t.submitted_batches;
      }
    }
    PollService(conns, 1'000'000, &t, false);
  }
  DrainReplies(conns, &t, false, report);
  return t;
}

// ---- set-up -----------------------------------------------------------------

/// Everything a workload builds before its timed phase. Members are
/// destroyed in reverse order: connections close before the servers.
struct Rig {
  Trace trace;
  std::unique_ptr<Policy> policy;                // tpcc-offline: built so
                                                 // setup_s covers policy
                                                 // construction
  std::unique_ptr<CacheServer> server;           // xl-writes-served
  std::unique_ptr<net::NetServer> net_server;    // tpcc-wire
  std::vector<std::unique_ptr<WireConn>> conns;  // tpcc-wire
  bool finished = false;

  ~Rig() { Teardown(); }
  void Teardown() {
    if (finished) return;
    finished = true;
    conns.clear();
    if (net_server) net_server->Drain();
    if (server) {
      for (std::size_t c = 0; c < 2; ++c) server->Finish(c);
      server->Shutdown();
    }
  }
};

std::unique_ptr<Rig> Setup(const Args& a) {
  ScopedSpan span("bench.setup");
  auto rig = std::make_unique<Rig>();
  rig->trace = MakeWorkloadTrace(a);
  const std::size_t cache = CachePages(a.workload);
  switch (a.workload) {
    case Workload::kTpccOffline:
      rig->policy = clic::MakePolicy(PolicyKind::kClic, cache, &rig->trace,
                                     ClicOptions{});
      break;
    case Workload::kXlWritesServed: {
      ScopedSpan s("server.CacheServer");
      rig->server = std::make_unique<CacheServer>(XlServerOptions(cache), 2);
      break;
    }
    case Workload::kTpccWire: {
      net::NetServerOptions no;
      no.server = ServedOptions(cache);
      no.io_threads = 1;
      no.conn_limit = 2;
      {
        ScopedSpan s("net.NetServer");
        rig->net_server = std::make_unique<net::NetServer>(no);
      }
      ScopedSpan s("net.connect");
      rig->conns = ConnectPair(rig->net_server->port(), rig->trace);
      break;
    }
  }
  return rig;
}

// ---- per-layer probes (traced run) -----------------------------------------

/// Forwards to a policy and times every AccessBatch call, so Simulate's
/// own overhead is its wall time minus the forwarded calls.
class TimedPolicy : public Policy {
 public:
  TimedPolicy(Policy& inner, const char* span_name)
      : inner_(inner), span_name_(span_name) {}
  bool Access(const Request& r, SeqNum seq) override {
    return inner_.Access(r, seq);
  }
  void AccessBatch(const Request* reqs, SeqNum first_seq, std::size_t n,
                   std::uint8_t* hits_out) override {
    const std::int64_t s = NowNs();
    inner_.AccessBatch(reqs, first_seq, n, hits_out);
    const std::int64_t e = NowNs();
    busy_ns_ += e - s;
    RecordSpan(span_name_, kInheritParent, first_seq, s, e);
  }
  std::int64_t busy_ns() const { return busy_ns_; }

 private:
  Policy& inner_;
  const char* span_name_;
  std::int64_t busy_ns_ = 0;
};

struct KernelRun {
  clic::SimResult result;
  double sim_ns = 0;
  double batch_ns = 0;
};

KernelRun TimedSimulate(const Trace& trace, Policy& policy, const char* span) {
  TimedPolicy timed(policy, span);
  KernelRun k;
  const std::int64_t s = NowNs();
  {
    ScopedSpan sim("sim.Simulate");
    k.result = clic::Simulate(trace, timed);
  }
  k.sim_ns = static_cast<double>(NowNs() - s);
  k.batch_ns = static_cast<double>(timed.busy_ns());
  return k;
}

std::vector<clic::sweep::SweepRow> TimedSweep(
    const clic::sweep::SweepRunner& runner, const clic::sweep::SweepSpec& spec,
    double* wall_s) {
  const std::int64_t s = NowNs();
  std::vector<clic::sweep::SweepRow> rows;
  {
    ScopedSpan span("sweep.Run");
    rows = runner.Run(spec);
  }
  *wall_s = Seconds(NowNs() - s);
  return rows;
}

double ParallelEfficiency(const std::vector<clic::sweep::SweepRow>& rows,
                          unsigned threads, double wall_s) {
  double busy = 0;
  for (const auto& r : rows) busy += r.wall_seconds;
  return busy / (static_cast<double>(threads) * wall_s);
}

unsigned SweepThreads() {
  return std::max(1u, std::min(kSweepThreads, std::thread::hardware_concurrency()));
}

clic::sweep::SweepRunner MakeRunner(const Trace& trace) {
  return clic::sweep::SweepRunner(
      [&trace](const std::string&) -> const Trace& {
        ScopedSpan span("sweep.TraceProvider");
        return trace;
      },
      SweepThreads());
}

void LayerProbes(const Args& a, const Trace& trace, double parallel_eff,
                 Report* r) {
  ScopedSpan root("bench.layer_probes");
  const double n = static_cast<double>(trace.size());
  const std::size_t cache = CachePages(a.workload);
  auto& L = r->layer;

  Put(&L, "workload.hint_sets", static_cast<double>(trace.hints->size()), "count");

  // core/ + policies/ + sim/: the kernels under Simulate on the
  // workload's own trace, one unsharded policy at the workload's cache.
  {
    auto clic_policy = clic::MakePolicy(PolicyKind::kClic, cache, &trace, ClicOptions{});
    const KernelRun k = TimedSimulate(trace, *clic_policy, "core.AccessBatch");
    const auto* cp = dynamic_cast<const ClicPolicy*>(clic_policy.get());
    Put(&L, "core.clic_ns_per_req", k.batch_ns / n, "ns");
    Put(&L, "sim.overhead_ns_per_req", (k.sim_ns - k.batch_ns) / n, "ns");
    Put(&L, "core.clic_windows", static_cast<double>(cp->windows_completed()), "count");
    Put(&L, "core.clic_early_closes", static_cast<double>(cp->early_closes()), "count");
    Put(&L, "core.effective_window", static_cast<double>(cp->effective_window()), "requests");
    auto lru = clic::MakePolicy(PolicyKind::kLru, cache, &trace, ClicOptions{});
    const KernelRun l = TimedSimulate(trace, *lru, "policies.AccessBatch");
    Put(&L, "policies.lru_ns_per_req", l.batch_ns / n, "ns");
    Put(&L, "policies.lru_read_hit_ratio", l.result.total.ReadHitRatio(), "ratio");
  }

  // sweep/: pool efficiency (tpcc-offline passes its own grid's), and
  // the .trc disk cache cold (generate + save) vs warm (load).
  if (parallel_eff <= 0) {
    clic::sweep::SweepSpec spec;
    spec.traces = {a.workload_name};
    spec.policies = {PolicyKind::kLru, PolicyKind::kClic};
    spec.cache_sizes = {cache};
    const auto runner = MakeRunner(trace);
    double wall = 0;
    const auto rows = TimedSweep(runner, spec, &wall);
    parallel_eff = ParallelEfficiency(rows, runner.threads(), wall);
  }
  Put(&L, "sweep.parallel_efficiency", parallel_eff, "ratio");
  {
    const std::string dir = a.scratch + "/trace_cache";
    std::filesystem::remove_all(dir);
    const std::uint64_t cap = a.tiny ? kTinyRequests : 4'000'000;
    double cold = 0, warm = 0;
    for (int pass = 0; pass < 2; ++pass) {
      clic::sweep::TraceCache cache_dir(dir, cap);
      const std::int64_t s = NowNs();
      {
        ScopedSpan span("sweep.TraceCache.Get");
        cache_dir.Get(GeneratorName(a));
      }
      (pass == 0 ? cold : warm) = Seconds(NowNs() - s);
    }
    std::filesystem::remove_all(dir);
    Put(&L, "sweep.cache_cold_s", cold, "s");
    Put(&L, "sweep.cache_warm_s", warm, "s");
  }

  // server/: partitioning, then one closed-loop client on a prefix.
  const ServerOptions served = ServedOptions(cache);
  {
    const std::int64_t s = NowNs();
    std::vector<Trace> parts;
    {
      ScopedSpan span("server.PartitionByShard");
      parts = clic::server::PartitionByShard(trace, served.shards);
    }
    Put(&L, "server.partition_ns_per_req", static_cast<double>(NowNs() - s) / n, "ns");
    std::size_t total = 0;
    for (const Trace& p : parts) total += p.size();
    r->Check(total == trace.size(), "PartitionByShard lost requests");
  }
  const std::uint64_t probe_n = std::min<std::uint64_t>(kProbeRequests, trace.size());
  double submit_p50 = 0;
  {
    ServerOptions o = served;
    o.record_drain_latency = true;
    CacheServer server(o, 1);
    std::vector<double> lat;
    for (std::uint64_t pos = 0; pos < probe_n; pos += kBatch) {
      const std::size_t count = std::min<std::uint64_t>(kBatch, probe_n - pos);
      const std::int64_t s = NowNs();
      SubmitResult res;
      {
        ScopedSpan span("server.Submit", pos / kBatch);
        res = server.Submit(0, trace.requests.data() + pos, count);
      }
      lat.push_back(res == SubmitResult::kApplied
                        ? static_cast<double>(NowNs() - s) * 1e-3
                        : kInf);
    }
    server.Finish(0);
    server.Shutdown();
    const double cap_us = a.seconds * 1e6;
    submit_p50 = Percentile(lat, 0.50, cap_us);
    Put(&L, "server.submit_p50_us", submit_p50, "us");
    Put(&L, "server.submit_p99_us", Percentile(lat, 0.99, cap_us), "us");
    const std::vector<double> drain = server.DrainLatenciesUs();
    Put(&L, "server.drain_p50_us", Percentile(drain, 0.50, cap_us), "us");
    Put(&L, "server.drain_p99_us", Percentile(drain, 0.99, cap_us), "us");
    Put(&L, "server.avg_drained_batch",
        static_cast<double>(server.requests_applied()) /
            static_cast<double>(std::max<std::uint64_t>(1, server.shard_drains())),
        "requests");
    const std::vector<std::uint64_t> per = server.PerConsumerRequests();
    double mx = 0, sum = 0;
    for (std::uint64_t v : per) {
      mx = std::max(mx, static_cast<double>(v));
      sum += static_cast<double>(v);
    }
    Put(&L, "server.consumer_imbalance",
        sum > 0 ? mx / (sum / static_cast<double>(per.size())) : 0.0, "ratio");
    const AdmissionStats adm = server.TotalAdmission();
    Put(&L, "server.admission_failed",
        static_cast<double>(adm.submitted_batches - adm.applied_batches), "batches");
  }

  // server/net/: encode and parse cost, then the blocking wire client
  // against the same topology and prefix as the in-process probe.
  {
    std::string buf;
    const std::int64_t s = NowNs();
    {
      ScopedSpan span("net.AppendBatchFrame");
      std::uint64_t seq = 0;
      for (std::uint64_t pos = 0; pos < probe_n; pos += kBatch) {
        const std::size_t count = std::min<std::uint64_t>(kBatch, probe_n - pos);
        net::AppendBatchFrame(trace.requests.data() + pos, count, ++seq, &buf);
      }
    }
    const std::int64_t mid = NowNs();
    net::FrameParser parser(net::kWireMaxBatch);
    net::ParsedFrame frame;
    const auto* p = reinterpret_cast<const std::uint8_t*>(buf.data());
    std::size_t len = buf.size();
    std::uint64_t parsed = 0;
    {
      ScopedSpan span("net.FrameParser.Consume");
      while (len > 0) {
        if (parser.Consume(&p, &len, &frame) != net::ParseStatus::kFrame) break;
        parsed += frame.requests.size();
      }
    }
    const std::int64_t e = NowNs();
    const double probe_d = static_cast<double>(probe_n);
    Put(&L, "net.encode_ns_per_req", static_cast<double>(mid - s) / probe_d, "ns");
    Put(&L, "net.parse_ns_per_req", static_cast<double>(e - mid) / probe_d, "ns");
    r->Check(parsed == probe_n, "FrameParser did not round-trip AppendBatchFrame");
  }
  {
    net::NetServerOptions no;
    no.server = served;
    no.io_threads = 1;
    no.conn_limit = 3;
    net::NetServer ns(no);
    std::vector<double> lat;
    {
      net::WireClient client;
      r->Check(client.Connect("127.0.0.1", ns.port()), "wire probe connect");
      for (std::uint64_t pos = 0; pos < probe_n && client.connected(); pos += kBatch) {
        const std::size_t count = std::min<std::uint64_t>(kBatch, probe_n - pos);
        const std::int64_t s = NowNs();
        std::uint16_t code;
        {
          ScopedSpan span("net.WireClient.Call", pos / kBatch);
          code = client.Call(trace.requests.data() + pos, count);
        }
        lat.push_back(code == net::kWireApplied
                          ? static_cast<double>(NowNs() - s) * 1e-3
                          : kInf);
      }
    }
    Put(&L, "net.call_minus_submit_us",
        Percentile(lat, 0.50, a.seconds * 1e6) - submit_p50, "us");
    if (a.workload != Workload::kTpccWire) {
      // The open-loop generator's lateness on this workload's trace, at
      // the same offered rate tpcc-wire uses (that workload reports the
      // figure from its own latency phase instead).
      auto conns = ConnectPair(ns.port(), trace);
      const WireTally t = OpenLoop(conns, trace, a.wire_rate, 1.0, r);
      Put(&L, "gen.late_p99_us", Percentile(t.late_us, 0.99, 1e6), "us");
    }
    ns.Drain();
    const net::NetStats st = ns.Stats();
    Put(&L, "net.rejected_frames", static_cast<double>(st.rejected_frames), "frames");
    Put(&L, "net.evictions", static_cast<double>(st.evicted_read + st.evicted_write),
        "connections");
  }
}

// ---- correctness checks shared by the served workloads ----------------------

/// A short deterministic CacheServer run (1 client, strict client
/// order) must reproduce per-shard sequential Simulate bit for bit.
void CheckDeterministicPrefix(const Trace& trace, std::size_t cache, Report* r) {
  ScopedSpan span("bench.check_prefix");
  ServerOptions o = ServedOptions(cache);
  o.deterministic = true;
  o.consumers = 1;
  const std::uint64_t n = std::min<std::uint64_t>(100'000, trace.size());
  CacheServer server(o, 1);
  for (std::uint64_t pos = 0; pos < n; pos += kBatch) {
    const std::size_t count = std::min<std::uint64_t>(kBatch, n - pos);
    r->Check(server.Submit(0, trace.requests.data() + pos, count) ==
                 SubmitResult::kApplied,
             "deterministic prefix batch not applied");
  }
  server.Finish(0);
  server.Shutdown();
  const CacheStats got = server.TotalStats();
  const CacheStats want = clic::server::PartitionedSimulate(trace, o, n).total;
  r->Check(SameStats(got, want), "deterministic CacheServer prefix (" +
                                     StatsText(got) + ") != PartitionedSimulate (" +
                                     StatsText(want) + ")");
}

/// submitted == applied + shed + timed_out + expired + stopped, in
/// batches and in requests.
void CheckLedger(const AdmissionStats& s, const std::string& who, Report* r) {
  r->Check(s.submitted_batches == s.applied_batches + s.shed_batches +
                                      s.timed_out_batches + s.expired_batches +
                                      s.stopped_batches,
           who + " ledger does not balance in batches");
  r->Check(s.submitted_requests == s.applied_requests + s.shed_requests +
                                       s.timed_out_requests + s.expired_requests +
                                       s.stopped_requests,
           who + " ledger does not balance in requests");
}

/// CLIC's read hit ratio at the workload's topology: the sharded
/// sequential replay the deterministic server reproduces.
double ServedReadHitRatio(const Trace& trace, std::size_t cache) {
  ScopedSpan span("server.PartitionedSimulate");
  return clic::server::PartitionedSimulate(trace, ServedOptions(cache)).total.ReadHitRatio();
}

// ---- end-to-end phases ------------------------------------------------------

struct Phase {
  double throughput_rps = 0;
  LatencyLog latency;  // per 64-request batch; +inf = failed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t repetitions = 0;
  double late_p99_us = 0;      // tpcc-wire only
  double parallel_eff = 0;     // tpcc-offline only
};

/// tpcc-offline: the CLIC grid over the Figure-6 cache axis through
/// SweepRunner, repeated until the budget is spent, alternating with a
/// sequential replay at 12k pages timed per 64-request AccessBatch.
/// Throughput is every grid repetition's requests ÷ their summed wall
/// time (see Windows for why a mean and not a median).
Phase RunOffline(Rig& rig, double seconds, Report* r, bool first) {
  ScopedSpan span("bench.offline");
  const Trace& trace = rig.trace;
  clic::sweep::SweepSpec spec;
  spec.traces = {"tpcc-offline"};
  spec.policies = {PolicyKind::kClic};
  spec.cache_sizes = {6'000, 12'000, 18'000, 24'000, 30'000};
  const auto runner = MakeRunner(trace);
  const std::size_t cache = CachePages(Workload::kTpccOffline);

  CacheStats reference;
  if (first) {
    auto policy = clic::MakePolicy(PolicyKind::kClic, cache, &trace, ClicOptions{});
    ScopedSpan sim("sim.Simulate");
    reference = clic::Simulate(trace, *policy).total;
  }
  Phase ph;
  std::vector<double> effs;
  std::uint64_t replayed = 0;
  double grid_wall = 0;
  std::vector<std::uint8_t> hits(kBatch);
  ph.latency.t0 = NowNs();
  const std::int64_t end = ph.latency.t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::optional<CacheStats> grid_12k;
  do {
    double wall = 0;
    const auto rows = TimedSweep(runner, spec, &wall);
    std::uint64_t reqs = 0;
    for (const auto& row : rows) {
      reqs += row.result.total.reads + row.result.total.writes;
      if (row.point.cache_pages != cache) continue;
      if (!grid_12k) grid_12k = row.result.total;
      r->Check(SameStats(*grid_12k, row.result.total),
               "sweep 12k row changed between repetitions");
    }
    replayed += reqs;
    grid_wall += wall;
    effs.push_back(ParallelEfficiency(rows, runner.threads(), wall));
    ph.attempted += rows.size();

    // Per-batch kernel latency, on a fresh CLIC policy each pass.
    auto policy = clic::MakePolicy(PolicyKind::kClic, cache, &trace, ClicOptions{});
    CacheStats replay;
    for (std::size_t pos = 0; pos < trace.size(); pos += kBatch) {
      const std::size_t count = std::min(kBatch, trace.size() - pos);
      const std::int64_t s = NowNs();
      policy->AccessBatch(trace.requests.data() + pos, pos, count, hits.data());
      const std::int64_t e = NowNs();
      RecordSpan("core.AccessBatch", kInheritParent, pos, s, e);
      ph.latency.Add(e, static_cast<double>(e - s) * 1e-3);
      for (std::size_t i = 0; i < count; ++i) {
        replay.Record(trace.requests[pos + i], hits[i] != 0);
      }
    }
    r->Check(SameStats(replay, *grid_12k),
             "64-request AccessBatch replay (" + StatsText(replay) +
                 ") != sweep 12k row (" + StatsText(*grid_12k) + ")");
  } while (NowNs() < end);
  if (first) {
    r->Check(SameStats(*grid_12k, reference),
             "sweep 12k CLIC row (" + StatsText(*grid_12k) +
                 ") != sequential Simulate (" + StatsText(reference) + ")");
    Put(&r->e2e, "read_hit_ratio", grid_12k->ReadHitRatio(), "ratio");
  }
  ph.throughput_rps = static_cast<double>(replayed) / grid_wall;
  ph.parallel_eff = Median(effs);
  ph.repetitions = effs.size();
  return ph;
}

/// xl-writes-served: 2 closed-loop clients, one 64-request Submit at a
/// time each, looping over their halves of the trace.
Phase RunXl(Rig& rig, double seconds) {
  ScopedSpan span("bench.xl_served");
  const SpanId parent = span.id();
  CacheServer& server = *rig.server;
  const Trace& trace = rig.trace;
  const std::uint64_t n = trace.size();
  struct ClientTally {
    std::uint64_t batches = 0, requests = 0, applied = 0, failed = 0;
    LatencyLog lat;
    Windows windows;
  };
  ClientTally tallies[2];
  const std::int64_t t0 = NowNs();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      ClientTally& t = tallies[c];
      t.windows.t0 = t0;
      t.lat.t0 = t0;
      const std::uint64_t begin = n * c / 2, stop = n * (c + 1) / 2;
      std::uint64_t pos = begin;
      while (NowNs() < end) {
        const std::size_t count = std::min<std::uint64_t>(kBatch, stop - pos);
        const std::int64_t s = NowNs();
        SubmitResult res;
        {
          ScopedSpan sub("server.Submit", t.batches, parent);
          res = server.Submit(c, trace.requests.data() + pos, count);
        }
        const std::int64_t e = NowNs();
        ++t.batches;
        t.requests += count;
        if (res == SubmitResult::kApplied) {
          ++t.applied;
          t.lat.Add(e, static_cast<double>(e - s) * 1e-3);
          t.windows.Add(e, count);
        } else {
          ++t.failed;
          t.lat.Add(e, kInf);
        }
        pos += count;
        if (pos >= stop) pos = begin;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  Phase ph;
  Windows all;
  all.t0 = t0;
  ph.latency.t0 = t0;
  for (const ClientTally& t : tallies) {
    ph.attempted += t.batches;
    ph.failed += t.failed;
    ph.latency.Merge(t.lat);
    all.Merge(t.windows);
  }
  ph.throughput_rps = all.Rate(end, &ph.repetitions);
  return ph;
}

/// tpcc-wire: half the budget at the fixed offered rate (latency from
/// each batch's due time), half in pipelined saturation (throughput).
Phase RunWire(Rig& rig, double seconds, double rate, Report* r) {
  ScopedSpan span("bench.wire");
  Phase ph;
  const WireTally lat = OpenLoop(rig.conns, rig.trace, rate, seconds / 2, r);
  std::int64_t end = 0;
  const WireTally sat = Saturate(rig.conns, rig.trace, seconds / 2, r, &end);
  ph.throughput_rps = sat.windows.Rate(end, &ph.repetitions);
  ph.latency = lat.latency;
  ph.late_p99_us = Percentile(lat.late_us, 0.99, seconds * 1e6);
  ph.attempted = lat.submitted_batches + sat.submitted_batches;
  ph.failed = lat.refused_batches + lat.lost_batches + sat.refused_batches +
              sat.lost_batches;
  for (const WireTally* t : {&lat, &sat}) {
    r->Check(t->submitted_batches ==
                 t->applied_batches + t->refused_batches + t->lost_batches,
             "wire client ledger does not balance");
  }
  return ph;
}

Phase RunPhase(const Args& a, Rig& rig, double seconds, Report* r, bool first) {
  switch (a.workload) {
    case Workload::kTpccOffline: return RunOffline(rig, seconds, r, first);
    case Workload::kXlWritesServed: return RunXl(rig, seconds);
    case Workload::kTpccWire: return RunWire(rig, seconds, a.wire_rate, r);
  }
  return {};
}

/// Post-run checks on the served workloads' ledgers, after teardown.
void CheckServedLedgers(const Args& a, Rig& rig, std::uint64_t client_batches,
                        std::uint64_t client_failed, Report* r) {
  rig.Teardown();
  if (a.workload == Workload::kXlWritesServed) {
    const AdmissionStats s = rig.server->TotalAdmission();
    CheckLedger(s, "CacheServer", r);
    r->Check(s.submitted_batches == client_batches,
             "CacheServer saw a different batch count than the clients sent");
    r->Check(s.submitted_batches - s.applied_batches == client_failed,
             "CacheServer failures differ from the clients' count");
  } else if (a.workload == Workload::kTpccWire) {
    const AdmissionStats s = rig.net_server->cache().TotalAdmission();
    const net::NetStats ns = rig.net_server->Stats();
    CheckLedger(s, "NetServer", r);
    r->Check(ns.frames == client_batches,
             "NetServer parsed " + std::to_string(ns.frames) + " frames, clients sent " +
                 std::to_string(client_batches));
    r->Check(s.submitted_batches - s.applied_batches == client_failed,
             "NetServer failures differ from the clients' count");
  }
}

// ---- output -----------------------------------------------------------------

void AppendJsonMetrics(std::string* out, const std::vector<Metric>& ms) {
  out->append("{");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
    if (i > 0) out->append(", ");
    out->append("\"" + ms[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                ms[i].unit + "\"}");
  }
  out->append("}");
}

bool WriteReport(const std::string& path, const Report& r) {
  std::string out = "{\"correct\": ";
  out += r.failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"end_to_end\": ";
  AppendJsonMetrics(&out, r.e2e);
  out += ", \"per_layer\": ";
  AppendJsonMetrics(&out, r.layer);
  out += ", \"context\": ";
  AppendJsonMetrics(&out, r.context);
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + clic::sweep::JsonEscaped(r.failures[i]) + "\"";
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  if (a.digest) {
    const Trace t = MakeWorkloadTrace(a);
    std::printf("digest=%016llx requests=%zu hint_sets=%zu\n",
                static_cast<unsigned long long>(TraceDigest(t)), t.size(),
                t.hints->size());
    return 0;
  }
  SetTracing(a.trace);
  Report r;

  std::vector<double> setup_s;
  const auto timed_setup = [&a, &setup_s] {
    const std::int64_t s = NowNs();
    std::unique_ptr<Rig> rig = Setup(a);
    setup_s.push_back(Seconds(NowNs() - s));
    return rig;
  };
  const auto discard = [](std::unique_ptr<Rig> rig) {
    if (rig && rig->server) rig->server->Stop();
  };
  std::unique_ptr<Rig> rig;
  std::int64_t gen_ns = 0;
  for (int i = 0; i < kSetupRepsBefore; ++i) {
    discard(std::move(rig));
    rig = timed_setup();
  }
  {
    // Generation alone, for workload.gen_ns_per_req (outside set-up timing).
    const std::int64_t s = NowNs();
    const Trace again = MakeWorkloadTrace(a);
    gen_ns = NowNs() - s;
    r.Check(TraceDigest(again) == TraceDigest(rig->trace),
            "same seed regenerated a different trace");
  }
  const Trace& trace = rig->trace;
  const std::size_t cache = CachePages(a.workload);
  const double cap_us = a.seconds * 1e6;

  Phase ph;
  double overhead = 0;
  if (a.trace) {
    // The traced run warms up (a quarter of the budget, so cold-start
    // work such as page-table growth lands in neither half), then
    // measures the phase untraced and traced; the throughput ratio of
    // the two halves is the tracing overhead.
    SetTracing(false);
    const Phase warm = RunPhase(a, *rig, a.seconds / 4, &r, true);
    const Phase plain = RunPhase(a, *rig, a.seconds / 2, &r, false);
    SetTracing(true);
    ph = RunPhase(a, *rig, a.seconds / 2, &r, false);
    overhead = plain.throughput_rps / ph.throughput_rps - 1.0;
    ph.attempted += warm.attempted + plain.attempted;
    ph.failed += warm.failed + plain.failed;
  } else {
    Phase warm;
    if (a.workload == Workload::kXlWritesServed) {
      warm = RunPhase(a, *rig, kServedWarmupS, &r, true);
    }
    ph = RunPhase(a, *rig, a.seconds, &r, true);
    ph.attempted += warm.attempted;
    ph.failed += warm.failed;
  }
  // High-water resident memory of set-up plus the measured phase; the
  // correctness replays after it are not part of the workload.
  const double peak_rss_mb = PeakRssMb();
  r.attempted = ph.attempted;
  r.failed = ph.failed;
  CheckServedLedgers(a, *rig, ph.attempted, ph.failed, &r);

  if (a.workload != Workload::kTpccOffline) {
    Put(&r.e2e, "read_hit_ratio", ServedReadHitRatio(trace, cache), "ratio");
    CheckDeterministicPrefix(trace, cache, &r);
  }
  for (int i = kSetupRepsBefore; i < kSetupReps; ++i) discard(timed_setup());
  Put(&r.e2e, "setup_s", Median(setup_s), "s");
  Put(&r.e2e, "throughput_rps", ph.throughput_rps, "req/s");
  Put(&r.e2e, "p50_us", ph.latency.Summary(0.50, cap_us), "us");
  Put(&r.e2e, "p95_us", ph.latency.Summary(0.95, cap_us), "us");
  Put(&r.e2e, "applied_ratio",
      ph.attempted > 0 ? 1.0 - static_cast<double>(ph.failed) /
                                   static_cast<double>(ph.attempted)
                       : 0.0,
      "ratio");
  Put(&r.e2e, "peak_rss_mb", peak_rss_mb, "MB");
  r.Check(ph.attempted > 0, "the run attempted no work");

  Put(&r.context, "setup_repetitions", kSetupReps, "count");
  Put(&r.context, "throughput_repetitions", static_cast<double>(ph.repetitions), "count");
  Put(&r.context, "latency_samples", static_cast<double>(ph.latency.size()), "count");
  // Reported but not gated: on a shared 4-vCPU VM the served p99 moved
  // 17-45% between sets of runs of the same code, beyond any bound.
  Put(&r.context, "p99_us", ph.latency.Summary(0.99, cap_us), "us");
  Put(&r.context, "trace_requests", static_cast<double>(trace.size()), "count");
  Put(&r.context, "sweep_threads", SweepThreads(), "count");
  if (a.workload == Workload::kTpccWire) {
    Put(&r.context, "offered_rate_rps", a.wire_rate, "req/s");
    Put(&r.context, "pipeline_depth", kPipelineDepth, "frames");
  }

  if (a.trace) {
    Put(&r.layer, "workload.gen_ns_per_req",
        static_cast<double>(gen_ns) / static_cast<double>(trace.size()), "ns");
    LayerProbes(a, trace, a.workload == Workload::kTpccOffline ? ph.parallel_eff : 0.0,
                &r);
    if (a.workload == Workload::kTpccWire) {
      Put(&r.layer, "gen.late_p99_us", ph.late_p99_us, "us");
    }
    Put(&r.layer, "trace.overhead_ratio", overhead, "ratio");
    Put(&r.context, "spans", static_cast<double>(SpanCount()), "count");
    rig.reset();
    if (!DumpSpans(a.spans)) Die("cannot write spans to " + a.spans);
  }
  if (!WriteReport(a.out, r)) Die("cannot write result to " + a.out);
  return r.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace clicbench

int main(int argc, char** argv) { return clicbench::Main(argc, argv); }

// clic_serve: drive the sharded online cache server with closed-loop
// clients replaying a named trace, and report throughput, batch latency
// percentiles, and hit statistics.
//
//   clic_serve --trace=DB2_C60 --policy=CLIC --shards=4 --clients=8
//              --cache-pages=12000 --requests=200000 --format=json
//   clic_serve --trace=DB2_C60 --policy=LRU --shards=2 --clients=2
//              --deterministic --verify
//
// --deterministic runs the single-consumer mode whose hit counts are
// bit-identical to per-shard sequential Simulate() of the partitioned
// trace; --verify checks exactly that in-process and fails loudly on
// any divergence.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cli_util.h"
#include "server/cache_server.h"
#include "server/ledger_row.h"
#include "server/net/net_server.h"
#include "server/net/wire_client.h"
#include "sweep/sweep.h"
#include "sweep/trace_cache.h"

namespace clic::server {
namespace {

constexpr char kProg[] = "clic_serve";

struct CliOptions {
  std::string trace;
  ServerOptions server;
  LoadOptions load;
  bool verify = false;
  cli::RunOptions run;
  /// Parsed --fault-plan; server.fault points here when one was given
  /// (CliOptions is copied once out of Parse, so the pointer is wired
  /// up in Main after the copy settles).
  std::optional<fault::FaultPlan> fault_plan;

  // ---- network front end (server/net/) ----
  bool listen = false;   // standalone wire server until SIGTERM/SIGINT
  bool connect = false;  // loopback: in-process wire server + wire drivers
  /// Address, port, io threads, connection limit and read timeout; the
  /// embedded server options are filled from `server` at startup.
  net::NetServerOptions net;
};

[[noreturn]] void Die(const std::string& message) { cli::Die(kProg, message); }

CliOptions Parse(int argc, char** argv) {
  CliOptions opts;
  opts.server.shards = 4;
  opts.server.cache_pages = 12'000;
  opts.load.clients = 4;
  opts.load.batch_size = 64;
  // --trace and --workload are aliases: both accept every workload token.
  const auto set_workload = [&opts](const char* flag) {
    return [&opts, flag](const char* prog, const std::string& value) {
      if (!opts.trace.empty()) {
        Die("--trace and --workload are aliases; give exactly one "
            "workload (got '" +
            opts.trace + "' and '" + value + "')");
      }
      cli::RequireKnownWorkload(prog, flag, value);
      opts.trace = value;
    };
  };
  cli::FlagTable flags(
      kProg, "--trace=NAME | --workload=SPEC [flags]",
      {{"Workload",
        {{"--trace", "NAME", "named trace to replay (see --list)",
          set_workload("--trace")},
         {"--workload", "SPEC",
          "alias of --trace: a scenario preset or an inline spec like "
          "'zipf:pages=120000,theta=0.9' (grammar in workload/scenario.h); "
          "give exactly one of the two",
          set_workload("--workload")},
         cli::Real("--duration", "SEC",
                   "run clients for SEC seconds instead of one pass "
                   "(incompatible with --deterministic)",
                   &opts.load.duration_seconds)}},
       {"Server",
        {{"--policy", "NAME",
          "shard replacement policy (default LRU; OPT is clairvoyant and "
          "not servable)",
          [&opts](const char* prog, const std::string& value) {
            opts.server.policy = cli::RequirePolicy(prog, "--policy", value);
            if (opts.server.policy == PolicyKind::kOpt) {
              Die("--policy=OPT: OPT is clairvoyant and cannot serve an "
                  "online stream (valid policies: " +
                  cli::KnownPolicyNames() + ", minus OPT)");
            }
          }},
         cli::Uint("--shards", "S",
                   "hash shards, each with its own policy (default 4)",
                   &opts.server.shards, 4096),
         cli::Uint("--cache-pages", "N",
                   "total cache budget, split across shards (default 12000)",
                   &opts.server.cache_pages),
         cli::Uint("--clients", "C", "closed-loop client threads (default 4)",
                   &opts.load.clients, 4096),
         cli::Uint("--batch", "B", "requests per submitted batch (default 64)",
                   &opts.load.batch_size),
         cli::Uint("--consumers", "K",
                   "owning-consumer (core) threads; shard s belongs to "
                   "consumer s % K. Default: min(shards, hardware cores). "
                   "Must be <= shards; 1 with --deterministic",
                   &opts.server.consumers, 4096),
         cli::Uint("--ring-capacity", "N",
                   "per-(client,consumer) SPSC ring capacity in batches; a "
                   "power of two >= 2 (default 256)",
                   &opts.server.ring_capacity),
         cli::Switch("--deterministic",
                     "single consumer, strict client order: hit counts "
                     "match per-shard sequential Simulate()",
                     &opts.server.deterministic),
         cli::Switch("--verify",
                     "with --deterministic: check that equivalence "
                     "in-process, exit 1 on any mismatch (a shedding fault "
                     "plan's shed batches are left out of the baseline)",
                     &opts.verify)}},
       {"Overload resilience (all off by default)",
        {cli::Uint("--queue-cap", "N", "max pending batches per client queue",
                   &opts.server.queue_cap),
         cli::Enum("--admission",
                   "producer behaviour at a full queue (deadline needs "
                   "--submit-timeout-ms)",
                   &opts.server.admission,
                   {{AdmissionPolicyName(AdmissionPolicy::kBlock),
                     AdmissionPolicy::kBlock},
                    {AdmissionPolicyName(AdmissionPolicy::kBlockWithDeadline),
                     AdmissionPolicy::kBlockWithDeadline},
                    {AdmissionPolicyName(AdmissionPolicy::kShed),
                     AdmissionPolicy::kShed}}),
         cli::Real("--submit-timeout-ms", "F",
                   "wait bound for --admission=deadline",
                   &opts.server.submit_timeout_ms),
         cli::Real("--deadline-ms", "F",
                   "drop batches older than this at drain time instead of "
                   "serving them stale",
                   &opts.server.batch_deadline_ms),
         cli::Real("--watchdog-ms", "F",
                   "shed batches routed at a shard whose in-flight drain "
                   "exceeds this threshold",
                   &opts.server.watchdog_ms),
         {"--fault-plan", "SPEC",
          "deterministic fault injection, e.g. "
          "'stall:shard=0,after=10,drains=5,ms=50;shed:every=7;seed=42' "
          "(grammar in server/fault_injection.h)",
          [&opts](const char*, const std::string& value) {
            std::string error;
            if (!fault::ParseFaultPlan(value, &opts.fault_plan.emplace(),
                                       &error)) {
              Die(error);
            }
          }}}},
       {"Network front end (server/net/ wire protocol over epoll)",
        {{"--listen", "ADDR",
          "serve the wire protocol on ADDR (default 127.0.0.1) until "
          "SIGTERM/SIGINT, then drain gracefully",
          [&opts](const char*, const std::string& value) {
            opts.listen = true;
            if (!value.empty()) opts.net.listen_addr = value;
          },
          /*optional_value=*/true},
         cli::Switch("--connect",
                     "loopback mode: replay the workload through real "
                     "sockets to an in-process wire server on an ephemeral "
                     "port; with --deterministic --verify this is the "
                     "wire-level correctness gate",
                     &opts.connect),
         cli::Uint("--port", "N", "TCP port for --listen (0 = ephemeral)",
                   &opts.net.port, 65535, /*allow_zero=*/true),
         cli::Uint("--io-threads", "N",
                   "connection threads (1 with --deterministic)",
                   &opts.net.io_threads, 1024),
         cli::Uint("--conn-limit", "N",
                   "connection table bound == server client ports (default: "
                   "clients for --connect, 64 for --listen); a full table "
                   "sheds at accept time",
                   &opts.net.conn_limit, 65536),
         cli::Real("--read-timeout-ms", "F",
                   "evict a connection whose partial frame is older than "
                   "this (slowloris guard)",
                   &opts.net.read_timeout_ms)}},
       cli::ClicFlags(&opts.server.clic),
       cli::RunFlags(&opts.run)});
  flags.Parse(argc, argv);

  if (opts.trace.empty()) {
    Die("--trace (or --workload) is required (valid traces: " +
        cli::KnownWorkloadNames() + ")");
  }
  cli::RequireValidAdaptiveWindow(kProg, opts.server.clic);
  const std::size_t ring = opts.server.ring_capacity;
  if (ring < 2 || (ring & (ring - 1)) != 0) {
    Die("--ring-capacity='" + std::to_string(ring) +
        "' must be a power of two >= 2 (the ring masks instead of "
        "dividing)");
  }
  if (opts.verify && !opts.server.deterministic) {
    Die("--verify requires --deterministic (concurrent interleaving is "
        "timing-dependent by design)");
  }
  if (opts.server.deterministic && opts.load.duration_seconds > 0.0) {
    Die("--deterministic and --duration are incompatible: duration mode "
        "replays in wall-clock order");
  }
  if (opts.server.consumers > opts.server.shards) {
    Die("--consumers=" + std::to_string(opts.server.consumers) +
        " exceeds --shards=" + std::to_string(opts.server.shards) +
        " (a consumer must own at least one shard)");
  }
  if (opts.server.deterministic && opts.server.consumers > 1) {
    Die("--deterministic runs exactly one consumer (strict client order); "
        "drop --consumers=" + std::to_string(opts.server.consumers));
  }
  if (opts.server.queue_cap > 0 &&
      opts.server.admission == AdmissionPolicy::kBlockWithDeadline &&
      opts.server.submit_timeout_ms <= 0.0) {
    Die("--admission=deadline requires --submit-timeout-ms > 0 (got " +
        std::to_string(opts.server.submit_timeout_ms) + ")");
  }
  if (opts.listen && opts.connect) {
    Die("--listen and --connect are mutually exclusive: serve remote "
        "clients OR drive a loopback server (valid combinations: "
        "--listen [--port=N], --connect [--deterministic --verify])");
  }
  const bool net_tuning = flags.Seen("--port") || flags.Seen("--io-threads") ||
                          flags.Seen("--conn-limit") ||
                          flags.Seen("--read-timeout-ms");
  if (net_tuning && !opts.listen && !opts.connect) {
    Die("--port/--io-threads/--conn-limit/--read-timeout-ms configure the "
        "network front end; add --listen (standalone server) or "
        "--connect (loopback wire serving)");
  }
  if (opts.listen && opts.verify) {
    Die("--verify needs the loopback wire client: --listen serves remote "
        "clients whose stream the in-process verifier cannot replay "
        "(valid combinations: --connect --deterministic --verify for the "
        "wire-level gate, --deterministic --verify for in-process, or "
        "--listen without --verify)");
  }
  if (opts.connect && opts.server.deterministic && opts.net.io_threads > 1) {
    Die("--deterministic wire serving runs exactly one io thread (slots "
        "are assigned in strict accept order); drop --io-threads=" +
        std::to_string(opts.net.io_threads));
  }
  if (opts.connect && opts.load.duration_seconds > 0.0) {
    Die("--connect replays one pass over the wire; --duration is not "
        "supported in loopback mode");
  }
  // Without --conn-limit, loopback mode sizes the table to the clients.
  if (opts.connect && !flags.Seen("--conn-limit")) {
    opts.net.conn_limit = std::max<std::size_t>(opts.load.clients, 1);
  }
  if (opts.connect && opts.net.conn_limit < opts.load.clients) {
    Die("--conn-limit=" + std::to_string(opts.net.conn_limit) +
        " is below --clients=" + std::to_string(opts.load.clients) +
        " (every wire driver holds one connection; the table would shed "
        "drivers at accept time)");
  }
  if (opts.verify) {
    // --verify proves bit-identity against a sequential baseline; these
    // mechanisms are timing-dependent (watchdog, deadlines) or mutate
    // requests (corruption), so no baseline exists for them.
    if (opts.fault_plan && opts.fault_plan->HasCorruption()) {
      Die("--verify cannot be combined with a corrupt: fault clause "
          "(corruption mutates served requests, so no fault-free baseline "
          "matches)");
    }
    if (opts.fault_plan && opts.fault_plan->net_reset_every > 0) {
      Die("--verify cannot be combined with a net:reset fault clause (a "
          "reset truncates that connection's served stream, so no "
          "baseline matches; torn-write/partial-read/accept-stall only "
          "re-chunk or delay bytes and remain verifiable)");
    }
    if (opts.server.watchdog_ms > 0.0) {
      Die("--verify cannot be combined with --watchdog-ms (watchdog sheds "
          "are wall-clock dependent, so the served set is not "
          "reproducible)");
    }
    if (opts.server.batch_deadline_ms > 0.0) {
      Die("--verify cannot be combined with --deadline-ms (deadline "
          "expiry is wall-clock dependent, so the served set is not "
          "reproducible)");
    }
    if (opts.server.queue_cap > 0 &&
        opts.server.admission != AdmissionPolicy::kBlock) {
      Die("--verify needs --admission=block (shed/deadline admission "
          "makes the served set timing-dependent)");
    }
  }
  return opts;
}

/// The summary row. Its field order is the CSV column order, and the
/// JSON object follows it.
sweep::Row SummaryRow(const CliOptions& opts, const ServeResult& r,
                      std::size_t pages_per_shard) {
  std::vector<sweep::Row> consumers;
  for (std::uint64_t requests : r.per_consumer_requests) {
    consumers.push_back(sweep::Row().Int("", requests));
  }
  std::vector<sweep::Row> shards;
  for (const CacheStats& stats : r.per_shard) {
    shards.push_back(sweep::StatsRow(stats));
  }
  sweep::Row row;
  row.Str("trace", opts.trace)
      .Str("policy", PolicyName(opts.server.policy))
      .Int("shards", opts.server.shards)
      .Int("clients", opts.load.clients)
      .Int("cache_pages", opts.server.cache_pages)
      .Int("pages_per_shard", pages_per_shard)
      .Int("batch", opts.load.batch_size)
      .Bool("deterministic", opts.server.deterministic)
      .Str("admission", AdmissionPolicyName(opts.server.admission))
      .Int("queue_cap", opts.server.queue_cap)
      .Int("requests", r.requests)
      .Int("batches", r.batches)
      .Int("shard_drains", r.shard_drains)
      .Double("avg_drained_batch", r.avg_drained_batch)
      .Int("reads", r.total.reads)
      .Int("writes", r.total.writes)
      .Int("read_hits", r.total.read_hits)
      .Int("write_hits", r.total.write_hits)
      .Double("read_hit_ratio", r.total.ReadHitRatio())
      .Double("write_hit_ratio", r.total.WriteHitRatio())
      .Int("submitted_requests", r.admission.submitted_requests)
      .Int("shed_requests", r.admission.shed_requests)
      .Int("timed_out_requests", r.admission.timed_out_requests)
      .Int("expired_requests", r.admission.expired_requests)
      .Int("quarantined", r.quarantined)
      .Int("watchdog_sheds", r.watchdog_sheds)
      .Double("wall_seconds", r.wall_seconds)
      .Double("throughput_rps", r.throughput_rps)
      .Int("consumers", r.consumers)
      .Int("cores_detected", r.cores_detected)
      .Double("per_core_rps",
              r.throughput_rps / static_cast<double>(std::max(1u, r.consumers)))
      .Double("p50_us", r.p50_us)
      .Double("p99_us", r.p99_us)
      .Keyed("per_client", sweep::PerClientItems(r.per_client))
      .Array("per_consumer_requests", std::move(consumers))
      .Array("per_shard", std::move(shards));
  return row;
}

bool SameStats(const CacheStats& a, const CacheStats& b) {
  return a.reads == b.reads && a.writes == b.writes &&
         a.read_hits == b.read_hits && a.write_hits == b.write_hits;
}

void PrintStatsPair(const std::string& what, const CacheStats& served,
                    const CacheStats& expected) {
  std::fprintf(stderr, "clic_serve:   %s served   %s\n", what.c_str(),
               sweep::StatsRow(served).Json().c_str());
  std::fprintf(stderr, "clic_serve:   %s expected %s\n", what.c_str(),
               sweep::StatsRow(expected).Json().c_str());
}

int Verify(const ServeResult& served, const SimResult& expected) {
  bool ok = true;
  if (!SameStats(served.total, expected.total)) {
    ok = false;
    std::fprintf(stderr,
                 "clic_serve: VERIFY FAILED — aggregate counts diverged from "
                 "per-shard sequential Simulate():\n");
    PrintStatsPair("total", served.total, expected.total);
  }
  // Name the exact client (or field) that diverged: an aggregate match
  // with a per-client mismatch is the subtle failure mode this check
  // exists to expose.
  for (const auto& [client, stats] : expected.per_client) {
    const auto it = served.per_client.find(client);
    if (it == served.per_client.end()) {
      ok = false;
      std::fprintf(stderr,
                   "clic_serve: VERIFY FAILED — client %u missing from "
                   "served per-client stats\n",
                   static_cast<unsigned>(client));
    } else if (!SameStats(stats, it->second)) {
      ok = false;
      std::fprintf(stderr,
                   "clic_serve: VERIFY FAILED — client %u counts diverged:\n",
                   static_cast<unsigned>(client));
      PrintStatsPair("client", it->second, stats);
    }
  }
  for (const auto& [client, stats] : served.per_client) {
    if (expected.per_client.find(client) == expected.per_client.end()) {
      ok = false;
      std::fprintf(stderr,
                   "clic_serve: VERIFY FAILED — served stats contain "
                   "unexpected client %u (%llu requests)\n",
                   static_cast<unsigned>(client),
                   static_cast<unsigned long long>(stats.reads + stats.writes));
    }
  }
  if (!ok) return 1;
  std::fprintf(stderr,
               "clic_serve: verify OK — aggregate and per-client hit counts "
               "bit-identical to per-shard sequential Simulate()\n");
  return 0;
}

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

void PrintNetStats(const net::NetStats& n) {
  std::fprintf(
      stderr,
      "clic_serve: wire: %llu conns accepted (%llu shed), %llu frames / "
      "%llu requests, %llu rejected frames (%llu requests), evicted "
      "%llu slow readers + %llu slow writers, %llu frames drained to "
      "stopped\n",
      static_cast<unsigned long long>(n.accepted),
      static_cast<unsigned long long>(n.accept_shed),
      static_cast<unsigned long long>(n.frames),
      static_cast<unsigned long long>(n.frame_requests),
      static_cast<unsigned long long>(n.rejected_frames),
      static_cast<unsigned long long>(n.rejected_requests),
      static_cast<unsigned long long>(n.evicted_read),
      static_cast<unsigned long long>(n.evicted_write),
      static_cast<unsigned long long>(n.drained_frames));
  if (n.torn_writes + n.partial_reads + n.resets_injected + n.accept_stalls >
      0) {
    std::fprintf(
        stderr,
        "clic_serve: wire faults fired: %llu torn writes, %llu partial "
        "reads, %llu resets, %llu accept stalls\n",
        static_cast<unsigned long long>(n.torn_writes),
        static_cast<unsigned long long>(n.partial_reads),
        static_cast<unsigned long long>(n.resets_injected),
        static_cast<unsigned long long>(n.accept_stalls));
  }
}

/// Standalone wire server (--listen): serve until SIGTERM/SIGINT, then
/// drain gracefully and report the wire + admission ledgers.
int RunListen(const CliOptions& opts) {
  net::NetServerOptions nopts = opts.net;
  nopts.server = opts.server;
  std::unique_ptr<net::NetServer> server;
  try {
    server = std::make_unique<net::NetServer>(nopts);
  } catch (const std::exception& e) {
    Die(e.what());
  }
  std::fprintf(stderr,
               "clic_serve: listening on %s:%u (%u io thread%s, conn limit "
               "%zu); SIGTERM/SIGINT drains\n",
               nopts.listen_addr.c_str(), server->port(), nopts.io_threads,
               nopts.io_threads == 1 ? "" : "s", nopts.conn_limit);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "clic_serve: draining\n");
  server->Drain();
  PrintNetStats(server->Stats());
  const AdmissionStats adm = server->cache().TotalAdmission();
  if (!adm.Balanced()) {
    std::fprintf(stderr,
                 "clic_serve: ADMISSION LEDGER BROKEN after drain: %s\n",
                 LedgerRow(adm).Json().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "clic_serve: drained cleanly; %llu requests applied\n",
               static_cast<unsigned long long>(adm.applied_requests));
  return 0;
}

/// Loopback wire serving (--connect): in-process NetServer on an
/// ephemeral port, ServeTrace-chunked wire drivers through real
/// sockets. Fills *result with the server-side view (wire latencies for
/// p50/p99); returns non-zero if the wire ledger does not balance.
int RunWireServe(const CliOptions& opts, const Trace& trace,
                 std::uint64_t cap, ServeResult* result) {
  net::NetServerOptions nopts = opts.net;
  nopts.port = 0;  // loopback binds an ephemeral port; --port is for --listen
  nopts.max_batch = std::max<std::size_t>(4096, opts.load.batch_size);
  nopts.server = opts.server;
  std::unique_ptr<net::NetServer> server;
  try {
    server = std::make_unique<net::NetServer>(nopts);
  } catch (const std::exception& e) {
    Die(e.what());
  }
  std::fprintf(stderr,
               "clic_serve: loopback wire serving on 127.0.0.1:%u (%u io "
               "thread%s, conn limit %zu)\n",
               server->port(), nopts.io_threads,
               nopts.io_threads == 1 ? "" : "s", nopts.conn_limit);
  net::WireLoadOptions wopts;
  wopts.addr = "127.0.0.1";
  wopts.port = server->port();
  wopts.clients = opts.load.clients;
  wopts.batch_size = opts.load.batch_size;
  wopts.request_budget = cap;
  wopts.deterministic = opts.server.deterministic;
  net::WireLoadResult wire;
  try {
    wire = net::RunWireLoad(trace, wopts);
  } catch (const std::exception& e) {
    Die(e.what());
  }
  server->Drain();
  PrintNetStats(server->Stats());

  // Wire-side ledger: every batch the drivers sent must be accounted
  // for by a status reply or an observed transport loss.
  if (!wire.Balanced()) {
    std::fprintf(stderr, "clic_serve: WIRE LEDGER BROKEN: %s\n",
                 LedgerRow(wire).Json().c_str());
    return 1;
  }
  if (wire.wire_errors > 0) {
    std::fprintf(stderr,
                 "clic_serve: wire drivers received %llu typed error "
                 "frame%s\n",
                 static_cast<unsigned long long>(wire.wire_errors),
                 wire.wire_errors == 1 ? "" : "s");
  }

  const CacheServer& cache = server->cache();
  result->total = cache.TotalStats();
  result->per_client = cache.PerClientStats();
  result->per_shard = cache.PerShardStats();
  result->requests = cache.requests_applied();
  result->batches = cache.batches_applied();
  result->shard_drains = cache.shard_drains();
  result->avg_drained_batch =
      result->shard_drains > 0
          ? static_cast<double>(result->requests) /
                static_cast<double>(result->shard_drains)
          : 0.0;
  result->consumers = cache.consumers();
  result->cores_detected = std::thread::hardware_concurrency();
  result->per_consumer_requests = cache.PerConsumerRequests();
  result->admission = cache.TotalAdmission();
  result->quarantined = cache.quarantined();
  result->watchdog_sheds = cache.watchdog_sheds();
  // Wall clock and latency percentiles are the wire-level numbers: what
  // a client sees through real sockets, not the in-process view.
  result->wall_seconds = wire.wall_seconds;
  result->throughput_rps = wire.throughput_rps;
  result->p50_us = wire.p50_us;
  result->p99_us = wire.p99_us;
  return 0;
}

int Main(int argc, char** argv) {
  CliOptions opts = Parse(argc, argv);
  if (opts.fault_plan) opts.server.fault = &*opts.fault_plan;

  const std::string dir = opts.run.cache_dir.empty() ? sweep::CacheDirFromEnv()
                                                     : opts.run.cache_dir;
  const std::uint64_t cap =
      opts.run.requests > 0 ? opts.run.requests : sweep::RequestCapFromEnv();
  sweep::TraceCache cache(dir, cap);
  const Trace& trace = cache.Get(opts.trace);

  const std::uint64_t effective =
      cap > 0 ? std::min<std::uint64_t>(trace.size(), cap) : trace.size();
  if (opts.load.batch_size > effective) {
    Die("--batch=" + std::to_string(opts.load.batch_size) +
        " exceeds the request budget of " + std::to_string(effective) +
        " (a batch larger than the whole run is a typo, not a workload)");
  }

  // Hint-sanity guard: every id the trace legitimately uses is below
  // the registry size, so anything >= is corruption and gets
  // quarantined into the reserved untrusted bucket.
  opts.server.hint_bound =
      static_cast<std::uint32_t>(trace.hints ? trace.hints->size() : 0);

  // Standalone wire server: the workload only parameterizes the cache
  // (policy, shards, hint bound); remote clients supply the traffic.
  if (opts.listen) return RunListen(opts);

  LoadOptions load = opts.load;
  load.request_budget = cap;

  std::FILE* out = cli::OpenOutput(kProg, opts.run.output);
  if (out == nullptr) return 1;

  const std::size_t pages_per_shard =
      ShardCachePages(opts.server.cache_pages, opts.server.shards);
  std::fprintf(stderr,
               "clic_serve: %s via %s, %zu shards x %zu pages, %zu clients, "
               "batch %zu, %s\n",
               opts.trace.c_str(), PolicyName(opts.server.policy),
               opts.server.shards, pages_per_shard, opts.load.clients,
               opts.load.batch_size,
               opts.server.deterministic ? "deterministic" : "concurrent");

  ServeResult result;
  if (opts.connect) {
    if (RunWireServe(opts, trace, cap, &result) != 0) return 1;
  } else {
    try {
      result = ServeTrace(trace, opts.server, load);
    } catch (const std::invalid_argument& e) {
      Die(e.what());
    }
  }

  // The admission ledger must balance exactly on every run, fault plan
  // or not: a request the server neither applied nor accounted for as
  // rejected is a lost write from the client's point of view.
  if (!result.admission.Balanced()) {
    std::fprintf(stderr, "clic_serve: ADMISSION LEDGER BROKEN: %s\n",
                 LedgerRow(result.admission).Json().c_str());
    return 1;
  }

  int exit_code = 0;
  if (opts.verify) {
    // With a shedding fault plan, the deterministic baseline is the
    // capped trace minus the deterministically shed batches; non-shed
    // requests must still produce bit-identical decisions.
    if (opts.server.fault != nullptr &&
        opts.server.fault->shed_every > 0) {
      const Trace filtered =
          FilterShedBatches(trace, load, opts.server.fault, cap);
      exit_code = Verify(result, PartitionedSimulate(filtered, opts.server));
    } else {
      exit_code = Verify(result, PartitionedSimulate(trace, opts.server, cap));
    }
  }

  const sweep::Row summary = SummaryRow(opts, result, pages_per_shard);
  if (opts.run.format == cli::Format::kCsv) {
    std::fprintf(out, "%s\n%s\n", summary.CsvHeader().c_str(),
                 summary.Csv().c_str());
  } else {
    std::fprintf(out, "%s\n", summary.Json().c_str());
  }
  if (!cli::CloseOutput(kProg, out, opts.run.output)) return 1;
  std::fprintf(stderr,
               "clic_serve: %llu requests in %.3fs (%.0f req/s over %u "
               "consumer%s, %.0f req/s/core), p50 %.1fus p99 %.1fus, avg "
               "drained batch %.1f\n",
               static_cast<unsigned long long>(result.requests),
               result.wall_seconds, result.throughput_rps, result.consumers,
               result.consumers == 1 ? "" : "s",
               result.throughput_rps /
                   static_cast<double>(std::max(1u, result.consumers)),
               result.p50_us, result.p99_us, result.avg_drained_batch);
  if (result.admission.shed_requests + result.admission.timed_out_requests +
          result.admission.expired_requests + result.quarantined >
      0) {
    std::fprintf(
        stderr,
        "clic_serve: degraded-mode counters: shed %llu, timed out %llu, "
        "expired %llu requests; quarantined hints %llu; watchdog sheds "
        "%llu batches\n",
        static_cast<unsigned long long>(result.admission.shed_requests),
        static_cast<unsigned long long>(result.admission.timed_out_requests),
        static_cast<unsigned long long>(result.admission.expired_requests),
        static_cast<unsigned long long>(result.quarantined),
        static_cast<unsigned long long>(result.watchdog_sheds));
  }
  return exit_code;
}

}  // namespace
}  // namespace clic::server

int main(int argc, char** argv) { return clic::server::Main(argc, argv); }

// Scalar vs batched hot path, per policy: the pre-batching replay loop
// (one virtual Access(), one branchy stats Record per request — what
// Simulate() shipped before the AccessBatch refactor) against the
// batched replay (one AccessBatch() per block plus one amortized stats
// pass), on identical fresh policies over the shared 1M-request
// synthetic Zipf trace. Reports requests_per_sec for both so the batch
// refactor's win is a number, not a claim — and verifies, untimed, that
// the two paths make bit-identical per-request hit/miss decisions (an
// order-sensitive FNV digest; any divergence aborts the binary loudly).
//
//   ./bench_micro_batch --benchmark_filter='MicroBatch/(LRU|CLIC)/'
//
// With CLIC_BENCH_JSON_OUT set, every benchmark appends a JSON-Lines
// row (mode "scalar" or "batch"), which is how CI materializes
// BENCH_PR4.json and checks the throughput floors.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"

namespace clic::bench {
namespace {

constexpr std::size_t kCachePages = 16'384;
constexpr std::size_t kCachePagesXL = 262'144;

/// Order-sensitive digest of every hit/miss decision in a replay.
struct ReplayDigest {
  std::uint64_t hits = 0;
  std::uint64_t fnv = 1469598103934665603ull;

  void Add(bool hit) {
    hits += hit ? 1 : 0;
    fnv ^= hit ? 1u : 0u;
    fnv *= 1099511628211ull;
  }
  bool operator==(const ReplayDigest& o) const {
    return hits == o.hits && fnv == o.fnv;
  }
};

/// The replay loop as it existed before the batch refactor: virtual
/// dispatch and both stats accumulators touched once per request.
SimResult ScalarReplay(Policy& policy, const Trace& trace) {
  SimResult result;
  std::vector<CacheStats> clients(
      static_cast<std::size_t>(trace.MaxClient()) + 1);
  SeqNum seq = 0;
  for (const Request& r : trace.requests) {
    const bool hit = policy.Access(r, seq++);
    result.total.Record(r, hit);
    clients[r.client].Record(r, hit);
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    if (clients[i].reads + clients[i].writes == 0) continue;
    result.per_client.emplace(static_cast<ClientId>(i), clients[i]);
  }
  return result;
}

/// The batched replay loop (mirrors sim/Simulate(): one AccessBatch per
/// block, one stats pass over the hit bytes, total folded at the end),
/// with the block size as a parameter.
SimResult BatchedReplay(Policy& policy, const Trace& trace,
                        std::size_t batch) {
  SimResult result;
  std::vector<CacheStats> clients(
      static_cast<std::size_t>(trace.MaxClient()) + 1);
  CacheStats* const client_stats = clients.data();
  const bool single_client = clients.size() == 1;
  std::vector<std::uint8_t> hits(batch);
  const Request* reqs = trace.requests.data();
  const std::size_t total = trace.size();
  for (std::size_t pos = 0; pos < total; pos += batch) {
    const std::size_t count = std::min(batch, total - pos);
    policy.AccessBatch(reqs + pos, pos, count, hits.data());
    if (single_client) {
      CacheStats& c = client_stats[0];
      for (std::size_t i = 0; i < count; ++i) {
        c.Record(reqs[pos + i], hits[i] != 0);
      }
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        const Request& r = reqs[pos + i];
        client_stats[r.client].Record(r, hits[i] != 0);
      }
    }
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    if (clients[i].reads + clients[i].writes == 0) continue;
    result.total += clients[i];
    result.per_client.emplace(static_cast<ClientId>(i), clients[i]);
  }
  return result;
}

ReplayDigest ScalarDigest(Policy& policy, const Trace& trace) {
  ReplayDigest d;
  SeqNum seq = 0;
  for (const Request& r : trace.requests) {
    d.Add(policy.Access(r, seq++));
  }
  return d;
}

ReplayDigest BatchedDigest(Policy& policy, const Trace& trace,
                           std::size_t batch) {
  ReplayDigest d;
  std::vector<std::uint8_t> hits(batch);
  const Request* reqs = trace.requests.data();
  const std::size_t total = trace.size();
  for (std::size_t pos = 0; pos < total; pos += batch) {
    const std::size_t count = std::min(batch, total - pos);
    policy.AccessBatch(reqs + pos, pos, count, hits.data());
    for (std::size_t i = 0; i < count; ++i) d.Add(hits[i] != 0);
  }
  return d;
}

/// The scalar path's per-request decisions, computed once per
/// (policy, trace, cache size) configuration.
const ReplayDigest& ScalarReference(PolicyKind kind, const Trace& trace,
                                    std::size_t cache_pages) {
  static std::map<std::tuple<int, const Trace*, std::size_t>, ReplayDigest>
      cache;
  const auto key =
      std::make_tuple(static_cast<int>(kind), &trace, cache_pages);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto policy = MakePolicy(kind, cache_pages, &trace, PaperClicOptions());
    it = cache.emplace(key, ScalarDigest(*policy, trace)).first;
  }
  return it->second;
}

/// Untimed: asserts the batched path reproduces the scalar decisions
/// request for request. Aborting (not just flagging) keeps a broken
/// batched contract from ever producing a "fast" number.
void VerifyBatchedDecisions(PolicyKind kind, std::size_t batch,
                            const std::string& name, const Trace& trace,
                            std::size_t cache_pages) {
  auto policy = MakePolicy(kind, cache_pages, &trace, PaperClicOptions());
  const ReplayDigest batched = BatchedDigest(*policy, trace, batch);
  const ReplayDigest& reference = ScalarReference(kind, trace, cache_pages);
  if (!(batched == reference)) {
    std::fprintf(stderr,
                 "bench_micro_batch: %s DIVERGED from the scalar path "
                 "(batch=%zu): hits %llu vs %llu — the batched contract in "
                 "core/policy.h is broken\n",
                 name.c_str(), batch,
                 static_cast<unsigned long long>(batched.hits),
                 static_cast<unsigned long long>(reference.hits));
    std::exit(1);
  }
}

/// batch == 0 runs the scalar (pre-refactor) replay loop; otherwise the
/// batched loop with blocks of `batch`.
void MicroBatch(benchmark::State& state, PolicyKind kind, std::size_t batch,
                const std::string& name, const Trace& trace,
                std::size_t cache_pages) {
  if (batch != 0) VerifyBatchedDecisions(kind, batch, name, trace, cache_pages);

  SimResult result;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto policy = MakePolicy(kind, cache_pages, &trace, PaperClicOptions());
    result = batch == 0 ? ScalarReplay(*policy, trace)
                        : BatchedReplay(*policy, trace, batch);
    benchmark::DoNotOptimize(result);
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;

  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.counters["requests_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(trace.size()),
      benchmark::Counter::kIsRate);
  state.counters["read_hit_ratio"] = result.total.ReadHitRatio();
  if (elapsed.count() > 0.0) {
    AppendBenchJson(BenchRow(name,
                             static_cast<double>(state.iterations()) *
                                 static_cast<double>(trace.size()) /
                                 elapsed.count(),
                             batch, trace.size(),
                             batch == 0 ? "scalar" : "batch"));
  }
}

void RegisterMicroBatch() {
  // The classic guardrail workload, every policy in the zoo.
  for (PolicyKind kind :
       {PolicyKind::kLru, PolicyKind::kArc, PolicyKind::kMq,
        PolicyKind::kTq, PolicyKind::kClic, PolicyKind::kOpt}) {
    for (std::size_t batch : {std::size_t{0}, std::size_t{256},
                              std::size_t{4096}}) {
      const std::string name =
          std::string("MicroBatch/") + PolicyName(kind) + "/" +
          (batch == 0 ? std::string("scalar")
                      : "batch:" + std::to_string(batch));
      benchmark::RegisterBenchmark(name.c_str(),
                                   [kind, batch, name](benchmark::State& s) {
                                     MicroBatch(s, kind, batch, name,
                                                MicroSyntheticTrace(),
                                                kCachePages);
                                   })
          ->Iterations(4)
          ->Unit(benchmark::kMillisecond);
    }
  }
  // Server-scale working set (page table + arenas overflow L2) for the
  // two policies the throughput floors track — where the batched
  // path's prefetch pipeline, not just the saved dispatch, shows up.
  for (PolicyKind kind : {PolicyKind::kLru, PolicyKind::kClic}) {
    for (std::size_t batch : {std::size_t{0}, std::size_t{4096}}) {
      const std::string name =
          std::string("MicroBatchXL/") + PolicyName(kind) + "/" +
          (batch == 0 ? std::string("scalar") : "batch:4096");
      benchmark::RegisterBenchmark(name.c_str(),
                                   [kind, batch, name](benchmark::State& s) {
                                     MicroBatch(s, kind, batch, name,
                                                MicroServerScaleTrace(),
                                                kCachePagesXL);
                                   })
          ->Iterations(2)
          ->Unit(benchmark::kMillisecond);
    }
  }
}
const int registered = (RegisterMicroBatch(), 0);

}  // namespace
}  // namespace clic::bench

// Shared infrastructure for the figure/table benches.
//
// Traces are generated at the DESIGN.md scaled lengths (capped by the
// CLIC_BENCH_REQUESTS environment variable if set) and cached on disk
// under CLIC_TRACE_CACHE_DIR (default: ./clic_trace_cache) through the
// process-wide sweep::TraceCache, so the bench binaries and
// clic_sweep never regenerate the same workloads — named paper traces
// and scenario-engine workloads alike.
#pragma once

#include <benchmark/benchmark.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli_util.h"
#include "common/rng.h"
#include "sim/policy_factory.h"
#include "sim/simulator.h"
#include "sweep/sweep.h"
#include "sweep/trace_cache.h"
#include "workload/trace_factory.h"

#ifndef CLIC_GIT_REV
#define CLIC_GIT_REV "unknown"
#endif

namespace clic::bench {

/// Returns the named trace, generated once per process and cached on
/// disk across processes. Thread-safe with per-trace granularity (see
/// sweep/trace_cache.h). Unknown names abort.
inline const Trace& GetTrace(const std::string& name) {
  return sweep::TraceCache::Global().Get(name);
}

/// CLIC options used throughout the evaluation (paper Section 6.1):
/// W scaled to 1e5, r = 1, Noutq = 5 per page, 1% metadata charge.
/// These are also ClicOptions' defaults; spelled out for readability.
inline ClicOptions PaperClicOptions() {
  ClicOptions options;
  options.window = 100'000;
  options.decay = 1.0;
  options.outqueue_per_page = 5.0;
  options.charge_metadata = true;
  return options;
}

/// The fields every perf-log row starts with: benchmark name, headline
/// throughput, AccessBatch block size (0 = scalar path), requests
/// replayed per iteration, and a free-form mode ("scalar", "batch",
/// "overload", ...). Benches append their own fields to it.
inline sweep::Row BenchRow(const std::string& bench, double requests_per_sec,
                           std::uint64_t batch, std::uint64_t requests,
                           const std::string& mode) {
  sweep::Row row;
  row.Str("bench", bench)
      .Double("requests_per_sec", requests_per_sec)
      .Int("batch", batch)
      .Int("requests", requests)
      .Str("mode", mode);
  return row;
}

/// Appends `row` plus the build's git revision as one JSON object per
/// line to $CLIC_BENCH_JSON_OUT: the repo's perf memory, which CI
/// uploads and tools/check_bench_floors.py gates. JSON-Lines on
/// purpose: several bench binaries append to one file from separate
/// processes, which a single JSON array could not survive. No-op when
/// the env var is unset; a row that cannot be written exits 1, so a
/// perf log never silently loses rows.
inline void AppendBenchJson(sweep::Row row) {
  const char* path = std::getenv("CLIC_BENCH_JSON_OUT");
  if (path == nullptr || *path == '\0') return;
  row.Str("git_rev", CLIC_GIT_REV);
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open '%s': %s\n", path,
                 std::strerror(errno));
    std::exit(1);
  }
  std::fprintf(f, "%s\n", row.Json().c_str());
  if (!cli::CloseOutput("bench", f, path)) std::exit(1);
}

namespace detail {
inline Trace MakeMicroTrace(std::uint64_t pages, double zipf_z,
                            std::size_t n) {
  Trace t;
  Rng rng(0xBEEF);
  ZipfGenerator zipf(pages, zipf_z);
  std::vector<HintSetId> hints;
  for (std::uint32_t i = 0; i < 64; ++i) {
    hints.push_back(t.hints->Intern(HintVector{0, {i}}));
  }
  t.requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.page = zipf(rng);
    r.hint_set = hints[r.page % hints.size()];
    if (rng.Chance(0.3)) {
      r.op = OpType::kWrite;
      r.write_kind =
          rng.Chance(0.5) ? WriteKind::kReplacement : WriteKind::kRecovery;
    }
    t.requests.push_back(r);
  }
  t.CacheMaxClient();
  return t;
}
}  // namespace detail

/// The 1M-request synthetic Zipf trace (100k pages, 30% writes, 64 hint
/// sets) the micro throughput and batch-vs-scalar benches replay.
/// Deliberately independent of CLIC_BENCH_REQUESTS so the guardrail
/// numbers in bench/README.md are comparable across runs.
inline const Trace& MicroSyntheticTrace() {
  static const Trace trace = detail::MakeMicroTrace(100'000, 0.9, 1'000'000);
  return trace;
}

/// Server-scale variant: 4M pages, so the page table and slot arenas
/// overflow L2 and every access path pays real memory latency — the
/// regime heavy multi-tenant traffic puts a storage server in, and the
/// one where the batched hot path's software prefetching matters most.
inline const Trace& MicroServerScaleTrace() {
  static const Trace trace =
      detail::MakeMicroTrace(4'000'000, 0.8, 4'000'000);
  return trace;
}

/// The whole main() of a bench that takes `--workload=NAME_OR_SPEC`
/// (default DB2_C60): strips that flag before google-benchmark parses
/// argv, validates it like clic_serve does, registers the bench's grid
/// for it, and exits 1 on any argument google-benchmark does not know.
inline int RunWithWorkloadFlag(int argc, char** argv, const char* prog,
                               void (*register_fn)(const std::string&)) {
  const std::string prefix = "--workload=";
  std::string workload = "DB2_C60";
  std::vector<char*> args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      workload = arg.substr(prefix.size());
    } else {
      args.push_back(argv[i]);
    }
  }
  cli::RequireKnownWorkload(prog, "--workload", workload);
  register_fn(workload);
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace clic::bench

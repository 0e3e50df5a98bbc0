// clic_sweep: replay any figure's (trace × policy × cache-size) grid on
// a thread pool and emit one CSV or JSON row per point. A preset may
// also vary CLIC's options (Figure 9's top-k, the ablations).
//
//   clic_sweep --figure=6 --threads=8 --format=csv --output=fig6.csv
//   clic_sweep --traces=DB2_C60,MY_H65 --policies=LRU,CLIC
//              --cache-pages=6000,12000 --threads=4 --format=json
//
// Row order is the grid expansion order (traces, then policies, then
// CLIC variants, then cache sizes) for every thread count, so outputs
// from different --threads values diff clean (wall_seconds column
// aside).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cli_util.h"
#include "sweep/sweep.h"
#include "sweep/trace_cache.h"

namespace clic::sweep {
namespace {

constexpr char kProg[] = "clic_sweep";

struct CliOptions {
  SweepSpec spec;
  unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  cli::RunOptions run;
};

CliOptions Parse(int argc, char** argv) {
  CliOptions opts;
  SweepSpec& spec = opts.spec;
  std::string figure;
  cli::FlagTable flags(
      kProg, "[flags]",
      {{"Grid selection (explicit flags override the --figure preset's "
        "fields)",
        {cli::String("--figure", "NAME",
                     "preset grid, one of: " + cli::KnownFigureNames() +
                         " (6-11 and ablation* are the paper's figures and "
                         "ablations; the rest are scenario grids)",
                     &figure),
         {"--traces", "A,B",
          "named traces, scenario presets or derived traces (see --list)",
          [&spec](const char* prog, const std::string& value) {
            spec.traces = cli::SplitCsvFlag(prog, "--traces", value);
            for (const std::string& name : spec.traces) {
              cli::RequireKnownWorkload(prog, "--traces", name);
            }
          }},
         {"--policies", "LRU,CLIC", "policy names (see --list)",
          [&spec](const char* prog, const std::string& value) {
            spec.policies.clear();
            for (const std::string& name :
                 cli::SplitCsvFlag(prog, "--policies", value)) {
              spec.policies.push_back(
                  cli::RequirePolicy(prog, "--policies", name));
            }
          }},
         {"--cache-pages", "6000,12000", "server cache sizes, in pages",
          [&spec](const char* prog, const std::string& value) {
            spec.cache_sizes.clear();
            for (const std::string& size :
                 cli::SplitCsvFlag(prog, "--cache-pages", value)) {
              spec.cache_sizes.push_back(static_cast<std::size_t>(
                  cli::ParseUint(prog, "--cache-pages", size, SIZE_MAX)));
            }
          }}}},
       {"Execution",
        {cli::Uint("--threads", "N",
                   "worker threads (default: hardware concurrency)",
                   &opts.threads, 4096)}},
       cli::ClicFlags(&spec.clic),
       cli::RunFlags(&opts.run)});
  flags.Parse(argc, argv);

  if (!figure.empty()) {
    const std::optional<SweepSpec> preset = FigureSpec(figure);
    if (!preset) {
      cli::Die(kProg, "unknown --figure='" + figure + "' (valid figures: " +
                          cli::KnownFigureNames() + ")");
    }
    // The preset carries its own grid and CLIC options (the phase-shift
    // grid ships a phase-tracking window/decay); every explicit flag
    // beats it, wherever it appeared relative to --figure.
    spec = *preset;
    flags.Replay();
  }
  if (spec.traces.empty() || spec.policies.empty() ||
      spec.cache_sizes.empty()) {
    cli::Die(kProg,
             "empty grid: need --figure or all of --traces/--policies/"
             "--cache-pages");
  }
  cli::RequireValidAdaptiveWindow(kProg, spec.clic);
  return opts;
}

int Main(int argc, char** argv) {
  const CliOptions opts = Parse(argc, argv);

  const std::string dir =
      opts.run.cache_dir.empty() ? CacheDirFromEnv() : opts.run.cache_dir;
  const std::uint64_t cap =
      opts.run.requests > 0 ? opts.run.requests : RequestCapFromEnv();
  TraceCache cache(dir, cap);

  SweepRunner runner(
      [&cache](const std::string& name) -> const Trace& {
        return cache.Get(name);
      },
      opts.threads);

  std::FILE* out = cli::OpenOutput(kProg, opts.run.output);
  if (out == nullptr) return 1;

  const std::size_t num_points = ExpandGrid(opts.spec).size();
  std::fprintf(stderr,
               "clic_sweep: %zu points (%zu traces x %zu policies x %zu "
               "cache sizes, %zu CLIC variants), %u threads, request cap "
               "%llu\n",
               num_points, opts.spec.traces.size(), opts.spec.policies.size(),
               opts.spec.cache_sizes.size(), opts.spec.clic_variants.size(),
               opts.threads, static_cast<unsigned long long>(cap));

  const auto start = std::chrono::steady_clock::now();
  const std::vector<SweepRow> rows = runner.Run(opts.spec);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (opts.run.format == cli::Format::kCsv) {
    // Field names never depend on the values.
    std::fprintf(out, "%s\n", ToRow(SweepRow{}).CsvHeader().c_str());
    for (const SweepRow& row : rows) {
      std::fprintf(out, "%s\n", ToRow(row).Csv().c_str());
    }
  } else {
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(out, "  %s%s\n", ToRow(rows[i]).Json().c_str(),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
  }
  if (!cli::CloseOutput(kProg, out, opts.run.output)) return 1;

  std::fprintf(stderr, "clic_sweep: done in %.2fs wall\n", elapsed.count());
  return 0;
}

}  // namespace
}  // namespace clic::sweep

int main(int argc, char** argv) { return clic::sweep::Main(argc, argv); }

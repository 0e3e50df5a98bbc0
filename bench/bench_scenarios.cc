// Scenario comparison: read hit ratio and replay throughput of the
// online-servable policies (LRU, ARC, CLIC) across every scenario
// preset of the workload engine (workload/scenario.h). The headline is
// the scan-pollution column the paper motivates: LRU lets periodic
// sequential scans flush the Zipf hot set, ARC resists with its ghost
// lists, and CLIC — told by the client which accesses *are* scans —
// ranks scan-hinted pages below the hot bands and should match or beat
// both at the paper's cache sizes (CI smoke-checks CLIC >= LRU here).
//
// The phase-change presets (phase-abrupt, phase-gradual, zipf-shifted)
// additionally run a CLIC-adaptive variant — the churn-triggered
// adaptive window of core/clic.h with its default knobs — next to the
// fixed paper window, so the adaptive-vs-fixed recovery gap is a
// first-class bench row (and a CI gate; see
// tools/check_bench_floors.py).
//
//   bench_scenarios [--benchmark_filter='Scenario/scan-pollute/.*']
//
// Each benchmark emits one point named
// `Scenario/<preset>/<policy>/<cache_pages>` with read_hit_ratio and
// requests_per_sec counters, and appends a mode="scenario" JSON-Lines
// row to $CLIC_BENCH_JSON_OUT carrying the hit ratio and an `adaptive`
// flag (same file format as the micro benches; see bench/README.md).
#include <chrono>
#include <string>

#include "bench_util.h"
#include "workload/scenario.h"

namespace clic::bench {
namespace {

void ScenarioPoint(benchmark::State& state, const std::string& preset,
                   PolicyKind kind, std::size_t cache_pages,
                   const std::string& name, const ClicOptions& clic) {
  const Trace& trace = GetTrace(preset);
  SimResult result;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto policy = MakePolicy(kind, cache_pages, &trace, clic);
    result = Simulate(trace, *policy);
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  state.counters["read_hit_ratio"] = result.total.ReadHitRatio();
  state.counters["requests_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(trace.size()),
      benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(trace.size()) *
                          static_cast<std::int64_t>(state.iterations()));
  if (elapsed.count() > 0.0) {
    sweep::Row row = BenchRow(name,
                              static_cast<double>(state.iterations()) *
                                  static_cast<double>(trace.size()) /
                                  elapsed.count(),
                              kSimulateBatch, trace.size(), "scenario");
    row.Bool("adaptive", clic.adaptive_window)
        .Int("cache_pages", cache_pages)
        .Double("read_hit_ratio", result.total.ReadHitRatio());
    AppendBenchJson(std::move(row));
  }
}

/// Presets whose access pattern actually moves mid-trace: the ones
/// where the adaptive window has something to react to. Stationary
/// presets are deliberately excluded here — test_adaptive_window pins
/// that adaptive CLIC is bit-identical to fixed on zipf-hot, so a bench
/// row would duplicate the fixed one.
bool HasPhaseChange(const std::string& preset) {
  return preset == "phase-abrupt" || preset == "phase-gradual" ||
         preset == "zipf-shifted";
}

void RegisterScenarios() {
  const std::vector<std::size_t> base_caches = {6'000, 12'000, 24'000};
  // The headline scenario gets the full paper cache-size axis.
  const std::vector<std::size_t> paper_caches = {6'000, 12'000, 18'000,
                                                 24'000, 30'000};
  for (const ScenarioPreset& preset : ScenarioPresets()) {
    const std::string preset_name = preset.name;
    const std::vector<std::size_t>& caches =
        preset_name == "scan-pollute" ? paper_caches : base_caches;
    for (PolicyKind kind :
         {PolicyKind::kLru, PolicyKind::kArc, PolicyKind::kClic}) {
      for (std::size_t cache_pages : caches) {
        const std::string name = std::string("Scenario/") + preset_name +
                                 "/" + PolicyName(kind) + "/" +
                                 std::to_string(cache_pages);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [preset_name, kind, cache_pages, name](benchmark::State& s) {
              ScenarioPoint(s, preset_name, kind, cache_pages, name,
                            PaperClicOptions());
            })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
    if (!HasPhaseChange(preset_name)) continue;
    for (std::size_t cache_pages : caches) {
      const std::string name = std::string("Scenario/") + preset_name +
                               "/CLIC-adaptive/" +
                               std::to_string(cache_pages);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [preset_name, cache_pages, name](benchmark::State& s) {
            ClicOptions clic = PaperClicOptions();
            clic.adaptive_window = true;
            ScenarioPoint(s, preset_name, PolicyKind::kClic, cache_pages,
                          name, clic);
          })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

const int registered = (RegisterScenarios(), 0);

}  // namespace
}  // namespace clic::bench

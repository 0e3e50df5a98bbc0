// Ablation: TQ write-bonus sweep. `write_bonus` sets the share of the
// cache TQ protects for replacement-written pages (bonus / (1 + bonus));
// the figures run the default, 1.0. Swept on DB2_C300 at 12K pages, the
// setting of the `clic_sweep --figure=ablation` policy grid.
#include "bench_util.h"
#include "policies/tq.h"

namespace clic::bench {
namespace {

void TqBonus(benchmark::State& state, double bonus) {
  const Trace& trace = GetTrace("DB2_C300");
  SimResult result;
  for (auto _ : state) {
    TqPolicy tq(12'000, bonus);
    result = Simulate(trace, tq);
  }
  state.counters["read_hit_ratio"] = result.total.ReadHitRatio();
}

void RegisterAll() {
  for (double bonus : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    const std::string name =
        "AblationTqBonus/DB2_C300/TQ_bonus=" + std::to_string(bonus);
    benchmark::RegisterBenchmark(
        name.c_str(), [bonus](benchmark::State& s) { TqBonus(s, bonus); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

const int registered = (RegisterAll(), 0);

}  // namespace
}  // namespace clic::bench

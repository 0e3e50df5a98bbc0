// Microbenchmarks: per-request cost of every replacement policy and of
// the Space-Saving tracker. These bound the overhead the paper argues is
// "small" (constant expected time per request, Section 4) and support the
// claim that CLIC's adaptivity is cheap.
#include <chrono>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "stream/lossy_counting.h"
#include "stream/space_saving.h"

namespace clic::bench {
namespace {

void PolicyThroughput(benchmark::State& state, PolicyKind kind,
                      const std::string& name) {
  const Trace& trace = MicroSyntheticTrace();
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto policy = MakePolicy(kind, 16'384, &trace, PaperClicOptions());
    benchmark::DoNotOptimize(Simulate(trace, *policy));
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  // requests/sec, the guardrail number bench/README.md tracks per policy.
  state.counters["requests_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(trace.size()),
      benchmark::Counter::kIsRate);
  if (elapsed.count() > 0.0) {
    // batch: Simulate's AccessBatch block size.
    AppendBenchJson(BenchRow(name,
                             static_cast<double>(state.iterations()) *
                                 static_cast<double>(trace.size()) /
                                 elapsed.count(),
                             kSimulateBatch, trace.size(), "simulate"));
  }
}

void RegisterPolicies() {
  for (PolicyKind kind :
       {PolicyKind::kLru, PolicyKind::kArc, PolicyKind::kMq,
        PolicyKind::kTq, PolicyKind::kClic, PolicyKind::kOpt}) {
    const std::string name =
        std::string("Micro/requests_per_second/") +
        std::string(PolicyName(kind));
    benchmark::RegisterBenchmark(name.c_str(),
                                 [kind, name](benchmark::State& s) {
                                   PolicyThroughput(s, kind, name);
                                 })
        ->Unit(benchmark::kMillisecond);
  }
}
const int registered = (RegisterPolicies(), 0);

void SpaceSavingOffer(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  ZipfGenerator zipf(100'000, 1.0);
  SpaceSaving<std::uint64_t> ss(k);
  for (auto _ : state) {
    ss.Offer(zipf(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(SpaceSavingOffer)->Arg(10)->Arg(100)->Arg(1000);

void LossyCountingOffer(benchmark::State& state) {
  const double epsilon = 1.0 / static_cast<double>(state.range(0));
  Rng rng(7);
  ZipfGenerator zipf(100'000, 1.0);
  LossyCounting<std::uint64_t> lc(epsilon);
  for (auto _ : state) {
    lc.Offer(zipf(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(LossyCountingOffer)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace clic::bench

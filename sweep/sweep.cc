#include "sweep/sweep.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>
#include <unordered_map>

#include "common/thread_annotations.h"

namespace clic::sweep {
namespace {

/// First exception a pool worker threw, with its annotated guard so the
/// clang thread-safety build checks the error handoff like any other
/// shared state.
struct ErrorSlot {
  Mutex mu;
  std::exception_ptr first CLIC_GUARDED_BY(mu);
};

/// Runs fn(0..n-1) across `threads` workers pulling indices from a
/// shared atomic counter. fn must be safe to call concurrently for
/// distinct indices. An exception thrown by fn stops the pool (workers
/// finish their current item and exit) and is rethrown on the calling
/// thread, so throwing behaves the same at any thread count.
void RunOnPool(unsigned threads, std::size_t n,
               const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  ErrorSlot error;
  auto drain = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(error.mu);
        if (!error.first) error.first = std::current_exception();
        next.store(n, std::memory_order_relaxed);  // stop handing out work
        return;
      }
    }
  };
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads, n));
  if (workers <= 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    try {
      for (unsigned t = 0; t < workers; ++t) pool.emplace_back(drain);
    } catch (...) {
      // Thread startup failed (e.g. ulimit): stop handing out work and
      // join what started — destroying a joinable std::thread would
      // terminate the process instead of surfacing the error.
      next.store(n, std::memory_order_relaxed);
      for (std::thread& t : pool) t.join();
      throw;
    }
    for (std::thread& t : pool) t.join();
  }
  // Workers are joined (or drain() ran inline), so the lock is
  // uncontended — held anyway to keep the guarded access checkable.
  MutexLock lock(error.mu);
  if (error.first) std::rethrow_exception(error.first);
}

std::string DoubleText(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void AppendJsonString(std::string* out, const std::string& value) {
  out->append("\"").append(JsonEscaped(value)).push_back('"');
}

}  // namespace

std::string CsvField(const std::string& value) {
  if (value.find_first_of(",\"\r\n") == std::string::npos) return value;
  std::string out;
  out.reserve(value.size() + 2);
  out.push_back('"');
  for (char c : value) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string JsonEscaped(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out.append("\\\\");
        break;
      case '"':
        out.append("\\\"");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out.append(buf);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

Row& Row::Int(std::string name, std::uint64_t value) {
  fields_.emplace_back(std::move(name), value);
  return *this;
}

Row& Row::Double(std::string name, double value) {
  fields_.emplace_back(std::move(name), value);
  return *this;
}

Row& Row::Bool(std::string name, bool value) {
  fields_.emplace_back(std::move(name), value);
  return *this;
}

Row& Row::Str(std::string name, std::string value) {
  fields_.emplace_back(std::move(name), std::move(value));
  return *this;
}

Row& Row::Keyed(std::string name, Items items) {
  fields_.emplace_back(std::move(name), List{true, std::move(items)});
  return *this;
}

Row& Row::Array(std::string name, std::vector<Row> rows) {
  List list;
  for (Row& row : rows) list.items.emplace_back("", std::move(row));
  fields_.emplace_back(std::move(name), std::move(list));
  return *this;
}

std::string Row::CsvHeader() const {
  std::string out;
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(CsvField(fields_[i].first));
  }
  return out;
}

std::string Row::Csv() const {
  std::string out;
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(CsvField(CsvText(fields_[i].second)));
  }
  return out;
}

std::string Row::CsvText(const Value& value) {
  if (const auto* u = std::get_if<std::uint64_t>(&value)) {
    return std::to_string(*u);
  }
  if (const auto* d = std::get_if<double>(&value)) return DoubleText(*d);
  if (const auto* b = std::get_if<bool>(&value)) return *b ? "1" : "0";
  if (const auto* s = std::get_if<std::string>(&value)) return *s;
  const Items& items = std::get<List>(value).items;
  std::string out;
  for (std::size_t k = 0; k < items.size(); ++k) {
    const auto& [key, row] = items[k];
    if (k > 0) out.push_back(';');
    if (!key.empty()) out.append(key).push_back('=');
    for (std::size_t i = 0; i < row.fields_.size(); ++i) {
      if (i > 0) out.push_back(':');
      out.append(CsvText(row.fields_[i].second));
    }
  }
  return out;
}

std::string Row::Json() const {
  std::string out;
  AppendJsonObject(&out);
  return out;
}

void Row::AppendJsonObject(std::string* out) const {
  if (fields_.size() == 1 && fields_[0].first.empty()) {
    AppendJson(out, fields_[0].second);  // a bare value, see the class doc
    return;
  }
  out->push_back('{');
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendJsonString(out, fields_[i].first);
    out->push_back(':');
    AppendJson(out, fields_[i].second);
  }
  out->push_back('}');
}

void Row::AppendJson(std::string* out, const Value& value) {
  if (const auto* b = std::get_if<bool>(&value)) {
    out->append(*b ? "true" : "false");
  } else if (const auto* s = std::get_if<std::string>(&value)) {
    AppendJsonString(out, *s);
  } else if (const auto* list = std::get_if<List>(&value)) {
    out->push_back(list->keyed ? '{' : '[');
    for (std::size_t i = 0; i < list->items.size(); ++i) {
      if (i > 0) out->push_back(',');
      const auto& [key, row] = list->items[i];
      if (list->keyed) {
        AppendJsonString(out, key);
        out->push_back(':');
      }
      row.AppendJsonObject(out);
    }
    out->push_back(list->keyed ? '}' : ']');
  } else {
    out->append(CsvText(value));  // numbers read the same in both formats
  }
}

Row StatsRow(const CacheStats& stats) {
  Row row;
  row.Int("reads", stats.reads)
      .Int("read_hits", stats.read_hits)
      .Int("writes", stats.writes)
      .Int("write_hits", stats.write_hits);
  return row;
}

Row::Items PerClientItems(const std::map<ClientId, CacheStats>& per_client) {
  Row::Items items;
  for (const auto& [client, stats] : per_client) {
    items.emplace_back(std::to_string(client), StatsRow(stats));
  }
  return items;
}

std::vector<SweepPoint> ExpandGrid(const SweepSpec& spec) {
  std::vector<SweepPoint> points;
  for (const std::string& trace : spec.traces) {
    for (PolicyKind policy : spec.policies) {
      const bool varied =
          policy == PolicyKind::kClic && !spec.clic_variants.empty();
      const std::size_t variants = varied ? spec.clic_variants.size() : 1;
      for (std::size_t v = 0; v < variants; ++v) {
        for (std::size_t cache_pages : spec.cache_sizes) {
          SweepPoint p;
          p.index = points.size();
          p.trace = trace;
          p.policy = policy;
          p.cache_pages = cache_pages;
          p.clic = spec.clic;
          if (varied) {
            p.variant = spec.clic_variants[v].name;
            spec.clic_variants[v].apply(p.clic);
          }
          points.push_back(std::move(p));
        }
      }
    }
  }
  return points;
}

namespace {

using Presets = std::vector<std::pair<std::string, SweepSpec>>;

SweepSpec Grid(std::vector<std::string> traces,
               std::vector<PolicyKind> policies,
               std::vector<std::size_t> cache_sizes) {
  SweepSpec spec;  // default clic == the paper's Section 6.1 options
  spec.traces = std::move(traces);
  spec.policies = std::move(policies);
  spec.cache_sizes = std::move(cache_sizes);
  return spec;
}

/// `base` with T = 0..3 noise hint types (Figure 10's parameters).
std::vector<std::string> NoisyTraces(const std::vector<std::string>& bases) {
  std::vector<std::string> traces;
  for (const std::string& base : bases) {
    for (int t = 0; t <= 3; ++t) {
      traces.push_back(base + "+noise" + std::to_string(t));
    }
  }
  return traces;
}

std::string Number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

Presets BuildPresets() {
  const std::vector<std::size_t> db2_caches = {6'000, 12'000, 18'000,
                                               24'000, 30'000};
  const std::array<PolicyKind, 5> paper_array = PaperPolicies();
  const std::vector<PolicyKind> paper(paper_array.begin(), paper_array.end());
  const std::vector<PolicyKind> clic = {PolicyKind::kClic};
  // The scenario grids compare the online-servable policies the
  // scenarios stress: LRU (the pollution victim), ARC (scan-resistant
  // without hints), TQ (write hints only), CLIC (full hints).
  const std::vector<PolicyKind> scenario_policies = {
      PolicyKind::kLru, PolicyKind::kArc, PolicyKind::kTq, PolicyKind::kClic};
  const std::vector<std::string> tpcc = {"DB2_C60", "DB2_C300", "DB2_C540"};
  // Figures 10 and 11 and the generalization ablation fix top-k
  // tracking at k = 100.
  const auto top100 = [](SweepSpec spec) {
    spec.clic.tracker = TrackerKind::kSpaceSaving;
    spec.clic.top_k = 100;
    return spec;
  };
  Presets presets;
  presets.emplace_back("6", Grid(tpcc, paper, db2_caches));
  presets.emplace_back(
      "7", Grid({"DB2_H80", "DB2_H400", "DB2_H720"}, paper, db2_caches));
  presets.emplace_back("8", Grid({"MY_H65", "MY_H98"}, paper,
                                 {5'000, 7'500, 10'000}));

  // Figure 9 (Section 5): Space-Saving top-k, k = 1..128, against exact
  // tracking ("all"), at an 18K-page cache (the paper's 180K / 10).
  SweepSpec fig9 = Grid({"DB2_C60", "DB2_C300", "DB2_C540", "DB2_H80",
                         "DB2_H400", "DB2_H720"},
                        clic, {18'000});
  for (std::size_t k = 1; k <= 128; k *= 2) {
    fig9.clic_variants.push_back({"k=" + std::to_string(k),
                                  [k](ClicOptions& o) {
                                    o.tracker = TrackerKind::kSpaceSaving;
                                    o.top_k = k;
                                  }});
  }
  fig9.clic_variants.push_back(
      {"k=all", [](ClicOptions& o) { o.tracker = TrackerKind::kExact; }});
  presets.emplace_back("9", std::move(fig9));

  // Figure 10 (Section 6.3): T useless noise hint types diluting the
  // hint sets CLIC ranks.
  presets.emplace_back("10",
                       top100(Grid(NoisyTraces(tpcc), clic, {18'000})));

  // Figure 11: the three TPC-C clients sharing one 18K-page cache
  // (3xTPCC; per-client ratios in per_client) against a private
  // 6K-page cache each (the DB2_C* rows at 6000).
  presets.emplace_back(
      "11", top100(Grid({"DB2_C60", "DB2_C300", "DB2_C540", "3xTPCC"}, clic,
                        {6'000, 18'000})));

  // The figure policies minus OPT, plus the Section-7 MQ baseline.
  presets.emplace_back(
      "ablation",
      Grid({"DB2_C300"},
           {PolicyKind::kLru, PolicyKind::kMq, PolicyKind::kArc,
            PolicyKind::kTq, PolicyKind::kClic},
           {12'000}));

  // Window length W and decay r (Section 3.2), each with and without
  // the churn-triggered adaptive close.
  SweepSpec window = Grid({"DB2_C300"}, clic, {12'000});
  for (std::uint64_t w : {25'000u, 50'000u, 100'000u, 200'000u, 400'000u}) {
    for (double r : {0.25, 0.5, 1.0}) {
      for (bool adaptive : {false, true}) {
        window.clic_variants.push_back(
            {"W=" + std::to_string(w) + "/r=" + Number(r) +
                 (adaptive ? "/adaptive" : "/fixed"),
             [w, r, adaptive](ClicOptions& o) {
               o.window = w;
               o.decay = r;
               o.adaptive_window = adaptive;
             }});
      }
    }
  }
  presets.emplace_back("ablation-window", std::move(window));

  // Outqueue entries per cache page (the paper fixes N_outq = 5).
  SweepSpec outqueue = Grid({"DB2_C300"}, clic, {12'000});
  for (double per_page : {0.0, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    outqueue.clic_variants.push_back(
        {"outq=" + Number(per_page),
         [per_page](ClicOptions& o) { o.outqueue_per_page = per_page; }});
  }
  presets.emplace_back("ablation-outqueue", std::move(outqueue));

  // Hint-set frequency tracker (Section 5) on an OLTP and a DSS trace.
  SweepSpec tracker = Grid({"DB2_C300", "DB2_H400"}, clic, {12'000});
  tracker.clic_variants.push_back(
      {"exact", [](ClicOptions& o) { o.tracker = TrackerKind::kExact; }});
  for (const auto& [kind, name] :
       {std::pair{TrackerKind::kSpaceSaving, "space_saving"},
        std::pair{TrackerKind::kLossyCounting, "lossy_counting"}}) {
    for (std::size_t k : {10u, 100u}) {
      tracker.clic_variants.push_back(
          {std::string(name) + "/k=" + std::to_string(k),
           [kind = kind, k](ClicOptions& o) {
             o.tracker = kind;
             o.top_k = k;
           }});
    }
  }
  presets.emplace_back("ablation-tracker", std::move(tracker));

  // Decision-tree hint generalization (the paper's Section 8 future
  // work) on Figure 10's noisy DB2_C300 traces.
  SweepSpec generalize =
      top100(Grid(NoisyTraces({"DB2_C300"}), clic, {18'000}));
  generalize.clic_variants = {
      {"plain", [](ClicOptions&) {}},
      {"tree", [](ClicOptions& o) { o.generalize = true; }}};
  presets.emplace_back("ablation-generalize", std::move(generalize));

  presets.emplace_back(
      "zipf-sweep",
      // Inline specs, so the theta axis is explicit in the trace column.
      Grid({"zipf:theta=0.5", "zipf:theta=0.7", "zipf:theta=0.9",
            "zipf:theta=0.99"},
           scenario_policies, {6'000, 12'000, 24'000}));
  // The headline scenario grid: the same hot set with and without scan
  // pollution, at the paper's cache sizes.
  presets.emplace_back("scan-pollution", Grid({"zipf-hot", "scan-pollute"},
                                              scenario_policies, db2_caches));
  SweepSpec phase = Grid({"phase-abrupt", "phase-gradual"}, scenario_policies,
                         {6'000, 12'000, 18'000});
  // The same phase grid with the paper's untouched W=1e5/r=1 plus the
  // churn-triggered adaptive window: CLIC recovers from abrupt shifts
  // without the hand-tuned window/decay of "phase-shift" (measured in
  // bench/README.md "Adaptive windowing").
  SweepSpec adaptive = phase;
  adaptive.clic.adaptive_window = true;
  // Phase tracking needs the evaluation window well under the phase
  // length and a short priority memory: the paper's W=1e5 with r=1
  // straddles phase boundaries, so CLIC would protect the *previous*
  // working set all trace long (measured: 0.27 vs 0.55 read hit ratio at
  // 12k pages on phase-abrupt). See DESIGN.md "Workload scenarios".
  phase.clic.window = 20'000;
  phase.clic.decay = 0.2;
  presets.emplace_back("phase-shift", std::move(phase));
  presets.emplace_back("phase-shift-adaptive", std::move(adaptive));
  presets.emplace_back("tenant-mix", Grid({"tenant-mix4"}, scenario_policies,
                                          {6'000, 12'000, 24'000}));
  return presets;
}

const Presets& AllPresets() {
  static const Presets presets = BuildPresets();
  return presets;
}

}  // namespace

const std::vector<std::string>& FigurePresetNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& preset : AllPresets()) out.push_back(preset.first);
    return out;
  }();
  return names;
}

std::optional<SweepSpec> FigureSpec(const std::string& figure) {
  for (const auto& [name, spec] : AllPresets()) {
    if (name == figure) return spec;
  }
  return std::nullopt;
}

SweepRunner::SweepRunner(TraceProvider provider, unsigned threads)
    : provider_(std::move(provider)), threads_(std::max(1u, threads)) {}

std::vector<SweepRow> SweepRunner::Run(const SweepSpec& spec) const {
  const std::vector<SweepPoint> points = ExpandGrid(spec);
  std::vector<SweepRow> rows(points.size());

  // Phase 1: resolve every distinct trace through the provider, on the
  // pool so distinct traces generate/load concurrently. After this the
  // replay phase touches traces read-only and its wall times contain
  // no generation or disk work.
  std::vector<std::string> names;
  for (const SweepPoint& p : points) {
    if (std::find(names.begin(), names.end(), p.trace) == names.end()) {
      names.push_back(p.trace);
    }
  }
  std::vector<const Trace*> resolved(names.size(), nullptr);
  RunOnPool(threads_, names.size(),
            [&](std::size_t i) { resolved[i] = &provider_(names[i]); });
  std::unordered_map<std::string, const Trace*> traces;
  traces.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    traces.emplace(names[i], resolved[i]);
  }

  // Phase 2: replay the points. Workers write disjoint rows[i] slots,
  // so the output order is the expansion order by construction.
  RunOnPool(threads_, points.size(), [&](std::size_t i) {
    const SweepPoint& p = points[i];
    const Trace& trace = *traces.at(p.trace);
    const auto start = std::chrono::steady_clock::now();
    const auto policy = MakePolicy(p.policy, p.cache_pages, &trace, p.clic);
    SimResult result = Simulate(trace, *policy);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    rows[i].point = p;
    rows[i].result = std::move(result);
    rows[i].wall_seconds = elapsed.count();
  });
  return rows;
}

Row ToRow(const SweepRow& row) {
  const CacheStats& t = row.result.total;
  std::string policy = PolicyName(row.point.policy);
  if (!row.point.variant.empty()) policy += "/" + row.point.variant;
  Row out;
  out.Str("trace", row.point.trace)
      .Str("policy", std::move(policy))
      .Int("cache_pages", row.point.cache_pages)
      .Int("requests", t.reads + t.writes)
      .Int("reads", t.reads)
      .Int("writes", t.writes)
      .Int("read_hits", t.read_hits)
      .Int("write_hits", t.write_hits)
      .Double("read_hit_ratio", t.ReadHitRatio())
      .Double("write_hit_ratio", t.WriteHitRatio())
      .Double("wall_seconds", row.wall_seconds)
      .Keyed("per_client", PerClientItems(row.result.per_client));
  return out;
}

}  // namespace clic::sweep

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
  points.reserve(spec.traces.size() * spec.policies.size() *
                 spec.cache_sizes.size());
  for (const std::string& trace : spec.traces) {
    for (PolicyKind policy : spec.policies) {
      for (std::size_t cache_pages : spec.cache_sizes) {
        SweepPoint p;
        p.index = points.size();
        p.trace = trace;
        p.policy = policy;
        p.cache_pages = cache_pages;
        points.push_back(std::move(p));
      }
    }
  }
  return points;
}

std::optional<SweepSpec> FigureSpec(const std::string& figure) {
  const std::vector<std::size_t> db2_caches = {6'000, 12'000, 18'000,
                                               24'000, 30'000};
  const std::array<PolicyKind, 5> paper = PaperPolicies();
  // The scenario grids compare the online-servable policies the
  // scenarios stress: LRU (the pollution victim), ARC (scan-resistant
  // without hints), TQ (write hints only), CLIC (full hints).
  const std::vector<PolicyKind> scenario_policies = {
      PolicyKind::kLru, PolicyKind::kArc, PolicyKind::kTq, PolicyKind::kClic};
  SweepSpec spec;  // default clic == the paper's Section 6.1 options
  if (figure == "6") {
    spec.traces = {"DB2_C60", "DB2_C300", "DB2_C540"};
    spec.policies.assign(paper.begin(), paper.end());
    spec.cache_sizes = db2_caches;
  } else if (figure == "7") {
    spec.traces = {"DB2_H80", "DB2_H400", "DB2_H720"};
    spec.policies.assign(paper.begin(), paper.end());
    spec.cache_sizes = db2_caches;
  } else if (figure == "8") {
    spec.traces = {"MY_H65", "MY_H98"};
    spec.policies.assign(paper.begin(), paper.end());
    spec.cache_sizes = {5'000, 7'500, 10'000};
  } else if (figure == "ablation") {
    spec.traces = {"DB2_C300"};
    spec.policies = {PolicyKind::kLru, PolicyKind::kMq, PolicyKind::kArc,
                     PolicyKind::kTq, PolicyKind::kClic};
    spec.cache_sizes = {12'000};
  } else if (figure == "zipf-sweep") {
    // Skew sweep: inline specs so the theta axis is explicit in the
    // trace column of every row.
    spec.traces = {"zipf:theta=0.5", "zipf:theta=0.7", "zipf:theta=0.9",
                   "zipf:theta=0.99"};
    spec.policies = scenario_policies;
    spec.cache_sizes = {6'000, 12'000, 24'000};
  } else if (figure == "scan-pollution") {
    // The headline scenario grid: the same hot set with and without
    // scan pollution, at the paper's cache sizes.
    spec.traces = {"zipf-hot", "scan-pollute"};
    spec.policies = scenario_policies;
    spec.cache_sizes = db2_caches;
  } else if (figure == "phase-shift") {
    spec.traces = {"phase-abrupt", "phase-gradual"};
    spec.policies = scenario_policies;
    spec.cache_sizes = {6'000, 12'000, 18'000};
    // Phase tracking needs the evaluation window well under the phase
    // length and a short priority memory: the paper's W=1e5 with r=1
    // straddles phase boundaries, so CLIC would protect the *previous*
    // working set all trace long (measured: 0.27 vs 0.55 read hit ratio
    // at 12k pages on phase-abrupt). See DESIGN.md "Workload
    // scenarios".
    spec.clic.window = 20'000;
    spec.clic.decay = 0.2;
  } else if (figure == "phase-shift-adaptive") {
    // The same phase grid with the paper's untouched W=1e5/r=1 plus the
    // churn-triggered adaptive window: CLIC recovers from abrupt shifts
    // without the hand-tuned window/decay the fixed preset needs
    // (measured in bench/README.md "Adaptive windowing").
    spec.traces = {"phase-abrupt", "phase-gradual"};
    spec.policies = scenario_policies;
    spec.cache_sizes = {6'000, 12'000, 18'000};
    spec.clic.adaptive_window = true;
  } else if (figure == "tenant-mix") {
    spec.traces = {"tenant-mix4"};
    spec.policies = scenario_policies;
    spec.cache_sizes = {6'000, 12'000, 24'000};
  } else {
    return std::nullopt;
  }
  return spec;
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
    const auto policy = MakePolicy(p.policy, p.cache_pages, &trace, spec.clic);
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
  Row out;
  out.Str("trace", row.point.trace)
      .Str("policy", PolicyName(row.point.policy))
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

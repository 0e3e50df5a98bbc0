// Parallel sweep engine: expands a declarative (trace × policy ×
// cache-size) grid — the shape of every figure in the paper's
// evaluation — into independent simulation points and executes them on
// a fixed-size thread pool. Traces are resolved once per distinct name
// and shared read-only; every point builds its own policy instance, so
// points share no mutable state and the result of a point is identical
// to running Simulate() sequentially. Result ordering is deterministic
// (grid expansion order) regardless of how the pool schedules work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/clic.h"
#include "sim/policy_factory.h"
#include "sim/simulator.h"

namespace clic::sweep {

/// A named delta applied on top of SweepSpec::clic, e.g. one top-k
/// setting of Figure 9: its rows print as `CLIC/<name>`.
struct ClicVariant {
  std::string name;
  std::function<void(ClicOptions&)> apply;
};

/// Declarative grid. Expansion order is fixed — traces outermost, then
/// policies, then CLIC variants (kClic only), then cache sizes,
/// matching the nesting of the paper's figures — so a spec always
/// yields the same row order no matter how (or on how many threads) it
/// runs.
struct SweepSpec {
  std::vector<std::string> traces;
  std::vector<PolicyKind> policies;
  std::vector<std::size_t> cache_sizes;
  /// Applied to kClic points; other policies ignore it. Defaults to
  /// the paper's Section 6.1 configuration (W=1e5, r=1, Noutq=5,
  /// metadata charged).
  ClicOptions clic;
  /// Each kClic point runs once per variant, with the variant applied
  /// to `clic`; empty runs `clic` as is. Only presets set it.
  std::vector<ClicVariant> clic_variants;
};

struct SweepPoint {
  std::size_t index = 0;  // position in ExpandGrid order
  std::string trace;
  PolicyKind policy = PolicyKind::kLru;
  std::size_t cache_pages = 0;
  std::string variant;  // ClicVariant::name, empty without one
  ClicOptions clic;     // SweepSpec::clic with the variant applied
};

struct SweepRow {
  SweepPoint point;
  SimResult result;
  double wall_seconds = 0.0;  // replay only; trace loading is excluded
};

std::vector<SweepPoint> ExpandGrid(const SweepSpec& spec);

/// The preset grids of `clic_sweep --figure`, in table order: the paper
/// figures "6" to "11", the policy ablation and the CLIC ablations
/// ("ablation-window", "-outqueue", "-tracker", "-generalize"), and the
/// workload-scenario grids ("zipf-sweep", "scan-pollution", ...).
const std::vector<std::string>& FigurePresetNames();

/// The preset grid named `figure`, or nullopt for unknown names. The
/// single source of truth for these grids; FigurePresetNames() lists
/// exactly the names it resolves.
std::optional<SweepSpec> FigureSpec(const std::string& figure);

class SweepRunner {
 public:
  /// Resolves a trace name to a loaded trace. Must be callable
  /// concurrently (TraceCache::Get qualifies) and the returned
  /// references must outlive Run().
  using TraceProvider = std::function<const Trace&(const std::string&)>;

  /// `threads` is clamped to >= 1; 0 means "one worker".
  SweepRunner(TraceProvider provider, unsigned threads);

  /// Executes every grid point and returns rows in ExpandGrid order.
  std::vector<SweepRow> Run(const SweepSpec& spec) const;

  unsigned threads() const { return threads_; }

 private:
  TraceProvider provider_;
  unsigned threads_;
};

/// RFC-4180 field quoting: returns `value` unchanged when it contains
/// no comma, double quote, CR or LF; otherwise wraps it in double
/// quotes with embedded quotes doubled. Row::Csv passes every field
/// through this, so a hostile trace or policy name can never corrupt a
/// row.
std::string CsvField(const std::string& value);

/// Minimal JSON string escaping: backslash, double quote, and control
/// characters (as \uXXXX). Same contract as CsvField, for Row::Json.
std::string JsonEscaped(const std::string& value);

/// One output record: an ordered list of named, typed fields. Every
/// CSV line, JSON object and perf-log line in the repo is a Row, and
/// each kind of value has exactly one rendering:
///   - integer: decimal;
///   - double: %.17g, so equal doubles print byte-identically (the CI
///     determinism diffs depend on it);
///   - bool: 1/0 in CSV, true/false in JSON;
///   - string: through CsvField / JsonEscaped;
///   - list of sub-rows: in CSV one column, `key=a:b:c;key=...` when
///     keyed and `a:b:c;...` when not; in JSON a nested object when
///     keyed and an array when not. A sub-row with a single unnamed
///     field stands for that bare value (`[5,7]`, CSV `5;7`).
/// CSV and JSON therefore always carry the same fields in the same
/// order.
class Row {
 public:
  using Items = std::vector<std::pair<std::string, Row>>;

  Row& Int(std::string name, std::uint64_t value);
  Row& Double(std::string name, double value);
  Row& Bool(std::string name, bool value);
  Row& Str(std::string name, std::string value);
  /// A list whose sub-rows are named by their keys.
  Row& Keyed(std::string name, Items items);
  /// A list of sub-rows in order, without keys.
  Row& Array(std::string name, std::vector<Row> rows);

  /// Field names, comma-separated.
  std::string CsvHeader() const;
  /// Field values, comma-separated, in CsvHeader order.
  std::string Csv() const;
  /// One JSON object, no whitespace.
  std::string Json() const;

 private:
  struct List {
    bool keyed = false;
    Items items;
  };
  using Value = std::variant<std::uint64_t, double, bool, std::string, List>;

  static std::string CsvText(const Value& value);
  static void AppendJson(std::string* out, const Value& value);
  void AppendJsonObject(std::string* out) const;

  std::vector<std::pair<std::string, Value>> fields_;
};

/// `reads, read_hits, writes, write_hits` — the sub-row of every
/// per-client and per-shard list.
Row StatsRow(const CacheStats& stats);

/// Per-client stats as a keyed list, in client-id order.
Row::Items PerClientItems(const std::map<ClientId, CacheStats>& per_client);

/// The output row of one grid point: trace, policy, cache_pages, the
/// aggregate counts and ratios, wall_seconds, per_client.
Row ToRow(const SweepRow& row);

}  // namespace clic::sweep

// Shared command-line parsing for the clic_* binaries (clic_sweep,
// clic_serve). The contract every flag parser here enforces: an
// unknown or malformed token fails fast with the offending token AND
// the valid alternatives printed to stderr, exit code 2 — never a
// silent skip, and never an abort deep inside trace resolution.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/policy_factory.h"
#include "sim/trace_ops.h"
#include "sweep/sweep.h"
#include "workload/scenario.h"
#include "workload/trace_factory.h"

namespace clic::cli {

[[noreturn]] inline void Die(const char* prog, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", prog, message.c_str());
  std::fprintf(stderr, "Run %s --help for usage.\n", prog);
  std::exit(2);
}

/// Joins `name_of(item)` over `items` with `sep`, for help text and
/// error messages.
template <typename Range, typename NameOf>
std::string JoinNames(const Range& items, NameOf name_of,
                      const char* sep = ", ") {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out.append(sep);
    out.append(name_of(item));
  }
  return out;
}

/// Every token a workload flag accepts, for help text and error
/// messages alike: the named paper traces, the scenario presets, a
/// reminder of the inline spec grammar, and the derived traces.
inline std::string KnownWorkloadNames() {
  return JoinNames(NamedTraces(),
                   [](const NamedTraceInfo& info) { return info.name; }) +
         "; scenario presets: " +
         JoinNames(ScenarioPresets(),
                   [](const ScenarioPreset& preset) { return preset.name; }) +
         "; or an inline spec like 'zipf:pages=120000,theta=0.9'; derived: "
         "<workload>+noise<T>, 3xTPCC";
}

inline std::string KnownFigureNames() {
  return JoinNames(sweep::FigurePresetNames(),
                   [](const std::string& name) { return name; });
}

inline std::string KnownPolicyNames() {
  return JoinNames(AllPolicies(), PolicyName);
}

/// --list: the named traces, scenario presets, derived traces, figure
/// grids and policies.
inline void PrintList() {
  std::printf("Traces (name dbms workload db_pages buffer_pages "
              "target_requests):\n");
  for (const NamedTraceInfo& info : NamedTraces()) {
    std::printf("  %-9s %-5s %-4s %8llu %8llu %9llu\n", info.name.c_str(),
                info.dbms.c_str(), info.workload.c_str(),
                static_cast<unsigned long long>(info.db_pages),
                static_cast<unsigned long long>(info.buffer_pages),
                static_cast<unsigned long long>(info.target_requests));
  }
  std::printf("Scenario presets (workload/scenario.h; usable wherever a "
              "trace name is):\n");
  for (const ScenarioPreset& preset : ScenarioPresets()) {
    std::printf("  %-13s %s\n      = %s\n", preset.name, preset.blurb,
                preset.spec);
  }
  std::printf("Derived traces (sim/trace_ops.h): <workload>+noise<T> adds "
              "T noise hint types; 3xTPCC interleaves DB2_C60, DB2_C300 "
              "and DB2_C540 as three clients\n");
  std::printf("Figure presets (clic_sweep --figure): %s\n",
              KnownFigureNames().c_str());
  std::printf("Policies: %s (OPT is clairvoyant: offline replay only)\n",
              KnownPolicyNames().c_str());
}

/// Splits a comma-separated flag value. An empty token ("A,,B", a
/// leading/trailing comma, or an empty value) is an error, not a skip:
/// it is always a typo and silently dropping it would run a different
/// grid than the one the user asked for.
inline std::vector<std::string> SplitCsvFlag(const char* prog,
                                             const std::string& flag,
                                             const std::string& value) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = value.find(',', start);
    const std::size_t end = comma == std::string::npos ? value.size() : comma;
    if (end == start) {
      Die(prog, flag + "='" + value + "' contains an empty token");
    }
    parts.push_back(value.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

/// Parses a decimal integer in [allow_zero ? 0 : 1, max].
inline std::uint64_t ParseUint(const char* prog, const std::string& flag,
                               const std::string& value, std::uint64_t max,
                               bool allow_zero = false) {
  errno = 0;
  char* end = nullptr;
  const std::uint64_t parsed = std::strtoull(value.c_str(), &end, 10);
  // strtoull silently wraps a negative input ("-3" parses as 2^64 - 3),
  // so a sign character must be rejected up front, not trusted to the
  // library.
  if (value.empty() || value[0] == '-' || value[0] == '+' || errno != 0 ||
      end == value.c_str() || *end != '\0' || (parsed == 0 && !allow_zero)) {
    Die(prog, flag + "='" + value + "' is not a " +
                  (allow_zero ? "non-negative" : "positive") + " integer");
  }
  if (parsed > max) {
    Die(prog, flag + "='" + value + "' is out of range (valid: " +
                  (allow_zero ? "0" : "1") + ".." + std::to_string(max) + ")");
  }
  return parsed;
}

/// Parses a finite number in [0, max].
inline double ParseReal(const char* prog, const std::string& flag,
                        const std::string& value, double max) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (errno != 0 || end == value.c_str() || *end != '\0' ||
      !std::isfinite(parsed) || parsed < 0.0) {
    Die(prog, flag + "='" + value + "' is not a finite non-negative number");
  }
  if (parsed > max) {
    char range[48];
    std::snprintf(range, sizeof(range), "[0, %g]", max);
    Die(prog, flag + "='" + value + "' is out of range " + range);
  }
  return parsed;
}

/// Whether `name` is a workload token: a named paper trace, a scenario
/// preset, an inline scenario spec, or a trace derived from such tokens
/// (sim/trace_ops.h). On false, `error` says why.
inline bool KnownWorkload(const std::string& name, std::string* error) {
  if (const std::optional<DerivedTrace> derived = ParseDerivedTrace(name)) {
    return std::all_of(derived->sources.begin(), derived->sources.end(),
                       [error](const std::string& source) {
                         return KnownWorkload(source, error);
                       });
  }
  for (const NamedTraceInfo& info : NamedTraces()) {
    if (info.name == name) return true;
  }
  return ResolveWorkload(name, error).has_value();
}

/// Validates a workload token (KnownWorkload). Unknown or malformed
/// tokens die with the offending token, the parse error, and the full
/// valid set — the one validation every workload-accepting flag
/// (`--traces`, `--trace`, `--workload`) routes through.
inline void RequireKnownWorkload(const char* prog, const std::string& flag,
                                 const std::string& name) {
  std::string error;
  if (KnownWorkload(name, &error)) return;
  Die(prog, flag + ": unknown workload '" + name + "' (" + error +
                "; valid traces: " + KnownWorkloadNames() + ")");
}

/// Validates the adaptive-window bounds after all flags are parsed: the
/// resolved floor/ceiling pair must not be inverted (0 means the
/// ClicPolicy defaults — floor window/16, ceiling window).
inline void RequireValidAdaptiveWindow(const char* prog,
                                       const ClicOptions& clic) {
  const std::uint64_t floor_w =
      clic.min_window != 0 ? clic.min_window
                           : std::max<std::uint64_t>(1, clic.window / 16);
  const std::uint64_t ceil_w =
      clic.max_window != 0 ? clic.max_window : clic.window;
  if (floor_w > ceil_w) {
    Die(prog,
        "--min-window=" + std::to_string(floor_w) +
            (clic.min_window == 0 ? " (defaulted to window/16)" : "") +
            " exceeds --max-window=" + std::to_string(ceil_w) +
            (clic.max_window == 0 ? " (defaulted to the window)" : "") +
            " (need min-window <= max-window)");
  }
}

/// Parses one policy token; unknown names die with the valid set.
inline PolicyKind RequirePolicy(const char* prog, const std::string& flag,
                                const std::string& name) {
  const std::optional<PolicyKind> kind = ParsePolicyKind(name);
  if (!kind) {
    Die(prog, flag + ": unknown policy '" + name + "' (valid policies: " +
                  KnownPolicyNames() + ")");
  }
  return *kind;
}

// ---- The flag table ------------------------------------------------------
//
// Each binary declares its flags once, as rows grouped under headings.
// One loop parses `--name=value` and bare `--name` tokens against the
// rows, and --help prints the same rows, so the accepted set and the
// help text cannot drift apart. Rules that span several flags stay as
// plain code after FlagTable::Parse.

/// One flag. `set` parses and validates the value into its destination,
/// dying via Die(prog, ...) on bad input; it receives "" for a bare
/// switch.
struct Flag {
  std::string name;  // "--window"
  std::string arg;   // value placeholder ("W"); empty for a bare switch
  std::string help;  // one line; --help wraps it
  std::function<void(const char* prog, const std::string& value)> set;
  bool optional_value = false;  // accepts both `--name` and `--name=arg`
};

struct FlagGroup {
  std::string title;
  std::vector<Flag> flags;
};

/// An integer row in [allow_zero ? 0 : 1, max].
template <typename T>
Flag Uint(std::string name, std::string arg, std::string help, T* dst,
          std::uint64_t max = std::numeric_limits<T>::max(),
          bool allow_zero = false) {
  Flag flag{name, std::move(arg), std::move(help), nullptr};
  flag.set = [name, dst, max, allow_zero](const char* prog,
                                          const std::string& value) {
    *dst = static_cast<T>(ParseUint(prog, name, value, max, allow_zero));
  };
  return flag;
}

/// A finite-number row in [0, max].
inline Flag Real(std::string name, std::string arg, std::string help,
                 double* dst,
                 double max = std::numeric_limits<double>::infinity()) {
  Flag flag{name, std::move(arg), std::move(help), nullptr};
  flag.set = [name, dst, max](const char* prog, const std::string& value) {
    *dst = ParseReal(prog, name, value, max);
  };
  return flag;
}

/// A row accepting exactly the listed tokens; the placeholder and the
/// error message both list them.
template <typename T>
Flag Enum(std::string name, std::string help, T* dst,
          std::vector<std::pair<std::string, T>> choices) {
  const auto token = [](const auto& choice) { return choice.first; };
  const std::string valid = JoinNames(choices, token);
  Flag flag{name, JoinNames(choices, token, "|"), std::move(help), nullptr};
  flag.set = [name, dst, choices, valid](const char* prog,
                                         const std::string& value) {
    for (const auto& [token, choice] : choices) {
      if (token == value) {
        *dst = choice;
        return;
      }
    }
    Die(prog, "unknown " + name + "='" + value + "' (valid: " + valid + ")");
  };
  return flag;
}

inline Flag String(std::string name, std::string arg, std::string help,
                   std::string* dst) {
  return {std::move(name), std::move(arg), std::move(help),
          [dst](const char*, const std::string& value) { *dst = value; }};
}

/// A bare switch that stores `value`.
inline Flag Switch(std::string name, std::string help, bool* dst,
                   bool value = true) {
  return {std::move(name), "", std::move(help),
          [dst, value](const char*, const std::string&) { *dst = value; }};
}

/// The CLIC knobs of the paper's Section 6.1, shared by every binary
/// that runs CLIC. The adaptive-window bounds also need
/// RequireValidAdaptiveWindow once every flag is in.
inline FlagGroup ClicFlags(ClicOptions* clic) {
  return {"CLIC options (defaults are the paper's Section 6.1 setup)",
          {Uint("--window", "W", "evaluation window W, in requests",
                &clic->window),
           // Above 1 the accumulator acc = window + decay * acc grows
           // without bound and overflows to inf on long traces.
           Real("--decay", "R",
                "decay r in [0, 1]: how much of past windows' statistics "
                "carries into the next",
                &clic->decay, 1.0),
           Real("--outqueue", "N", "outqueue entries N_outq per cache page",
                &clic->outqueue_per_page),
           Uint("--top-k", "K",
                "hint sets granted priorities by an approximate tracker",
                &clic->top_k),
           Enum("--tracker", "hint-set frequency tracker", &clic->tracker,
                {{"exact", TrackerKind::kExact},
                 {"space_saving", TrackerKind::kSpaceSaving},
                 {"lossy_counting", TrackerKind::kLossyCounting}}),
           Switch("--no-charge-metadata",
                  "do not charge outqueue metadata against the cache",
                  &clic->charge_metadata, false),
           Switch("--adaptive-window",
                  "churn-triggered early window close (see DESIGN.md "
                  "\"Adaptive windowing\")",
                  &clic->adaptive_window),
           Real("--churn-threshold", "S",
                "early-close rank-similarity trigger in [0, 1]",
                &clic->churn_threshold, 1.0),
           Uint("--min-window", "N",
                "effective-window floor (default: window/16)",
                &clic->min_window),
           Uint("--max-window", "N",
                "effective-window ceiling (default: window)",
                &clic->max_window)}};
}

enum class Format : std::uint8_t { kCsv, kJson };

/// Trace source and output settings common to both binaries.
struct RunOptions {
  std::uint64_t requests = 0;  // 0 = CLIC_BENCH_REQUESTS / default cap
  std::string cache_dir;       // empty = CLIC_TRACE_CACHE_DIR / default
  Format format = Format::kCsv;
  std::string output;  // empty = stdout
};

/// The rows for RunOptions plus --list and --help.
inline FlagGroup RunFlags(RunOptions* run) {
  return {"Trace source and output",
          {Uint("--requests", "N",
                "request budget: cap the trace length (overrides "
                "CLIC_BENCH_REQUESTS)",
                &run->requests),
           String("--cache-dir", "PATH",
                  "trace cache dir (overrides CLIC_TRACE_CACHE_DIR)",
                  &run->cache_dir),
           Enum("--format",
                "csv: header + one line per row; json: one object per row",
                &run->format, {{"csv", Format::kCsv}, {"json", Format::kJson}}),
           String("--output", "FILE", "default: stdout", &run->output),
           {"--list", "", "print known traces and policies, then exit",
            [](const char*, const std::string&) {
              PrintList();
              std::exit(0);
            }},
           {"--help", "", "this text (also -h)", nullptr}}};
}

class FlagTable {
 public:
  FlagTable(const char* prog, std::string synopsis,
            std::vector<FlagGroup> groups)
      : prog_(prog),
        synopsis_(std::move(synopsis)),
        groups_(std::move(groups)) {}

  /// Applies argv in order. --help (or -h) prints the table and exits 0;
  /// an unknown token or a value on the wrong kind of row dies with
  /// exit 2 naming it.
  void Parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg =
          std::strcmp(argv[i], "-h") == 0 ? "--help" : argv[i];
      const std::size_t eq = arg.find('=');
      const Flag* flag = Find(arg.substr(0, eq));
      if (flag == nullptr) Die(prog_, "unrecognized argument '" + arg + "'");
      if (!flag->set) {
        PrintHelp();
        std::exit(0);
      }
      const bool has_value = eq != std::string::npos;
      if (has_value && flag->arg.empty()) {
        Die(prog_, flag->name + " takes no value (got '" + arg + "')");
      }
      if (!has_value && !flag->arg.empty() && !flag->optional_value) {
        Die(prog_, flag->name + " needs a value: " + flag->name + "=" +
                       flag->arg);
      }
      const std::string value = has_value ? arg.substr(eq + 1) : "";
      flag->set(prog_, value);
      seen_.emplace_back(flag, value);
    }
  }

  bool Seen(const std::string& name) const {
    return std::any_of(seen_.begin(), seen_.end(), [&name](const auto& s) {
      return s.first->name == name;
    });
  }

  /// Re-applies every flag given on the command line, in order: after a
  /// preset has overwritten the destinations, the explicit flags win
  /// again no matter where they appeared relative to the preset's flag.
  void Replay() const {
    for (const auto& [flag, value] : seen_) flag->set(prog_, value);
  }

 private:
  /// Prints the help text to stdout.
  void PrintHelp() const {
    std::printf("Usage: %s %s\n", prog_, synopsis_.c_str());
    for (const FlagGroup& group : groups_) {
      std::printf("\n%s:\n", group.title.c_str());
      for (const Flag& flag : group.flags) {
        std::string label = "  " + flag.name;
        if (!flag.arg.empty()) {
          label += flag.optional_value ? "[=" + flag.arg + "]" : "=" + flag.arg;
        }
        PrintWrapped(label, flag.help);
      }
    }
  }

  const Flag* Find(const std::string& name) const {
    for (const FlagGroup& group : groups_) {
      for (const Flag& flag : group.flags) {
        if (flag.name == name) return &flag;
      }
    }
    return nullptr;
  }

  /// Prints `label` with `text` word-wrapped into a column beside it.
  static void PrintWrapped(std::string label, std::string text) {
    constexpr int kColumn = 26;
    constexpr std::size_t kTextWidth = 79 - kColumn;
    if (label.size() >= static_cast<std::size_t>(kColumn)) {
      std::printf("%s\n", label.c_str());
      label.clear();
    }
    while (text.size() > kTextWidth) {
      // Break at the last space that fits, or after an overlong word.
      std::size_t cut = text.rfind(' ', kTextWidth);
      if (cut == std::string::npos) cut = text.find(' ');
      if (cut == std::string::npos) break;
      std::printf("%-*s%s\n", kColumn, label.c_str(),
                  text.substr(0, cut).c_str());
      label.clear();
      text.erase(0, cut + 1);
    }
    std::printf("%-*s%s\n", kColumn, label.c_str(), text.c_str());
  }

  const char* prog_;
  std::string synopsis_;
  std::vector<FlagGroup> groups_;
  std::vector<std::pair<const Flag*, std::string>> seen_;
};

/// Opens the output before the run, so a bad --output path fails in
/// milliseconds rather than after minutes of simulation. An empty path
/// is stdout. Returns nullptr after reporting the error.
inline std::FILE* OpenOutput(const char* prog, const std::string& path) {
  if (path.empty()) return stdout;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "%s: cannot open '%s': %s\n", prog, path.c_str(),
                 std::strerror(errno));
  }
  return out;
}

/// Closes what OpenOutput returned. A failed write (e.g. ENOSPC) must
/// not exit 0 with a truncated file, and the flush on fclose can be the
/// first call to see the error. Returns false after reporting it.
inline bool CloseOutput(const char* prog, std::FILE* out,
                        const std::string& path) {
  bool ok = std::ferror(out) == 0;
  ok = (out == stdout ? std::fflush(out) : std::fclose(out)) == 0 && ok;
  if (!ok) {
    std::fprintf(stderr, "%s: error writing %s: %s\n", prog,
                 path.empty() ? "stdout" : path.c_str(), std::strerror(errno));
  }
  return ok;
}

}  // namespace clic::cli

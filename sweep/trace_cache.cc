#include "sweep/trace_cache.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <optional>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>

#include "sim/trace_io.h"
#include "sim/trace_ops.h"
#include "workload/scenario.h"
#include "workload/trace_factory.h"

namespace clic::sweep {

std::uint64_t RequestCapFromEnv() {
  constexpr std::uint64_t kDefault = 2'000'000;  // full suite in minutes
  const char* env = std::getenv("CLIC_BENCH_REQUESTS");
  if (env == nullptr || *env == '\0') return kDefault;
  errno = 0;
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(env, &end, 10);
  if (errno != 0 || end == env || *end != '\0' || value == 0) {
    std::fprintf(stderr,
                 "CLIC_BENCH_REQUESTS='%s' is not a positive integer; "
                 "using default %llu\n",
                 env, static_cast<unsigned long long>(kDefault));
    return kDefault;
  }
  return value;
}

std::string CacheDirFromEnv() {
  if (const char* env = std::getenv("CLIC_TRACE_CACHE_DIR")) return env;
  return "clic_trace_cache";
}

// Collects `.tmp.` orphans left by crashed or killed savers (SaveTrace
// writes to unique `<path>.tmp.<pid>.<n>` names, so nothing overwrites
// them). The age threshold is the whole safety argument: an in-flight
// save from a live concurrent process is seconds old and must never be
// unlinked out from under its writer, so only files strictly older
// than `max_age_seconds` are touched.
std::size_t CollectStaleTempFiles(const std::string& dir,
                                  std::time_t max_age_seconds) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  const std::time_t now = std::time(nullptr);
  std::size_t removed = 0;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.find(".tmp.") == std::string::npos) continue;
    const std::string path = dir + "/" + name;
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0 && now - st.st_mtime > max_age_seconds &&
        std::remove(path.c_str()) == 0) {
      ++removed;
    }
  }
  ::closedir(d);
  return removed;
}

TraceCache::TraceCache(std::string dir, std::uint64_t request_cap)
    : dir_(std::move(dir)), request_cap_(request_cap) {}

TraceCache& TraceCache::Global() {
  static TraceCache cache(CacheDirFromEnv(), RequestCapFromEnv());
  return cache;
}

const Trace& TraceCache::Get(const std::string& name) {
  Entry* entry = nullptr;
  {
    MutexLock lock(map_mutex_);
    entry = &entries_[name];
  }
  std::call_once(entry->once, [&] { Fill(name, *entry); });
  return *entry->trace;
}

void TraceCache::Fill(const std::string& name, Entry& entry) {
  // A derived trace is rebuilt in memory from its cached sources; it is
  // cheap next to generation and never written to disk.
  if (const std::optional<DerivedTrace> derived = ParseDerivedTrace(name)) {
    std::vector<const Trace*> sources;
    for (const std::string& source : derived->sources) {
      sources.push_back(&Get(source));
    }
    entry.trace = std::make_unique<const Trace>(
        BuildDerivedTrace(name, *derived, sources));
    return;
  }
  std::uint64_t target = 0;
  bool named = false;
  for (const NamedTraceInfo& info : NamedTraces()) {
    if (info.name == name) {
      target = info.target_requests;
      named = true;
    }
  }
  // Not one of the eight paper traces: a scenario preset or inline
  // workload spec (workload/scenario.h). Scenario traces share the same
  // disk cache with their own generator-version suffix.
  std::optional<WorkloadSpec> scenario;
  if (!named) {
    std::string error;
    scenario = ResolveWorkload(name, &error);
    if (!scenario) {
      std::fprintf(stderr,
                   "TraceCache: unknown workload '%s': %s (see "
                   "NamedTraces() and ScenarioPresets())\n",
                   name.c_str(), error.c_str());
      std::exit(1);
    }
    target = scenario->requests;
  }
  target = std::min(target, request_cap_);

  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "TraceCache: mkdir('%s') failed: %s\n", dir_.c_str(),
                 std::strerror(errno));
    std::exit(1);
  }
  std::call_once(cleanup_once_, [this] { CollectStaleTempFiles(dir_); });
  // Cache key = name + target length + generator version: any of the
  // three changing invalidates the cached file. Scenario files hash
  // unsafe spec characters out of the stem and carry the scenario
  // engine's own version counter.
  const std::string path =
      named ? dir_ + "/" + name + "_" + std::to_string(target) + "_g" +
                  std::to_string(kTraceGeneratorVersion) + ".trc"
            : dir_ + "/" + ScenarioCacheStem(name) + "_" +
                  std::to_string(target) + "_s" +
                  std::to_string(kScenarioGeneratorVersion) + ".trc";
  if (auto loaded = LoadTrace(path, name)) {
    entry.trace = std::make_unique<const Trace>(std::move(*loaded));
    return;
  }
  Trace generated = named ? MakeNamedTrace(name, target)
                          : MakeScenarioTrace(*scenario, target);
  if (!SaveTrace(generated, path)) {
    std::fprintf(stderr,
                 "TraceCache: warning: could not cache trace to %s\n",
                 path.c_str());
  }
  entry.trace = std::make_unique<const Trace>(std::move(generated));
}

}  // namespace clic::sweep

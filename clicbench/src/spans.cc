#include "spans.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace clicbench {
namespace {

struct SpanRecord {
  SpanId id;
  SpanId parent;
  std::uint64_t request;
  std::int64_t start_ns;
  std::int64_t end_ns;
  const char* name;
};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
};

std::atomic<bool> g_tracing{false};
std::atomic<SpanId> g_next_id{1};

// Buffer registry: touched once per thread (registration) and by Dump.
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local SpanId t_current = 0;

ThreadBuffer& Buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread = static_cast<std::uint32_t>(g_buffers.size());
    t_buffer->spans.reserve(1 << 16);
  }
  return *t_buffer;
}

SpanId Append(const char* name, SpanId parent, std::uint64_t request,
              std::int64_t start_ns, std::int64_t end_ns, SpanId id) {
  Buffer().spans.push_back({id, parent, request, start_ns, end_ns, name});
  return id;
}

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

SpanId RecordSpan(const char* name, SpanId parent, std::uint64_t request,
                  std::int64_t start_ns, std::int64_t end_ns) {
  if (!Tracing()) return 0;
  const SpanId id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  return Append(name, parent == kInheritParent ? t_current : parent, request,
                start_ns, end_ns, id);
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request, SpanId parent)
    : name_(name), request_(request) {
  if (!Tracing()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent == kInheritParent ? t_current : parent;
  saved_current_ = t_current;
  t_current = id_;
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const std::int64_t end_ns = NowNs();
  t_current = saved_current_;
  Append(name_, parent_, request_, start_ns_, end_ns, id_);
}

std::uint64_t SpanCount() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::uint64_t n = 0;
  for (const auto& b : g_buffers) n += b->spans.size();
  return n;
}

bool DumpSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& b : g_buffers) {
    for (const SpanRecord& s : b->spans) {
      std::fprintf(f, "%llu\t%llu\t%u\t%llu\t%lld\t%lld\t%s\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), b->thread,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.name);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace clicbench

// In-memory span recorder for the benchmark's traced run.
//
// A span is (id, parent, thread, request id, name, start, end) on the
// steady clock. Spans are recorded only from the benchmark's own code,
// around its calls into each module's public functions, and only when
// tracing is on (`--trace 1`); with tracing off a ScopedSpan costs one
// relaxed load. Each thread appends to its own buffer (no lock on the
// record path); buffers are registered once per thread and written out
// together by DumpSpans() after every load thread has been joined.
//
// Span names are "<module>.<function>"; the module prefix is what
// clicbench/spans.py aggregates self time by.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace clicbench {

using SpanId = std::uint64_t;

/// Sentinel parent: "the innermost open span on this thread".
inline constexpr SpanId kInheritParent = ~SpanId{0};

/// Nanoseconds on the steady clock (the one clock every rate and span in
/// the benchmark uses).
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetTracing(bool on);
bool Tracing();

/// Records one already-timed span (used where a span's interval is not
/// a C++ scope, e.g. a batch measured from its due time). Returns its
/// id, or 0 when tracing is off.
SpanId RecordSpan(const char* name, SpanId parent, std::uint64_t request,
                  std::int64_t start_ns, std::int64_t end_ns);

/// Writes every recorded span as tab-separated lines
/// `id parent thread request start_ns end_ns name` to `path`. Returns
/// false when the file cannot be written.
bool DumpSpans(const std::string& path);

/// Number of spans recorded so far (all threads). Call quiescently.
std::uint64_t SpanCount();

/// RAII span over a scope. `name` must be a string literal (stored by
/// pointer). The span becomes the parent of spans opened inside it on
/// the same thread; pass `parent` explicitly to hang a span under a
/// span of another thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0,
                      SpanId parent = kInheritParent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when tracing is off).
  SpanId id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t request_;
  SpanId id_ = 0;
  SpanId parent_ = 0;
  SpanId saved_current_ = 0;
  std::int64_t start_ns_ = 0;
};

}  // namespace clicbench

// Trace transformations used by the evaluation: noise-hint injection
// (Section 6.3) and multi-client interleaving (Figure 11).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/trace.h"

namespace clic {

/// Appends `num_types` noise attributes to every request's hint vector,
/// with values drawn per request from Zipf(domain_size, zipf_z). This
/// multiplies the number of distinct hint sets without adding any
/// information, diluting CLIC's statistics exactly as the paper's
/// Section 6.3 experiment does. Deterministic in `seed`.
Trace InjectNoiseHints(const Trace& base, int num_types, int domain_size,
                       double zipf_z, std::uint64_t seed);

/// Round-robin interleaving of several client traces into one shared
/// stream. Requests are re-tagged with their source index as ClientId
/// and hint vectors are re-interned with that client id, so hint sets
/// from different clients stay distinct (as the paper's multi-client
/// experiment requires).
Trace Interleave(const std::string& name,
                 const std::vector<const Trace*>& sources);

/// A workload token that names a trace derived in memory from other
/// workloads instead of generated:
///   - `<base>+noise<T>`: `base` with T noise hint types at Figure 10's
///     parameters (domain 10, Zipf z = 1, seed 0xF16 + T);
///   - `3xTPCC`: Figure 11's round-robin interleave of DB2_C60,
///     DB2_C300 and DB2_C540, one client id each.
struct DerivedTrace {
  std::vector<std::string> sources;  // workload tokens, in client order
  int noise_types = 0;               // T of a +noise token
  bool interleave = false;
};

/// Parses a derived-trace token; nullopt when `name` is not one (it may
/// still be a named trace or scenario, which the caller checks).
std::optional<DerivedTrace> ParseDerivedTrace(const std::string& name);

/// Builds the trace `name` parsed into `derived` from its resolved
/// sources, given in DerivedTrace::sources order.
Trace BuildDerivedTrace(const std::string& name, const DerivedTrace& derived,
                        const std::vector<const Trace*>& sources);

}  // namespace clic

#include "sim/trace_ops.h"

#include <algorithm>
#include <cctype>

#include "common/rng.h"

namespace clic {

Trace InjectNoiseHints(const Trace& base, int num_types, int domain_size,
                       double zipf_z, std::uint64_t seed) {
  Trace out;
  out.name = base.name + "+noise" + std::to_string(num_types);
  out.requests.reserve(base.requests.size());
  if (num_types <= 0) {
    // No noise: copy the requests and deep-copy the registry. Sharing
    // base.hints would alias mutable interning state — a later Intern()
    // through either trace would mutate both.
    out.hints = std::make_shared<HintRegistry>(*base.hints);
    out.requests = base.requests;
    out.client_bound = base.client_bound;  // same clients; reuse or stay lazy
    return out;
  }
  Rng rng(seed);
  ZipfGenerator zipf(static_cast<std::uint64_t>(std::max(1, domain_size)),
                     zipf_z);
  for (const Request& r : base.requests) {
    HintVector v = base.hints->Get(r.hint_set);
    for (int t = 0; t < num_types; ++t) {
      v.attrs.push_back(zipf(rng));
    }
    Request nr = r;
    nr.hint_set = out.hints->Intern(std::move(v));
    out.requests.push_back(nr);
  }
  out.client_bound = base.client_bound;  // clients are copied unchanged
  return out;
}

Trace Interleave(const std::string& name,
                 const std::vector<const Trace*>& sources) {
  Trace out;
  out.name = name;
  std::size_t total = 0;
  for (const Trace* t : sources) total += t->size();
  out.requests.reserve(total);
  std::vector<std::size_t> pos(sources.size(), 0);
  // Pre-intern a hint-id translation table per source to keep the merge
  // loop free of hashing for already-seen ids.
  std::vector<std::vector<std::uint32_t>> remap(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    remap[s].assign(sources[s]->hints->size(), kInvalidIndex);
  }
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t s = 0; s < sources.size(); ++s) {
      if (pos[s] >= sources[s]->size()) continue;
      progressed = true;
      Request r = sources[s]->requests[pos[s]++];
      r.client = static_cast<ClientId>(s);
      std::uint32_t& mapped = remap[s][r.hint_set];
      if (mapped == kInvalidIndex) {
        HintVector v = sources[s]->hints->Get(r.hint_set);
        v.client = static_cast<ClientId>(s);
        mapped = out.hints->Intern(std::move(v));
      }
      r.hint_set = mapped;
      out.requests.push_back(r);
    }
  }
  out.CacheMaxClient();
  return out;
}

std::optional<DerivedTrace> ParseDerivedTrace(const std::string& name) {
  if (name == "3xTPCC") {
    return DerivedTrace{{"DB2_C60", "DB2_C300", "DB2_C540"}, 0, true};
  }
  const std::string marker = "+noise";
  const std::size_t at = name.rfind(marker);
  if (at == std::string::npos || at == 0) return std::nullopt;
  const std::string digits = name.substr(at + marker.size());
  // At most three digits, so std::stoi cannot overflow.
  if (digits.empty() || digits.size() > 3 ||
      !std::all_of(digits.begin(), digits.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      })) {
    return std::nullopt;
  }
  return DerivedTrace{{name.substr(0, at)}, std::stoi(digits), false};
}

Trace BuildDerivedTrace(const std::string& name, const DerivedTrace& derived,
                        const std::vector<const Trace*>& sources) {
  if (derived.interleave) return Interleave(name, sources);
  Trace out = InjectNoiseHints(*sources.at(0), derived.noise_types,
                               /*domain_size=*/10, /*zipf_z=*/1.0,
                               /*seed=*/0xF16 + derived.noise_types);
  out.name = name;
  return out;
}

}  // namespace clic

#include "sim/policy_factory.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "policies/arc.h"
#include "policies/lru.h"
#include "policies/mq.h"
#include "policies/opt.h"
#include "policies/tq.h"

namespace clic {

const char* PolicyName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kOpt:
      return "OPT";
    case PolicyKind::kTq:
      return "TQ";
    case PolicyKind::kLru:
      return "LRU";
    case PolicyKind::kArc:
      return "ARC";
    case PolicyKind::kClic:
      return "CLIC";
    case PolicyKind::kMq:
      return "MQ";
  }
  return "?";
}

const std::vector<PolicyKind>& AllPolicies() {
  static const std::vector<PolicyKind> kinds = {
      PolicyKind::kOpt, PolicyKind::kTq,   PolicyKind::kLru,
      PolicyKind::kArc, PolicyKind::kClic, PolicyKind::kMq,
  };
  return kinds;
}

std::optional<PolicyKind> ParsePolicyKind(std::string_view name) {
  auto equals_ignore_case = [](std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(a[i])) !=
          std::toupper(static_cast<unsigned char>(b[i]))) {
        return false;
      }
    }
    return true;
  };
  for (PolicyKind kind : AllPolicies()) {
    if (equals_ignore_case(name, PolicyName(kind))) return kind;
  }
  return std::nullopt;
}

std::unique_ptr<Policy> MakePolicy(PolicyKind kind, std::size_t cache_pages,
                                   const Trace* trace,
                                   const ClicOptions& options) {
  switch (kind) {
    case PolicyKind::kOpt:
      if (trace == nullptr) {
        std::fprintf(stderr, "MakePolicy(kOpt) requires a trace\n");
        std::exit(1);
      }
      return std::make_unique<OptPolicy>(cache_pages, *trace);
    case PolicyKind::kTq:
      return std::make_unique<TqPolicy>(cache_pages);
    case PolicyKind::kLru:
      return std::make_unique<LruPolicy>(cache_pages);
    case PolicyKind::kArc:
      return std::make_unique<ArcPolicy>(cache_pages);
    case PolicyKind::kClic: {
      ClicOptions clic = options;
      if (clic.generalize && !clic.hint_space && trace != nullptr) {
        clic.hint_space = trace->hints;
      }
      return std::make_unique<ClicPolicy>(cache_pages, std::move(clic));
    }
    case PolicyKind::kMq:
      return std::make_unique<MqPolicy>(cache_pages);
  }
  return nullptr;
}

}  // namespace clic

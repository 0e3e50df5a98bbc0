// Policy registry for the evaluation: the paper's five figure policies
// plus MQ, the related-work baseline of the policy ablation.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/clic.h"
#include "core/policy.h"
#include "core/trace.h"

namespace clic {

enum class PolicyKind {
  kOpt,    // Belady upper bound
  kTq,     // write-hint two-queue (Li et al., FAST '05)
  kLru,
  kArc,    // Megiddo & Modha, FAST '03
  kClic,   // this paper
  kMq,     // Zhou et al., USENIX '01 (related work, Section 7)
};

const char* PolicyName(PolicyKind kind);

/// Case-insensitive inverse of PolicyName ("lru", "mq", "CLIC", ...).
/// Returns nullopt for unknown names.
std::optional<PolicyKind> ParsePolicyKind(std::string_view name);

/// Every kind: the paper's legend order, then the related-work
/// baseline. Used by `clic_sweep --list` and flag validation.
const std::vector<PolicyKind>& AllPolicies();

/// The five policies plotted in Figures 6-8, in the paper's legend order.
inline std::array<PolicyKind, 5> PaperPolicies() {
  return {PolicyKind::kOpt, PolicyKind::kTq, PolicyKind::kLru,
          PolicyKind::kArc, PolicyKind::kClic};
}

/// Builds a policy instance for one simulation run. `trace` must outlive
/// the policy and is required by kOpt (clairvoyant next-use oracle);
/// `options` applies to kClic only, and a generalizing CLIC without a
/// `hint_space` gets the trace's hint registry.
std::unique_ptr<Policy> MakePolicy(PolicyKind kind, std::size_t cache_pages,
                                   const Trace* trace,
                                   const ClicOptions& options);

}  // namespace clic

// Golden decision digests for ClicPolicy. Each case replays a fixed
// trace and hashes the hit/miss sequence (FNV-1a over one byte per
// request). The digests were captured from the implementation that
// kept a global recency list and rebuilt every rank bucket from it at
// each window close; the access-stamp engine must reproduce them bit
// for bit. A change that means to alter CLIC's decisions updates this
// table deliberately and says why.
//
// Coverage: DB2_C60 over every tracker at three decays and two cache
// sizes (the approximate trackers at top-k 5 push hint sets across
// rank 0 at nearly every close, exercising the bucket resort), hint
// generalization under a top-5 tracker, the adaptive window on a
// phase-shifting preset, and the served shape: ShardOf shards fed
// 16-request AccessBatch slices.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/clic.h"
#include "server/cache_server.h"
#include "workload/scenario.h"
#include "workload/trace_factory.h"

namespace clic {
namespace {

constexpr std::uint64_t kRequests = 200'000;
constexpr std::uint64_t kWindow = 20'000;

/// Replays `trace` through `policy` in `batch`-request AccessBatch
/// slices, folding every decision into `h` (FNV-1a state).
void FoldHits(ClicPolicy& policy, const Trace& trace, std::size_t batch,
              std::uint64_t* h) {
  std::vector<std::uint8_t> hits(batch);
  for (std::size_t pos = 0; pos < trace.size(); pos += batch) {
    const std::size_t count = std::min(batch, trace.size() - pos);
    policy.AccessBatch(trace.requests.data() + pos, pos, count, hits.data());
    for (std::size_t i = 0; i < count; ++i) {
      *h ^= hits[i];
      *h *= 1099511628211ull;
    }
  }
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t Digest(const Trace& trace, std::size_t cache_pages,
                     const ClicOptions& options) {
  ClicPolicy policy(cache_pages, options);
  std::uint64_t h = kFnvBasis;
  FoldHits(policy, trace, 4096, &h);
  return h;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ull", v);
  return buf;
}

ClicOptions WithTracker(TrackerKind tracker, double decay) {
  ClicOptions options;
  options.window = kWindow;
  options.decay = decay;
  options.tracker = tracker;
  options.top_k = 5;
  return options;
}

TEST(ClicDigestTest, TrackersDecaysAndCacheSizes) {
  const Trace trace = MakeNamedTrace("DB2_C60", kRequests);
  ASSERT_EQ(trace.size(), kRequests);
  struct Case {
    std::size_t cache;
    TrackerKind tracker;
    double decay;
    std::uint64_t digest;
  };
  constexpr TrackerKind kExact = TrackerKind::kExact;
  constexpr TrackerKind kSs = TrackerKind::kSpaceSaving;
  constexpr TrackerKind kLc = TrackerKind::kLossyCounting;
  const Case cases[] = {
      {6'000, kExact, 1.0, 0xdffb9066fdb4df76ull},
      {6'000, kExact, 0.5, 0xeb01e9ff9a429a26ull},
      {6'000, kExact, 0.0, 0x2b820a39d5c78ad2ull},
      {6'000, kSs, 1.0, 0x2bcee4766dd4dedbull},
      {6'000, kSs, 0.5, 0xe3134f17398b14b9ull},
      {6'000, kSs, 0.0, 0x8684e981906d319dull},
      {6'000, kLc, 1.0, 0x9df720ad6bec3459ull},
      {6'000, kLc, 0.5, 0x40735a07fff9ea1full},
      {6'000, kLc, 0.0, 0x40735a07fff9ea1full},
      {12'000, kExact, 1.0, 0x6d75e5d089333040ull},
      {12'000, kExact, 0.5, 0x1cef80a6921e899full},
      {12'000, kExact, 0.0, 0x8b6ddfd6aff6d28eull},
      {12'000, kSs, 1.0, 0x3a75f469034747c3ull},
      {12'000, kSs, 0.5, 0x45beb8a0e69766c9ull},
      {12'000, kSs, 0.0, 0x4a7057bec8ca5d3eull},
      {12'000, kLc, 1.0, 0x6b246f56e75cca0dull},
      {12'000, kLc, 0.5, 0xbc3f8786e2372435ull},
      {12'000, kLc, 0.0, 0xbc3f8786e2372435ull},
  };
  for (const Case& c : cases) {
    const std::uint64_t got =
        Digest(trace, c.cache, WithTracker(c.tracker, c.decay));
    EXPECT_EQ(got, c.digest)
        << "cache=" << c.cache << " tracker=" << static_cast<int>(c.tracker)
        << " decay=" << c.decay << " digest " << Hex(got);
  }
}

TEST(ClicDigestTest, Generalization) {
  const Trace trace = MakeNamedTrace("DB2_C60", kRequests);
  ClicOptions options = WithTracker(TrackerKind::kSpaceSaving, 1.0);
  options.generalize = true;
  options.hint_space = trace.hints;
  const std::pair<std::size_t, std::uint64_t> cases[] = {
      {6'000, 0x6a3f6b2d248ee2deull},
      {12'000, 0xa809c612fe05600dull},
  };
  for (const auto& [cache, digest] : cases) {
    const std::uint64_t got = Digest(trace, cache, options);
    EXPECT_EQ(got, digest) << "cache=" << cache << " digest " << Hex(got);
  }
}

TEST(ClicDigestTest, AdaptiveWindowOnPhaseAbrupt) {
  const auto spec = ResolveWorkload("phase-abrupt");
  ASSERT_TRUE(spec.has_value());
  const Trace trace = MakeScenarioTrace(*spec, kRequests);
  ClicOptions options;
  options.adaptive_window = true;
  options.window = kWindow;
  const std::pair<std::size_t, std::uint64_t> cases[] = {
      {6'000, 0x3b0244b09222226eull},
      {12'000, 0x6c621766eb73ecbaull},
  };
  for (const auto& [cache, digest] : cases) {
    const std::uint64_t got = Digest(trace, cache, options);
    EXPECT_EQ(got, digest) << "cache=" << cache << " digest " << Hex(got);
  }
}

// The served shape: the trace is split by ShardOf into 4 shards, each
// with its own policy, and every shard is fed 16-request AccessBatch
// slices — what a 64-request client batch becomes after partitioning.
TEST(ClicDigestTest, ServedShardSlices) {
  const auto spec = ResolveWorkload(
      "zipf:pages=40000,theta=0.9,buffer=500,write=0.3,n=200000");
  ASSERT_TRUE(spec.has_value());
  const Trace trace = MakeScenarioTrace(*spec);
  const std::vector<Trace> shards = server::PartitionByShard(trace, 4);
  struct Case {
    TrackerKind tracker;
    double decay;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {TrackerKind::kExact, 1.0, 0x04ca7c6d01fb1e3eull},
      {TrackerKind::kSpaceSaving, 0.0, 0x34775ce43818019aull},
  };
  for (const Case& c : cases) {
    ClicOptions options = WithTracker(c.tracker, c.decay);
    options.window = 5'000;
    std::uint64_t h = kFnvBasis;
    for (const Trace& shard : shards) {
      ClicPolicy policy(2'000, options);
      FoldHits(policy, shard, 16, &h);
    }
    EXPECT_EQ(h, c.digest) << "tracker=" << static_cast<int>(c.tracker)
                           << " decay=" << c.decay << " digest " << Hex(h);
  }
}

}  // namespace
}  // namespace clic

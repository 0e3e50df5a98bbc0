#include "sweep/sweep.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cli_util.h"
#include "core/trace.h"
#include "sim/simulator.h"
#include "sim/trace_ops.h"
#include "sweep/trace_cache.h"

namespace clic::sweep {
namespace {

// Deterministic in-memory workload: two clients, two hint sets, a
// skewed page pattern with ~20% writes. No disk, no generation cost.
Trace MakeSynthetic(const std::string& name, std::uint32_t salt,
                    std::size_t n) {
  Trace trace;
  trace.name = name;
  const HintSetId h0 = trace.hints->Intern(HintVector{0, {1, 100 + salt}});
  const HintSetId h1 = trace.hints->Intern(HintVector{1, {2, 200 + salt}});
  trace.requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    // Mix of a hot set (mod 61) and a cold sweep (mod 509).
    r.page = static_cast<PageId>(
        i % 3 == 0 ? (i * 7919 + salt) % 61 : (i * 104729 + salt) % 509);
    r.client = static_cast<ClientId>(i % 2);
    r.hint_set = r.client == 0 ? h0 : h1;
    if (i % 5 == 0) {
      r.op = OpType::kWrite;
      r.write_kind = i % 10 == 0 ? WriteKind::kRecovery
                                 : WriteKind::kReplacement;
    }
    trace.requests.push_back(r);
  }
  return trace;
}

class FixtureProvider {
 public:
  FixtureProvider() {
    traces_.emplace("synthA",
                    std::make_unique<Trace>(MakeSynthetic("synthA", 3, 4000)));
    traces_.emplace("synthB",
                    std::make_unique<Trace>(MakeSynthetic("synthB", 17, 2500)));
  }

  SweepRunner::TraceProvider Get() {
    return [this](const std::string& name) -> const Trace& {
      return *traces_.at(name);
    };
  }

  const Trace& Trace_(const std::string& name) const {
    return *traces_.at(name);
  }

 private:
  std::map<std::string, std::unique_ptr<Trace>> traces_;
};

SweepSpec TestSpec() {
  SweepSpec spec;
  spec.traces = {"synthA", "synthB"};
  spec.policies = {PolicyKind::kLru, PolicyKind::kArc, PolicyKind::kOpt,
                   PolicyKind::kClic};
  spec.cache_sizes = {32, 96};
  spec.clic.window = 500;  // several windows complete within 2500 requests
  spec.clic.outqueue_per_page = 2.0;
  return spec;
}

void ExpectSameStats(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.read_hits, b.read_hits);
  EXPECT_EQ(a.write_hits, b.write_hits);
}

void ExpectSameResult(const SimResult& a, const SimResult& b) {
  ExpectSameStats(a.total, b.total);
  ASSERT_EQ(a.per_client.size(), b.per_client.size());
  for (const auto& [client, stats] : a.per_client) {
    auto it = b.per_client.find(client);
    ASSERT_NE(it, b.per_client.end());
    ExpectSameStats(stats, it->second);
  }
}

TEST(ExpandGridTest, FixedNestingOrderAndDenseIndices) {
  SweepSpec spec;
  spec.traces = {"t0", "t1"};
  spec.policies = {PolicyKind::kLru, PolicyKind::kClic};
  spec.cache_sizes = {10, 20, 30};
  const std::vector<SweepPoint> points = ExpandGrid(spec);
  ASSERT_EQ(points.size(), 12u);
  std::size_t i = 0;
  for (const std::string& trace : spec.traces) {
    for (PolicyKind policy : spec.policies) {
      for (std::size_t cache : spec.cache_sizes) {
        EXPECT_EQ(points[i].index, i);
        EXPECT_EQ(points[i].trace, trace);
        EXPECT_EQ(points[i].policy, policy);
        EXPECT_EQ(points[i].cache_pages, cache);
        ++i;
      }
    }
  }
}

TEST(FigureSpecTest, KnownFiguresHaveExpectedGridShapes) {
  const auto fig6 = FigureSpec("6");
  ASSERT_TRUE(fig6.has_value());
  EXPECT_EQ(fig6->traces,
            (std::vector<std::string>{"DB2_C60", "DB2_C300", "DB2_C540"}));
  EXPECT_EQ(fig6->policies.size(), 5u);
  EXPECT_EQ(fig6->cache_sizes,
            (std::vector<std::size_t>{6'000, 12'000, 18'000, 24'000,
                                      30'000}));
  EXPECT_EQ(ExpandGrid(*fig6).size(), 75u);

  const auto fig7 = FigureSpec("7");
  ASSERT_TRUE(fig7.has_value());
  EXPECT_EQ(ExpandGrid(*fig7).size(), 75u);

  const auto fig8 = FigureSpec("8");
  ASSERT_TRUE(fig8.has_value());
  EXPECT_EQ(fig8->traces, (std::vector<std::string>{"MY_H65", "MY_H98"}));
  EXPECT_EQ(ExpandGrid(*fig8).size(), 30u);

  const auto ablation = FigureSpec("ablation");
  ASSERT_TRUE(ablation.has_value());
  EXPECT_EQ(ablation->policies.size(), 5u);
  EXPECT_EQ(ExpandGrid(*ablation).size(), 5u);

  const auto fig9 = FigureSpec("9");
  ASSERT_TRUE(fig9.has_value());
  EXPECT_EQ(fig9->clic_variants.size(), 9u);  // k = 1..128 and "all"
  EXPECT_EQ(ExpandGrid(*fig9).size(), 54u);

  EXPECT_FALSE(FigureSpec("12").has_value());
  EXPECT_FALSE(FigureSpec("").has_value());
}

TEST(FigureSpecTest, PresetTableMatchesResolvableFigures) {
  // Every advertised preset resolves, and every trace it names is a
  // workload token the CLI accepts.
  for (const std::string& name : FigurePresetNames()) {
    const auto spec = FigureSpec(name);
    ASSERT_TRUE(spec.has_value()) << "advertised figure '" << name
                                  << "' does not resolve";
    EXPECT_FALSE(spec->traces.empty()) << name;
    EXPECT_FALSE(spec->policies.empty()) << name;
    EXPECT_FALSE(spec->cache_sizes.empty()) << name;
    for (const std::string& trace : spec->traces) {
      std::string error;
      EXPECT_TRUE(cli::KnownWorkload(trace, &error))
          << "figure '" << name << "' trace '" << trace << "': " << error;
    }
  }
  const auto scan = FigureSpec("scan-pollution");
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(scan->traces,
            (std::vector<std::string>{"zipf-hot", "scan-pollute"}));
  EXPECT_EQ(scan->cache_sizes.size(), 5u);  // the paper's cache axis
}

TEST(SweepRunnerTest, MatchesSequentialSimulateOnEveryPoint) {
  FixtureProvider fixture;
  const SweepSpec spec = TestSpec();
  SweepRunner runner(fixture.Get(), 4);
  const std::vector<SweepRow> rows = runner.Run(spec);
  const std::vector<SweepPoint> points = ExpandGrid(spec);
  ASSERT_EQ(rows.size(), points.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i) + " " + points[i].trace + "/" +
                 PolicyName(points[i].policy) + "/" +
                 std::to_string(points[i].cache_pages));
    EXPECT_EQ(rows[i].point.trace, points[i].trace);
    EXPECT_EQ(rows[i].point.policy, points[i].policy);
    EXPECT_EQ(rows[i].point.cache_pages, points[i].cache_pages);
    const Trace& trace = fixture.Trace_(points[i].trace);
    const auto policy =
        MakePolicy(points[i].policy, points[i].cache_pages, &trace, spec.clic);
    const SimResult expected = Simulate(trace, *policy);
    ExpectSameResult(rows[i].result, expected);
    EXPECT_GE(rows[i].wall_seconds, 0.0);
  }
}

TEST(SweepRunnerTest, RowOrderAndValuesStableAcrossThreadCounts) {
  FixtureProvider fixture;
  const SweepSpec spec = TestSpec();
  const std::vector<SweepRow> baseline =
      SweepRunner(fixture.Get(), 1).Run(spec);
  for (unsigned threads : {2u, 5u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::vector<SweepRow> rows =
        SweepRunner(fixture.Get(), threads).Run(spec);
    ASSERT_EQ(rows.size(), baseline.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].point.index, baseline[i].point.index);
      EXPECT_EQ(rows[i].point.trace, baseline[i].point.trace);
      EXPECT_EQ(rows[i].point.policy, baseline[i].point.policy);
      EXPECT_EQ(rows[i].point.cache_pages, baseline[i].point.cache_pages);
      ExpectSameResult(rows[i].result, baseline[i].result);
    }
  }
}

TEST(SweepRunnerTest, ProviderExceptionPropagatesAtAnyThreadCount) {
  FixtureProvider fixture;
  SweepSpec spec = TestSpec();
  spec.traces.push_back("no-such-trace");  // FixtureProvider map::at throws
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_THROW(SweepRunner(fixture.Get(), threads).Run(spec),
                 std::out_of_range);
  }
}

TEST(SweepRunnerTest, EmptyGridYieldsNoRows) {
  FixtureProvider fixture;
  SweepSpec spec;  // no traces/policies/caches
  EXPECT_TRUE(SweepRunner(fixture.Get(), 4).Run(spec).empty());
}

TEST(ExpandGridTest, VariantsApplyOnTopOfTheBaseToClicPointsOnly) {
  SweepSpec spec;
  spec.traces = {"t0"};
  spec.policies = {PolicyKind::kLru, PolicyKind::kClic};
  spec.cache_sizes = {10, 20};
  spec.clic.window = 777;
  spec.clic_variants = {{"a", [](ClicOptions& o) { o.top_k = 3; }},
                        {"b", [](ClicOptions& o) { o.decay = 0.5; }}};
  const std::vector<SweepPoint> points = ExpandGrid(spec);
  ASSERT_EQ(points.size(), 6u);  // LRU x 2 caches + CLIC x 2 variants x 2
  EXPECT_EQ(points[0].policy, PolicyKind::kLru);
  EXPECT_TRUE(points[0].variant.empty());
  EXPECT_EQ(points[2].variant, "a");
  EXPECT_EQ(points[2].cache_pages, 10u);
  EXPECT_EQ(points[3].variant, "a");
  EXPECT_EQ(points[3].cache_pages, 20u);
  EXPECT_EQ(points[2].clic.top_k, 3u);
  EXPECT_EQ(points[2].clic.window, 777u);
  EXPECT_EQ(points[4].variant, "b");
  EXPECT_EQ(points[4].clic.decay, 0.5);
  EXPECT_EQ(points[4].clic.top_k, ClicOptions{}.top_k);
  EXPECT_EQ(points[4].clic.window, 777u);

  SweepRow row;
  row.point = points[4];
  EXPECT_EQ(ToRow(row).Csv().rfind("t0,CLIC/b,10,", 0), 0u);
  row.point = points[0];
  EXPECT_EQ(ToRow(row).Csv().rfind("t0,LRU,10,", 0), 0u);
}

// One CLIC row of each figure and ablation preset, replayed on a
// synthetic trace with a short base window so windows close, equals a
// direct Simulate with that row's options written out by hand.
TEST(FigureSpecTest, PresetRowsEqualSimulateWithTheirOptions) {
  const Trace trace = MakeSynthetic("synthL", 5, 60'000);
  const auto provider = [&trace](const std::string&) -> const Trace& {
    return trace;
  };
  struct Case {
    std::string preset;
    std::string variant;  // "" for presets without variants
    std::function<void(ClicOptions&)> options;
  };
  const auto top100 = [](ClicOptions& o) {
    o.tracker = TrackerKind::kSpaceSaving;
    o.top_k = 100;
  };
  const std::vector<Case> cases = {
      {"9", "k=16",
       [](ClicOptions& o) {
         o.tracker = TrackerKind::kSpaceSaving;
         o.top_k = 16;
       }},
      {"9", "k=all", [](ClicOptions& o) { o.tracker = TrackerKind::kExact; }},
      {"10", "", top100},
      {"11", "", top100},
      {"ablation-window", "W=25000/r=0.5/adaptive",
       [](ClicOptions& o) {
         o.window = 25'000;
         o.decay = 0.5;
         o.adaptive_window = true;
       }},
      {"ablation-outqueue", "outq=0.5",
       [](ClicOptions& o) { o.outqueue_per_page = 0.5; }},
      {"ablation-tracker", "lossy_counting/k=10",
       [](ClicOptions& o) {
         o.tracker = TrackerKind::kLossyCounting;
         o.top_k = 10;
       }},
      {"ablation-generalize", "tree",
       [&](ClicOptions& o) {
         top100(o);
         o.generalize = true;
         o.hint_space = trace.hints;
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.preset + " " + c.variant);
    std::optional<SweepSpec> spec = FigureSpec(c.preset);
    ASSERT_TRUE(spec.has_value());
    spec->traces = {"synthL"};
    spec->cache_sizes = {96};
    spec->clic.window = 2'000;
    const std::vector<SweepRow> rows = SweepRunner(provider, 2).Run(*spec);
    const SweepRow* row = nullptr;
    for (const SweepRow& r : rows) {
      if (r.point.policy == PolicyKind::kClic && r.point.variant == c.variant) {
        row = &r;
      }
    }
    ASSERT_NE(row, nullptr);
    ClicOptions options;
    options.window = 2'000;
    c.options(options);
    ClicPolicy policy(96, options);
    ExpectSameResult(row->result, Simulate(trace, policy));
  }
}

TEST(SweepRunnerTest, DerivedTraceRowsEqualSimulateOnHandBuiltTraces) {
  TraceCache cache(::testing::TempDir() + "clic_sweep_test_derived_" +
                       std::to_string(::getpid()),
                   3'000);
  SweepSpec spec;
  spec.traces = {"DB2_C300+noise2", "3xTPCC"};
  spec.policies = {PolicyKind::kClic};
  spec.cache_sizes = {100};
  spec.clic.window = 1'000;
  spec.clic.tracker = TrackerKind::kSpaceSaving;
  const std::vector<SweepRow> rows =
      SweepRunner(
          [&cache](const std::string& name) -> const Trace& {
            return cache.Get(name);
          },
          2)
          .Run(spec);
  ASSERT_EQ(rows.size(), 2u);

  const Trace noisy = InjectNoiseHints(cache.Get("DB2_C300"), 2,
                                       /*domain_size=*/10, /*zipf_z=*/1.0,
                                       /*seed=*/0xF16 + 2);
  const Trace merged =
      Interleave("3xTPCC", {&cache.Get("DB2_C60"), &cache.Get("DB2_C300"),
                            &cache.Get("DB2_C540")});
  EXPECT_GT(noisy.hints->size(), cache.Get("DB2_C300").hints->size());
  EXPECT_EQ(merged.size(), 9'000u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Trace& expected_trace = i == 0 ? noisy : merged;
    const Trace& derived = cache.Get(spec.traces[i]);
    ASSERT_EQ(derived.size(), expected_trace.size());
    for (std::size_t r = 0; r < derived.size(); ++r) {
      const Request& got = derived.requests[r];
      const Request& want = expected_trace.requests[r];
      ASSERT_EQ(got.page, want.page) << r;
      ASSERT_EQ(got.client, want.client) << r;
      ASSERT_TRUE(derived.hints->Get(got.hint_set) ==
                  expected_trace.hints->Get(want.hint_set))
          << spec.traces[i] << " request " << r;
    }
    ClicPolicy policy(100, spec.clic);
    ExpectSameResult(rows[i].result, Simulate(expected_trace, policy));
  }
  EXPECT_EQ(rows[1].result.per_client.size(), 3u);
}

// Commas outside quoted fields: the CSV column separators of a line.
std::size_t UnquotedCommas(const std::string& s) {
  std::size_t n = 0;
  bool quoted = false;
  for (char c : s) {
    if (c == '"') quoted = !quoted;
    n += !quoted && c == ',';
  }
  return n;
}

std::size_t Commas(const std::string& s) {
  std::size_t n = 0;
  for (char c : s) n += c == ',';
  return n;
}

TEST(SweepFormatTest, CsvRowMatchesHeaderShape) {
  SweepRow row;
  row.point.trace = "synthA";
  row.point.policy = PolicyKind::kClic;
  row.point.cache_pages = 96;
  row.result.total = {/*reads=*/100, /*writes=*/40, /*read_hits=*/40,
                      /*write_hits=*/10};
  row.result.per_client[0] = {60, 30, 0, 8};
  row.result.per_client[1] = {40, 10, 0, 2};
  row.wall_seconds = 0.125;

  const Row out = ToRow(row);
  const std::string header = out.CsvHeader();
  const std::string line = out.Csv();
  EXPECT_EQ(header,
            "trace,policy,cache_pages,requests,reads,writes,read_hits,"
            "write_hits,read_hit_ratio,write_hit_ratio,wall_seconds,"
            "per_client");
  EXPECT_EQ(Commas(header), Commas(line));
  EXPECT_EQ(line.rfind("synthA,CLIC,96,140,100,40,40,10,", 0), 0u)
      << line;
  EXPECT_NE(line.find("0=60:0:30:8;1=40:0:10:2"), std::string::npos) << line;
}

TEST(SweepFormatTest, CsvFieldAppliesRfc4180Quoting) {
  EXPECT_EQ(CsvField("plain_name"), "plain_name");
  EXPECT_EQ(CsvField(""), "");
  EXPECT_EQ(CsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvField("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvField("line\nbreak"), "\"line\nbreak\"");
}

// Regression: a trace name containing a comma or quote used to be
// emitted raw, shifting every later column of the row.
TEST(SweepFormatTest, CsvRowSurvivesHostileTraceName) {
  SweepRow row;
  row.point.trace = "evil,\"trace\"";
  row.point.policy = PolicyKind::kLru;
  row.point.cache_pages = 8;
  row.result.total = {4, 0, 2, 0};
  const Row out = ToRow(row);
  const std::string line = out.Csv();
  EXPECT_EQ(line.rfind("\"evil,\"\"trace\"\"\",LRU,8,4,4,0,2,0,", 0), 0u)
      << line;
  EXPECT_EQ(UnquotedCommas(line), Commas(out.CsvHeader()));
}

// A hostile string inside a sub-row list is quoted with its column, so
// the list cannot add columns either.
TEST(SweepFormatTest, CsvListColumnSurvivesHostileKey) {
  Row row;
  row.Str("name", "x").Keyed("per", {{"a,\"b", Row().Int("n", 1)}});
  EXPECT_EQ(row.Csv(), "x,\"a,\"\"b=1\"");
  EXPECT_EQ(UnquotedCommas(row.Csv()), Commas(row.CsvHeader()));
  EXPECT_EQ(row.Json(), "{\"name\":\"x\",\"per\":{\"a,\\\"b\":{\"n\":1}}}");
}

TEST(SweepFormatTest, JsonEscapesHostileTraceName) {
  SweepRow row;
  row.point.trace = "quo\"te\\back";
  row.point.policy = PolicyKind::kLru;
  const std::string json = ToRow(row).Json();
  EXPECT_NE(json.find("\"trace\":\"quo\\\"te\\\\back\""), std::string::npos)
      << json;
  EXPECT_EQ(JsonEscaped("tab\there\x01"),
            "tab\\u0009here\\u0001");
}

TEST(SweepFormatTest, JsonRowCarriesAllFields) {
  SweepRow row;
  row.point.trace = "synthB";
  row.point.policy = PolicyKind::kLru;
  row.point.cache_pages = 32;
  row.result.total = {10, 5, 4, 1};
  row.result.per_client[3] = {10, 4, 5, 1};
  const std::string json = ToRow(row).Json();
  for (const char* key :
       {"\"trace\":\"synthB\"", "\"policy\":\"LRU\"", "\"cache_pages\":32",
        "\"requests\":15", "\"reads\":10", "\"writes\":5", "\"read_hits\":4",
        "\"write_hits\":1", "\"read_hit_ratio\":", "\"write_hit_ratio\":",
        "\"wall_seconds\":", "\"per_client\":{\"3\":{\"reads\":10"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(SweepFormatTest, BoolsRenderPerFormat) {
  Row row;
  row.Bool("on", true).Bool("off", false);
  EXPECT_EQ(row.CsvHeader(), "on,off");
  EXPECT_EQ(row.Csv(), "1,0");
  EXPECT_EQ(row.Json(), "{\"on\":true,\"off\":false}");
}

// %.17g is enough digits for any double to read back bit-equal, in
// both formats.
TEST(SweepFormatTest, DoublesReadBackBitEqual) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           0.12257118416228767,
                           1.0,
                           -2.5,
                           0.0,
                           1e-300,
                           4.9406564584124654e-324,
                           1.7976931348623157e308,
                           5039684.9995287899};
  for (double v : values) {
    Row row;
    row.Double("v", v);
    const std::string csv = row.Csv();
    const std::string json = row.Json();
    ASSERT_EQ(json.rfind("{\"v\":", 0), 0u) << json;
    const std::string json_number = json.substr(5, json.size() - 6);
    EXPECT_EQ(csv, json_number);
    char* end = nullptr;
    const double back = std::strtod(csv.c_str(), &end);
    EXPECT_EQ(*end, '\0') << csv;
    EXPECT_EQ(std::memcmp(&back, &v, sizeof(v)), 0)
        << csv << " does not read back as " << v;
  }
}

TEST(SweepFormatTest, SubRowListsRenderInBothFormats) {
  Row row;
  row.Keyed("per_client", {{"3", Row().Int("reads", 10).Int("hits", 4)},
                           {"7", Row().Int("reads", 2).Int("hits", 0)}})
      .Keyed("none", {})
      .Array("shards", {Row().Int("reads", 5).Double("ratio", 0.5)})
      .Array("counts", {Row().Int("", 5), Row().Int("", 7)})
      .Array("empty", {});
  EXPECT_EQ(row.CsvHeader(), "per_client,none,shards,counts,empty");
  EXPECT_EQ(row.Csv(), "3=10:4;7=2:0,,5:0.5,5;7,");
  EXPECT_EQ(row.Json(),
            "{\"per_client\":{\"3\":{\"reads\":10,\"hits\":4},"
            "\"7\":{\"reads\":2,\"hits\":0}},\"none\":{},"
            "\"shards\":[{\"reads\":5,\"ratio\":0.5}],\"counts\":[5,7],"
            "\"empty\":[]}");
}

}  // namespace
}  // namespace clic::sweep

// The observability layer: MetricRegistry views, sharded timers, the
// TraceSink event stream, the JSON helpers, and their integration with the
// engine (Profile, trace events from a real run, registry-backed
// match_stats).

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace sorel {
namespace {

// ------------------------------------------------------------- registry ---

TEST(MetricRegistry, SumsDuplicateNamesAcrossOwners) {
  obs::MetricRegistry reg;
  uint64_t a = 3, b = 4;
  int owner_a = 0, owner_b = 0;
  reg.RegisterCounter(&owner_a, "x.count", [&a] { return a; });
  reg.RegisterCounter(&owner_b, "x.count", [&b] { return b; });
  reg.RegisterCounter(&owner_a, "x.only_a", [] { return uint64_t{9}; });
  std::map<std::string, uint64_t> snap = reg.SnapshotCounters();
  EXPECT_EQ(snap["x.count"], 7u);
  EXPECT_EQ(snap["x.only_a"], 9u);
  // Names are deduplicated.
  std::vector<std::string> names = reg.CounterNames();
  EXPECT_EQ(names, (std::vector<std::string>{"x.count", "x.only_a"}));

  reg.Unregister(&owner_b);
  EXPECT_EQ(reg.SnapshotCounters()["x.count"], 3u);
}

TEST(MetricRegistry, ResetAllRunsHooksAndClearsTimers) {
  obs::MetricRegistry reg;
  uint64_t v = 42;
  int owner = 0;
  reg.RegisterCounter(&owner, "v", [&v] { return v; });
  reg.RegisterReset(&owner, [&v] { v = 0; });
  obs::Timer* timer = reg.GetOrCreateTimer("t");
  timer->Record(1000);
  ASSERT_EQ(reg.SnapshotTimers()["t"].count, 1u);
  reg.ResetAll();
  EXPECT_EQ(reg.SnapshotCounters()["v"], 0u);
  EXPECT_EQ(reg.SnapshotTimers()["t"].count, 0u);
  // The timer pointer stays valid after a reset.
  timer->Record(2000);
  EXPECT_EQ(reg.SnapshotTimers()["t"].count, 1u);
}

TEST(MetricRegistry, GaugesReadLiveState) {
  obs::MetricRegistry reg;
  double size = 5;
  int owner = 0;
  reg.RegisterGauge(&owner, "g.size", [&size] { return size; });
  EXPECT_EQ(reg.SnapshotGauges()["g.size"], 5);
  size = 11;
  EXPECT_EQ(reg.SnapshotGauges()["g.size"], 11);
}

// --------------------------------------------------------------- timers ---

TEST(Timer, SnapshotFoldsRecordsFromManyThreads) {
  obs::Timer timer;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&timer] {
      for (int i = 0; i < kPerThread; ++i) timer.Record(1 << 10);
    });
  }
  for (std::thread& w : workers) w.join();
  obs::TimerSnapshot snap = timer.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snap.total_ns,
            static_cast<uint64_t>(kThreads * kPerThread) * (1 << 10));
}

TEST(Timer, HistogramBucketsAreLog2) {
  obs::Timer timer;
  timer.Record(1);     // bucket 1 (2^0 <= 1 < 2^1)
  timer.Record(1000);  // ~2^10
  timer.Record(1'000'000);  // ~2^20
  obs::TimerSnapshot snap = timer.Snapshot();
  uint64_t populated = 0;
  for (uint64_t b : snap.buckets) populated += (b != 0) ? 1 : 0;
  EXPECT_EQ(populated, 3u);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_GT(snap.ApproxP99Us(), 0.0);
  EXPECT_NEAR(snap.MeanUs(), (1.0 + 1000.0 + 1'000'000.0) / 3 / 1000, 1e-6);
}

TEST(ScopedTimer, NullTimerIsANoOp) {
  { obs::ScopedTimer t(nullptr); }  // must not crash or record anywhere
  obs::Timer timer;
  { obs::ScopedTimer t(&timer); }
  EXPECT_EQ(timer.Snapshot().count, 1u);
}

// ---------------------------------------------------------------- trace ---

TEST(TraceSink, JsonLinesFormatIsParseableAndValid) {
  std::ostringstream out;
  obs::JsonLinesTraceSink sink(&out);
  obs::Tracer tracer;
  tracer.set_sink(&sink);
  ASSERT_TRUE(tracer.enabled());
  tracer.Emit(obs::TraceEvent("fire").Str("rule", "r\"1").Num("rows", 2));
  tracer.Emit(obs::TraceEvent("cycle_end").Num("cycle", 0));
  std::istringstream lines(out.str());
  std::string line;
  uint64_t expected_seq = 1;
  while (std::getline(lines, line)) {
    Result<obs::JsonValue> doc = obs::ParseJson(line);
    ASSERT_TRUE(doc.ok()) << line;
    ASSERT_TRUE(obs::ValidateTraceLine(*doc).ok()) << line;
    EXPECT_EQ(doc->Find("seq")->number, static_cast<double>(expected_seq));
    ++expected_seq;
  }
  EXPECT_EQ(expected_seq, 3u);
}

TEST(TraceSink, TextFormatIsHumanReadable) {
  std::ostringstream out;
  obs::TextTraceSink sink(&out);
  obs::Tracer tracer;
  tracer.set_sink(&sink);
  tracer.Emit(obs::TraceEvent("fire").Str("rule", "r1").Num("rows", 2));
  EXPECT_EQ(out.str(), "[1] fire rule=r1 rows=2\n");
}

TEST(Tracer, DisabledTracerDropsEvents) {
  obs::Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.Emit(obs::TraceEvent("fire"));  // no sink: must be safe
}

// ----------------------------------------------------------------- json ---

TEST(Json, EscapeAndNumberFormats) {
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(obs::JsonEscape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(obs::JsonNumber(42), "42");
  EXPECT_EQ(obs::JsonNumber(2.5), "2.5");
}

TEST(Json, ParseRoundTrip) {
  Result<obs::JsonValue> doc = obs::ParseJson(
      R"({"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5e1}})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("a")->number, 1);
  ASSERT_TRUE(doc->Find("b")->is_array());
  EXPECT_EQ(doc->Find("b")->items.size(), 3u);
  EXPECT_EQ(doc->Find("b")->items[2].string, "x\n");
  EXPECT_EQ(doc->Find("c")->Find("d")->number, -25);
}

TEST(Json, ParseErrorsCarryOffset) {
  Result<obs::JsonValue> doc = obs::ParseJson("{\"a\": }");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().ToString().find("json parse error"),
            std::string::npos);
  EXPECT_FALSE(obs::ParseJson("").ok());
  EXPECT_FALSE(obs::ParseJson("{\"a\": 1} trailing").ok());
}

TEST(Json, ValidateBenchReportAcceptsRealReportOutput) {
  bench::JsonReport report("demo");
  report.Config("n", 4);
  report.BeginRow("row \"quoted\"");
  report.Value("x", 1.5);
  std::ostringstream out;
  report.WriteTo(out);
  Result<obs::JsonValue> doc = obs::ParseJson(out.str());
  ASSERT_TRUE(doc.ok()) << out.str();
  EXPECT_TRUE(obs::ValidateBenchReport(*doc).ok());
  // A row without a label must be rejected.
  Result<obs::JsonValue> bad = obs::ParseJson(
      R"({"bench": "b", "config": {}, "results": [{"x": 1}]})");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(obs::ValidateBenchReport(*bad).ok());
}

// ----------------------------------------------------- engine integration ---

constexpr const char* kSeating =
    "(literalize player name team score)"
    "(p cap { (player ^score > 4) <p> } --> (modify <p> ^score 4))"
    "(p zero-team { [player ^team <t> ^score <s>] <P> } :scalar (<t>)"
    " :test ((sum <s>) > 8) --> (set-modify <P> ^score 0))";

void LoadSeatingWorkload(Engine& engine) {
  MustLoad(engine, kSeating);
  static const char* kTeams[] = {"A", "B", "C"};
  for (int i = 0; i < 12; ++i) {
    MustMake(engine, "player", {{"name", engine.Sym("p" + std::to_string(i))},
                                {"team", engine.Sym(kTeams[i % 3])},
                                {"score", Value::Int(5)}});
  }
  MustRun(engine, 24);
}

TEST(EngineObs, ProfileReportsPhaseAndRuleTimers) {
  EngineOptions opts;
  opts.enable_timers = true;
  Engine engine(opts);
  std::ostringstream sink;
  engine.set_output(&sink);
  LoadSeatingWorkload(engine);
  ASSERT_GT(engine.run_stats().firings, 0u);

  std::map<std::string, obs::TimerSnapshot> timers =
      engine.metrics().SnapshotTimers();
  EXPECT_GT(timers["phase.match"].count, 0u);
  EXPECT_GT(timers["phase.select"].count, 0u);
  EXPECT_GT(timers["phase.act"].count, 0u);
  EXPECT_GT(timers["rule.cap"].count, 0u);

  std::ostringstream profile;
  engine.Profile(profile);
  EXPECT_NE(profile.str().find("phase.match"), std::string::npos);
  EXPECT_NE(profile.str().find("phase.select"), std::string::npos);
  EXPECT_NE(profile.str().find("phase.act"), std::string::npos);
  EXPECT_NE(profile.str().find("rule.cap"), std::string::npos);
  EXPECT_NE(profile.str().find("rule.zero-team"), std::string::npos);
  // The arena/memory gauges print as a "memory" section.
  EXPECT_NE(profile.str().find("memory"), std::string::npos);
  EXPECT_NE(profile.str().find("rete.token_arena_bytes"), std::string::npos);
  EXPECT_NE(profile.str().find("rete.alpha_bytes"), std::string::npos);
  EXPECT_NE(profile.str().find("wm.arena_bytes"), std::string::npos);
}

TEST(EngineObs, MemoryGaugesTrackArenas) {
  Engine engine;
  std::ostringstream sink;
  engine.set_output(&sink);
  LoadSeatingWorkload(engine);
  std::map<std::string, double> gauges = engine.metrics().SnapshotGauges();
  // WMEs were allocated from the slab pool and the Rete matcher built
  // alpha columns and token arenas for the seating rules.
  EXPECT_GT(gauges["wm.arena_bytes"], 0.0);
  EXPECT_GT(gauges["rete.alpha_bytes"], 0.0);
  EXPECT_GT(gauges["rete.token_arena_bytes"], 0.0);
  // Even with timers off, Profile surfaces the memory section.
  std::ostringstream profile;
  engine.Profile(profile);
  EXPECT_NE(profile.str().find("wm.arena_bytes"), std::string::npos);
}

TEST(EngineObs, ProfileWithoutTimersPointsAtTheFlag) {
  Engine engine;
  std::ostringstream profile;
  engine.Profile(profile);
  EXPECT_NE(profile.str().find("enable_timers"), std::string::npos);
  // And no timers exist at all: the hot paths never installed any.
  EXPECT_TRUE(engine.metrics().SnapshotTimers().empty());
}

TEST(EngineObs, RunEmitsWellFormedTraceStream) {
  std::ostringstream events;
  obs::JsonLinesTraceSink sink(&events);
  EngineOptions opts;
  opts.trace_sink = &sink;
  Engine engine(opts);
  std::ostringstream out;
  engine.set_output(&out);
  LoadSeatingWorkload(engine);
  ASSERT_GT(engine.run_stats().firings, 0u);

  std::map<std::string, int> by_type;
  std::istringstream lines(events.str());
  std::string line;
  while (std::getline(lines, line)) {
    Result<obs::JsonValue> doc = obs::ParseJson(line);
    ASSERT_TRUE(doc.ok()) << line;
    ASSERT_TRUE(obs::ValidateTraceLine(*doc).ok()) << line;
    ++by_type[doc->Find("ev")->string];
  }
  uint64_t firings = engine.run_stats().firings;
  EXPECT_EQ(by_type["cycle_begin"], static_cast<int>(firings));
  EXPECT_EQ(by_type["select"], static_cast<int>(firings));
  EXPECT_EQ(by_type["fire"], static_cast<int>(firings));
  EXPECT_EQ(by_type["rhs_apply"], static_cast<int>(firings));
  EXPECT_EQ(by_type["cycle_end"], static_cast<int>(firings));
  EXPECT_GT(by_type["batch_commit"], 0);
}

TEST(EngineObs, MatchStatsSnapshotAgreesWithComponents) {
  Engine engine;
  std::ostringstream sink;
  engine.set_output(&sink);
  LoadSeatingWorkload(engine);
  Engine::MatchStats s = engine.match_stats();
  // The registry views must read the exact component counters.
  EXPECT_EQ(s.rete.join_attempts,
            engine.rete_matcher()->stats().join_attempts);
  EXPECT_EQ(s.select.selects, engine.conflict_set().stats().selects);
  EXPECT_EQ(s.wm.adds, engine.wm().stats().adds);
  EXPECT_EQ(s.snode.test_evals, engine.snode("zero-team")->stats().test_evals);
  EXPECT_GT(s.rete.join_attempts, 0u);
  EXPECT_GT(s.snode.test_evals, 0u);
}

TEST(EngineObs, SetTraceSinkTogglesAtRunTime) {
  Engine engine;
  std::ostringstream out;
  engine.set_output(&out);
  MustLoad(engine, kSeating);
  std::ostringstream events;
  obs::JsonLinesTraceSink sink(&events);
  engine.set_trace_sink(&sink);
  MustMake(engine, "player", {{"name", engine.Sym("a")},
                              {"team", engine.Sym("A")},
                              {"score", Value::Int(9)}});
  MustRun(engine, 2);
  EXPECT_FALSE(events.str().empty());
  size_t seen = events.str().size();
  engine.set_trace_sink(nullptr);
  MustMake(engine, "player", {{"name", engine.Sym("b")},
                              {"team", engine.Sym("B")},
                              {"score", Value::Int(9)}});
  MustRun(engine, 2);
  EXPECT_EQ(events.str().size(), seen);
}

}  // namespace
}  // namespace sorel

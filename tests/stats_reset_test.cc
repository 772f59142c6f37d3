// Regression test for Engine::ResetMatchStats: every counter a benchmark
// can read — MatchStats sources, run_stats(), rhs_stats(),
// parallel_stats(), and the worker-pool counters — must be zero after a
// reset, so a measured phase is never polluted by its setup.
//
// The core check is a registry sweep, not a hand-kept field list: the
// engine's MetricRegistry enumerates every registered counter by name, so
// a counter added to any component is covered the moment its constructor
// registers it — including counters this file has never heard of (a
// test-registered canary proves that). The explicit MatchStats field
// checks below it pin the view-struct plumbing on top.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "tests/test_util.h"

namespace sorel {
namespace {

constexpr const char* kProgram =
    "(literalize player name team score)"
    "(p cap { (player ^score > 4) <p> } --> (modify <p> ^score 4))"
    "(p purge-c (player ^team C ^name <n>) --> (remove 1))"
    "(p pair (player ^name <n> ^team A) (player ^name <n> ^team B)"
    " --> (write pair))"
    "(p zero-team { [player ^team <t> ^score <s>] <P> } :scalar (<t>)"
    " :test ((sum <s>) > 8) --> (set-modify <P> ^score 0))";

constexpr const char* kTreatProgram =
    "(literalize player name team score)"
    "(p cap { (player ^score > 4) <p> } --> (modify <p> ^score 4))"
    "(p purge-c (player ^team C ^name <n>) --> (remove 1))"
    "(p pair (player ^name <n> ^team A) (player ^name <n> ^team B)"
    " --> (write pair))";

/// Loads a workload that bumps counters in every stats source, then
/// resets and checks all of them read zero.
void CheckReset(MatcherKind matcher, int threads) {
  SCOPED_TRACE("matcher=" + std::to_string(static_cast<int>(matcher)) +
               " threads=" + std::to_string(threads));
  EngineOptions opts;
  opts.matcher = matcher;
  opts.match_threads = threads;
  // Give the plan matcher a cost-relevant order so its optimizer counters
  // (est_cardinality_error and friends) actually move before the reset.
  if (matcher == MatcherKind::kPlan) opts.join_order = JoinOrder::kOptimized;
  Engine engine(opts);
  std::ostringstream sink;
  engine.set_output(&sink);
  const bool tuple_only =
      matcher == MatcherKind::kTreat || matcher == MatcherKind::kPlan;
  MustLoad(engine, tuple_only ? kTreatProgram : kProgram);
  static const char* kNames[] = {"ann", "bob", "cyd"};
  static const char* kTeams[] = {"A", "B", "C"};
  for (int i = 0; i < 12; ++i) {
    MustMake(engine, "player", {{"name", engine.Sym(kNames[i % 3])},
                                {"team", engine.Sym(kTeams[i % 3])},
                                {"score", Value::Int(5)}});
  }
  MustRun(engine, 16);
  ASSERT_GT(engine.run_stats().firings, 0u);

  // Canary: a counter registered from outside the engine (the way a future
  // component would) must be swept by the same reset. If the registry ever
  // went back to a hand-kept reset list, this is the counter the list
  // would not know about.
  uint64_t canary = 7;
  int canary_owner = 0;
  engine.metrics().RegisterCounter(&canary_owner, "test.canary",
                                   [&canary] { return canary; });
  engine.metrics().RegisterReset(&canary_owner, [&canary] { canary = 0; });

  // Before the reset, the workload must have left tracks: at least one
  // registered counter nonzero (proves the sweep below isn't vacuous).
  std::map<std::string, uint64_t> before = engine.metrics().SnapshotCounters();
  uint64_t total_before = 0;
  for (const auto& [name, value] : before) total_before += value;
  ASSERT_GT(total_before, 0u);

  engine.ResetMatchStats();

  // The registry sweep: every counter any component registered — whatever
  // its name — reads zero after the reset, except pool.threads, which is a
  // property of the pool rather than of the measured phase.
  std::map<std::string, uint64_t> after = engine.metrics().SnapshotCounters();
  for (const std::string& name : engine.metrics().CounterNames()) {
    if (name == "pool.threads") {
      EXPECT_EQ(after[name], static_cast<uint64_t>(threads)) << name;
    } else {
      EXPECT_EQ(after[name], 0u) << "counter '" << name
                                 << "' survived ResetMatchStats";
    }
  }
  EXPECT_EQ(canary, 0u) << "registry reset missed the canary hook";
  engine.metrics().Unregister(&canary_owner);

  Engine::MatchStats s = engine.match_stats();

  // ReteStats.
  EXPECT_EQ(s.rete.join_attempts, 0u);
  EXPECT_EQ(s.rete.index_probes, 0u);
  EXPECT_EQ(s.rete.tokens_created, 0u);
  EXPECT_EQ(s.rete.tokens_deleted, 0u);
  EXPECT_EQ(s.rete.right_activations, 0u);
  EXPECT_EQ(s.rete.batches, 0u);
  EXPECT_EQ(s.rete.token_pool_hits, 0u);
  EXPECT_EQ(s.rete.parallel_batches, 0u);
  EXPECT_EQ(s.rete.replay_tasks, 0u);
  // ConflictSet::Stats.
  EXPECT_EQ(s.select.selects, 0u);
  EXPECT_EQ(s.select.comparisons, 0u);
  // SNode::Stats (aggregated).
  EXPECT_EQ(s.snode.tokens, 0u);
  EXPECT_EQ(s.snode.sends_plus, 0u);
  EXPECT_EQ(s.snode.sends_minus, 0u);
  EXPECT_EQ(s.snode.sends_time, 0u);
  EXPECT_EQ(s.snode.sois_created, 0u);
  EXPECT_EQ(s.snode.sois_deleted, 0u);
  EXPECT_EQ(s.snode.test_evals, 0u);
  EXPECT_EQ(s.snode.batch_flushes, 0u);
  // TreatMatcher::Stats.
  EXPECT_EQ(s.treat.seeded_searches, 0u);
  EXPECT_EQ(s.treat.full_searches, 0u);
  EXPECT_EQ(s.treat.batches, 0u);
  EXPECT_EQ(s.treat.coalesced_researches, 0u);
  // DipsMatcher::Stats.
  EXPECT_EQ(s.dips.refreshes, 0u);
  EXPECT_EQ(s.dips.batches, 0u);
  // PlanMatcher::Stats.
  EXPECT_EQ(s.plan.join_attempts, 0u);
  EXPECT_EQ(s.plan.reorders, 0u);
  EXPECT_EQ(s.plan.est_cardinality_error, 0u);
  EXPECT_EQ(s.plan.index_builds, 0u);
  EXPECT_EQ(s.plan.seeded_searches, 0u);
  EXPECT_EQ(s.plan.full_searches, 0u);
  EXPECT_EQ(s.plan.batches, 0u);
  // WorkingMemory::Stats.
  EXPECT_EQ(s.wm.adds, 0u);
  EXPECT_EQ(s.wm.removes, 0u);
  EXPECT_EQ(s.wm.batches, 0u);
  EXPECT_EQ(s.wm.batched_changes, 0u);
  EXPECT_EQ(s.wm.rollbacks, 0u);
  EXPECT_EQ(s.wm.changes_rolled_back, 0u);
  // ThreadPool::Stats: the measured-phase counters reset; `threads` is a
  // property of the pool, not of the phase.
  EXPECT_EQ(s.pool.tasks, 0u);
  EXPECT_EQ(s.pool.batches, 0u);
  EXPECT_EQ(s.pool.max_task_depth, 0u);
  EXPECT_EQ(s.pool.threads, static_cast<uint64_t>(threads));
  // RunStats.
  EXPECT_EQ(engine.run_stats().firings, 0u);
  EXPECT_EQ(engine.run_stats().actions, 0u);
  EXPECT_TRUE(engine.run_stats().firings_by_rule.empty());
  EXPECT_EQ(engine.run_stats().match.rete.join_attempts, 0u);
  // RhsExecutor::Stats.
  EXPECT_EQ(engine.rhs_stats().firings, 0u);
  EXPECT_EQ(engine.rhs_stats().actions, 0u);
  EXPECT_EQ(engine.rhs_stats().wmes_made, 0u);
  EXPECT_EQ(engine.rhs_stats().wmes_removed, 0u);
  EXPECT_EQ(engine.rhs_stats().skipped_dead_targets, 0u);
  // ParallelStats.
  EXPECT_EQ(engine.parallel_stats().cycles, 0u);
  EXPECT_EQ(engine.parallel_stats().firings, 0u);
  EXPECT_EQ(engine.parallel_stats().largest_batch, 0u);
  EXPECT_EQ(engine.parallel_stats().conflicts, 0u);

  // The engine still works after a reset and counts from zero.
  MustMake(engine, "player", {{"name", engine.Sym("eve")},
                              {"team", engine.Sym("C")},
                              {"score", Value::Int(5)}});
  MustRun(engine, 4);
  EXPECT_GT(engine.run_stats().firings, 0u);
}

TEST(StatsResetTest, Rete) { CheckReset(MatcherKind::kRete, 0); }
TEST(StatsResetTest, ReteThreaded) { CheckReset(MatcherKind::kRete, 2); }
TEST(StatsResetTest, Treat) { CheckReset(MatcherKind::kTreat, 0); }
TEST(StatsResetTest, TreatThreaded) { CheckReset(MatcherKind::kTreat, 2); }
TEST(StatsResetTest, Dips) { CheckReset(MatcherKind::kDips, 0); }
TEST(StatsResetTest, DipsThreaded) { CheckReset(MatcherKind::kDips, 2); }
TEST(StatsResetTest, Plan) { CheckReset(MatcherKind::kPlan, 0); }
TEST(StatsResetTest, PlanThreaded) { CheckReset(MatcherKind::kPlan, 2); }

}  // namespace
}  // namespace sorel

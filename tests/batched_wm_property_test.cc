// Batch-granularity equivalence: every working-memory change reaches the
// matchers as a ChangeBatch, and how client changes are grouped into
// batches must not be observable. One engine commits each client op on its
// own (an implicit one-op transaction); the other groups the same ops into
// random-size transactions, so the matchers see multi-change batches
// (S-nodes evaluate `:test` once per touched SOI, TREAT coalesces
// re-searches, DIPS refreshes once per rule). At every run both must agree
// bit for bit: same firing sequence (rule + recency tags), same conflict
// set, same final working memory, same time-tag counter. Checked for every
// matcher × strategy over random op sequences with WM-mutating rules, set
// rules included on Rete and DIPS.
//
// A group closes before it would remove a WME it made itself: such a pair
// nets out of the batch by design (the WME was never observable), while
// committed one per op it is observable — a fired SOI it joins and leaves
// becomes eligible again.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace sorel {
namespace {

/// Deterministic LCG so failures reproduce.
class Rng {
 public:
  explicit Rng(unsigned seed) : state_(seed * 2654435761u + 12345u) {}
  unsigned Next(unsigned bound) {
    state_ = state_ * 1664525u + 1013904223u;
    return (state_ >> 16) % bound;
  }

 private:
  unsigned state_;
};

constexpr std::string_view kSchema = "(literalize player name team score)";

// Tuple-oriented mutating rules: every matcher (TREAT included) runs these.
// Each one drains its own trigger, so capped runs terminate.
constexpr const char* kTupleRules =
    "(p cap { (player ^score > 4) <p> } --> (modify <p> ^score 4))"
    "(p purge-c (player ^team C ^name <n>) --> (remove 1))"
    "(p lone-b { (player ^team B ^name <n>) <p> }"
    " - (player ^team A ^name <n>) --> (modify <p> ^team A))";

// Set-oriented mutating rules (Rete and DIPS only; TREAT and plan reject
// set CEs). Scores are 0..5, so a passing SOI always has >= 2 members —
// its recency tags can never tie with a single-CE instantiation's.
constexpr const char* kSetRules =
    "(p zero-team { [player ^team <t> ^score <s>] <P> } :scalar (<t>)"
    " :test ((sum <s>) > 8) --> (set-modify <P> ^score 0))";

/// Canonical conflict-set fingerprint (rule name + sorted row signatures).
std::multiset<std::string> Fingerprint(Engine& engine) {
  std::multiset<std::string> out;
  for (InstantiationRef* inst : engine.conflict_set().Entries()) {
    std::vector<Row> rows;
    inst->CollectRows(&rows);
    std::vector<std::string> row_sigs;
    for (const Row& row : rows) {
      std::string sig;
      for (const WmePtr& w : row) {
        sig += std::to_string(w->time_tag());
        sig += ",";
      }
      row_sigs.push_back(std::move(sig));
    }
    std::sort(row_sigs.begin(), row_sigs.end());
    std::string entry = inst->rule().name + "{";
    for (const std::string& s : row_sigs) entry += s + ";";
    entry += "}";
    out.insert(std::move(entry));
  }
  return out;
}

std::string Dump(Engine& engine) {
  std::ostringstream out;
  engine.DumpWm(out);
  return out.str();
}

/// Drives a one-op-per-batch engine and a grouped engine through the same
/// random add / remove / run schedule and asserts bit-identical behavior
/// at every run.
void CheckEquivalence(MatcherKind matcher, Strategy strategy, unsigned seed,
                      bool with_set_rules) {
  std::ostringstream single_trace, grouped_trace;
  EngineOptions opts;
  opts.matcher = matcher;
  opts.strategy = strategy;
  opts.trace_firings = true;
  Engine single(opts), grouped(opts);
  single.set_output(&single_trace);
  grouped.set_output(&grouped_trace);
  std::string program = std::string(kSchema) + kTupleRules;
  if (with_set_rules) program += kSetRules;
  MustLoad(single, program);
  MustLoad(grouped, program);

  Rng rng(seed);
  WorkingMemory& gwm = grouped.wm();
  unsigned group_left = 0;
  std::set<TimeTag> made_in_group;
  auto close_group = [&] {
    if (gwm.InTransaction()) {
      ASSERT_TRUE(gwm.Commit().ok());
    }
    made_in_group.clear();
  };
  auto open_group = [&] {
    if (gwm.InTransaction()) return;
    gwm.Begin();
    group_left = 1 + rng.Next(5);
  };
  static const char* kNames[] = {"ann", "bob", "cyd", "dee"};
  static const char* kTeams[] = {"A", "B", "C"};
  for (int step = 0; step < 40; ++step) {
    // Rule firings mutate the WM, so removal targets come from the live
    // snapshot, not a remembered tag list. Reads inside the open group see
    // its staged changes, so both engines see the same snapshot.
    std::vector<WmePtr> snap = single.wm().Snapshot();
    if (!snap.empty() && rng.Next(4) == 0) {
      TimeTag tag = snap[rng.Next(static_cast<unsigned>(snap.size()))]
                        ->time_tag();
      if (made_in_group.count(tag) != 0) close_group();
      open_group();
      ASSERT_NE(grouped.wm().Find(tag), nullptr) << "step " << step;
      ASSERT_TRUE(single.RemoveWme(tag).ok());
      ASSERT_TRUE(grouped.RemoveWme(tag).ok());
    } else {
      const char* name = kNames[rng.Next(4)];
      const char* team = kTeams[rng.Next(3)];
      auto score = static_cast<int64_t>(rng.Next(6));
      open_group();
      TimeTag made = 0;
      for (Engine* e : {&single, &grouped}) {
        auto r = e->MakeWme("player", {{"name", e->Sym(name)},
                                       {"team", e->Sym(team)},
                                       {"score", Value::Int(score)}});
        ASSERT_TRUE(r.ok());
        made = *r;
      }
      made_in_group.insert(made);
    }
    if (--group_left == 0) close_group();
    if (step % 4 == 3) {
      close_group();
      ASSERT_EQ(Fingerprint(single), Fingerprint(grouped)) << "step " << step;
      int fired_single = MustRun(single, 8);
      int fired_grouped = MustRun(grouped, 8);
      ASSERT_EQ(fired_single, fired_grouped) << "step " << step;
      ASSERT_EQ(single_trace.str(), grouped_trace.str()) << "step " << step;
      ASSERT_EQ(Fingerprint(single), Fingerprint(grouped)) << "step " << step;
      // Identical firing sequence implies identical modifies, so the
      // monotone tag counters must agree too.
      ASSERT_EQ(single.wm().next_time_tag(), grouped.wm().next_time_tag())
          << "step " << step;
      ASSERT_EQ(Dump(single), Dump(grouped)) << "step " << step;
    }
  }
  // The grouping really took: the client ops reached the grouped engine's
  // matchers in fewer, larger batches.
  EXPECT_EQ(single.wm().stats().adds, grouped.wm().stats().adds);
  EXPECT_LT(grouped.wm().stats().batches, single.wm().stats().batches);
}

class BatchGranularity : public ::testing::TestWithParam<int> {};

TEST_P(BatchGranularity, ReteLex) {
  CheckEquivalence(MatcherKind::kRete, Strategy::kLex,
                   static_cast<unsigned>(GetParam()), true);
}

TEST_P(BatchGranularity, ReteMea) {
  CheckEquivalence(MatcherKind::kRete, Strategy::kMea,
                   static_cast<unsigned>(GetParam()) + 100u, true);
}

TEST_P(BatchGranularity, TreatLex) {
  CheckEquivalence(MatcherKind::kTreat, Strategy::kLex,
                   static_cast<unsigned>(GetParam()) + 200u, false);
}

TEST_P(BatchGranularity, TreatMea) {
  CheckEquivalence(MatcherKind::kTreat, Strategy::kMea,
                   static_cast<unsigned>(GetParam()) + 300u, false);
}

TEST_P(BatchGranularity, PlanLex) {
  CheckEquivalence(MatcherKind::kPlan, Strategy::kLex,
                   static_cast<unsigned>(GetParam()) + 600u, false);
}

TEST_P(BatchGranularity, PlanMea) {
  CheckEquivalence(MatcherKind::kPlan, Strategy::kMea,
                   static_cast<unsigned>(GetParam()) + 700u, false);
}

TEST_P(BatchGranularity, DipsLex) {
  CheckEquivalence(MatcherKind::kDips, Strategy::kLex,
                   static_cast<unsigned>(GetParam()) + 400u, true);
}

TEST_P(BatchGranularity, DipsMea) {
  CheckEquivalence(MatcherKind::kDips, Strategy::kMea,
                   static_cast<unsigned>(GetParam()) + 500u, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchGranularity, ::testing::Range(0, 8));

}  // namespace
}  // namespace sorel

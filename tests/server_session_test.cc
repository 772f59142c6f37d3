// Session-level server tests: two interleaved sessions never observe each
// other (swept across matchers and match-thread counts), WAL-only recovery
// is bit-identical (working memory, tag counter, conflict set with
// refraction flags, metric counters, output, trace), snapshots restore
// state equivalence including refraction, and the transactional edge cases
// (empty-netted commits, run-inside-transaction) behave as documented.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "server/session.h"
#include "server/wal.h"
#include "server_test_util.h"

namespace sorel {
namespace server {
namespace {

constexpr const char* kTupleRules = R"(
(literalize item id cat val)
(p promote { (item ^cat A ^val <v>) <i> } -->
  (modify <i> ^cat B ^val (compute <v> * 2))
  (write promoted <v> (crlf)))
(p chain (item ^cat B ^val <v>) { (item ^cat C ^val <v>) <c> } -->
  (remove <c>)
  (write chained <v> (crlf)))
)";

Value Sym(Session& s, const char* text) {
  return Value::Symbol(s.engine().symbols().Intern(text));
}

TimeTag MustMake(Session& s, const char* cat, int64_t id, int64_t val) {
  auto tag = s.Make("item", {{"id", Value::Int(id)},
                             {"cat", Sym(s, cat)},
                             {"val", Value::Int(val)}});
  EXPECT_TRUE(tag.ok()) << tag.status().ToString();
  return *tag;
}

/// The fixed command stream the isolation test runs per session — makes,
/// runs, a client transaction, and client-side removes/modifies of `C`
/// items (which no rule rewrites, so client-held tags stay valid).
void DriveStream(Session& s, int64_t base) {
  MustMake(s, "A", 1, base + 1);
  TimeTag c1 = MustMake(s, "C", 2, base + 2);
  MustMake(s, "A", 3, base + 3);
  ASSERT_TRUE(s.Run(-1).ok());
  TimeTag c2 = MustMake(s, "C", 4, base + 4);
  auto modified = s.Modify(c2, {{"val", Value::Int(base + 40)}});
  ASSERT_TRUE(modified.ok());
  ASSERT_TRUE(s.Remove(c1).ok());
  ASSERT_TRUE(s.Begin().ok());
  MustMake(s, "A", 5, base + 5);
  MustMake(s, "C", 6, 2 * (base + 5));  // matches `chain` after promote
  ASSERT_TRUE(s.Commit().ok());
  ASSERT_TRUE(s.Run(-1).ok());
}

struct SweepConfig {
  MatcherKind matcher;
  const char* name;
  int threads;
};

const SweepConfig kSweep[] = {
    {MatcherKind::kRete, "rete", 0},  {MatcherKind::kRete, "rete", 4},
    {MatcherKind::kTreat, "treat", 0}, {MatcherKind::kTreat, "treat", 4},
    {MatcherKind::kPlan, "plan", 0},  {MatcherKind::kPlan, "plan", 4},
};

TEST(SessionIsolationTest, InterleavedSessionsMatchSoloRuns) {
  for (const SweepConfig& config : kSweep) {
    SCOPED_TRACE(std::string(config.name) + " threads=" +
                 std::to_string(config.threads));
    TempDir dir;
    SessionOptions options;
    options.matcher = config.matcher;
    options.match_threads = config.threads;

    // Two sessions, commands interleaved step by step.
    auto a = Session::Open("a", kTupleRules, dir.path(), options);
    auto b = Session::Open("b", kTupleRules, dir.path(), options);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    {
      // DriveStream's command order per session, interleaved across the
      // two sessions (each session's own order is preserved — only the
      // cross-session scheduling varies).
      Session& sa = **a;
      Session& sb = **b;
      MustMake(sa, "A", 1, 101);
      MustMake(sb, "A", 1, 201);
      TimeTag ca = MustMake(sa, "C", 2, 102);
      TimeTag cb = MustMake(sb, "C", 2, 202);
      MustMake(sa, "A", 3, 103);
      MustMake(sb, "A", 3, 203);
      ASSERT_TRUE(sb.Run(-1).ok());
      ASSERT_TRUE(sa.Run(-1).ok());
      TimeTag ca2 = MustMake(sa, "C", 4, 104);
      TimeTag cb2 = MustMake(sb, "C", 4, 204);
      ASSERT_TRUE(sa.Modify(ca2, {{"val", Value::Int(140)}}).ok());
      ASSERT_TRUE(sb.Modify(cb2, {{"val", Value::Int(240)}}).ok());
      ASSERT_TRUE(sb.Remove(cb).ok());
      ASSERT_TRUE(sa.Remove(ca).ok());
      ASSERT_TRUE(sa.Begin().ok());
      MustMake(sa, "A", 5, 105);
      ASSERT_TRUE(sb.Begin().ok());
      MustMake(sb, "A", 5, 205);
      MustMake(sa, "C", 6, 210);
      MustMake(sb, "C", 6, 410);
      ASSERT_TRUE(sb.Commit().ok());
      ASSERT_TRUE(sa.Commit().ok());
      ASSERT_TRUE(sa.Run(-1).ok());
      ASSERT_TRUE(sb.Run(-1).ok());
    }

    // Solo references: the same per-session command streams, no
    // interleaving (and note DriveStream's order is the contiguous version
    // of the interleaved order above).
    TempDir solo_dir;
    auto ra = Session::Open("a", kTupleRules, solo_dir.path(), options);
    auto rb = Session::Open("b", kTupleRules, solo_dir.path(), options);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    DriveStream(**ra, 100);
    DriveStream(**rb, 200);

    Fingerprint fa = Capture(**a);
    Fingerprint fb = Capture(**b);
    EXPECT_TRUE(fa == Capture(**ra)) << "session a diverged from solo run";
    EXPECT_TRUE(fb == Capture(**rb)) << "session b diverged from solo run";
    // And the two sessions genuinely hold different state (the isolation
    // check is not vacuous).
    EXPECT_NE(fa.dump, fb.dump);
    EXPECT_EQ((*a)->DrainOutput(), (*ra)->DrainOutput());
    EXPECT_EQ((*b)->DrainOutput(), (*rb)->DrainOutput());
  }
}

TEST(SessionRecoveryTest, WalOnlyRecoveryIsBitIdentical) {
  for (const SweepConfig& config : kSweep) {
    SCOPED_TRACE(std::string(config.name) + " threads=" +
                 std::to_string(config.threads));
    TempDir dir;
    SessionOptions options;
    options.matcher = config.matcher;
    options.match_threads = config.threads;
    options.capture_trace = true;

    std::string live_out, live_trace;
    Fingerprint live;
    {
      auto session = Session::Open("s", kTupleRules, dir.path(), options);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      DriveStream(**session, 300);
      live = Capture(**session);
      live_out = (*session)->DrainOutput();
      live_trace = (*session)->DrainTrace();
    }

    auto recovered = Session::Open("s", kTupleRules, dir.path(), options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_FALSE((*recovered)->recovery().had_snapshot);
    EXPECT_GT((*recovered)->recovery().replayed_records, 0u);
    EXPECT_EQ((*recovered)->recovery().torn_bytes, 0u);

    Fingerprint after = Capture(**recovered);
    EXPECT_EQ(after.dump, live.dump);
    EXPECT_EQ(after.next_tag, live.next_tag);
    EXPECT_EQ(after.cs, live.cs);
    EXPECT_EQ(after.counters, live.counters);  // counter bit-identity
    EXPECT_EQ((*recovered)->DrainOutput(), live_out);
    EXPECT_EQ((*recovered)->DrainTrace(), live_trace);
  }
}

TEST(SessionRecoveryTest, LsnsContinueAfterRecovery) {
  TempDir dir;
  uint64_t next_lsn;
  {
    auto session = Session::Open("s", kTupleRules, dir.path(), {});
    ASSERT_TRUE(session.ok());
    MustMake(**session, "C", 1, 1);
    MustMake(**session, "C", 2, 2);
    next_lsn = (*session)->next_lsn();
    EXPECT_EQ(next_lsn, 3u);  // one batch record per make
  }
  auto recovered = Session::Open("s", kTupleRules, dir.path(), {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->next_lsn(), next_lsn);
  MustMake(**recovered, "C", 3, 3);
  EXPECT_EQ((*recovered)->next_lsn(), next_lsn + 1);
}

TEST(SessionSnapshotTest, RestoreMatchesLiveState) {
  for (const SweepConfig& config : kSweep) {
    SCOPED_TRACE(std::string(config.name) + " threads=" +
                 std::to_string(config.threads));
    TempDir dir;
    SessionOptions options;
    options.matcher = config.matcher;
    options.match_threads = config.threads;

    Fingerprint live;
    std::string live_continuation;
    {
      auto session = Session::Open("s", kTupleRules, dir.path(), options);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      DriveStream(**session, 500);
      // Leave an eligible entry in the conflict set (snapshot must carry
      // unfired entries too, not just fired flags).
      MustMake(**session, "A", 9, 999);
      ASSERT_TRUE((*session)->TakeSnapshot().ok());
      // The WAL file was truncated (writer stats stay cumulative).
      auto truncated = ReadWal((*session)->wal_path());
      ASSERT_TRUE(truncated.ok());
      EXPECT_TRUE(truncated->records.empty());
      live = Capture(**session);
      // What a continuation would do, from the live state.
      (void)(*session)->DrainOutput();
      ASSERT_TRUE((*session)->Run(-1).ok());
      live_continuation = (*session)->DrainOutput();
      // This session is abandoned — the run above was journaled, but the
      // recovery below reopens from a copy-free snapshot-only view only
      // when the WAL is gone; instead just verify against the *snapshot*
      // state by removing the post-snapshot WAL records.
    }
    // Drop the post-snapshot run record so recovery lands exactly on the
    // snapshot state.
    std::remove(((dir.path() + "/s.wal")).c_str());

    auto recovered = Session::Open("s", kTupleRules, dir.path(), options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE((*recovered)->recovery().had_snapshot);
    EXPECT_EQ((*recovered)->recovery().replayed_records, 0u);

    Fingerprint after = Capture(**recovered);
    EXPECT_EQ(after.dump, live.dump);
    EXPECT_EQ(after.next_tag, live.next_tag);
    EXPECT_EQ(after.cs, live.cs);  // refraction flags included

    // The restored session continues exactly as the live one would have.
    (void)(*recovered)->DrainOutput();
    ASSERT_TRUE((*recovered)->Run(-1).ok());
    EXPECT_EQ((*recovered)->DrainOutput(), live_continuation);
  }
}

TEST(SessionSnapshotTest, SnapshotPlusWalTailRecovers) {
  TempDir dir;
  Fingerprint live;
  {
    auto session = Session::Open("s", kTupleRules, dir.path(), {});
    ASSERT_TRUE(session.ok());
    MustMake(**session, "A", 1, 1);
    ASSERT_TRUE((*session)->Run(-1).ok());
    ASSERT_TRUE((*session)->TakeSnapshot().ok());
    // Post-snapshot history that only the WAL holds.
    MustMake(**session, "A", 2, 2);
    TimeTag c = MustMake(**session, "C", 3, 4);
    ASSERT_TRUE((*session)->Run(-1).ok());
    (void)(*session)->Remove(c);  // `chain` may have consumed it already
    live = Capture(**session);
  }
  auto recovered = Session::Open("s", kTupleRules, dir.path(), {});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->recovery().had_snapshot);
  EXPECT_GT((*recovered)->recovery().replayed_records, 0u);
  Fingerprint after = Capture(**recovered);
  EXPECT_EQ(after.dump, live.dump);
  EXPECT_EQ(after.next_tag, live.next_tag);
  EXPECT_EQ(after.cs, live.cs);
}

TEST(SessionSnapshotTest, FiredSoiRestoresIneligible) {
  // A set-oriented instantiation stays in the conflict set after firing,
  // flagged fired. The snapshot must bring it back ineligible — otherwise
  // the restored session re-fires a rule the live one already fired.
  constexpr const char* kSetRules = R"(
(literalize item id cat val)
(p total { [item ^cat A ^val <v>] <P> } :test ((count <P>) >= 1) -->
  (write total (crlf)))
)";
  TempDir dir;
  {
    auto session = Session::Open("s", kSetRules, dir.path(), {});
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    MustMake(**session, "A", 1, 5);
    MustMake(**session, "A", 2, 6);
    auto fired = (*session)->Run(-1);
    ASSERT_TRUE(fired.ok());
    EXPECT_EQ(*fired, 1);  // the SOI fired once and is now refracted
    EXPECT_EQ((*session)->engine().conflict_set().size(), 1u);
    EXPECT_EQ((*session)->engine().conflict_set().EligibleCount(), 0u);
    ASSERT_TRUE((*session)->TakeSnapshot().ok());
  }
  std::remove((dir.path() + "/s.wal").c_str());

  auto recovered = Session::Open("s", kSetRules, dir.path(), {});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->engine().conflict_set().size(), 1u);
  EXPECT_EQ((*recovered)->engine().conflict_set().EligibleCount(), 0u);
  (void)(*recovered)->DrainOutput();
  auto fired = (*recovered)->Run(-1);
  ASSERT_TRUE(fired.ok());
  EXPECT_EQ(*fired, 0);  // refraction survived the restore
  // ...until the set actually changes, which re-arms it.
  MustMake(**recovered, "A", 3, 7);
  fired = (*recovered)->Run(-1);
  ASSERT_TRUE(fired.ok());
  EXPECT_EQ(*fired, 1);
}

TEST(SessionTransactionTest, EmptyNettedCommitPreservesTagCounter) {
  TempDir dir;
  TimeTag live_next;
  {
    auto session = Session::Open("s", kTupleRules, dir.path(), {});
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->Begin().ok());
    TimeTag tag = MustMake(**session, "C", 1, 1);
    ASSERT_TRUE((*session)->Remove(tag).ok());
    ASSERT_TRUE((*session)->Commit().ok());  // nets to nothing
    live_next = (*session)->engine().wm().next_time_tag();
    EXPECT_GT(live_next, 1);  // the tag was consumed
    // The netted commit still journaled (an empty batch with the counter).
    EXPECT_EQ((*session)->wal_stats().records, 1u);
  }
  auto recovered = Session::Open("s", kTupleRules, dir.path(), {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->engine().wm().next_time_tag(), live_next);
}

TEST(SessionTransactionTest, RollbackLeavesNoWalRecord) {
  TempDir dir;
  auto session = Session::Open("s", kTupleRules, dir.path(), {});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->Begin().ok());
  MustMake(**session, "C", 1, 1);
  ASSERT_TRUE((*session)->Rollback().ok());
  EXPECT_EQ((*session)->wal_stats().records, 0u);
  EXPECT_FALSE((*session)->Rollback().ok());  // no open transaction
}

TEST(SessionTransactionTest, RunRefusedInsideTransaction) {
  TempDir dir;
  auto session = Session::Open("s", kTupleRules, dir.path(), {});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->Begin().ok());
  auto run = (*session)->Run(-1);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  // No WAL record was written for the refused run.
  EXPECT_EQ((*session)->wal_stats().records, 0u);
  ASSERT_TRUE((*session)->Rollback().ok());
  ASSERT_TRUE((*session)->Run(-1).ok());  // fine outside the transaction
}

TEST(SessionTransactionTest, SnapshotRefusedInsideTransaction) {
  TempDir dir;
  auto session = Session::Open("s", kTupleRules, dir.path(), {});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->Begin().ok());
  EXPECT_FALSE((*session)->TakeSnapshot().ok());
}

}  // namespace
}  // namespace server
}  // namespace sorel

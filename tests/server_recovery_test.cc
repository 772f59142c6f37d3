// Crash-recovery property test (the ISSUE's acceptance bar): drive a
// session through a fuzz-generated schedule, then simulate a kill at EVERY
// WAL record boundary by truncating a copy of the WAL there and reopening.
// The recovered session must be bit-identical — working memory dump, tag
// counter, conflict set with refraction flags, metric counters, and
// accumulated output — to the live session as of that record. A torn final
// record (cut mid-frame, or CRC-corrupted by a flipped byte) must be
// detected, dropped, and recovery land on the previous boundary's state.
//
// Swept across matchers (Rete with set-oriented rules; TREAT and the plan
// matcher with tuple-only programs) and match_threads {0, 4}.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "fuzz_gen.h"
#include "server/session.h"
#include "server/wal.h"
#include "server_test_util.h"

namespace sorel {
namespace server {
namespace {

using fuzz::FuzzOp;
using fuzz::FuzzRng;
using fuzz::GenProgram;
using fuzz::GenSchedule;
using fuzz::kCats;

/// Applies one schedule op through the session's journaled command surface.
/// Returns false when the op was a no-op (remove against an empty WM) and
/// therefore journaled nothing. Command errors are tolerated only where
/// they are deterministic (runs); makes and removes of live tags must
/// succeed.
bool ApplyOp(Session& session, const FuzzOp& op) {
  switch (op.kind) {
    case FuzzOp::Kind::kMake: {
      auto tag = session.Make(
          "item",
          {{"id", Value::Int(op.id)},
           {"cat",
            Value::Symbol(session.engine().symbols().Intern(kCats[op.cat]))},
           {"val", Value::Int(op.val)}});
      EXPECT_TRUE(tag.ok()) << tag.status().ToString();
      return true;
    }
    case FuzzOp::Kind::kRemove: {
      std::vector<WmePtr> live = session.engine().wm().Snapshot();
      if (live.empty()) return false;
      TimeTag victim = live[op.pick % live.size()]->time_tag();
      Status removed = session.Remove(victim);
      EXPECT_TRUE(removed.ok()) << removed.ToString();
      return true;
    }
    case FuzzOp::Kind::kRun: {
      // A deterministic runtime error (from a generated RHS) recurs
      // identically at recovery, so an error result is still one journaled,
      // replayable command.
      (void)session.Run(op.cap);
      return true;
    }
  }
  return false;
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, got);
  std::fclose(f);
  return out;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

struct Config {
  MatcherKind matcher;
  const char* name;
  bool allow_set;  // Rete takes set-oriented rules; TREAT/plan are
                   // tuple-only by design
  int threads;
};

const Config kConfigs[] = {
    {MatcherKind::kRete, "rete", true, 0},
    {MatcherKind::kRete, "rete", true, 4},
    {MatcherKind::kTreat, "treat", false, 0},
    {MatcherKind::kTreat, "treat", false, 4},
    {MatcherKind::kPlan, "plan", false, 0},
    {MatcherKind::kPlan, "plan", false, 4},
};

constexpr unsigned kSeeds[] = {11, 47};
constexpr int kSteps = 18;

class ServerRecoveryTest : public ::testing::Test {};

TEST_F(ServerRecoveryTest, KillAtEveryRecordBoundaryRecoversBitIdentically) {
  for (const Config& config : kConfigs) {
    for (unsigned seed : kSeeds) {
      FuzzRng rng(seed);
      std::string source = GenProgram(rng, config.allow_set).Source();
      std::vector<FuzzOp> schedule =
          GenSchedule(rng, kSteps, /*with_runs=*/true);
      SCOPED_TRACE(std::string(config.name) + " threads=" +
                   std::to_string(config.threads) + " seed=" +
                   std::to_string(seed) + "\nprogram:\n" + source +
                   "\nschedule:\n" + fuzz::ScheduleToString(schedule));

      SessionOptions options;
      options.matcher = config.matcher;
      options.match_threads = config.threads;

      // Drive the live session, fingerprinting after every journaled
      // command. fingerprints[k] = state once exactly k WAL records exist;
      // outputs[k] = everything written by then (startup included).
      TempDir live_dir;
      std::vector<Fingerprint> fingerprints;
      std::vector<std::string> outputs;
      std::vector<FuzzOp> executed;
      {
        auto session =
            Session::Open("s", source, live_dir.path(), options);
        ASSERT_TRUE(session.ok()) << session.status().ToString();
        std::string out = (*session)->DrainOutput();
        fingerprints.push_back(Capture(**session));
        outputs.push_back(out);
        for (const FuzzOp& op : schedule) {
          uint64_t before = (*session)->wal_stats().records;
          if (!ApplyOp(**session, op)) continue;
          // The boundary↔command mapping the cuts below rely on: every
          // executed command journals exactly one record.
          ASSERT_EQ((*session)->wal_stats().records, before + 1);
          executed.push_back(op);
          out += (*session)->DrainOutput();
          fingerprints.push_back(Capture(**session));
          outputs.push_back(out);
        }
        ASSERT_TRUE((*session)->SyncWal().ok());
      }
      ASSERT_GT(executed.size(), 0u);

      std::string wal_path = live_dir.path() + "/s.wal";
      std::string wal_bytes = ReadFileBytes(wal_path);
      auto wal = ReadWal(wal_path);
      ASSERT_TRUE(wal.ok()) << wal.status().ToString();
      ASSERT_EQ(wal->records.size(), executed.size());
      ASSERT_EQ(wal->torn_bytes, 0u);

      // Kill at every record boundary: cut k records' worth of bytes into
      // a fresh directory and recover.
      for (size_t k = 0; k <= executed.size(); ++k) {
        TempDir cut_dir;
        uint64_t cut =
            k == 0 ? 0 : wal->records[k - 1].end_offset;
        WriteFileBytes(cut_dir.path() + "/s.wal",
                       wal_bytes.substr(0, cut));
        auto recovered =
            Session::Open("s", source, cut_dir.path(), options);
        ASSERT_TRUE(recovered.ok())
            << "boundary " << k << ": " << recovered.status().ToString();
        EXPECT_EQ((*recovered)->recovery().replayed_records, k);
        EXPECT_EQ((*recovered)->recovery().torn_bytes, 0u);
        Fingerprint got = Capture(**recovered);
        EXPECT_TRUE(got == fingerprints[k])
            << "boundary " << k << ":\n"
            << DiffFingerprints(fingerprints[k], got);
        EXPECT_EQ((*recovered)->DrainOutput(), outputs[k])
            << "boundary " << k;

        // From the midpoint, also finish the schedule on the recovered
        // session: the continuation must land exactly where the live
        // session ended (remove picks resolve identically because the
        // states are identical).
        if (k == executed.size() / 2) {
          for (size_t i = k; i < executed.size(); ++i) {
            ASSERT_TRUE(ApplyOp(**recovered, executed[i]))
                << "continuation op " << i;
          }
          Fingerprint done = Capture(**recovered);
          EXPECT_TRUE(done == fingerprints.back())
              << "continuation from boundary " << k << ":\n"
              << DiffFingerprints(fingerprints.back(), done);
        }
      }

      // Torn final record: cut mid-frame. The tail is dropped (short, not
      // corrupt) and recovery lands on the previous boundary.
      {
        TempDir torn_dir;
        WriteFileBytes(torn_dir.path() + "/s.wal",
                       wal_bytes.substr(0, wal_bytes.size() - 3));
        auto recovered =
            Session::Open("s", source, torn_dir.path(), options);
        ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
        EXPECT_EQ((*recovered)->recovery().replayed_records,
                  executed.size() - 1);
        EXPECT_GT((*recovered)->recovery().torn_bytes, 0u);
        EXPECT_FALSE((*recovered)->recovery().crc_mismatch);
        Fingerprint got = Capture(**recovered);
        EXPECT_TRUE(got == fingerprints[executed.size() - 1])
            << DiffFingerprints(fingerprints[executed.size() - 1], got);
        // The torn tail was truncated away at open: a fresh command
        // appends cleanly and the WAL reads back intact.
        ASSERT_TRUE(ApplyOp(**recovered, executed.back()));
        ASSERT_TRUE((*recovered)->SyncWal().ok());
        auto reread = ReadWal(torn_dir.path() + "/s.wal");
        ASSERT_TRUE(reread.ok());
        EXPECT_EQ(reread->torn_bytes, 0u);
        EXPECT_EQ(reread->records.size(), executed.size());
      }

      // Torn final record, CRC flavor: flip a byte inside the last
      // record's payload. The CRC catches it, the record is dropped.
      {
        TempDir crc_dir;
        std::string corrupt = wal_bytes;
        corrupt.back() = static_cast<char>(corrupt.back() ^ 0x01);
        WriteFileBytes(crc_dir.path() + "/s.wal", corrupt);
        auto recovered =
            Session::Open("s", source, crc_dir.path(), options);
        ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
        EXPECT_EQ((*recovered)->recovery().replayed_records,
                  executed.size() - 1);
        EXPECT_TRUE((*recovered)->recovery().crc_mismatch);
        Fingerprint got = Capture(**recovered);
        EXPECT_TRUE(got == fingerprints[executed.size() - 1])
            << DiffFingerprints(fingerprints[executed.size() - 1], got);
      }
    }
  }
}

TEST_F(ServerRecoveryTest, SnapshotMidScheduleThenKillAtEveryTailBoundary) {
  // Same property with a snapshot in the middle: recovery = snapshot +
  // WAL-tail replay. State equivalence (dump, tags, conflict set, output
  // of the tail) is required at every boundary past the snapshot; counters
  // are excluded — a snapshot restore rebuilds match state wholesale, so
  // counter *history* is not replayed (a documented design decision).
  //
  // The schedule avoids conflict-set ties (distinct vals, single rule) so
  // restored selection order is deterministic.
  constexpr const char* kRules = R"(
(literalize item id cat val)
(p grow { (item ^cat A ^val <v>) <i> } -->
  (modify <i> ^cat B ^val (compute <v> + 100))
  (write grew <v> (crlf)))
)";
  for (const Config& config : kConfigs) {
    SCOPED_TRACE(std::string(config.name) + " threads=" +
                 std::to_string(config.threads));
    SessionOptions options;
    options.matcher = config.matcher;
    options.match_threads = config.threads;

    TempDir live_dir;
    std::vector<Fingerprint> fingerprints;  // after each post-snap record
    std::vector<std::string> tail_outputs;
    {
      auto session = Session::Open("s", kRules, live_dir.path(), options);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      Session& s = **session;
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(s.Make("item", {{"id", Value::Int(i)},
                                    {"cat", Value::Symbol(
                                                s.engine().symbols().Intern(
                                                    "A"))},
                                    {"val", Value::Int(10 + i)}})
                        .ok());
      }
      ASSERT_TRUE(s.Run(2).ok());
      ASSERT_TRUE(s.TakeSnapshot().ok());
      auto truncated = ReadWal(s.wal_path());
      ASSERT_TRUE(truncated.ok());
      ASSERT_TRUE(truncated->records.empty());
      (void)s.DrainOutput();

      std::string out;
      fingerprints.push_back(Capture(s));
      tail_outputs.push_back(out);
      auto record = [&](Status status) {
        ASSERT_TRUE(status.ok()) << status.ToString();
        out += s.DrainOutput();
        fingerprints.push_back(Capture(s));
        tail_outputs.push_back(out);
      };
      record(s.Make("item", {{"id", Value::Int(9)},
                             {"cat", Value::Symbol(
                                         s.engine().symbols().Intern("A"))},
                             {"val", Value::Int(50)}})
                 .status());
      record(s.Run(1).status());
      record(s.Run(-1).status());
      ASSERT_TRUE(s.SyncWal().ok());
    }

    std::string wal_bytes = ReadFileBytes(live_dir.path() + "/s.wal");
    std::string snap_bytes = ReadFileBytes(live_dir.path() + "/s.snap");
    auto wal = ReadWal(live_dir.path() + "/s.wal");
    ASSERT_TRUE(wal.ok());
    ASSERT_EQ(wal->records.size() + 1, fingerprints.size());

    for (size_t k = 0; k < fingerprints.size(); ++k) {
      TempDir cut_dir;
      uint64_t cut = k == 0 ? 0 : wal->records[k - 1].end_offset;
      WriteFileBytes(cut_dir.path() + "/s.snap", snap_bytes);
      WriteFileBytes(cut_dir.path() + "/s.wal", wal_bytes.substr(0, cut));
      auto recovered = Session::Open("s", kRules, cut_dir.path(), options);
      ASSERT_TRUE(recovered.ok())
          << "boundary " << k << ": " << recovered.status().ToString();
      EXPECT_TRUE((*recovered)->recovery().had_snapshot);
      EXPECT_EQ((*recovered)->recovery().replayed_records, k);
      Fingerprint got = Capture(**recovered);
      // Counters are excluded from snapshot-based recovery (see above).
      got.counters.clear();
      Fingerprint want = fingerprints[k];
      want.counters.clear();
      EXPECT_TRUE(got == want) << "boundary " << k << ":\n"
                               << DiffFingerprints(want, got);
      EXPECT_EQ((*recovered)->DrainOutput(), tail_outputs[k])
          << "boundary " << k;
    }
  }
}

// Logs written before every WM change became a ChangeBatch journaled a
// make or remove outside a transaction as a `"direct":true` record. Such a
// log must recover to the live session's state: a direct record replays as
// the one-change batch that mutation is today. The test rewrites a live
// session's client records into the older form (its schedule issues every
// make and remove outside a transaction) and recovers from the result.
TEST_F(ServerRecoveryTest, DirectRecordsFromOlderLogsRecover) {
  for (const Config& config : kConfigs) {
    FuzzRng rng(kSeeds[0]);
    std::string source = GenProgram(rng, config.allow_set).Source();
    std::vector<FuzzOp> schedule =
        GenSchedule(rng, kSteps, /*with_runs=*/true);
    SCOPED_TRACE(std::string(config.name) + " threads=" +
                 std::to_string(config.threads) + "\nprogram:\n" + source +
                 "\nschedule:\n" + fuzz::ScheduleToString(schedule));
    SessionOptions options;
    options.matcher = config.matcher;
    options.match_threads = config.threads;

    TempDir live_dir;
    Fingerprint live;
    std::string live_output;
    {
      auto session = Session::Open("s", source, live_dir.path(), options);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      for (const FuzzOp& op : schedule) ApplyOp(**session, op);
      live = Capture(**session);
      live_output = (*session)->DrainOutput();
      ASSERT_TRUE((*session)->SyncWal().ok());
    }

    auto wal = ReadWal(live_dir.path() + "/s.wal");
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    TempDir old_dir;
    size_t direct = 0;
    {
      WalWriter writer;
      ASSERT_TRUE(writer.Open(old_dir.path() + "/s.wal").ok());
      const std::string kBatched = "\"direct\":false";
      for (const WalRecord& record : wal->records) {
        std::string payload = record.payload;
        size_t pos = payload.find(kBatched);
        if (pos != std::string::npos) {
          payload.replace(pos, kBatched.size(), "\"direct\":true");
          ++direct;
        }
        ASSERT_TRUE(writer.Append(payload).ok());
      }
      ASSERT_TRUE(writer.Sync().ok());
    }
    ASSERT_GT(direct, 0u);

    auto recovered = Session::Open("s", source, old_dir.path(), options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ((*recovered)->recovery().replayed_records, wal->records.size());
    Fingerprint got = Capture(**recovered);
    EXPECT_TRUE(got == live) << DiffFingerprints(live, got);
    EXPECT_EQ((*recovered)->DrainOutput(), live_output);
  }
}

// The same, against a log an older sorel_serve really wrote: the fixture
// golden/direct_records.wal holds nine client commands issued outside any
// transaction (seven journaled as `"direct":true` batches, two runs) on the
// rules below. Recovering it must land where a live session running the
// same commands does.
TEST_F(ServerRecoveryTest, OlderServerWalWithDirectRecordsRecovers) {
  const std::string rules =
      "(literalize item id cat val)\n"
      "(p promote { (item ^cat A ^val <v>) <i> } --> (modify <i> ^cat B))\n"
      "(p lonely (item ^cat C ^id <n>) - (item ^cat B ^id <n>)"
      " --> (write lonely <n> (crlf)))\n"
      "(p big-b { [item ^cat B ^val <v>] <S> } :test ((sum <v>) > 10)"
      " --> (write big (sum <v>) (crlf)))\n";
  std::string file = __FILE__;
  std::string fixture = file.substr(0, file.rfind('/') + 1) +
                        "golden/direct_records.wal";
  TempDir old_dir;
  WriteFileBytes(old_dir.path() + "/s.wal", ReadFileBytes(fixture));
  auto recovered = Session::Open("s", rules, old_dir.path(), {});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->recovery().replayed_records, 9u);

  TempDir live_dir;
  auto live = Session::Open("s", rules, live_dir.path(), {});
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  Session& s = **live;
  auto item = [&s](int64_t id, const char* cat, int64_t val) {
    auto tag = s.Make("item",
                      {{"id", Value::Int(id)},
                       {"cat", Value::Symbol(
                                   s.engine().symbols().Intern(cat))},
                       {"val", Value::Int(val)}});
    EXPECT_TRUE(tag.ok()) << tag.status().ToString();
  };
  item(1, "A", 5);
  item(2, "C", 7);
  item(2, "B", 8);
  ASSERT_TRUE(s.Run(-1).ok());
  ASSERT_TRUE(s.Remove(3).ok());
  item(3, "A", 9);
  ASSERT_TRUE(s.Run(-1).ok());
  ASSERT_TRUE(s.Remove(2).ok());
  item(4, "C", 1);

  Fingerprint want = Capture(s);
  Fingerprint got = Capture(**recovered);
  EXPECT_TRUE(got == want) << DiffFingerprints(want, got);
  EXPECT_EQ((*recovered)->DrainOutput(), s.DrainOutput());
}

}  // namespace
}  // namespace server
}  // namespace sorel

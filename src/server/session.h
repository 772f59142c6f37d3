#ifndef SOREL_SERVER_SESSION_H_
#define SOREL_SERVER_SESSION_H_

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/status.h"
#include "engine/engine.h"
#include "obs/trace.h"
#include "server/wal.h"

namespace sorel {
namespace server {

/// Per-session configuration (the matcher sweep knobs the recovery tests
/// exercise, plus the WAL durability knob).
struct SessionOptions {
  MatcherKind matcher = MatcherKind::kRete;
  Strategy strategy = Strategy::kLex;
  int match_threads = 0;
  /// Fsync the WAL every N appended records (1 = every record).
  int fsync_every = 1;
  /// Capture the structured TraceEvent stream as JSON lines (drained over
  /// the protocol with `trace`).
  bool capture_trace = false;
  /// Emit "FIRE rule [tags]" lines into the session's output buffer.
  bool trace_firings = true;
};

/// What recovery found when the session opened: how much intact history
/// was replayed and whether the WAL ended in a torn record.
struct RecoveryInfo {
  bool had_snapshot = false;
  uint64_t replayed_records = 0;
  uint64_t torn_bytes = 0;
  bool crc_mismatch = false;
};

/// One engine instance with durability: every committed ChangeBatch (a
/// mutation outside a transaction commits as its own) is journaled to an
/// append-only CRC-framed WAL, and `run` commands are journaled logically
/// and re-executed at recovery (see codec.h for why). Opening a session
/// whose WAL or snapshot files exist replays that history through the
/// normal engine paths, so the recovered session is bit-identical to the
/// live one — same firing traces, conflict set, counters, and time tags.
class Session {
 public:
  /// Opens (and, when its files exist, recovers) the session named `name`,
  /// bound to a shared compiled rule base: the engine binds to `base`
  /// first — rules load and startup actions re-execute at every open,
  /// which is why they are not journaled — then the snapshot and WAL tail
  /// replay through the normal engine paths. Any number of concurrently
  /// open sessions may bind the same base; each owns only its mutable
  /// match state. WAL and snapshot live at `<data_dir>/<name>.wal` /
  /// `<data_dir>/<name>.snap`.
  static Result<std::unique_ptr<Session>> Open(const std::string& name,
                                               RuleBasePtr base,
                                               const std::string& data_dir,
                                               const SessionOptions& options);
  /// Convenience: compiles `rules_source` into a private rule base and
  /// opens a session bound to it.
  static Result<std::unique_ptr<Session>> Open(const std::string& name,
                                               const std::string& rules_source,
                                               const std::string& data_dir,
                                               const SessionOptions& options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- journaled commands ---
  Result<TimeTag> Make(
      std::string_view cls,
      const std::vector<std::pair<std::string, Value>>& values);
  Status Remove(TimeTag tag);
  Result<TimeTag> Modify(
      TimeTag tag, const std::vector<std::pair<std::string, Value>>& values);
  /// Journals a logical run record, then runs the engine with journaling
  /// suppressed (recovery re-executes the record instead). Refused inside
  /// an open client transaction: the run's firings would stage into the
  /// client batch and the two records would double-apply at replay.
  Result<int> Run(int max_firings);
  Status Begin();
  /// Commits the client transaction. A top-level commit whose batch netted
  /// to nothing still consumed time tags, so it journals an empty batch
  /// record carrying the tag counter.
  Status Commit();
  Status Rollback();

  /// Checkpoints: syncs the WAL, writes WM + conflict-set state (with
  /// refraction flags) to `<name>.snap` via a tmp-file rename, then
  /// truncates the WAL. Recovery loads the snapshot and replays only WAL
  /// records past its LSN. Refused inside an open transaction.
  Status TakeSnapshot();

  /// Flushes any fsync-batched WAL appends (shutdown path).
  Status SyncWal();

  // --- inspection ---
  Engine& engine() { return *engine_; }
  const std::string& name() const { return name_; }
  const RecoveryInfo& recovery() const { return recovery_; }
  const WalWriter::Stats& wal_stats() const { return wal_.stats(); }
  const std::string& wal_path() const { return wal_path_; }
  const std::string& snapshot_path() const { return snapshot_path_; }
  uint64_t next_lsn() const { return next_lsn_; }

  /// Engine output (write actions, FIRE lines) since the last drain.
  std::string DrainOutput();
  /// Captured trace JSON lines since the last drain (empty unless
  /// SessionOptions::capture_trace).
  std::string DrainTrace();

 private:
  class WalListener;

  Session(std::string name, const SessionOptions& options);

  Status Recover();
  Status LoadSnapshot();
  /// Journals one WAL payload, recording the first failure in wal_error_.
  void Journal(const std::string& payload);
  /// First journaling failure, or OK. Mutating commands report it: a WAL
  /// that stopped persisting must not fail silently.
  Status WalHealth() const { return wal_error_; }

  std::string name_;
  SessionOptions options_;
  std::string wal_path_;
  std::string snapshot_path_;

  // Streams are declared before the engine: EngineOptions borrows the
  // trace sink, so the engine must be destroyed first (members destroy in
  // reverse order).
  std::ostringstream out_;
  std::ostringstream trace_out_;
  obs::JsonLinesTraceSink trace_sink_{&trace_out_};

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<WalListener> listener_;
  WalWriter wal_;
  Status wal_error_;
  bool suppress_journal_ = false;
  /// LSN of the next record to append. Records carry LSNs so recovery can
  /// skip WAL entries already covered by the snapshot (a crash between the
  /// snapshot rename and the WAL truncate leaves both on disk).
  uint64_t next_lsn_ = 1;
  uint64_t snapshot_lsn_ = 0;
  RecoveryInfo recovery_;
};

}  // namespace server
}  // namespace sorel

#endif  // SOREL_SERVER_SESSION_H_

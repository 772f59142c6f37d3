#ifndef SOREL_SERVER_CODEC_H_
#define SOREL_SERVER_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "base/symbol_table.h"
#include "base/value.h"
#include "obs/json.h"
#include "wm/change_batch.h"
#include "wm/working_memory.h"

namespace sorel {
namespace server {

/// One decoded WAL record. Two kinds:
///
///   kBatch — a committed ChangeBatch, recorded physically: exact time
///   tags, modify pairs, and the post-commit tag counter. Replays through
///   `WorkingMemory::ApplyReplay`, i.e. the normal batch path.
///
///   kRun — a recognize-act run requested by the client, recorded
///   logically: the engine is deterministic (pinned by the property
///   suites), so re-executing `Run(max_firings)` against the bit-identical
///   recovered state reproduces the original firings, traces, and
///   counters. Batches committed *inside* a run are therefore not
///   journaled — the run record regenerates them.
struct WalEntry {
  enum class Kind { kBatch, kRun };
  Kind kind = Kind::kBatch;
  uint64_t lsn = 0;
  // kBatch
  /// Written as false. Logs from before every WM change was a ChangeBatch
  /// mark a mutation made outside a transaction true; such a record
  /// replays as the one-change batch that mutation is today.
  bool direct = false;
  TimeTag next_tag = 0;
  std::vector<ReplayChange> changes;
  // kRun
  int max_firings = -1;
};

/// Renders a Value as JSON that round-trips exactly: null, {"i":"<dec>"}
/// (64-bit ints as strings — JSON numbers are doubles), {"f":"<hexfloat>"}
/// (bit-exact), or {"s":"text"} (any bytes; JSON escaping covers what the
/// OPS5 quoting syntax cannot).
std::string EncodeValue(const Value& v, const SymbolTable& symbols);
Result<Value> DecodeValue(const obs::JsonValue& j, SymbolTable* symbols);

/// Exact int64 as a JSON string token (quotes included).
std::string EncodeTag(int64_t v);
Result<int64_t> DecodeTag(const obs::JsonValue& j);

/// WAL payload encoders. `changes` come straight from the live listener.
std::string EncodeBatch(uint64_t lsn, const std::vector<WmChange>& changes,
                        TimeTag next_tag, const SymbolTable& symbols);
std::string EncodeRun(uint64_t lsn, int max_firings);

/// Parses one WAL payload, interning class and symbol names into the
/// recovering engine's table.
Result<WalEntry> DecodeEntry(std::string_view payload, SymbolTable* symbols);

// --- snapshot lines (one JSON object per line; see session.cc) ---

struct SnapshotHeader {
  uint64_t lsn = 0;
  TimeTag next_tag = 1;
};

/// A conflict-set entry's identity + refraction state: rule name plus the
/// matched rows' time tags in CE order (CE order, not recency order —
/// symmetric joins can give two instantiations the same tag *multiset*).
struct CsEntrySnapshot {
  std::string rule;
  std::vector<std::vector<TimeTag>> rows;
  bool fired = false;

  /// Stable identity string ("rule|1,2;3,4;") used to match restored
  /// entries against recorded ones.
  std::string Key() const;
};

std::string EncodeSnapshotHeader(const SnapshotHeader& header);
Result<SnapshotHeader> DecodeSnapshotHeader(std::string_view line);

std::string EncodeSnapshotWme(const Wme& wme, const SymbolTable& symbols);
Result<ReplayChange> DecodeSnapshotWme(std::string_view line,
                                       SymbolTable* symbols);

std::string EncodeSnapshotCsEntry(const CsEntrySnapshot& entry);
Result<CsEntrySnapshot> DecodeSnapshotCsEntry(std::string_view line);

/// Trailer carrying the expected line counts — a snapshot missing it (or
/// with wrong counts) was torn mid-write and must be rejected.
std::string EncodeSnapshotEnd(size_t wmes, size_t cs_entries);
Status CheckSnapshotEnd(std::string_view line, size_t wmes,
                        size_t cs_entries);

/// Kind tag of a snapshot line ("header", "wme", "cs", "end"), or an error.
Result<std::string> SnapshotLineKind(std::string_view line);

}  // namespace server
}  // namespace sorel

#endif  // SOREL_SERVER_CODEC_H_

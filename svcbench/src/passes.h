#ifndef SVCBENCH_PASSES_H_
#define SVCBENCH_PASSES_H_

// The passes that replay a generated stream, one layer at a time: through
// EngineServer::HandleLine (protocol), through the Session API (session),
// and through a bound Engine with no WAL (engine). Layer time is the
// difference between passes over the same stream.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "lang/rule_base.h"
#include "server/engine_server.h"
#include "workloads.h"

namespace svcbench {

/// WAL fsync batching of every session: appends reach the page cache and
/// the device sees one fsync per session, at close. The data directory is
/// in the checkout, on whatever device holds it, where one fsync costs
/// ~0.1 ms and varies with other I/O on the host; keeping device flushes
/// out of the timed window keeps that variance out of the end-to-end
/// metrics. server.wal_append_us_per_record times fsync-per-record appends
/// on their own.
constexpr int kFsyncEvery = 1 << 30;

int64_t NowNs();
/// CPU time of the calling thread.
int64_t ThreadCpuNs();

/// One traced interval. Spans of one step share `id`; `parent` indexes the
/// span that caused this one in the same list, or is -1.
struct Span {
  const char* name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t id = 0;
};

/// The steps each client thread sends, in order.
using Schedule = std::vector<std::vector<const Step*>>;

/// The workload's own client arrangement.
Schedule ClientSchedule(const Stream& stream);
/// Every client's steps interleaved on one thread (same per-session order).
Schedule SingleClientSchedule(const Stream& stream);

struct PassResult {
  double wall_s = 0;
  size_t steps = 0;
  uint64_t requests = 0;
  /// Requests answered ok:false (protocol) or failing with a Status.
  uint64_t failed = 0;
  /// Client-observed time of each step.
  std::vector<double> step_us;
  /// Sum of the timed calls into the layer under test.
  double call_us = 0;
  // Traced passes only.
  /// Protocol: per-verb request times. Session and engine: per step, the
  /// time from begin through commit ("commit") and of the run ("run").
  std::map<std::string, std::vector<double>> verb_us;
  /// Protocol: wall time minus the calling thread's CPU time, summed.
  double wait_us = 0;
  std::vector<Span> spans;

  double step_per_s() const { return static_cast<double>(steps) / wall_s; }
};

/// A server with every session of a stream opened and set up.
struct Server {
  std::unique_ptr<sorel::server::EngineServer> server;
  std::string data_dir;
  double create_s = 0;
  /// Mean time of one session `open`.
  double open_s = 0;
  /// Create + opens + initial load + first run.
  double setup_s = 0;
};

sorel::Result<Server> StartServer(const Stream& stream,
                                  const std::string& data_dir);

/// Untraced: each client thread sends its steps back to back.
PassResult ProtocolPass(sorel::server::EngineServer& server,
                        const Schedule& schedule);

/// The three layers of one traced run, each over the whole stream.
struct TracedPasses {
  /// Through `server` (already set up), with per-request spans.
  PassResult protocol;
  /// Through one Session per stream session, opened under a fresh
  /// directory.
  PassResult session;
  /// Through one Engine per stream session, bound to the rules with no
  /// server and no WAL.
  PassResult engine;
  /// The engines' counter deltas over the steps, summed.
  std::map<std::string, uint64_t> engine_counters;
};

/// Sets up the session and engine layers (untimed), then replays the
/// stream's steps through all three layers in lockstep. Fails when a
/// Session or Engine does not end in its reference state.
sorel::Result<TracedPasses> RunTracedPasses(
    const Stream& stream, sorel::server::EngineServer& server,
    const sorel::RuleBasePtr& base, const std::string& session_dir);

/// Seconds spent in obs::ParseJson over every step line.
sorel::Result<double> ParseReplay(const Stream& stream);

/// Mean microseconds of WalWriter::Append (fsync every record) over at
/// most 4096 evenly spaced `payloads`, appended to a fresh WAL at `path`.
sorel::Result<double> WalAppendReplay(const std::vector<std::string>& payloads,
                                      const std::string& path);

/// Writes spans as tab-separated lines: pass, name, id, start_ns, end_ns,
/// parent (an index into the same pass's spans, or -1).
sorel::Status WriteSpans(
    const std::vector<std::pair<std::string, const PassResult*>>& passes,
    const std::string& path);

}  // namespace svcbench

#endif  // SVCBENCH_PASSES_H_

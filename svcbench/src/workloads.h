#ifndef SVCBENCH_WORKLOADS_H_
#define SVCBENCH_WORKLOADS_H_

// Seeded request streams for the service benchmark. A generator applies
// every request it emits to a private reference Engine (same matcher, no
// server, no WAL), so a later request can name the time tag the server will
// have assigned, and so the reference engine's final state is the expected
// state of each server session. The server sees only the generated lines.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "engine/engine.h"
#include "wm/wme.h"

namespace svcbench {

/// Request lines packed newline-separated into one buffer: a stream holds
/// up to a million lines, and one allocation per step keeps its memory
/// (which counts in peak_rss_mb) close to its bytes.
class Lines {
 public:
  void Add(std::string_view line) {
    text_.append(line);
    text_ += '\n';
    ++size_;
  }
  void Seal() { text_.shrink_to_fit(); }
  size_t size() const { return size_; }
  template <typename F>
  void ForEach(F f) const {
    for (size_t start = 0; start < text_.size();) {
      const size_t end = text_.find('\n', start);
      f(std::string_view(text_).substr(start, end - start));
      start = end + 1;
    }
  }

 private:
  std::string text_;
  size_t size_ = 0;
};

/// One client step: `begin`, its mutations, `commit`, `run` to quiescence,
/// and on some steps one read (`wm` or `cs`). Every line addresses
/// `session`.
struct Step {
  int session = 0;
  Lines lines;
};

/// One server session's part of a stream.
struct SessionStream {
  std::string name;
  /// Protocol matcher name (rete, plan or treat) and the kind it names.
  std::string matcher;
  sorel::MatcherKind kind = sorel::MatcherKind::kRete;
  /// The `open` request line.
  std::string open;
  /// The client thread that owns (and alone addresses) this session.
  int client = 0;
  /// Initial working-memory load (in transactions) and the first `run`.
  Lines setup;
  /// The reference engine's DumpWm and tag counter after the last step.
  std::string final_dump;
  sorel::TimeTag final_next_tag = 0;
  /// Reference working-memory size after setup and after the last step.
  size_t live_start = 0;
  size_t live_end = 0;
};

/// A fixed-length stream: every session's setup, then each client
/// thread's steps in the order that thread sends them. A client owns its
/// sessions exclusively, so per-session order is the same whatever the
/// interleaving of clients.
struct Stream {
  std::string workload;
  std::string rules;
  std::vector<SessionStream> sessions;
  std::vector<std::vector<Step>> clients;

  size_t steps() const;
  /// Lines sent by the clients' steps (setup excluded).
  size_t step_requests() const;
};

struct StreamConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Step count is `seconds` times the workload's nominal step rate.
  double seconds = 10;
  /// Smoke mode: tiny working memories and step counts.
  bool smoke = false;
};

/// The workloads, in the order `--workload all` runs them.
const std::vector<std::string>& WorkloadNames();

/// Generates the stream for `config`. Fails when a workload invariant or
/// the stationarity check does not hold on the reference engines.
sorel::Result<Stream> Generate(const StreamConfig& config);

}  // namespace svcbench

#endif  // SVCBENCH_WORKLOADS_H_

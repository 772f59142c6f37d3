#include "passes.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <latch>
#include <sstream>
#include <thread>
#include <utility>

#include "engine/engine.h"
#include "obs/json.h"
#include "server/session.h"
#include "server/wal.h"

namespace svcbench {

using sorel::Engine;
using sorel::Result;
using sorel::Status;
using sorel::TimeTag;
using sorel::Value;
using sorel::server::EngineServer;
using sorel::server::Session;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Request spans kept per layer, at most (about).
constexpr uint64_t kMaxRequestSpans = 100000;

/// The `cmd` of a generated line, which always starts {"cmd":"<verb>".
std::string_view VerbOf(std::string_view line) {
  constexpr size_t kStart = sizeof("{\"cmd\":\"") - 1;
  return line.substr(kStart, line.find('"', kStart) - kStart);
}

/// The per-verb bucket a request's time is reported under.
const char* VerbBucket(std::string_view verb) {
  if (verb == "make") return "make";
  if (verb == "modify") return "modify";
  if (verb == "remove") return "remove";
  if (verb == "begin") return "begin";
  if (verb == "commit") return "commit";
  if (verb == "run") return "run";
  return "read";  // wm, cs
}

/// A generated line decoded the way the server decodes it, for the passes
/// that bypass the protocol layer.
struct Request {
  enum class Verb { kBegin, kCommit, kMake, kModify, kRemove, kRun, kWm, kCs };
  Verb verb = Verb::kBegin;
  /// The span name and per-verb bucket (VerbBucket).
  const char* name = "";
  std::string cls;
  TimeTag tag = 0;
  std::vector<std::pair<std::string, Value>> attrs;
};

Result<Request> Decode(std::string_view line, sorel::SymbolTable& symbols) {
  SOREL_ASSIGN_OR_RETURN(sorel::obs::JsonValue j, sorel::obs::ParseJson(line));
  Request r;
  std::string_view cmd = VerbOf(line);
  using V = Request::Verb;
  if (cmd == "begin") r.verb = V::kBegin;
  else if (cmd == "commit") r.verb = V::kCommit;
  else if (cmd == "make") r.verb = V::kMake;
  else if (cmd == "modify") r.verb = V::kModify;
  else if (cmd == "remove") r.verb = V::kRemove;
  else if (cmd == "run") r.verb = V::kRun;
  else if (cmd == "wm") r.verb = V::kWm;
  else if (cmd == "cs") r.verb = V::kCs;
  else return Status::InvalidArgument("unexpected request " +
                                      std::string(line));
  r.name = VerbBucket(cmd);
  if (const auto* cls = j.Find("cls")) r.cls = cls->string;
  if (const auto* tag = j.Find("tag")) {
    r.tag = static_cast<TimeTag>(tag->number);
  }
  if (const auto* attrs = j.Find("attrs")) {
    for (const auto& [name, v] : attrs->members) {
      r.attrs.emplace_back(
          name, v.is_string()
                    ? Value::Symbol(symbols.Intern(v.string))
                    : Value::Int(static_cast<int64_t>(v.number)));
    }
  }
  return r;
}

/// Applies requests through the Session API, draining its output where
/// the server would.
class SessionTarget {
 public:
  explicit SessionTarget(std::unique_ptr<Session> session)
      : s_(std::move(session)) {}
  sorel::SymbolTable& symbols() { return s_->engine().symbols(); }
  Engine& engine() { return s_->engine(); }

  Status Apply(const Request& r) {
    using V = Request::Verb;
    Status status;
    switch (r.verb) {
      case V::kBegin: return s_->Begin();
      case V::kCommit: status = s_->Commit(); break;
      case V::kMake: status = s_->Make(r.cls, r.attrs).status(); break;
      case V::kModify: status = s_->Modify(r.tag, r.attrs).status(); break;
      case V::kRemove: status = s_->Remove(r.tag); break;
      case V::kRun: status = s_->Run(-1).status(); break;
      case V::kWm: sink_ += s_->engine().wm().Snapshot().size(); return status;
      case V::kCs:
        sink_ += s_->engine().conflict_set().EntriesWithState().size();
        return status;
    }
    sink_ += s_->DrainOutput().size();
    return status;
  }

 private:
  std::unique_ptr<Session> s_;
  size_t sink_ = 0;
};

/// Applies requests to a bound Engine with no server and no WAL; firing
/// traces go to a buffer that is drained like a session's. The engine
/// holds the buffer's address, so a target never moves.
class EngineTarget {
 public:
  EngineTarget(const sorel::RuleBasePtr& base, sorel::MatcherKind matcher) {
    sorel::EngineOptions options;
    options.matcher = matcher;
    options.trace_firings = true;
    engine_ = std::make_unique<Engine>(options, base);
    engine_->set_output(&out_);
  }
  EngineTarget(const EngineTarget&) = delete;
  EngineTarget& operator=(const EngineTarget&) = delete;
  sorel::SymbolTable& symbols() { return engine_->symbols(); }
  Engine& engine() { return *engine_; }

  Status Apply(const Request& r) {
    using V = Request::Verb;
    Status status;
    switch (r.verb) {
      case V::kBegin: engine_->wm().Begin(); return status;
      case V::kCommit: status = engine_->wm().Commit(); break;
      case V::kMake: status = engine_->MakeWme(r.cls, r.attrs).status(); break;
      case V::kModify:
        status = engine_->ModifyWme(r.tag, r.attrs).status();
        break;
      case V::kRemove: status = engine_->RemoveWme(r.tag); break;
      case V::kRun: status = engine_->Run(-1).status(); break;
      case V::kWm: sink_ += engine_->wm().Snapshot().size(); return status;
      case V::kCs:
        sink_ += engine_->conflict_set().EntriesWithState().size();
        return status;
    }
    sink_ += out_.str().size();
    out_.str("");
    return status;
  }

 private:
  std::ostringstream out_;
  std::unique_ptr<Engine> engine_;
  size_t sink_ = 0;
};

/// Runs `body(client, parts)` on one thread per client, all released at
/// once. Each thread fills `k` results, merged per index in client order;
/// `wall_s` spans the release to the last join.
template <typename Body>
std::vector<PassResult> RunClients(const Schedule& schedule, size_t k,
                                   Body body) {
  const size_t n = schedule.size();
  std::vector<std::vector<PassResult>> parts(n, std::vector<PassResult>(k));
  std::latch ready(static_cast<std::ptrdiff_t>(n));
  std::latch go(1);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ready.count_down();
      go.wait();
      body(c, parts[c].data());
    });
  }
  ready.wait();
  const int64_t t0 = NowNs();
  go.count_down();
  for (std::thread& t : threads) t.join();
  const double wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  std::vector<PassResult> out(k);
  for (size_t i = 0; i < k; ++i) {
    PassResult& dst = out[i];
    dst.wall_s = wall_s;
    for (size_t c = 0; c < n; ++c) {
      PassResult& p = parts[c][i];
      dst.steps += p.steps;
      dst.requests += p.requests;
      dst.failed += p.failed;
      dst.call_us += p.call_us;
      dst.wait_us += p.wait_us;
      dst.step_us.insert(dst.step_us.end(), p.step_us.begin(),
                         p.step_us.end());
      for (auto& [verb, times] : p.verb_us) {
        auto& v = dst.verb_us[verb];
        v.insert(v.end(), times.begin(), times.end());
      }
      const int64_t offset = static_cast<int64_t>(dst.spans.size());
      for (Span s : p.spans) {
        if (s.parent >= 0) s.parent += offset;
        dst.spans.push_back(s);
      }
    }
  }
  return out;
}

bool Ok(const std::string& response) {
  return response.compare(0, 10, "{\"ok\":true") == 0;
}

template <typename Target>
Status ApplyLine(Target& target, std::string_view line) {
  SOREL_ASSIGN_OR_RETURN(Request r, Decode(line, target.symbols()));
  return target.Apply(r);
}

/// One step through HandleLine with per-request wall and thread CPU time.
/// Request spans are kept only when `detail` (the step span always is).
void TracedProtocolStep(EngineServer& server, const Step& step, uint64_t id,
                        bool detail, PassResult* out) {
  const int64_t start = NowNs();
  const size_t step_span = out->spans.size();
  out->spans.push_back({"step", start, 0, -1, id});
  step.lines.ForEach([&](std::string_view line) {
    const int64_t cpu0 = ThreadCpuNs();
    const int64_t t0 = NowNs();
    const std::string response = server.HandleLine(line);
    const int64_t t1 = NowNs();
    const int64_t cpu1 = ThreadCpuNs();
    if (!Ok(response)) ++out->failed;
    const char* verb = VerbBucket(VerbOf(line));
    out->verb_us[verb].push_back(Us(t1 - t0));
    out->wait_us += Us((t1 - t0) - (cpu1 - cpu0));
    out->call_us += Us(t1 - t0);
    if (detail) {
      out->spans.push_back({verb, t0, t1, static_cast<int64_t>(step_span), id});
    }
  });
  out->spans[step_span].end_ns = NowNs();
  out->step_us.push_back(Us(out->spans[step_span].end_ns - start));
  out->requests += step.lines.size();
  ++out->steps;
}

/// One step through a Session or Engine target. Lines are decoded first,
/// untimed; the step's time is the sum of its timed calls. The "commit"
/// and "run" buckets get the step's begin-through-commit and run time.
template <typename Target>
void LayerStep(Target& target, const Step& step, uint64_t id, bool detail,
               PassResult* out) {
  std::vector<Request> requests;
  step.lines.ForEach([&](std::string_view line) {
    Result<Request> r = Decode(line, target.symbols());
    if (r.ok()) {
      requests.push_back(std::move(*r));
    } else {
      ++out->failed;
    }
  });
  const size_t step_span = out->spans.size();
  out->spans.push_back({"step", NowNs(), 0, -1, id});
  int64_t commit_ns = 0, run_ns = 0, read_ns = 0;
  for (const Request& r : requests) {
    const int64_t t0 = NowNs();
    const Status status = target.Apply(r);
    const int64_t t1 = NowNs();
    if (!status.ok()) ++out->failed;
    const bool read =
        r.verb == Request::Verb::kWm || r.verb == Request::Verb::kCs;
    (r.verb == Request::Verb::kRun ? run_ns : read ? read_ns : commit_ns) +=
        t1 - t0;
    if (detail) {
      out->spans.push_back({r.name, t0, t1,
                            static_cast<int64_t>(step_span), id});
    }
  }
  out->spans[step_span].end_ns = NowNs();
  const int64_t total = commit_ns + run_ns + read_ns;
  out->step_us.push_back(Us(total));
  out->call_us += Us(total);
  out->verb_us["commit"].push_back(Us(commit_ns));
  out->verb_us["run"].push_back(Us(run_ns));
  out->requests += requests.size();
  ++out->steps;
}

}  // namespace

Schedule ClientSchedule(const Stream& stream) {
  Schedule out(stream.clients.size());
  for (size_t c = 0; c < stream.clients.size(); ++c) {
    for (const Step& step : stream.clients[c]) out[c].push_back(&step);
  }
  return out;
}

Schedule SingleClientSchedule(const Stream& stream) {
  Schedule out(1);
  size_t longest = 0;
  for (const auto& steps : stream.clients) {
    longest = std::max(longest, steps.size());
  }
  for (size_t k = 0; k < longest; ++k) {
    for (const auto& steps : stream.clients) {
      if (k < steps.size()) out[0].push_back(&steps[k]);
    }
  }
  return out;
}

Result<Server> StartServer(const Stream& stream, const std::string& data_dir) {
  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);
  std::filesystem::create_directories(data_dir, ec);
  if (ec) return Status::RuntimeError("cannot create " + data_dir);
  Server s;
  s.data_dir = data_dir;
  sorel::server::EngineServerOptions options;
  options.data_dir = data_dir;
  options.fsync_every = kFsyncEvery;
  const int64_t t0 = NowNs();
  SOREL_ASSIGN_OR_RETURN(s.server, EngineServer::Create(stream.rules, options));
  const int64_t t1 = NowNs();
  int64_t open_ns = 0;
  auto send = [&](std::string_view line) -> Status {
    std::string response = s.server->HandleLine(line);
    if (Ok(response)) return Status::Ok();
    return Status::RuntimeError("setup request " + std::string(line) +
                                " -> " + response);
  };
  for (const SessionStream& session : stream.sessions) {
    const int64_t before = NowNs();
    SOREL_RETURN_IF_ERROR(send(session.open));
    open_ns += NowNs() - before;
    Status loaded;
    session.setup.ForEach([&](std::string_view line) {
      if (loaded.ok()) loaded = send(line);
    });
    SOREL_RETURN_IF_ERROR(loaded);
  }
  const int64_t t2 = NowNs();
  s.create_s = static_cast<double>(t1 - t0) / 1e9;
  s.open_s = static_cast<double>(open_ns) / 1e9 /
             static_cast<double>(stream.sessions.size());
  s.setup_s = static_cast<double>(t2 - t0) / 1e9;
  return s;
}

PassResult ProtocolPass(EngineServer& server, const Schedule& schedule) {
  return RunClients(schedule, 1, [&](size_t c, PassResult* out) {
    for (const Step* step : schedule[c]) {
      const int64_t start = NowNs();
      step->lines.ForEach([&](std::string_view line) {
        if (!Ok(server.HandleLine(line))) ++out->failed;
      });
      const double us = Us(NowNs() - start);
      out->step_us.push_back(us);
      out->call_us += us;
      out->requests += step->lines.size();
      ++out->steps;
    }
  })[0];
}

Result<TracedPasses> RunTracedPasses(const Stream& stream, EngineServer& server,
                                     const sorel::RuleBasePtr& base,
                                     const std::string& session_dir) {
  std::error_code ec;
  std::filesystem::remove_all(session_dir, ec);
  std::filesystem::create_directories(session_dir, ec);
  std::vector<SessionTarget> sessions;
  std::deque<EngineTarget> engines;  // never relocates its elements
  std::vector<std::map<std::string, uint64_t>> before;
  for (const SessionStream& s : stream.sessions) {
    sorel::server::SessionOptions options;
    options.fsync_every = kFsyncEvery;
    options.matcher = s.kind;
    SOREL_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                           Session::Open(s.name, base, session_dir, options));
    sessions.emplace_back(std::move(session));
    engines.emplace_back(base, options.matcher);
    SOREL_RETURN_IF_ERROR(engines.back().engine().bind_status());
    Status loaded;
    s.setup.ForEach([&](std::string_view line) {
      if (loaded.ok()) loaded = ApplyLine(sessions.back(), line);
      if (loaded.ok()) loaded = ApplyLine(engines.back(), line);
    });
    SOREL_RETURN_IF_ERROR(loaded);
    before.push_back(engines.back().engine().metrics().SnapshotCounters());
  }

  // Lockstep: each step goes through all three layers before the next
  // step, in an order that rotates per step, so drift in the host's speed
  // over the run and cache effects fall on every layer alike.
  // Request and call spans of every `every`-th step only, which bounds
  // the span file; every step keeps its step span.
  const Schedule schedule = ClientSchedule(stream);
  const size_t clients = schedule.size();
  const uint64_t every =
      std::max<uint64_t>(1, stream.step_requests() / kMaxRequestSpans);
  std::vector<PassResult> passes =
      RunClients(schedule, 3, [&](size_t c, PassResult* out) {
        uint64_t id = c;
        for (const Step* step : schedule[c]) {
          const size_t s = static_cast<size_t>(step->session);
          const bool detail = id % every == 0;
          for (uint64_t j = 0; j < 3; ++j) {
            switch ((id / clients + j) % 3) {
              case 0:
                TracedProtocolStep(server, *step, id, detail, &out[0]);
                break;
              case 1: LayerStep(sessions[s], *step, id, detail, &out[1]); break;
              default: LayerStep(engines[s], *step, id, detail, &out[2]); break;
            }
          }
          id += clients;
        }
      });

  TracedPasses out{std::move(passes[0]), std::move(passes[1]),
                   std::move(passes[2]), {}};
  for (size_t i = 0; i < stream.sessions.size(); ++i) {
    for (Engine* engine : {&sessions[i].engine(), &engines[i].engine()}) {
      std::ostringstream dump;
      engine->DumpWm(dump);
      if (dump.str() != stream.sessions[i].final_dump) {
        return Status::RuntimeError("layer passes: " +
                                    stream.sessions[i].name +
                                    " ended in another state");
      }
    }
    for (const auto& [name, value] :
         engines[i].engine().metrics().SnapshotCounters()) {
      out.engine_counters[name] += value - before[i][name];
    }
  }
  return out;
}

Result<double> ParseReplay(const Stream& stream) {
  size_t parsed = 0;
  const int64_t t0 = NowNs();
  for (const auto& steps : stream.clients) {
    for (const Step& step : steps) {
      step.lines.ForEach([&](std::string_view line) {
        parsed += sorel::obs::ParseJson(line).ok();
      });
    }
  }
  const int64_t t1 = NowNs();
  if (parsed != stream.step_requests()) {
    return Status::ParseError("a request line did not parse");
  }
  return static_cast<double>(t1 - t0) / 1e9;
}

Result<double> WalAppendReplay(const std::vector<std::string>& payloads,
                               const std::string& path) {
  constexpr size_t kMaxRecords = 4096;
  const size_t stride = std::max<size_t>(1, payloads.size() / kMaxRecords);
  std::remove(path.c_str());
  sorel::server::WalWriter writer;
  SOREL_RETURN_IF_ERROR(writer.Open(path, /*fsync_every=*/1));
  size_t appended = 0;
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < payloads.size(); i += stride, ++appended) {
    SOREL_RETURN_IF_ERROR(writer.Append(payloads[i]));
  }
  const int64_t t1 = NowNs();
  writer.Close();
  std::remove(path.c_str());
  if (appended == 0) return 0.0;
  return Us(t1 - t0) / static_cast<double>(appended);
}

Status WriteSpans(
    const std::vector<std::pair<std::string, const PassResult*>>& passes,
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::RuntimeError("cannot write " + path);
  std::fprintf(f, "pass\tname\tid\tstart_ns\tend_ns\tparent\n");
  for (const auto& [pass, result] : passes) {
    for (const Span& s : result->spans) {
      std::fprintf(f, "%s\t%s\t%llu\t%lld\t%lld\t%lld\n", pass.c_str(), s.name,
                   static_cast<unsigned long long>(s.id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent));
    }
  }
  return std::fclose(f) == 0 ? Status::Ok()
                             : Status::RuntimeError("cannot write " + path);
}

}  // namespace svcbench

// The sorel service benchmark. Replays a seeded, fixed-length request
// stream through EngineServer::HandleLine in process, checks the outcome,
// and prints one JSON result line last:
//
//   svcbench --workload orders_churn|payroll_soi|tenants_mix|all
//            [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//            [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// does the same run, then replays the stream one layer lower at a time
// (protocol, Session, bound Engine) and prints the per-layer metrics;
// spans go to DIR/spans-<workload>-<seed>.tsv. --smoke shrinks working
// memories and step counts and runs every pass and gate. All files are
// written under DIR (default .bench_out) and data directories are removed
// at the end.

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "lang/rule_base.h"
#include "obs/json.h"
#include "passes.h"
#include "server/engine_server.h"
#include "server/wal.h"
#include "workloads.h"

namespace svcbench {
namespace {

using sorel::Result;
using sorel::Status;
using sorel::server::EngineServer;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Setups per run; setup_s is their median.
constexpr int kSetups = 9;

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const size_t rank = static_cast<size_t>(std::ceil(q * n));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// Shortest decimal that reads back as `v`.
std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string FsName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string SessionLine(const char* cmd, const std::string& session) {
  return std::string("{\"cmd\":\"") + cmd + "\",\"session\":\"" + session +
         "\"}";
}

/// Sends `line` and returns the parsed response, failing unless ok:true.
Result<sorel::obs::JsonValue> Ask(EngineServer& server,
                                  const std::string& line) {
  std::string response = server.HandleLine(line);
  SOREL_ASSIGN_OR_RETURN(sorel::obs::JsonValue j,
                         sorel::obs::ParseJson(response));
  const sorel::obs::JsonValue* ok = j.Find("ok");
  if (ok == nullptr || !ok->boolean) {
    return Status::RuntimeError(line + " -> " + response);
  }
  return j;
}

sorel::server::Session& Find(EngineServer& server, const std::string& name) {
  return *server.FindSession(name);
}

/// Counters of every session's engine, summed.
std::map<std::string, uint64_t> Counters(EngineServer& server,
                                         const Stream& stream) {
  std::map<std::string, uint64_t> out;
  for (const SessionStream& s : stream.sessions) {
    for (const auto& [name, v] :
         Find(server, s.name).engine().metrics().SnapshotCounters()) {
      out[name] += v;
    }
  }
  return out;
}

std::map<std::string, uint64_t> Delta(
    std::map<std::string, uint64_t> after,
    const std::map<std::string, uint64_t>& before) {
  for (auto& [name, v] : after) {
    auto it = before.find(name);
    if (it != before.end()) v -= it->second;
  }
  return after;
}

double GaugeSum(EngineServer& server, const Stream& stream,
                const std::string& gauge) {
  double total = 0;
  for (const SessionStream& s : stream.sessions) {
    auto gauges = Find(server, s.name).engine().metrics().SnapshotGauges();
    auto it = gauges.find(gauge);
    if (it != gauges.end()) total += it->second;
  }
  return total;
}

sorel::server::WalWriter::Stats WalTotals(EngineServer& server,
                                          const Stream& stream) {
  sorel::server::WalWriter::Stats out;
  for (const SessionStream& s : stream.sessions) {
    const auto& st = Find(server, s.name).wal_stats();
    out.records += st.records;
    out.bytes += st.bytes;
    out.fsyncs += st.fsyncs;
  }
  return out;
}

size_t LiveWmes(EngineServer& server, const Stream& stream) {
  size_t n = 0;
  for (const SessionStream& s : stream.sessions) {
    n += Find(server, s.name).engine().wm().size();
  }
  return n;
}

/// Each session's dump and tag counter equal its reference engine's.
Status CheckFinalState(EngineServer& server, const Stream& stream) {
  for (const SessionStream& s : stream.sessions) {
    SOREL_ASSIGN_OR_RETURN(auto dump, Ask(server, SessionLine("dump", s.name)));
    if (dump.Find("dump")->string != s.final_dump ||
        Find(server, s.name).engine().wm().next_time_tag() !=
            s.final_next_tag) {
      return Status::RuntimeError(s.name +
                                  " differs from its reference engine");
    }
  }
  return Status::Ok();
}

struct Recovery {
  double seconds = 0;
  uint64_t replayed = 0;
};

/// Closes every session (WAL synced, no snapshot), then reopens them all,
/// replaying each WAL, each client thread reopening the sessions it owns;
/// the recovered dump and next LSN must be the ones the session closed
/// with.
Result<Recovery> CloseAndRecover(EngineServer& server, const Stream& stream) {
  std::vector<std::pair<std::string, std::string>> before;
  for (const SessionStream& s : stream.sessions) {
    SOREL_ASSIGN_OR_RETURN(auto dump, Ask(server, SessionLine("dump", s.name)));
    SOREL_ASSIGN_OR_RETURN(auto wal, Ask(server, SessionLine("wal", s.name)));
    before.emplace_back(dump.Find("dump")->string,
                        wal.Find("next_lsn")->string);
    SOREL_RETURN_IF_ERROR(Ask(server, SessionLine("close", s.name)).status());
  }
  const size_t clients = stream.clients.size();
  std::vector<Status> status(clients);
  std::vector<uint64_t> replayed(clients, 0);
  const int64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (const SessionStream& s : stream.sessions) {
        if (static_cast<size_t>(s.client) != c || !status[c].ok()) continue;
        Result<sorel::obs::JsonValue> opened = Ask(server, s.open);
        status[c] = opened.status();
        if (opened.ok()) {
          replayed[c] +=
              static_cast<uint64_t>(opened->Find("replayed")->number);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Recovery out;
  out.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  for (size_t c = 0; c < clients; ++c) {
    SOREL_RETURN_IF_ERROR(status[c]);
    out.replayed += replayed[c];
  }
  for (size_t i = 0; i < stream.sessions.size(); ++i) {
    const std::string& name = stream.sessions[i].name;
    SOREL_ASSIGN_OR_RETURN(auto dump, Ask(server, SessionLine("dump", name)));
    SOREL_ASSIGN_OR_RETURN(auto wal, Ask(server, SessionLine("wal", name)));
    if (dump.Find("dump")->string != before[i].first ||
        wal.Find("next_lsn")->string != before[i].second) {
      return Status::RuntimeError("recovered " + name +
                                  " differs from the closed session");
    }
  }
  return out;
}

/// The WAL payloads each session journaled after its first `skip` records.
Result<std::vector<std::string>> StepPayloads(
    EngineServer& server, const Stream& stream,
    const std::vector<uint64_t>& skip) {
  std::vector<std::string> out;
  for (size_t i = 0; i < stream.sessions.size(); ++i) {
    sorel::server::Session& session = Find(server, stream.sessions[i].name);
    SOREL_RETURN_IF_ERROR(session.SyncWal());
    SOREL_ASSIGN_OR_RETURN(auto wal,
                           sorel::server::ReadWal(session.wal_path()));
    for (size_t r = skip[i]; r < wal.records.size(); ++r) {
      out.push_back(std::move(wal.records[r].payload));
    }
  }
  return out;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

/// Runs one workload; returns true when every gate held.
bool RunWorkload(const Args& args, const std::string& workload) {
  std::vector<std::string> failures;
  auto gate = [&](const Status& status) {
    if (!status.ok()) failures.push_back(status.ToString());
  };
  auto fail = [&](const Status& status) {
    std::fprintf(stderr, "svcbench %s: %s\n", workload.c_str(),
                 status.ToString().c_str());
    PrintResult(false, 1, 1, {});
    return false;
  };

  StreamConfig config{workload, args.seed, args.seconds, args.smoke};
  Result<Stream> generated = Generate(config);
  if (!generated.ok()) return fail(generated.status());
  const Stream& stream = *generated;
  const size_t steps = stream.steps();
  const double steps_d = static_cast<double>(steps);
  const size_t clients = stream.clients.size();
  // Per process, so that runs sharing an output directory never collide.
  const std::string data = args.out_dir + "/data-" + workload + "-" +
                           std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(data, ec);

  // Set up several times; the last server stays up for the measured run.
  std::vector<double> setup_s, create_ms, open_ms;
  Server server;
  const int setups = args.smoke ? 1 : kSetups;
  for (int k = 0; k < setups; ++k) {
    Result<Server> s = StartServer(stream, data + "/setup" + std::to_string(k));
    if (!s.ok()) return fail(s.status());
    setup_s.push_back(s->setup_s);
    create_ms.push_back(s->create_s * 1e3);
    open_ms.push_back(s->open_s * 1e3);
    server = std::move(*s);
  }
  EngineServer& srv = *server.server;
  std::string filesystem = FsName(server.data_dir);

  const auto counters0 = Counters(srv, stream);
  const auto wal0 = WalTotals(srv, stream);
  const size_t live_start = LiveWmes(srv, stream);
  const PassResult run = ProtocolPass(srv, ClientSchedule(stream));
  const auto counts = Delta(Counters(srv, stream), counters0);
  const auto wal1 = WalTotals(srv, stream);
  const size_t live_end = LiveWmes(srv, stream);
  const double wm_arena = GaugeSum(srv, stream, "wm.arena_bytes");
  const double token_arena = GaugeSum(srv, stream, "rete.token_arena_bytes");
  const double alpha_bytes = GaugeSum(srv, stream, "rete.alpha_bytes");
  const double rule_base_bytes =
      static_cast<double>(srv.rule_base()->MemoryBytes());
  if (run.failed != 0) {
    gate(Status::RuntimeError(std::to_string(run.failed) +
                              " requests answered ok:false"));
  }
  gate(CheckFinalState(srv, stream));
  if (!args.smoke && run.step_us.size() < 1000) {
    gate(Status::RuntimeError("fewer than 1000 steps: p99 has under ten "
                              "samples beyond it"));
  }
  Result<Recovery> recovery = CloseAndRecover(srv, stream);
  gate(recovery.status());
  server.server.reset();

  const double wal_records = static_cast<double>(wal1.records - wal0.records);
  const double wal_bytes = static_cast<double>(wal1.bytes - wal0.bytes);
  const double wal_fsyncs = static_cast<double>(wal1.fsyncs - wal0.fsyncs);
  auto count = [&](const char* name) {
    auto it = counts.find(name);
    return it == counts.end() ? 0.0 : static_cast<double>(it->second);
  };

  std::printf("svcbench workload=%s seed=%llu clients=%zu sessions=%zu "
              "steps=%zu requests=%llu data_fs=%s fsync_every=%d "
              "host_cores=%u\n",
              workload.c_str(), static_cast<unsigned long long>(args.seed),
              clients, stream.sessions.size(), steps,
              static_cast<unsigned long long>(run.requests), filesystem.c_str(),
              kFsyncEvery, std::thread::hardware_concurrency());
  std::printf("errors: %llu of %llu requests answered ok:false "
              "(error_frac %s)\n",
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.requests),
              Number(Ratio(static_cast<double>(run.failed),
                           static_cast<double>(run.requests))).c_str());
  std::string counts_line = "{\"wal.records\": " + Number(wal_records) +
                            ", \"wal.bytes\": " + Number(wal_bytes) +
                            ", \"wal.fsyncs\": " + Number(wal_fsyncs);
  for (const auto& [name, v] : counts) {
    if (v != 0) counts_line += ", \"" + name + "\": " + std::to_string(v);
  }
  std::printf("counts: %s}\n", counts_line.c_str());

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"step_per_s", run.step_per_s(), "1/s"},
        {"step_p50_ms", Quantile(run.step_us, 0.50) / 1e3, "ms"},
        {"step_p99_ms", Quantile(run.step_us, 0.99) / 1e3, "ms"},
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"recover_s", recovery.ok() ? recovery->seconds : 0, "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"wal_bytes_per_step", wal_bytes / steps_d, "B"},
    };
  } else {
    double scaling = 1;  // one client: the rate is its own baseline
    if (clients > 1) {
      Result<Server> single = StartServer(stream, data + "/single");
      if (!single.ok()) return fail(single.status());
      const PassResult one =
          ProtocolPass(*single->server, SingleClientSchedule(stream));
      if (one.failed != 0) {
        gate(Status::RuntimeError("1-client pass: requests answered ok:false"));
      }
      gate(CheckFinalState(*single->server, stream));
      scaling = run.step_per_s() /
                (static_cast<double>(clients) * one.step_per_s());
    }

    // The traced run: a fresh server, a Session and an Engine per session,
    // the same stream through all three in lockstep.
    Result<Server> traced = StartServer(stream, data + "/traced");
    if (!traced.ok()) return fail(traced.status());
    EngineServer& tsrv = *traced->server;
    std::vector<uint64_t> setup_records;
    for (const SessionStream& s : stream.sessions) {
      setup_records.push_back(Find(tsrv, s.name).wal_stats().records);
    }
    const auto traced0 = Counters(tsrv, stream);
    Result<sorel::RuleBasePtr> base =
        sorel::CompiledRuleBase::Compile(stream.rules);
    if (!base.ok()) return fail(base.status());
    Result<TracedPasses> layers =
        RunTracedPasses(stream, tsrv, *base, data + "/session");
    if (!layers.ok()) return fail(layers.status());
    const PassResult& proto = layers->protocol;
    const PassResult& session = layers->session;
    const PassResult& engine = layers->engine;
    if (proto.failed + session.failed + engine.failed != 0) {
      gate(Status::RuntimeError("traced run: a request or call failed"));
    }
    gate(CheckFinalState(tsrv, stream));
    if (Delta(Counters(tsrv, stream), traced0) != counts ||
        layers->engine_counters != counts) {
      gate(Status::RuntimeError("traced run counters differ from the "
                                "untraced run's"));
    }
    Result<std::vector<std::string>> payloads =
        StepPayloads(tsrv, stream, setup_records);
    gate(payloads.status());
    traced->server.reset();

    const Result<double> parse_s = ParseReplay(stream);
    gate(parse_s.status());
    Result<double> append_us =
        payloads.ok() ? WalAppendReplay(*payloads, data + "/append.wal")
                      : Result<double>(0.0);
    gate(append_us.status());
    const std::string spans_path = args.out_dir + "/spans-" + workload + "-" +
                                   std::to_string(args.seed) + ".tsv";
    gate(WriteSpans(
        {{"protocol", &proto}, {"session", &session}, {"engine", &engine}},
        spans_path));

    const double requests = static_cast<double>(proto.requests);
    auto p50 = [&](const char* verb) {
      auto it = proto.verb_us.find(verb);
      return it == proto.verb_us.end() ? 0.0 : Quantile(it->second, 0.5);
    };
    const double proto_step = proto.call_us / steps_d;
    const double session_step = session.call_us / steps_d;
    const double engine_step = engine.call_us / steps_d;
    const double rete_created = count("rete.tokens_created");
    // Client-observed step time, untraced over traced.
    const double trace_ratio = Sum(run.step_us) / Sum(proto.step_us);
    metrics = {
        {"server.dispatch_us_per_req",
         (proto.call_us - session.call_us) / requests, "us"},
        {"server.wait_us_per_req", proto.wait_us / requests, "us"},
        {"server.scaling_eff", scaling, "ratio"},
        {"server.make_p50_us", p50("make"), "us"},
        {"server.modify_p50_us", p50("modify"), "us"},
        {"server.remove_p50_us", p50("remove"), "us"},
        {"server.commit_p50_us", p50("commit"), "us"},
        {"server.run_p50_us", p50("run"), "us"},
        {"server.read_p50_us", p50("read"), "us"},
        {"server.journal_us_per_step", session_step - engine_step, "us"},
        {"server.wal_append_us_per_record", append_us.ok() ? *append_us : 0,
         "us"},
        {"server.wal_records_per_step", wal_records / steps_d, "count"},
        {"server.wal_fsyncs_per_step", wal_fsyncs / steps_d, "count"},
        {"server.replay_records_per_s",
         recovery.ok() ? Ratio(static_cast<double>(recovery->replayed),
                               recovery->seconds)
                       : 0,
         "1/s"},
        {"server.open_ms", Quantile(open_ms, 0.5), "ms"},
        {"server.above_engine_share",
         Ratio(proto.call_us - engine.call_us, proto.call_us), "ratio"},
        {"obs.parse_us_per_req",
         parse_s.ok() ? *parse_s * 1e6 / requests : 0, "us"},
        {"lang.compile_ms", Quantile(create_ms, 0.5), "ms"},
        {"lang.rule_base_bytes", rule_base_bytes, "B"},
        {"engine.commit_us_per_step",
         Sum(engine.verb_us.at("commit")) / steps_d, "us"},
        {"engine.run_us_per_step", Sum(engine.verb_us.at("run")) / steps_d,
         "us"},
        {"engine.firings_per_step", count("run.firings") / steps_d, "count"},
        {"engine.actions_per_firing",
         Ratio(count("rhs.actions"), count("rhs.firings")), "ratio"},
        {"wm.changes_per_step",
         (count("wm.adds") + count("wm.removes")) / steps_d, "count"},
        {"wm.live_wmes_start", static_cast<double>(live_start), "count"},
        {"wm.live_wmes_end", static_cast<double>(live_end), "count"},
        {"wm.pool_hit_ratio",
         Ratio(count("wm.wme_pool_hits"), count("wm.adds")), "ratio"},
        {"wm.arena_bytes", wm_arena, "B"},
        {"rete.join_attempts_per_step", count("rete.join_attempts") / steps_d,
         "count"},
        {"rete.right_activations_per_step",
         count("rete.right_activations") / steps_d, "count"},
        {"rete.tokens_created_per_step", rete_created / steps_d, "count"},
        {"rete.tokens_deleted_per_step", count("rete.tokens_deleted") / steps_d,
         "count"},
        {"rete.tokens_per_join_attempt",
         Ratio(rete_created, count("rete.join_attempts")), "ratio"},
        {"rete.token_pool_hit_ratio",
         Ratio(count("rete.token_pool_hits"), rete_created), "ratio"},
        {"rete.cs_comparisons_per_select",
         Ratio(count("select.comparisons"), count("select.selects")), "ratio"},
        {"rete.token_arena_bytes", token_arena, "B"},
        {"rete.alpha_bytes", alpha_bytes, "B"},
        {"core.snode_tokens_per_step", count("snode.tokens") / steps_d,
         "count"},
        {"core.snode_test_evals_per_step", count("snode.test_evals") / steps_d,
         "count"},
        {"core.snode_sends_per_token",
         Ratio(count("snode.sends_plus") + count("snode.sends_minus") +
                   count("snode.sends_time"),
               count("snode.tokens")),
         "ratio"},
        {"plan.join_attempts_per_step", count("plan.join_attempts") / steps_d,
         "count"},
        {"plan.seeded_searches_per_step",
         count("plan.seeded_searches") / steps_d, "count"},
        {"treat.searches_per_step",
         (count("treat.seeded_searches") + count("treat.full_searches")) /
             steps_d,
         "count"},
        {"trace.step_rate_ratio", trace_ratio, "ratio"},
    };
    std::printf("summary %s: step %.1fus = engine %.1fus (%.0f%%) + journal "
                "%.1fus (%.0f%%) + dispatch %.1fus (%.0f%%); traced/untraced "
                "step rate %.3f; spans in %s\n",
                workload.c_str(), proto_step, engine_step,
                100 * engine_step / proto_step, session_step - engine_step,
                100 * (session_step - engine_step) / proto_step,
                proto_step - session_step,
                100 * (proto_step - session_step) / proto_step,
                trace_ratio, spans_path.c_str());
  }
  std::filesystem::remove_all(data, ec);

  for (const std::string& f : failures) {
    std::fprintf(stderr, "svcbench %s: gate failed: %s\n", workload.c_str(),
                 f.c_str());
  }
  PrintResult(failures.empty(), run.requests, run.failed, metrics);
  return failures.empty();
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "svcbench: %s\nusage: svcbench --workload <name|all> "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) {
  using namespace svcbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--smoke") {
      args.smoke = true;
    } else if ((a == "--workload" || a == "--seed" || a == "--seconds" ||
                a == "--trace" || a == "--out-dir") &&
               (v = value()) != nullptr) {
      if (a == "--workload") args.workload = v;
      if (a == "--seed") args.seed = std::strtoull(v, nullptr, 10);
      if (a == "--seconds") args.seconds = std::atof(v);
      if (a == "--trace") args.trace = std::atoi(v);
      if (a == "--out-dir") args.out_dir = v;
    } else {
      return Usage(("bad argument " + a).c_str());
    }
  }
  if (args.workload.empty()) return Usage("--workload is required");
  if (args.seconds <= 0) return Usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) return Usage("--trace is 0 or 1");
  std::vector<std::string> workloads = {args.workload};
  if (args.workload == "all") workloads = WorkloadNames();
  // Smoke mode runs the traced run, which includes every gate.
  if (args.smoke) args.trace = 1;
  bool ok = true;
  for (const std::string& w : workloads) ok = RunWorkload(args, w) && ok;
  return ok ? 0 : 1;
}

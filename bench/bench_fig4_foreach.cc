// Experiment F4 (Figure 4): the foreach iterator over PV bindings.
// Prints the paper's exact GroupByTeam iteration trace, then benchmarks
// nested-foreach firing cost against group structure.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <sstream>

#include "bench/bench_util.h"

namespace sorel {
namespace bench {
namespace {

constexpr const char* kGroupByTeam =
    "(p GroupByTeam [player ^team <t> ^name <n>] -->"
    " (foreach <t> (write team <t> (crlf))"
    "   (foreach <n> (write |  | <n> (crlf)))))";

void PrintFigure4() {
  std::printf("=== Figure 4: GroupByTeam nested foreach ===\n");
  Engine engine;
  std::ostringstream out;
  engine.set_output(&out);
  MustLoad(engine, std::string(kPlayerSchema) + kGroupByTeam);
  const char* kWm[][2] = {{"A", "Jack"}, {"A", "Janice"}, {"B", "Sue"},
                          {"B", "Jack"}, {"B", "Sue"}};
  for (const auto& [team, name] : kWm) {
    MustMake(engine, "player", {{"team", engine.Sym(team)},
                                {"name", engine.Sym(name)}});
  }
  MustRun(engine, 1);
  std::printf("%s", out.str().c_str());
  std::printf("(paper: <t>=B first with Sue printed once, then Jack; "
              "then <t>=A)\n\n");
}

// Firing a nested-foreach rule over n players in g teams. The measured
// firing includes a WM touch that restores SOI eligibility.
void BM_NestedForeachFiring(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int groups = static_cast<int>(state.range(1));
  Engine engine;
  engine.set_output(DevNull());
  MustLoad(engine, std::string(kPlayerSchema) +
                       "(p g [player ^team <t> ^name <n>] -->"
                       " (foreach <t> (foreach <n> (bind <x> 1))))");
  FillPlayers(engine, n, groups, n);
  for (auto _ : state) {
    // Touch: makes the SOI eligible again, then fire once.
    TimeTag tag = MustMake(engine, "player",
                           {{"team", engine.Sym("team0")},
                            {"name", engine.Sym("touch")}});
    int fired = MustRun(engine, 1);
    benchmark::DoNotOptimize(fired);
    Check(engine.RemoveWme(tag), "remove");
    MustRun(engine, 1);  // consume the removal-induced eligibility
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["rows"] = n;
  state.counters["groups"] = groups;
}
BENCHMARK(BM_NestedForeachFiring)
    ->Args({256, 2})
    ->Args({256, 16})
    ->Args({256, 128})
    ->Args({2048, 16});

// A foreach-driven drain: one firing modifies all n members one by one,
// and the n modifies commit as a single ChangeBatch (one propagation wave,
// one S-node `:test` eval at flush).
void BM_ForeachModifyDrain(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    engine.set_output(DevNull());
    MustLoad(engine, std::string(kPlayerSchema) +
                         "(p drain { [player ^team <> done] <P> } -->"
                         " (foreach <P> (modify <P> ^team done)))");
    FillPlayers(engine, n, 4, n);
    engine.ResetMatchStats();
    int fired = MustRun(engine, 1000000);
    benchmark::DoNotOptimize(fired);
    Engine::MatchStats m = engine.match_stats();
    state.counters["prop_waves"] = static_cast<double>(m.wm.batches);
    state.counters["test_evals"] = static_cast<double>(m.snode.test_evals);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ForeachModifyDrain)->Arg(256)->Arg(2048);

// foreach ordering modes: default (conflict-set order) vs sorted.
void BM_ForeachOrdering(benchmark::State& state) {
  int mode = static_cast<int>(state.range(0));
  const char* order = mode == 0 ? "" : (mode == 1 ? "ascending" : "descending");
  Engine engine;
  engine.set_output(DevNull());
  MustLoad(engine, std::string(kPlayerSchema) + "(p g [player ^name <n>] -->"
                       " (foreach <n> " + order + " (bind <x> 1)))");
  FillPlayers(engine, 1024, 1, 1024);
  for (auto _ : state) {
    TimeTag tag = MustMake(engine, "player", {{"name", engine.Sym("touch")}});
    MustRun(engine, 1);
    Check(engine.RemoveWme(tag), "remove");
    MustRun(engine, 1);
  }
  state.SetLabel(mode == 0 ? "default (recency)" : order);
}
BENCHMARK(BM_ForeachOrdering)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace bench
}  // namespace sorel

int main(int argc, char** argv) {
  sorel::bench::PrintFigure4();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

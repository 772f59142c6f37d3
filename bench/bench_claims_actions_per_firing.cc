// Experiment C1 (§1): "The number of actions in a set-oriented rule should
// be substantially greater, providing the ability to increase parallelism."
// Gupta/Miranker/Pasik identify operations-per-firing as the limiting
// factor for Rete parallelization; we measure exactly that quantity.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"

namespace sorel {
namespace bench {
namespace {

// One firing retires the whole batch (set) vs one element (tuple).
constexpr const char* kSetDrain =
    "(p drain { [player ^team A] <A> } --> (set-modify <A> ^team done))";
constexpr const char* kTupleDrain =
    "(p drain { (player ^team A) <p> } --> (modify <p> ^team done))";

struct Measured {
  int firings;
  uint64_t actions;
  Engine::MatchStats match;
};

Measured Drain(const char* rule, int n) {
  Engine engine;
  engine.set_output(DevNull());
  MustLoad(engine, std::string(kPlayerSchema) + rule);
  for (int i = 0; i < n; ++i) {
    MustMake(engine, "player", {{"team", engine.Sym("A")},
                                {"id", Value::Int(i)}});
  }
  // Count only the firing phase.
  engine.ResetMatchStats();
  Measured m;
  m.firings = MustRun(engine, 1000000);
  m.actions = engine.run_stats().actions;
  m.match = engine.match_stats();
  return m;
}

/// Propagation waves the matchers saw during the drain: one per committed
/// batch.
uint64_t Waves(const Measured& m) { return m.match.wm.batches; }

void PrintActionsPerFiring() {
  std::printf("=== §1 claim: actions per rule firing ===\n");
  std::printf("%8s | %12s %16s | %12s %16s\n", "batch", "set-firings",
              "set-actions/fire", "tuple-firing", "tuple-actions/fire");
  for (int n : {8, 64, 512, 4096}) {
    Measured set = Drain(kSetDrain, n);
    Measured tuple = Drain(kTupleDrain, n);
    std::printf("%8d | %12d %16.1f | %12d %16.1f\n", n, set.firings,
                static_cast<double>(set.actions) / set.firings, tuple.firings,
                static_cast<double>(tuple.actions) / tuple.firings);
  }
  std::printf("(shape: set-oriented actions/firing grows O(n); "
              "tuple-oriented stays 1)\n\n");
}

// Propagation over the same set drain: the whole firing reaches the
// matchers as ONE ChangeBatch (one propagation wave, one S-node `:test`
// eval per touched SOI).
void PrintPropagation() {
  std::printf("=== propagation per set firing ===\n");
  std::printf("%8s | %10s %12s %12s\n", "batch", "waves", "rightact",
              "testevals");
  for (int n : {8, 64, 512, 4096}) {
    Measured b = Drain(kSetDrain, n);
    std::printf("%8d | %10llu %12llu %12llu\n", n,
                static_cast<unsigned long long>(Waves(b)),
                static_cast<unsigned long long>(b.match.rete.right_activations),
                static_cast<unsigned long long>(b.match.snode.test_evals));
  }
  std::printf("(shape: waves stay O(1) per firing and `:test` evals one per "
              "touched SOI)\n\n");
}

void BM_DrainBatch(benchmark::State& state) {
  bool set_oriented = state.range(0) != 0;
  int n = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Measured m = Drain(set_oriented ? kSetDrain : kTupleDrain, n);
    state.counters["firings"] = m.firings;
    state.counters["actions_per_firing"] =
        static_cast<double>(m.actions) / m.firings;
    benchmark::DoNotOptimize(m.firings);
  }
  state.SetLabel(set_oriented ? "set-oriented" : "tuple-oriented");
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DrainBatch)->Args({1, 64})->Args({0, 64})->Args({1, 1024})
    ->Args({0, 1024});

}  // namespace
}  // namespace bench
}  // namespace sorel

int main(int argc, char** argv) {
  sorel::bench::PrintActionsPerFiring();
  sorel::bench::PrintPropagation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

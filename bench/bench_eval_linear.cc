// E1 / E3 — Theorem 4.2: monadic datalog over trees evaluates in
// O(|P| · |dom|).
//
// Series 1 (data linearity): the Example 3.2 program over random trees of
// growing size, on the grounded (Theorem 4.2) and semi-naive engines.
// google-benchmark's complexity fit should report ~O(N) for the grounded
// engine.
//
// Series 2 (program linearity): chain programs of growing rule count over a
// fixed tree.
//
// Series 3 (fragments, Props 3.6/3.7): a guarded / LIT-style program.

#include <benchmark/benchmark.h>

#include "src/core/examples.h"
#include "src/core/grounder.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"

namespace {

using namespace mdatalog;

tree::Tree MakeTree(int64_t n) {
  util::Rng rng(42);
  return tree::RandomTree(rng, static_cast<int32_t>(n), {"a", "b", "c"});
}

void BM_EvenA_Grounded(benchmark::State& state) {
  tree::Tree t = MakeTree(state.range(0));
  core::Program p = core::EvenAProgram({"b", "c"});
  for (auto _ : state) {
    auto r = core::EvaluateGrounded(p, t);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
  state.counters["nodes"] = static_cast<double>(t.size());
}
BENCHMARK(BM_EvenA_Grounded)->Range(1 << 10, 1 << 17)->Complexity();

void BM_EvenA_SemiNaive(benchmark::State& state) {
  tree::Tree t = MakeTree(state.range(0));
  core::Program p = core::EvenAProgram({"b", "c"});
  core::TreeDatabase db(t);
  for (auto _ : state) {
    auto r = core::EvaluateSemiNaive(p, db);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EvenA_SemiNaive)->Range(1 << 10, 1 << 15)->Complexity();

void BM_ProgramSize_Grounded(benchmark::State& state) {
  tree::Tree t = MakeTree(4096);
  core::Program p = core::ChainProgram(static_cast<int32_t>(state.range(0)));
  for (auto _ : state) {
    auto r = core::EvaluateGrounded(p, t);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
  state.counters["rules"] = static_cast<double>(p.rules().size());
}
BENCHMARK(BM_ProgramSize_Grounded)->Range(8, 1 << 9)->Complexity();

void BM_GuardedFragment_SemiNaive(benchmark::State& state) {
  tree::Tree t = MakeTree(state.range(0));
  core::Program p = core::HasAncestorProgram("a");
  core::TreeDatabase db(t);
  for (auto _ : state) {
    auto r = core::EvaluateSemiNaive(p, db);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GuardedFragment_SemiNaive)->Range(1 << 10, 1 << 15)->Complexity();

void BM_GuardedFragment_Grounded(benchmark::State& state) {
  // HasAncestor is guarded (every binary rule has a guard atom) — the
  // Prop 3.6/3.7 fragment.
  tree::Tree t = MakeTree(state.range(0));
  core::Program p = core::HasAncestorProgram("a");
  for (auto _ : state) {
    auto r = core::EvaluateGrounded(p, t);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GuardedFragment_Grounded)->Range(1 << 10, 1 << 17)->Complexity();

}  // namespace

BENCHMARK_MAIN();

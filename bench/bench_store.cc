// The corpus store and the SIMD NodeSet kernels — the two halves of the
// "parse once, serve forever" PR. Series:
//
//   BM_PreparePage_ColdParse     — document preparation by parsing (the old
//                                  cold path): parse + project.
//   BM_PreparePage_MmapWarm      — the same preparation out of an open
//                                  corpus store: Find + rehydrate, no parse.
//                                  Acceptance: ≥ 5× ColdParse per page.
//   BM_ServeFirstTouch_Parse     — fresh runtime serves N distinct pages
//   BM_ServeFirstTouch_Store       once each (first-touch latency, end to
//                                  end through Wrap), parse vs snapshot.
//   BM_NodeSetSetPlan_Scalar/D   — an EvalSetPlan-shaped kernel workload
//   BM_NodeSetSetPlan_Simd/D       (copy + 3 intersections + 1 delta
//                                  subtraction) over a D-node domain, scalar
//                                  vs runtime-dispatched kernels.
//                                  Acceptance: Simd ≥ 2× Scalar at D=131072.
//
// Counters report pages/sec (preparation/serving) and ops/sec (kernels).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/core/nodeset.h"
#include "src/core/simd_kernels.h"
#include "src/elog/ast.h"
#include "src/html/synthetic.h"
#include "src/runtime/document_cache.h"
#include "src/runtime/runtime.h"
#include "src/store/corpus_store.h"
#include "src/util/check.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

namespace {

using namespace mdatalog;

constexpr int kDistinctPages = 16;
constexpr const char* kAttr = "class";

wrapper::Wrapper CatalogWrapper() {
  auto program = elog::ParseElog(R"(
    anynode(X) <- root(X).
    anynode(X) <- anynode(P), subelem(P, "_", X).
    item(X)  <- anynode(P), subelem(P, "tr@item", X).
    price(Y) <- item(X), subelem(X, "td@price", Y).
  )");
  MD_CHECK(program.ok());
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"item", "price"};
  return w;
}

const std::vector<std::string>& Pages() {
  static const std::vector<std::string>* pages = [] {
    auto* p = new std::vector<std::string>;
    for (int i = 0; i < kDistinctPages; ++i) {
      util::Rng rng(3000 + i);
      html::CatalogOptions opts;
      opts.num_items = 20 + i % 13;
      opts.with_ads = (i % 3 != 0);
      p->push_back(html::ProductCatalogPage(rng, opts));
    }
    return p;
  }();
  return *pages;
}

/// One store holding Pages() under kAttr projection, built once on disk.
std::shared_ptr<const store::CorpusStore> Store() {
  static const std::shared_ptr<const store::CorpusStore> store = [] {
    const std::string path =
        (std::filesystem::temp_directory_path() / "bench_store.mdcs").string();
    store::CorpusStore::Builder b;
    for (const std::string& page : Pages()) {
      MD_CHECK(b.AddHtml(page, kAttr).ok());
    }
    MD_CHECK(b.Save(path).ok());
    auto opened = store::CorpusStore::Open(path);
    MD_CHECK(opened.ok());
    return *opened;
  }();
  return store;
}

// ---------------------------------------------------------------------------
// Document preparation: cold parse vs mmap-warm rehydration
// ---------------------------------------------------------------------------

void BM_PreparePage_ColdParse(benchmark::State& state) {
  const auto& pages = Pages();
  size_t i = 0;
  for (auto _ : state) {
    auto doc = runtime::CachedDocument::Parse(pages[i % pages.size()], kAttr);
    MD_CHECK(doc.ok());
    benchmark::DoNotOptimize((*doc)->tree().size());
    ++i;
  }
  state.counters["pages_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PreparePage_ColdParse);

void BM_PreparePage_MmapWarm(benchmark::State& state) {
  const auto& pages = Pages();
  auto store = Store();
  // Hash once per page up front: the serving runtime hashes the request
  // bytes anyway for its memo key, so lookup cost shouldn't re-charge it.
  std::vector<util::Hash128> hashes;
  for (const std::string& page : pages) {
    hashes.push_back(util::HashBytes128(page));
  }
  size_t i = 0;
  for (auto _ : state) {
    auto frozen = store->Find(hashes[i % hashes.size()], kAttr);
    MD_CHECK(frozen.ok());
    auto doc = runtime::CachedDocument::FromFrozen(*frozen, store);
    benchmark::DoNotOptimize(doc->tree().size());
    ++i;
  }
  state.counters["pages_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PreparePage_MmapWarm);

// ---------------------------------------------------------------------------
// First-touch serving, end to end through the runtime
// ---------------------------------------------------------------------------

void ServeFirstTouch(benchmark::State& state, bool with_store) {
  const auto& pages = Pages();
  const wrapper::Wrapper w = CatalogWrapper();
  for (auto _ : state) {
    // A fresh runtime per round: every page is a first touch (in-memory
    // miss); with_store decides whether the miss parses or rehydrates.
    runtime::RuntimeOptions opts;
    opts.result_memo.byte_budget = 0;
    if (with_store) opts.corpus_store = Store();
    runtime::WrapperRuntime rt(opts);
    auto handle = rt.Register(w, kAttr);
    MD_CHECK(handle.ok());
    for (const std::string& page : pages) {
      auto out = rt.Wrap(*handle, page);
      MD_CHECK(out.ok());
      benchmark::DoNotOptimize(out->size());
    }
    if (with_store) {
      MD_CHECK(rt.stats().document_cache.store_hits ==
               static_cast<int64_t>(pages.size()));
    }
  }
  state.counters["pages_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * pages.size(),
      benchmark::Counter::kIsRate);
}

void BM_ServeFirstTouch_Parse(benchmark::State& state) {
  ServeFirstTouch(state, /*with_store=*/false);
}
BENCHMARK(BM_ServeFirstTouch_Parse);

void BM_ServeFirstTouch_Store(benchmark::State& state) {
  ServeFirstTouch(state, /*with_store=*/true);
}
BENCHMARK(BM_ServeFirstTouch_Store);

// ---------------------------------------------------------------------------
// SIMD kernels: an EvalSetPlan-shaped workload, scalar vs dispatched
// ---------------------------------------------------------------------------

core::NodeSet RandomSet(uint64_t seed, int32_t domain) {
  util::Rng rng(seed);
  core::NodeSet s(domain);
  for (int32_t i = 0; i < domain; ++i) {
    if (rng.Chance(1, 3)) s.Insert(i);
  }
  return s;
}

/// scratch = src; scratch ∩= a; scratch ∩= b; scratch ∩= c; scratch −= seen
/// — the shape of one compiled set-plan step (eval.cc EvalSetPlan).
void SetPlanWorkload(benchmark::State& state, bool force_scalar) {
  const int32_t domain = static_cast<int32_t>(state.range(0));
  const core::NodeSet src = RandomSet(1, domain);
  const core::NodeSet a = RandomSet(2, domain);
  const core::NodeSet b = RandomSet(3, domain);
  const core::NodeSet c = RandomSet(4, domain);
  const core::NodeSet seen = RandomSet(5, domain);

  core::simd::ForceScalar(force_scalar);
  core::NodeSet scratch(domain);
  for (auto _ : state) {
    scratch = src;
    scratch.IntersectWith(a);
    scratch.IntersectWith(b);
    scratch.IntersectWith(c);
    scratch.DifferenceWith(seen);
    benchmark::DoNotOptimize(scratch.count());
  }
  core::simd::ForceScalar(false);
  state.counters["setplans_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  state.SetLabel(force_scalar ? "scalar" : core::simd::ActiveKernelName());
}

void BM_NodeSetSetPlan_Scalar(benchmark::State& state) {
  SetPlanWorkload(state, /*force_scalar=*/true);
}
BENCHMARK(BM_NodeSetSetPlan_Scalar)->Arg(4096)->Arg(131072)->Arg(1 << 20);

void BM_NodeSetSetPlan_Simd(benchmark::State& state) {
  SetPlanWorkload(state, /*force_scalar=*/false);
}
BENCHMARK(BM_NodeSetSetPlan_Simd)->Arg(4096)->Arg(131072)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();

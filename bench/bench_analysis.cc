// Static-analysis subsystem throughput (src/analysis) over the checked-in
// wrapper corpus (examples/wrappers). Series:
//
//   BM_LintWrapper            — full lint (minimize + fate mapping) of the
//                               8-finding dirty wrapper; rules/sec.
//   BM_CanonicalWrapperKey    — canonicalization (minimize + normalize +
//                               sort) of the redundant catalog revision.
//   BM_EquivalentCatalogPair/D — SAT-backed equivalence proof of the clean
//                               vs reordered catalog revisions on every
//                               extraction pattern, depth bound D.
//   BM_ServeRevisions/C       — the serving payoff: three reformulated
//                               catalog revisions over one page corpus,
//                               C=1 canonical program keys on, C=0 off.
//                               With keys on, revisions share one compiled
//                               plan and one memo row per page; the
//                               memo_hit_rate counter shows the uplift.

#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/canonical.h"
#include "src/analysis/containment.h"
#include "src/elog/lint.h"
#include "src/elog/to_datalog.h"
#include "src/html/synthetic.h"
#include "src/runtime/runtime.h"
#include "src/tmnf/pipeline.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

namespace {

using namespace mdatalog;

wrapper::Wrapper LoadCorpusWrapper(const std::string& name) {
  std::ifstream in(std::string(MDATALOG_WRAPPER_CORPUS_DIR) + "/" + name,
                   std::ios::binary);
  MD_CHECK(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  auto w = wrapper::ParseWrapperText(ss.str());
  MD_CHECK(w.ok());
  return std::move(*w);
}

void BM_LintWrapper(benchmark::State& state) {
  wrapper::Wrapper w = LoadCorpusWrapper("lint_dirty.elog");
  int64_t rules = 0;
  for (auto _ : state) {
    auto report = elog::LintWrapper(w.program, w.extraction_patterns);
    MD_CHECK(report.ok() && report->findings.size() == 8);
    rules += report->rules_analyzed;
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(rules);
}
BENCHMARK(BM_LintWrapper);

void BM_CanonicalWrapperKey(benchmark::State& state) {
  wrapper::Wrapper w = LoadCorpusWrapper("catalog_redundant.elog");
  for (auto _ : state) {
    auto key = analysis::CanonicalWrapperKey(w.program, w.extraction_patterns);
    MD_CHECK(key.ok() && key->canonicalized);
    benchmark::DoNotOptimize(key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CanonicalWrapperKey);

void BM_EquivalentCatalogPair(benchmark::State& state) {
  wrapper::Wrapper a = LoadCorpusWrapper("catalog_clean.elog");
  wrapper::Wrapper b = LoadCorpusWrapper("catalog_reordered.elog");
  analysis::ContainmentOptions opts;
  opts.max_depth = static_cast<int32_t>(state.range(0));
  std::vector<core::Program> pa, pb;
  for (const std::string& pattern : a.extraction_patterns) {
    auto da = elog::ElogToDatalog(a.program, pattern);
    auto db = elog::ElogToDatalog(b.program, pattern);
    MD_CHECK(da.ok() && db.ok());
    auto ta = tmnf::ToTmnf(*da);
    auto tb = tmnf::ToTmnf(*db);
    MD_CHECK(ta.ok() && tb.ok());
    pa.push_back(std::move(*ta));
    pb.push_back(std::move(*tb));
  }
  for (auto _ : state) {
    for (size_t i = 0; i < pa.size(); ++i) {
      auto eq = analysis::Equivalent(pa[i], pb[i], opts);
      MD_CHECK(eq.ok() && eq->verdict == analysis::Verdict::kContained);
      benchmark::DoNotOptimize(eq);
    }
  }
  // One item = one proved-equivalent extraction pattern.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pa.size()));
}
BENCHMARK(BM_EquivalentCatalogPair)->Arg(2)->Arg(3);

/// Three equivalent catalog revisions × a repeated page corpus: the workload
/// a wrapper redeployment produces. Canonical keys collapse it to one
/// compiled plan + one memo row per distinct page.
void BM_ServeRevisions(benchmark::State& state) {
  std::vector<wrapper::Wrapper> revisions = {
      LoadCorpusWrapper("catalog_clean.elog"),
      LoadCorpusWrapper("catalog_redundant.elog"),
      LoadCorpusWrapper("catalog_reordered.elog"),
  };
  std::vector<std::string> pages;
  for (int i = 0; i < 24; ++i) {
    util::Rng rng(7000 + i);
    html::CatalogOptions opts;
    opts.num_items = 8 + i % 9;
    opts.with_ads = true;
    pages.push_back(html::ProductCatalogPage(rng, opts));
  }

  int64_t served = 0;
  int64_t memo_hits = 0, memo_misses = 0, canonical_hits = 0;
  for (auto _ : state) {
    runtime::WrapperRuntime rt;
    for (const wrapper::Wrapper& rev : revisions) {
      auto handle = rt.Register(rev, "class");
      MD_CHECK(handle.ok());
      for (const std::string& page : pages) {
        auto out = rt.Wrap(*handle, page);
        MD_CHECK(out.ok());
        benchmark::DoNotOptimize(out);
        ++served;
      }
    }
    auto stats = rt.stats();
    memo_hits += stats.memo_hits;
    memo_misses += stats.memo_misses;
    canonical_hits += stats.program_cache.canonical_key_hits;
  }
  state.SetItemsProcessed(served);
  state.counters["memo_hit_rate"] =
      memo_hits + memo_misses > 0
          ? static_cast<double>(memo_hits) /
                static_cast<double>(memo_hits + memo_misses)
          : 0.0;
  state.counters["canonical_key_hits"] =
      static_cast<double>(canonical_hits) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_ServeRevisions);

}  // namespace

BENCHMARK_MAIN();

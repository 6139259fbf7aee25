// Input generation, reference outputs and the four measured workloads.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "mdbench/bench.h"
#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/stream/stream_session.h"
#include "src/tree/serialize.h"

namespace mdbench {

void Fail(const std::string& message) {
  std::fprintf(stderr, "mdbench: %s\n", message.c_str());
  // _Exit, not exit: Fail may run on a client thread while others still use
  // the objects exit() would destroy.
  std::fflush(nullptr);
  std::_Exit(1);
}

// ---------------------------------------------------------------------------
// Pages
// ---------------------------------------------------------------------------

namespace {

/// The <body>…</body> part of a generated page: the wrappers' fixed paths
/// (catalog_clean's "table.tr@item") start at the document root, so pages
/// are served body-rooted.
std::string BodyOnly(const std::string& html) {
  const size_t begin = html.find("<body");
  const size_t end = html.rfind("</body>");
  if (begin == std::string::npos || end == std::string::npos) {
    Fail("generated page has no <body>");
  }
  return html.substr(begin, end + 7 - begin);
}

/// Page sizes of slot `i`: a low-discrepancy (golden-ratio) walk over the
/// log of [lo, hi]. The size mix is then the same for every seed and evenly
/// spread over any prefix; the seed only draws page content.
double LogSpread(int i, double lo, double hi) {
  const double u = std::fmod((i + 1) * 0.6180339887498949, 1.0);
  return lo * std::pow(hi / lo, u);
}

PageKind KindOf(int i) { return static_cast<PageKind>(i % 3); }

WrapperDef ParseWrapperDef(const std::string& name, const std::string& text) {
  auto parsed = wrapper::ParseWrapperText(text);
  if (!parsed.ok()) {
    Fail("wrapper " + name + ": " + parsed.status().ToString());
  }
  return WrapperDef{name, *std::move(parsed)};
}

}  // namespace

std::string GeneratePage(PageKind kind, int32_t target_nodes, util::Rng& rng) {
  target_nodes = std::max(target_nodes, 64);
  switch (kind) {
    case PageKind::kCatalog: {
      // ≈ 8.7 nodes per item row, ad rows included.
      html::CatalogOptions options;
      options.num_items = std::max(1, static_cast<int32_t>(target_nodes / 8.7));
      options.with_ads = true;
      // catalog_clean's path names a bare "table": drop the table's class so
      // its projected label stays "table".
      std::string page = BodyOnly(html::ProductCatalogPage(rng, options));
      const std::string classed = "<table class=items>";
      const size_t at = page.find(classed);
      if (at == std::string::npos) Fail("catalog page has no item table");
      return page.replace(at, classed.size(), "<table>");
    }
    case PageKind::kNews:
      // 8 nodes per article block.
      return BodyOnly(html::NewsIndexPage(rng, std::max(1, target_nodes / 8)));
    case PageKind::kBoard: {
      // Reply trees grow geometrically with depth, so one tree cannot hit a
      // size target; the page stacks small threads (depth ≤ 6) until it
      // reaches it. Nodes are counted as start tags plus the posts' texts.
      const std::string open = "<ul class=thread>";
      std::string page = "<body><h1>Forum</h1>";
      int32_t nodes = 3;
      while (nodes < target_nodes) {
        const int32_t depth = std::clamp(
            static_cast<int32_t>(std::log2((target_nodes - nodes) / 10.0 + 1)),
            1, 6);
        const std::string board = html::NestedBoardPage(rng, depth, 3);
        const size_t begin = board.find(open);
        const size_t end = board.rfind("</ul>");
        if (begin == std::string::npos || end == std::string::npos) {
          Fail("board page has no thread");
        }
        const std::string_view thread(board.data() + begin, end + 5 - begin);
        for (size_t i = 0; i < thread.size(); ++i) {
          if (thread[i] != '<' || i + 1 >= thread.size()) continue;
          if (thread[i + 1] != '/') ++nodes;
          if (thread.compare(i, 5, "<span") == 0) ++nodes;
        }
        page.append(thread);
      }
      return page + "</body>";
    }
  }
  return {};
}

std::string ReferenceXml(const WrapperDef& def, const html::Document& doc) {
  // wrapper::WrapHtmlToXml, plus the attribute projection the wrapper is
  // registered with.
  util::Result<tree::Tree> out = util::Status::Internal("");
  if (def.project_attr.empty()) {
    out = wrapper::WrapTree(def.wrapper, doc.tree());
  } else {
    out = wrapper::WrapTree(
        def.wrapper, html::ProjectAttributeIntoLabels(doc, def.project_attr));
  }
  if (!out.ok()) Fail("reference failed: " + out.status().ToString());
  return tree::ToXml(*out);
}

void FreshVariant(const Page& page, uint64_t nonce, std::string* out) {
  char prefix[40];
  const int n = std::snprintf(prefix, sizeof(prefix), "<!--r%016llx-->",
                              static_cast<unsigned long long>(nonce));
  out->assign(prefix, static_cast<size_t>(n));
  out->append(page.html);
}

WrapperDef LoadRepoWrapper(const std::string& file) {
  std::ifstream in(file);
  if (!in) Fail("cannot read wrapper " + file);
  std::stringstream text;
  text << in.rdbuf();
  std::string name = file.substr(file.find_last_of('/') + 1);
  return ParseWrapperDef(name, text.str());
}

WrapperDef NewsWrapper() {
  return ParseWrapperDef("news", R"(%! extract: story, headline, date
story(X)    <- root(R), subelem(R, "div@stories.div@article", X).
headline(Y) <- story(X), subelem(X, "h2.a", Y).
date(Y)     <- story(X), subelem(X, "span@date", Y), lastsibling(Y).
)");
}

WrapperDef BoardWrapper() {
  return ParseWrapperDef("board", R"(%! extract: post
thread(X) <- root(R), subelem(R, "ul@thread", X).
thread(X) <- thread(P), subelem(P, "li.ul@replies", X).
post(X)   <- thread(T), subelem(T, "li.span@post", X).
)");
}

WrapperDef AnywhereWrapper(PageKind kind) {
  const std::string descent = R"(
anynode(X) <- root(X).
anynode(X) <- anynode(P), subelem(P, "_", X).
)";
  switch (kind) {
    case PageKind::kCatalog:
      return ParseWrapperDef("catalog_any",
                             "%! extract: item, price" + descent + R"(
item(X)  <- anynode(P), subelem(P, "tr@item", X).
price(Y) <- item(X), subelem(X, "td@price", Y).
)");
    case PageKind::kNews:
      return ParseWrapperDef("news_any",
                             "%! extract: story, headline" + descent + R"(
story(X)    <- anynode(P), subelem(P, "div@article", X).
headline(Y) <- story(X), subelem(X, "h2.a", Y).
)");
    case PageKind::kBoard:
      break;
  }
  return ParseWrapperDef("board_any", "%! extract: post" + descent + R"(
post(X) <- anynode(P), subelem(P, "span@post", X).
)");
}

bool Matches(const util::Result<std::string>& result, const Page& page,
             int wrapper) {
  if (!result.ok()) return false;
  auto it = page.reference.find(wrapper);
  return it != page.reference.end() && *result == it->second;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<float> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// ---------------------------------------------------------------------------
// Workload base
// ---------------------------------------------------------------------------

runtime::RuntimeOptions Workload::Options(const RunConfig& config) const {
  runtime::RuntimeOptions options;
  options.num_threads = config.threads;
  return options;
}

void Workload::RequestBytes(const RequestSpec& spec, uint64_t nonce,
                            std::string* out) const {
  const Page& page = inputs_.pages[spec.page];
  if (fresh()) {
    FreshVariant(page, nonce, out);
  } else {
    *out = page.html;
  }
}

void Workload::DescribeInputs(const std::string& name) const {
  std::vector<double> nodes, bytes;
  int kinds[3] = {0, 0, 0};
  for (const Page& p : inputs_.pages) {
    nodes.push_back(p.nodes);
    bytes.push_back(static_cast<double>(p.html.size()));
    ++kinds[static_cast<int>(p.kind)];
  }
  auto quartiles = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    auto at = [&](double q) {
      return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))];
    };
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "min %.0f p25 %.0f p50 %.0f p75 %.0f max %.0f", at(0),
                  at(0.25), at(0.5), at(0.75), at(1));
    return std::string(buf);
  };
  std::printf(
      "inputs %s: %zu pages (catalog %d, news %d, board %d), %zu wrappers\n",
      name.c_str(), inputs_.pages.size(), kinds[0], kinds[1], kinds[2],
      inputs_.wrappers.size());
  std::printf("inputs %s: nodes/page %s\n", name.c_str(),
              quartiles(nodes).c_str());
  std::printf("inputs %s: bytes/page %s\n", name.c_str(),
              quartiles(bytes).c_str());
}

namespace {

/// Runs `body(client)` on `clients` threads and joins them all.
template <typename Body>
void RunClients(int clients, Body body) {
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) threads.emplace_back(body, c);
  for (std::thread& t : threads) t.join();
}

/// Keeps at most `capacity` uniformly drawn samples (reservoir sampling), so
/// memory does not grow with throughput.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed) : capacity_(capacity), rng_(seed) {
    values_.reserve(capacity);
  }
  void Add(float value) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(value);
      return;
    }
    const uint64_t slot = rng_.Below(static_cast<uint64_t>(seen_));
    if (slot < capacity_) values_[slot] = value;
  }
  std::vector<float>& values() { return values_; }

 private:
  size_t capacity_;
  int64_t seen_ = 0;
  util::Rng rng_;
  std::vector<float> values_;
};

/// Per-client counters of a closed loop, merged after the join.
struct ClientTally {
  int64_t attempted = 0;
  int64_t failed = 0;
  Reservoir latency_us;
  Reservoir first_result_us;
  explicit ClientTally(uint64_t seed)
      : latency_us(1 << 16, seed), first_result_us(1 << 16, seed + 1) {}
};

LoopResult Merge(std::vector<ClientTally>& tallies, double wall_s) {
  LoopResult out;
  out.wall_s = wall_s;
  for (ClientTally& t : tallies) {
    out.attempted += t.attempted;
    out.failed += t.failed;
    auto& lat = t.latency_us.values();
    out.latency_us.insert(out.latency_us.end(), lat.begin(), lat.end());
    auto& first = t.first_result_us.values();
    out.first_result_us.insert(out.first_result_us.end(), first.begin(),
                               first.end());
  }
  return out;
}

/// One page to generate: its kind, size target, content seed, and the
/// wrappers to compute reference outputs for.
struct PageSlot {
  PageKind kind = PageKind::kCatalog;
  int32_t target_nodes = 0;
  uint64_t seed = 0;
  std::vector<int> wrappers;
};

/// Appends the slots' pages with node counts and reference outputs. Runs on
/// `threads` threads; each page depends only on its slot, so the result is
/// the same for any thread count.
void BuildPages(Inputs* inputs, const std::vector<PageSlot>& slots,
                int threads) {
  const size_t first = inputs->pages.size();
  inputs->pages.resize(first + slots.size());
  RunClients(threads, [&](int c) {
    for (size_t i = c; i < slots.size(); i += threads) {
      const PageSlot& slot = slots[i];
      Page& page = inputs->pages[first + i];
      util::Rng rng(slot.seed);
      page.kind = slot.kind;
      page.html = GeneratePage(slot.kind, slot.target_nodes, rng);
      auto doc = html::ParseHtml(page.html);
      if (!doc.ok()) Fail("generated page does not parse");
      page.nodes = doc->tree().size();
      for (int w : slot.wrappers) {
        page.reference[w] = ReferenceXml(inputs->wrappers[w], *doc);
      }
    }
  });
}

/// Content seed of page slot `i` of a run seeded `seed`.
uint64_t SlotSeed(uint64_t seed, int i) {
  return seed * 1000003 + static_cast<uint64_t>(i);
}

void CheckWrapper(const Inputs& inputs, int w) {
  // Every registered wrapper must extract something on its own page kind,
  // or the workload would time empty answers.
  for (const Page& page : inputs.pages) {
    auto it = page.reference.find(w);
    if (it != page.reference.end() && it->second.size() > 64) return;
  }
  if (inputs.wrappers[w].name == "anbn_delta.elog") return;  // Δ: no match
  Fail("wrapper " + inputs.wrappers[w].name + " extracts nothing");
}

// ---------------------------------------------------------------------------
// crawl_fresh: SubmitBatch over never-repeated pages of 1k–64k nodes.
// ---------------------------------------------------------------------------

class CrawlFresh : public Workload {
 public:
  void Generate(const RunConfig& config) override {
    seed_ = config.seed;
    threads_ = config.threads;
    const std::string dir = config.wrapper_dir + "/";
    inputs_.wrappers = {LoadRepoWrapper(dir + "catalog_clean.elog"),
                        NewsWrapper(), BoardWrapper()};
    inputs_.kind_wrapper[1] = 1;
    inputs_.kind_wrapper[2] = 2;
    // kStrata size strata, log-uniform over the node range, with one page
    // per worker in each; kinds rotate through every stratum.
    const double lo = config.toy ? 200 : 1024, hi = config.toy ? 2000 : 65536;
    std::vector<PageSlot> slots;
    for (int i = 0; i < kStrata * threads_; ++i) {
      const double u = (i / threads_ + 0.5) / kStrata;
      const PageKind kind = KindOf(i);
      slots.push_back({kind, static_cast<int32_t>(lo * std::pow(hi / lo, u)),
                       SlotSeed(seed_, i), {inputs_.WrapperFor(kind)}});
    }
    BuildPages(&inputs_, slots, config.threads);
    for (size_t w = 0; w < inputs_.wrappers.size(); ++w) {
      CheckWrapper(inputs_, static_cast<int>(w));
    }
  }

  void WarmUp(runtime::WrapperRuntime& rt,
              const std::vector<runtime::WrapperHandle>& handles) override {
    // One batch per size stratum: every worker's arena grows to the largest
    // page it will see.
    uint64_t nonce = 1ull << 62;  // warm-up pages never recur later
    LoopResult r = Batches(rt, handles, /*max_batches=*/kStrata, /*seconds=*/0,
                           &nonce);
    if (r.failed != 0) Fail("crawl_fresh warm-up failed");
  }

  LoopResult Run(runtime::WrapperRuntime& rt,
                 const std::vector<runtime::WrapperHandle>& handles,
                 double seconds) override {
    return Batches(rt, handles, -1, seconds, &next_nonce_);
  }

  std::vector<RequestSpec> Sample(int n) const override {
    std::vector<RequestSpec> out;
    for (int i = 0; i < n; ++i) out.push_back(Spec(i));
    return out;
  }
  bool fresh() const override { return true; }

 private:
  /// Request i of the crawl: batch i / threads_ is one stratum's pages, one
  /// per worker; consecutive batches step through the strata with a stride
  /// coprime to their count, so every stretch of the crawl mixes sizes.
  RequestSpec Spec(int64_t i) const {
    const int64_t stratum = (i / threads_ * 5) % kStrata;
    const int page = static_cast<int>(stratum * threads_ + i % threads_);
    return {page, inputs_.WrapperFor(inputs_.pages[page].kind)};
  }

  /// One crawler hands batches of fresh pages, one per worker, to
  /// SubmitBatch. Building a batch's page bytes is generation and sits
  /// outside timing; the clock runs only inside SubmitBatch.
  LoopResult Batches(runtime::WrapperRuntime& rt,
                     const std::vector<runtime::WrapperHandle>& handles,
                     int max_batches, double seconds, uint64_t* nonce) {
    std::vector<ClientTally> tally;
    tally.emplace_back(seed_);
    const int batch = threads_;
    std::vector<std::string> bytes(batch);
    std::vector<RequestSpec> specs(batch);
    int64_t busy_ns = 0;
    const int64_t budget_ns = static_cast<int64_t>(seconds * 1e9);
    for (int b = 0; max_batches < 0 || b < max_batches; ++b) {
      // Timed runs stop only between whole passes over the strata, so every
      // stratum weighs the same in the latency percentiles.
      if (max_batches < 0 && busy_ns >= budget_ns &&
          cursor_ % (kStrata * threads_) == 0) {
        break;
      }
      std::vector<runtime::Request> requests;
      for (int k = 0; k < batch; ++k) {
        specs[k] = Spec(cursor_++);
        FreshVariant(inputs_.pages[specs[k].page], (*nonce)++, &bytes[k]);
        requests.push_back(runtime::Request{runtime::PageRef::View(bytes[k]),
                                            handles[specs[k].wrapper], {}});
      }
      const int64_t t0 = NowNs();
      std::vector<util::Result<std::string>> results =
          rt.SubmitBatch(std::move(requests));
      const int64_t dt = NowNs() - t0;
      busy_ns += dt;
      // The caller holds no result before the batch returns: the batch call
      // is both its latency and its time to first result.
      tally[0].latency_us.Add(static_cast<float>(dt / 1e3));
      tally[0].first_result_us.Add(static_cast<float>(dt / 1e3));
      for (int k = 0; k < batch; ++k) {
        ++tally[0].attempted;
        if (!Matches(results[k], inputs_.pages[specs[k].page],
                     specs[k].wrapper)) {
          ++tally[0].failed;
        }
      }
    }
    return Merge(tally, busy_ns / 1e9);
  }

  // Odd, so the median batch sits inside one stratum's latencies rather than
  // on the boundary between two.
  static constexpr int kStrata = 11;
  int threads_ = 4;
  int64_t cursor_ = 0;
  uint64_t next_nonce_ = 1;
};

// ---------------------------------------------------------------------------
// fanout_wrappers: each fresh page through K registered wrappers in turn.
// ---------------------------------------------------------------------------

class FanoutWrappers : public Workload {
 public:
  void Generate(const RunConfig& config) override {
    seed_ = config.seed;
    clients_ = config.threads;
    const std::string dir = config.wrapper_dir + "/";
    inputs_.wrappers = {LoadRepoWrapper(dir + "catalog_clean.elog"),
                        LoadRepoWrapper(dir + "catalog_reordered.elog"),
                        NewsWrapper(), BoardWrapper(),
                        LoadRepoWrapper(dir + "anbn_delta.elog")};
    inputs_.kind_wrapper[1] = 2;
    inputs_.kind_wrapper[2] = 3;
    std::vector<int> all(inputs_.wrappers.size());
    for (size_t w = 0; w < all.size(); ++w) all[w] = static_cast<int>(w);
    std::vector<PageSlot> slots;
    for (int i = 0; i < (config.toy ? 6 : 48); ++i) {
      const double nodes =
          LogSpread(i, config.toy ? 200 : 2000, config.toy ? 800 : 8000);
      slots.push_back(
          {KindOf(i), static_cast<int32_t>(nodes), SlotSeed(seed_, i), all});
    }
    BuildPages(&inputs_, slots, config.threads);
    for (size_t w = 0; w < inputs_.wrappers.size(); ++w) {
      CheckWrapper(inputs_, static_cast<int>(w));
    }
  }

  void WarmUp(runtime::WrapperRuntime& rt,
              const std::vector<runtime::WrapperHandle>& handles) override {
    LoopResult r = Loop(rt, handles, 0, /*pages_per_client=*/8, 1ull << 62);
    if (r.failed != 0) Fail("fanout_wrappers warm-up failed");
  }

  LoopResult Run(runtime::WrapperRuntime& rt,
                 const std::vector<runtime::WrapperHandle>& handles,
                 double seconds) override {
    LoopResult r = Loop(rt, handles, seconds, -1, next_nonce_);
    next_nonce_ += 1ull << 40;
    return r;
  }

  std::vector<RequestSpec> Sample(int n) const override {
    std::vector<RequestSpec> out;
    const int k = static_cast<int>(inputs_.wrappers.size());
    for (int i = 0; i < n; ++i) {
      out.push_back({(i / k) % static_cast<int>(inputs_.pages.size()), i % k});
    }
    return out;
  }
  bool fresh() const override { return true; }

 private:
  LoopResult Loop(runtime::WrapperRuntime& rt,
                  const std::vector<runtime::WrapperHandle>& handles,
                  double seconds, int pages_per_client, uint64_t nonce_base) {
    std::vector<ClientTally> tallies;
    for (int c = 0; c < clients_; ++c) tallies.emplace_back(seed_ + 7 * c);
    const int n = static_cast<int>(inputs_.pages.size());
    const int k = static_cast<int>(handles.size());
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    std::vector<int64_t> ends(clients_, start);
    RunClients(clients_, [&](int c) {
      ClientTally& t = tallies[c];
      std::string bytes;
      for (int64_t i = 0;; ++i) {
        if (pages_per_client >= 0 ? i >= pages_per_client
                                  : NowNs() >= deadline) {
          break;
        }
        const Page& page = inputs_.pages[(c + i * clients_) % n];
        // A fresh page: one copy with a unique nonce, before the timer.
        FreshVariant(page, nonce_base + (static_cast<uint64_t>(c) << 32) + i,
                     &bytes);
        for (int w = 0; w < k; ++w) {
          const int64_t t0 = NowNs();
          util::Result<std::string> xml = rt.Wrap(handles[w], bytes);
          const float us = static_cast<float>((NowNs() - t0) / 1e3);
          t.latency_us.Add(us);
          t.first_result_us.Add(us);
          ++t.attempted;
          if (!Matches(xml, page, w)) ++t.failed;
        }
      }
      ends[c] = NowNs();
    });
    return Merge(tallies,
                 (*std::max_element(ends.begin(), ends.end()) - start) / 1e9);
  }

  int clients_ = 4;
  uint64_t next_nonce_ = 1;
};

// ---------------------------------------------------------------------------
// recrawl_hot: identical page bytes re-requested with Zipf skew over a page
// set about twice what the result memo holds.
// ---------------------------------------------------------------------------

class RecrawlHot : public Workload {
 public:
  runtime::RuntimeOptions Options(const RunConfig& config) const override {
    runtime::RuntimeOptions options = Workload::Options(config);
    if (config.toy) options.result_memo.byte_budget = 256 << 10;
    return options;
  }

  void Generate(const RunConfig& config) override {
    seed_ = config.seed;
    clients_ = config.threads;
    const std::string dir = config.wrapper_dir + "/";
    inputs_.wrappers = {LoadRepoWrapper(dir + "catalog_clean.elog"),
                        NewsWrapper(), BoardWrapper()};
    inputs_.kind_wrapper[1] = 1;
    inputs_.kind_wrapper[2] = 2;
    // Pages are added until their memo entries (the runtime's MemoCost: XML
    // + attribute + 128) sum to twice the memo budget. They are built in
    // chunks in parallel and cut where the sum crosses, so the page set is
    // the same for any thread count.
    const int64_t memo_budget = Options(config).result_memo.byte_budget;
    int64_t memo_bytes = 0;
    size_t keep = 0;
    while (memo_bytes < 2 * memo_budget) {
      if (keep == inputs_.pages.size()) {
        std::vector<PageSlot> slots;
        for (int k = 0; k < 256; ++k) {
          const int i = static_cast<int>(inputs_.pages.size()) + k;
          const PageKind kind = KindOf(i);
          slots.push_back({kind, static_cast<int32_t>(LogSpread(i, 300, 3000)),
                           SlotSeed(seed_, i), {inputs_.WrapperFor(kind)}});
        }
        BuildPages(&inputs_, slots, config.threads);
      }
      const Page& page = inputs_.pages[keep++];
      memo_bytes += static_cast<int64_t>(
          page.reference.at(inputs_.WrapperFor(page.kind)).size() + 5 + 128);
    }
    inputs_.pages.resize(keep);
    for (size_t w = 0; w < inputs_.wrappers.size(); ++w) {
      CheckWrapper(inputs_, static_cast<int>(w));
    }
    // Zipf(1) over page ranks; rank r is page r, so which pages are hot (and
    // their sizes) is the same for every seed. The seed draws the sequence.
    const int n = static_cast<int>(inputs_.pages.size());
    std::vector<double> cdf(n);
    double sum = 0;
    for (int r = 0; r < n; ++r) cdf[r] = (sum += 1.0 / (r + 1));
    util::Rng rng(seed_ ^ 0x5bd1e995);
    sequence_.resize(config.toy ? 4096 : (1 << 20));
    for (int32_t& s : sequence_) {
      const double u = (rng.Next() >> 11) * 0x1.0p-53 * sum;
      s = static_cast<int32_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                               cdf.begin());
      s = std::min(s, n - 1);
    }
  }

  void WarmUp(runtime::WrapperRuntime& rt,
              const std::vector<runtime::WrapperHandle>& handles) override {
    // One pass's worth of the request sequence: the memo and the document
    // cache reach their steady mix of hits, misses and evictions.
    const int64_t per_client =
        static_cast<int64_t>(inputs_.pages.size()) / clients_ + 1;
    LoopResult r = Loop(rt, handles, 0, per_client);
    if (r.failed != 0) Fail("recrawl_hot warm-up failed");
  }

  LoopResult Run(runtime::WrapperRuntime& rt,
                 const std::vector<runtime::WrapperHandle>& handles,
                 double seconds) override {
    return Loop(rt, handles, seconds, -1);
  }

  std::vector<RequestSpec> Sample(int n) const override {
    std::vector<RequestSpec> out;
    for (int i = 0; i < n; ++i) {
      const int page =
          sequence_[(static_cast<size_t>(i) * 977) % sequence_.size()];
      out.push_back({page, inputs_.WrapperFor(inputs_.pages[page].kind)});
    }
    return out;
  }
  bool fresh() const override { return false; }

 private:
  LoopResult Loop(runtime::WrapperRuntime& rt,
                  const std::vector<runtime::WrapperHandle>& handles,
                  double seconds, int64_t requests_per_client) {
    std::vector<ClientTally> tallies;
    for (int c = 0; c < clients_; ++c) tallies.emplace_back(seed_ + 7 * c);
    std::vector<int> wrapper_of(inputs_.pages.size());
    for (size_t p = 0; p < inputs_.pages.size(); ++p) {
      wrapper_of[p] = inputs_.WrapperFor(inputs_.pages[p].kind);
    }
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    std::vector<int64_t> ends(clients_, start);
    RunClients(clients_, [&](int c) {
      ClientTally& t = tallies[c];
      size_t pos = cursor_ + sequence_.size() / clients_ * c;
      for (int64_t i = 0;; ++i) {
        // The clock is read once per request anyway; the deadline check
        // reuses it.
        const int64_t t0 = NowNs();
        if (requests_per_client >= 0 ? i >= requests_per_client
                                     : t0 >= deadline) {
          break;
        }
        const int page = sequence_[pos++ % sequence_.size()];
        const int w = wrapper_of[page];
        util::Result<std::string> xml =
            rt.Wrap(handles[w], inputs_.pages[page].html);
        const float us = static_cast<float>((NowNs() - t0) / 1e3);
        t.latency_us.Add(us);
        t.first_result_us.Add(us);
        ++t.attempted;
        if (!Matches(xml, inputs_.pages[page], w)) ++t.failed;
      }
      ends[c] = NowNs();
    });
    cursor_ += 104729;  // next loop starts elsewhere in the sequence
    return Merge(tallies,
                 (*std::max_element(ends.begin(), ends.end()) - start) / 1e9);
  }

  int clients_ = 4;
  size_t cursor_ = 0;
  std::vector<int32_t> sequence_;
};

// ---------------------------------------------------------------------------
// stream_large: 100–200 KB pages fed through SubmitStream in 4 KB chunks.
// ---------------------------------------------------------------------------

constexpr size_t kChunkBytes = 4096;

class StreamLarge : public Workload {
 public:
  void Generate(const RunConfig& config) override {
    seed_ = config.seed;
    clients_ = config.threads;
    const std::string dir = config.wrapper_dir + "/";
    inputs_.wrappers = {AnywhereWrapper(PageKind::kCatalog),
                        AnywhereWrapper(PageKind::kNews),
                        AnywhereWrapper(PageKind::kBoard)};
    inputs_.kind_wrapper[1] = 1;
    inputs_.kind_wrapper[2] = 2;
    // Bytes per node of each generator, to aim node targets at byte sizes.
    const double bytes_per_node[3] = {16.5, 22.5, 18.0};
    std::vector<PageSlot> slots;
    for (int i = 0; i < (config.toy ? 3 : 36); ++i) {
      const PageKind kind = KindOf(i);
      const double bytes =
          LogSpread(i, config.toy ? 8e3 : 100e3, config.toy ? 16e3 : 200e3);
      slots.push_back(
          {kind,
           static_cast<int32_t>(bytes / bytes_per_node[static_cast<int>(kind)]),
           SlotSeed(seed_, i), {inputs_.WrapperFor(kind)}});
    }
    BuildPages(&inputs_, slots, config.threads);
    for (size_t w = 0; w < inputs_.wrappers.size(); ++w) {
      CheckWrapper(inputs_, static_cast<int>(w));
    }
  }

  void WarmUp(runtime::WrapperRuntime& rt,
              const std::vector<runtime::WrapperHandle>& handles) override {
    LoopResult r = Loop(rt, handles, 0, /*sessions_per_client=*/8);
    if (r.failed != 0) Fail("stream_large warm-up failed");
  }

  LoopResult Run(runtime::WrapperRuntime& rt,
                 const std::vector<runtime::WrapperHandle>& handles,
                 double seconds) override {
    return Loop(rt, handles, seconds, -1);
  }

  std::vector<RequestSpec> Sample(int n) const override {
    std::vector<RequestSpec> out;
    for (int i = 0; i < n; ++i) {
      const int page = i % static_cast<int>(inputs_.pages.size());
      out.push_back({page, inputs_.WrapperFor(inputs_.pages[page].kind)});
    }
    return out;
  }
  // Streams are never cached, so repeated page bytes still do all the work;
  // Wrap-based probes of this workload use fresh variants to match.
  bool fresh() const override { return true; }
  bool streaming() const override { return true; }

 private:
  LoopResult Loop(runtime::WrapperRuntime& rt,
                  const std::vector<runtime::WrapperHandle>& handles,
                  double seconds, int64_t sessions_per_client) {
    std::vector<ClientTally> tallies;
    for (int c = 0; c < clients_; ++c) tallies.emplace_back(seed_ + 7 * c);
    const int n = static_cast<int>(inputs_.pages.size());
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    std::vector<int64_t> ends(clients_, start);
    RunClients(clients_, [&](int c) {
      ClientTally& t = tallies[c];
      for (int64_t i = 0;; ++i) {
        if (sessions_per_client >= 0 ? i >= sessions_per_client
                                     : NowNs() >= deadline) {
          break;
        }
        const Page& page = inputs_.pages[(c + i * clients_) % n];
        const int w = inputs_.WrapperFor(page.kind);
        int64_t first_ns = 0;
        stream::StreamOptions options;
        options.on_result = [&first_ns](const stream::StreamResult&) {
          if (first_ns == 0) first_ns = NowNs();
        };
        ++t.attempted;
        auto session = rt.SubmitStream(
            runtime::Request{runtime::PageRef{}, handles[w], {}},
            std::move(options));
        if (!session.ok()) {
          ++t.failed;
          continue;
        }
        // Timed from the first Feed to the return of Finish.
        const int64_t t0 = NowNs();
        bool ok = true;
        const std::string_view bytes = page.html;
        for (size_t off = 0; off < bytes.size() && ok; off += kChunkBytes) {
          ok = (*session)->Feed(bytes.substr(off, kChunkBytes)).ok();
        }
        util::Result<std::string> xml =
            ok ? (*session)->Finish()
               : util::Result<std::string>(util::Status::Internal("feed"));
        const int64_t t1 = NowNs();
        session->reset();
        if (first_ns == 0) first_ns = t1;
        t.latency_us.Add(static_cast<float>((t1 - t0) / 1e3));
        t.first_result_us.Add(static_cast<float>((first_ns - t0) / 1e3));
        if (!Matches(xml, page, w)) ++t.failed;
      }
      ends[c] = NowNs();
    });
    return Merge(tallies,
                 (*std::max_element(ends.begin(), ends.end()) - start) / 1e9);
  }

  int clients_ = 4;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "crawl_fresh") return std::make_unique<CrawlFresh>();
  if (name == "fanout_wrappers") return std::make_unique<FanoutWrappers>();
  if (name == "recrawl_hot") return std::make_unique<RecrawlHot>();
  if (name == "stream_large") return std::make_unique<StreamLarge>();
  return nullptr;
}

}  // namespace mdbench

// The traced pass: bench-owned spans around calls into each layer's public
// functions, timed from outside the library.
//
// For each sampled request the pass
//   1. times the real request (Wrap, or a stream session from first Feed to
//      Finish) as a "request.real" span;
//   2. replays the stages that request took — read off the runtime's cache
//      and engine counters around the real call — under "request.replay";
//   3. calls every layer once on the same page under "request.probe", which
//      gives the per-unit costs of every layer on this workload's pages.
// trace.coverage is replayed layer time over real time; the remainder per
// request is runtime.glue_ns_per_req. Set-up costs ("setup.probe"), pool
// balance ("pool.probe") and the size sweep ("sweep") have roots of their
// own.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>

#include "mdbench/bench.h"
#include "src/analysis/canonical.h"
#include "src/core/grounder.h"
#include "src/core/horn.h"
#include "src/elog/eval.h"
#include "src/elog/to_datalog.h"
#include "src/html/parser.h"
#include "src/html/tokenizer.h"
#include "src/stream/stream_session.h"
#include "src/tmnf/pipeline.h"
#include "src/tree/serialize.h"
#include "src/util/check.h"

namespace mdbench {

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

namespace {
SpanRecorder* g_recorder = nullptr;
}  // namespace

SpanRecorder* ActiveRecorder() { return g_recorder; }
void SetActiveRecorder(SpanRecorder* recorder) { g_recorder = recorder; }

int32_t SpanRecorder::Open(const char* name, int64_t request_id) {
  const int32_t id = static_cast<int32_t>(spans_.size());
  Span span;
  span.name = name;
  span.request_id = request_id;
  span.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(span);
  stack_.push_back(id);
  spans_[id].start_ns = NowNs();  // last: bookkeeping stays outside the span
  return id;
}

void SpanRecorder::Close(int32_t id, double units) {
  const int64_t end = NowNs();
  MD_CHECK(!stack_.empty() && stack_.back() == id);
  stack_.pop_back();
  spans_[id].end_ns = end;
  spans_[id].units = units;
}

std::vector<int64_t> SpanRecorder::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}

void SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) Fail("cannot write spans to " + path);
  out << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                  "\"end_ns\": %lld, \"parent\": %d, \"request_id\": %lld, "
                  "\"units\": %.17g}",
                  i == 0 ? "" : ",", i, s.name,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), s.parent,
                  static_cast<long long>(s.request_id), s.units);
    out << buf;
  }
  out << "\n]\n";
}

ScopedSpan::ScopedSpan(const char* name, int64_t request_id)
    : recorder_(g_recorder) {
  if (recorder_ != nullptr) id_ = recorder_->Open(name, request_id);
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) recorder_->Close(id_, units_);
}

namespace {

// ---------------------------------------------------------------------------
// Aggregation over spans
// ---------------------------------------------------------------------------

struct Agg {
  double ns = 0;     // summed self time
  double units = 0;  // summed work units
  int64_t count = 0;
  double PerUnit() const { return units > 0 ? ns / units : 0; }
  double Mean() const { return count > 0 ? ns / count : 0; }
};

/// Sums self time and units per (root name, span name).
class SpanIndex {
 public:
  explicit SpanIndex(const SpanRecorder& recorder) {
    const std::vector<Span>& spans = recorder.spans();
    const std::vector<int64_t> self = recorder.SelfTimes();
    std::vector<int32_t> root(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      root[i] = spans[i].parent < 0 ? static_cast<int32_t>(i)
                                    : root[spans[i].parent];
      Agg& a = aggs_[{spans[root[i]].name, spans[i].name}];
      a.ns += static_cast<double>(self[i]);
      a.units += spans[i].units;
      ++a.count;
      if (spans[i].parent >= 0 && spans[spans[i].parent].parent < 0) {
        // Direct child of a root: its full duration counts toward the
        // root's covered time.
        covered_[spans[root[i]].name] +=
            static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      }
    }
  }
  Agg Get(const std::string& root, const std::string& name) const {
    auto it = aggs_.find({root, name});
    return it == aggs_.end() ? Agg{} : it->second;
  }
  /// Time covered by the direct children of all roots named `root`.
  double Covered(const std::string& root) const {
    auto it = covered_.find(root);
    return it == covered_.end() ? 0 : it->second;
  }

 private:
  std::map<std::pair<std::string, std::string>, Agg> aggs_;
  std::map<std::string, double> covered_;
};

/// Checks the span invariants the self-test also checks on the written
/// file: every span closed, inside its parent, children summing to no more
/// than the parent.
void CheckSpans(const SpanRecorder& recorder) {
  const std::vector<Span>& spans = recorder.spans();
  for (const Span& s : spans) {
    if (s.end_ns < s.start_ns) Fail(std::string("span not closed: ") + s.name);
    if (s.parent >= 0) {
      const Span& p = spans[s.parent];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
        Fail(std::string("span outside its parent: ") + s.name);
      }
    }
  }
  for (int64_t self : recorder.SelfTimes()) {
    if (self < 0) Fail("children of a span outlast it");
  }
}

/// Matches of the grounded plan's extents, as the runtime collects them.
elog::ElogResult CollectMatches(const runtime::CompiledWrapperProgram& program,
                                const core::EvalResult& eval) {
  elog::ElogResult matches;
  const auto& patterns = program.prepared.extraction_patterns;
  for (size_t i = 0; i < patterns.size(); ++i) {
    const core::PredId pred = program.pattern_preds[i];
    if (pred < 0) continue;
    matches.matches[patterns[i]] = eval.Unary(pred);
  }
  return matches;
}

constexpr size_t kChunkBytes = 4096;

struct StreamOutcome {
  util::Result<std::string> xml = util::Status::Internal("not run");
  int64_t results = 0;
  int64_t results_before_eof = 0;
  int64_t bytes_at_first_result = -1;
};

/// One stream session over `bytes` in 4 KB chunks, each Feed and the Finish
/// in a span.
StreamOutcome StreamPage(runtime::WrapperRuntime& rt,
                         const runtime::WrapperHandle& handle,
                         std::string_view bytes, int64_t request_id,
                         int32_t nodes) {
  StreamOutcome out;
  int64_t fed = 0;
  bool finishing = false;
  stream::StreamOptions options;
  options.on_result = [&](const stream::StreamResult&) {
    ++out.results;
    if (!finishing) ++out.results_before_eof;
    if (out.bytes_at_first_result < 0) out.bytes_at_first_result = fed;
  };
  auto session = rt.SubmitStream(
      runtime::Request{runtime::PageRef{}, handle, {}}, std::move(options));
  if (!session.ok()) {
    out.xml = session.status();
    return out;
  }
  for (size_t off = 0; off < bytes.size(); off += kChunkBytes) {
    const std::string_view chunk = bytes.substr(off, kChunkBytes);
    fed += static_cast<int64_t>(chunk.size());
    ScopedSpan span("stream.feed", request_id);
    span.set_units(chunk.size() / 1024.0);
    util::Status s = (*session)->Feed(chunk);
    if (!s.ok()) {
      out.xml = s;
      return out;
    }
  }
  finishing = true;
  {
    ScopedSpan span("stream.finish", request_id);
    span.set_units(nodes);
    out.xml = (*session)->Finish();
  }
  if (out.bytes_at_first_result < 0) out.bytes_at_first_result = fed;
  return out;
}

/// Registers every wrapper of the workload on `rt`.
std::vector<runtime::WrapperHandle> RegisterAll(runtime::WrapperRuntime& rt,
                                                const Inputs& inputs) {
  std::vector<runtime::WrapperHandle> handles;
  for (const WrapperDef& def : inputs.wrappers) {
    auto handle = rt.Register(def.wrapper, def.project_attr);
    if (!handle.ok()) Fail("Register " + def.name);
    handles.push_back(*std::move(handle));
  }
  return handles;
}

int64_t g_sink = 0;  // keeps results of timed calls observable

}  // namespace

TracedResult RunTracedPass(const RunConfig& config, Workload& workload,
                           runtime::WrapperRuntime& rt,
                           const std::vector<runtime::WrapperHandle>& handles,
                           const std::vector<double>& register_us) {
  const Inputs& inputs = workload.inputs();
  TracedResult result;
  SpanRecorder recorder;

  // Bench-owned helpers, built before any span opens: a document cache the
  // probe's pages are resident in, a runtime for the memo-hit path, and the
  // telemetry on/off pair.
  runtime::DocumentCache probe_docs(256 << 20);
  runtime::RuntimeOptions probe_options = workload.Options(config);
  probe_options.num_threads = 1;
  runtime::WrapperRuntime tel_on(probe_options);
  probe_options.telemetry.enabled = false;
  runtime::WrapperRuntime tel_off(probe_options);
  // The memo-hit probe measures the hit path, not admission: its memo is
  // large enough that every probed page stays resident.
  probe_options.telemetry.enabled = true;
  probe_options.result_memo.byte_budget = int64_t{1} << 30;
  runtime::WrapperRuntime hit_rt(probe_options);
  const auto hit_handles = RegisterAll(hit_rt, inputs);
  const auto on_handles = RegisterAll(tel_on, inputs);
  const auto off_handles = RegisterAll(tel_off, inputs);
  core::GroundArena arena;
  core::HornSolveScratch scratch;

  SetActiveRecorder(&recorder);

  // --- set-up costs: the compile chain of every wrapper ---------------------
  const int compile_reps = config.toy ? 1 : 5;
  for (int rep = 0; rep < compile_reps; ++rep) {
    ScopedSpan root("setup.probe", 0);
    for (const WrapperDef& def : inputs.wrappers) {
      const elog::ElogProgram& program = def.wrapper.program;
      {
        ScopedSpan span("analysis.canonical_key", 0);
        auto key = analysis::CanonicalWrapperKey(
            program, def.wrapper.extraction_patterns);
        g_sink += key.ok() ? static_cast<int64_t>(key->fingerprint) : 0;
      }
      if (program.UsesDeltaBuiltins()) continue;  // no datalog counterpart
      util::Result<core::Program> datalog = util::Status::Internal("");
      {
        ScopedSpan span("elog.to_datalog", 0);
        datalog = elog::ElogToDatalog(program);
      }
      if (!datalog.ok()) continue;
      util::Result<core::Program> tmnf = util::Status::Internal("");
      {
        ScopedSpan span("tmnf.to_tmnf", 0);
        tmnf = tmnf::ToTmnf(*datalog);
      }
      if (!tmnf.ok()) continue;
      ScopedSpan span("core.ground_plan_compile", 0);
      g_sink += core::GroundPlan::Compile(*tmnf).ok();
    }
  }

  // --- per request: real, replay, probe -------------------------------------
  const std::vector<RequestSpec> sample = workload.Sample(config.toy ? 4 : 24);
  uint64_t nonce = 1ull << 61;  // never used by the measured loops
  double real_ns = 0;
  int64_t grounded_nodes = 0, clauses = 0, literals = 0, derived = 0;
  int64_t xml_bytes = 0, probed = 0;
  int64_t stream_results = 0, stream_before_eof = 0, first_result_bytes = 0;
  std::string bytes, bytes2;
  for (size_t k = 0; k < sample.size(); ++k) {
    const int64_t id = static_cast<int64_t>(k) + 1;
    const RequestSpec& spec = sample[k];
    const Page& page = inputs.pages[spec.page];
    const WrapperDef& def = inputs.wrappers[spec.wrapper];
    const runtime::WrapperHandle& handle = handles[spec.wrapper];
    const runtime::CompiledWrapperProgram& program = *handle.program;
    workload.RequestBytes(spec, nonce++, &bytes);
    const double kb = bytes.size() / 1024.0;
    ++result.attempted;

    if (workload.streaming()) {
      // 1. the real session, opened, fed in 4 KB chunks and finished; the
      // replay below covers the same steps.
      StreamOutcome real;
      {
        ScopedSpan span("request.real", id);
        const int64_t t0 = NowNs();
        auto session = rt.SubmitStream(
            runtime::Request{runtime::PageRef{}, handle, {}}, {});
        if (!session.ok()) Fail("SubmitStream failed");
        const std::string_view view = bytes;
        for (size_t off = 0; off < view.size(); off += kChunkBytes) {
          if (!(*session)->Feed(view.substr(off, kChunkBytes)).ok()) break;
        }
        real.xml = (*session)->Finish();
        real_ns += static_cast<double>(NowNs() - t0);
      }
      if (!Matches(real.xml, page, spec.wrapper)) ++result.failed;
      // 2. replay: a second session with every Feed and the Finish spanned
      {
        ScopedSpan root("request.replay", id);
        StreamOutcome replay = StreamPage(rt, handle, bytes, id, page.nodes);
        if (!Matches(replay.xml, page, spec.wrapper)) ++result.failed;
      }
    } else {
      // 1. the real Wrap
      const runtime::RuntimeStats s0 = rt.stats();
      util::Result<std::string> xml = util::Status::Internal("");
      int64_t t0 = 0, t1 = 0;
      {
        ScopedSpan span("request.real", id);
        t0 = NowNs();
        xml = rt.Wrap(handle, bytes);
        t1 = NowNs();
      }
      real_ns += static_cast<double>(t1 - t0);
      const runtime::RuntimeStats s1 = rt.stats();
      if (!Matches(xml, page, spec.wrapper)) ++result.failed;
      const bool memo_hit = s1.memo_hits > s0.memo_hits;
      const bool doc_hit = s1.document_cache.hits > s0.document_cache.hits;
      const bool grounded = s1.grounded_evals > s0.grounded_evals;

      // 2. replay of the stages it took
      const util::Hash128 hash = util::HashBytes128(bytes);
      if (!memo_hit && doc_hit) {
        // Make the page resident in the bench's cache (untimed).
        if (!probe_docs.GetOrParse(bytes, def.project_attr, hash).ok()) {
          Fail("probe document cache failed");
        }
      }
      ScopedSpan root("request.replay", id);
      {
        ScopedSpan span("util.hash", id);
        span.set_units(kb);
        g_sink += static_cast<int64_t>(util::HashBytes128(bytes).lo);
      }
      if (memo_hit) {
        ScopedSpan span("runtime.memo.copy", id);
        std::string copy = *xml;
        g_sink += static_cast<int64_t>(copy.size());
      } else {
        std::optional<html::Document> parsed;
        std::optional<tree::Tree> projected;
        std::shared_ptr<const runtime::CachedDocument> doc;
        const tree::Tree* t = nullptr;
        {
          ScopedSpan fetch("runtime.doc_fetch", id);
          if (doc_hit) {
            ScopedSpan span("runtime.doc_cache.hit", id);
            auto got = probe_docs.GetOrParse(bytes, def.project_attr, hash);
            if (!got.ok()) Fail("probe document cache failed");
            doc = *std::move(got);
            t = &doc->tree();
          } else {
            {
              ScopedSpan span("html.parse", id);
              span.set_units(page.nodes);
              auto d = html::ParseHtml(bytes);
              if (!d.ok()) Fail("replay parse failed");
              parsed.emplace(*std::move(d));
            }
            t = &parsed->tree();
            if (!def.project_attr.empty()) {
              ScopedSpan span("html.project", id);
              span.set_units(page.nodes);
              projected.emplace(
                  html::ProjectAttributeIntoLabels(*parsed, def.project_attr));
              t = &*projected;
            }
          }
        }
        elog::ElogResult matches;
        if (grounded) {
          util::Result<core::EvalResult> eval = util::Status::Internal("");
          {
            ScopedSpan span("core.eval_grounded", id);
            span.set_units(page.nodes);
            eval = core::EvaluateGrounded(*program.ground_plan, *t, &arena);
          }
          if (!eval.ok()) Fail("replay eval failed");
          ScopedSpan span("runtime.collect_matches", id);
          matches = CollectMatches(program, *eval);
        } else {
          ScopedSpan span("elog.eval_native", id);
          span.set_units(page.nodes);
          auto m = elog::EvaluateElog(program.prepared.program, *t);
          if (!m.ok()) Fail("replay eval failed");
          matches = *std::move(m);
        }
        tree::Tree out;
        {
          ScopedSpan span("wrapper.output_tree", id);
          span.set_units(page.nodes);
          out = wrapper::BuildOutputTree(program.prepared.extraction_patterns,
                                         matches, *t);
        }
        std::string replayed;
        {
          ScopedSpan span("tree.to_xml", id);
          replayed = tree::ToXml(out);
          span.set_units(replayed.size() / 1024.0);
        }
        if (replayed != page.reference.at(spec.wrapper)) ++result.failed;
      }
    }

    // 3. probe: every layer once on this page
    ScopedSpan probe("request.probe", id);
    {
      ScopedSpan span("util.hash", id);
      span.set_units(kb);
      g_sink += static_cast<int64_t>(util::HashBytes128(bytes).lo);
    }
    {
      ScopedSpan span("html.tokenize", id);
      span.set_units(kb);
      g_sink += static_cast<int64_t>(html::Tokenize(bytes).size());
    }
    std::optional<html::Document> parsed;
    {
      ScopedSpan span("html.parse", id);
      span.set_units(page.nodes);
      auto d = html::ParseHtml(bytes);
      if (!d.ok()) Fail("probe parse failed");
      parsed.emplace(*std::move(d));
    }
    tree::Tree projected;
    {
      ScopedSpan span("html.project", id);
      span.set_units(page.nodes);
      projected = html::ProjectAttributeIntoLabels(*parsed, def.project_attr);
    }
    const tree::Tree& t = projected;
    {
      const util::Hash128 hash = util::HashBytes128(bytes);
      // Resident first (untimed would need a second root; the first call is
      // outside the span below).
      if (!probe_docs.GetOrParse(bytes, def.project_attr, hash).ok()) {
        Fail("probe document cache failed");
      }
      ScopedSpan span("runtime.doc_cache.hit", id);
      g_sink += probe_docs.GetOrParse(bytes, def.project_attr, hash).ok();
    }
    if (program.has_ground_plan) {
      util::Result<core::EvalResult> eval = util::Status::Internal("");
      {
        ScopedSpan span("core.eval_grounded", id);
        span.set_units(page.nodes);
        eval = core::EvaluateGrounded(*program.ground_plan, t, &arena);
      }
      if (!eval.ok()) Fail("probe eval failed");
      grounded_nodes += page.nodes;
      clauses += arena.flat.num_clauses();
      literals += arena.flat.NumLiterals();
      derived += eval->num_derived();
      ScopedSpan span("core.horn_solve", id);
      span.set_units(page.nodes);
      g_sink +=
          static_cast<int64_t>(core::SolveHorn(arena.flat, &scratch).size());
    }
    util::Result<elog::ElogResult> matches = util::Status::Internal("");
    {
      ScopedSpan span("elog.eval_native", id);
      span.set_units(page.nodes);
      matches = elog::EvaluateElog(program.prepared.program, t);
    }
    if (!matches.ok()) Fail("probe native eval failed");
    tree::Tree out;
    {
      ScopedSpan span("wrapper.output_tree", id);
      span.set_units(page.nodes);
      out = wrapper::BuildOutputTree(program.prepared.extraction_patterns,
                                     *matches, t);
    }
    std::string xml;
    {
      ScopedSpan span("tree.to_xml", id);
      xml = tree::ToXml(out);
      span.set_units(xml.size() / 1024.0);
    }
    if (xml != page.reference.at(spec.wrapper)) ++result.failed;
    xml_bytes += static_cast<int64_t>(xml.size());
    ++probed;
    {
      StreamOutcome s = StreamPage(rt, handle, bytes, id, page.nodes);
      if (!Matches(s.xml, page, spec.wrapper)) ++result.failed;
      stream_results += s.results;
      stream_before_eof += s.results_before_eof;
      first_result_bytes += s.bytes_at_first_result;
    }
    {
      // The memo-hit path: a page wrapped once (untimed), then again.
      const runtime::WrapperHandle& h = hit_handles[spec.wrapper];
      if (!hit_rt.Wrap(h, bytes).ok()) Fail("probe wrap failed");
      const int64_t hits = hit_rt.stats().memo_hits;
      util::Result<std::string> again = util::Status::Internal("");
      {
        ScopedSpan span("runtime.memo.hit_path", id);
        again = hit_rt.Wrap(h, bytes);
      }
      if (!Matches(again, page, spec.wrapper)) ++result.failed;
      if (hit_rt.stats().memo_hits != hits + 1) Fail("memo-hit probe missed");
    }
    // Telemetry on vs off on the path this workload takes: fresh variants
    // for fresh workloads, resident pages (memo hits) for hot ones.
    if (!workload.fresh()) {
      g_sink += tel_on.Wrap(on_handles[spec.wrapper], bytes).ok();
      g_sink += tel_off.Wrap(off_handles[spec.wrapper], bytes).ok();
    }
    for (int rep = 0; rep < 2; ++rep) {
      for (int side = 0; side < 2; ++side) {
        workload.RequestBytes(spec, nonce++, &bytes2);
        runtime::WrapperRuntime& trt = side == 0 ? tel_on : tel_off;
        const auto& th = side == 0 ? on_handles : off_handles;
        util::Result<std::string> x = util::Status::Internal("");
        {
          ScopedSpan span(
              side == 0 ? "telemetry.on_wrap" : "telemetry.off_wrap", id);
          x = trt.Wrap(th[spec.wrapper], bytes2);
        }
        if (!Matches(x, page, spec.wrapper)) ++result.failed;
      }
    }
  }

  // --- pool balance: a batch on the pool vs the same work on one thread -----
  const int batch = 2 * config.threads;
  const int pool_reps = config.toy ? 1 : 3;
  const std::vector<RequestSpec> pool_sample = workload.Sample(batch);
  double batch_ns = 0, service_ns = 0;
  for (int rep = 0; rep < pool_reps; ++rep) {
    ScopedSpan root("pool.probe", 0);
    std::vector<std::string> pages(batch);
    std::vector<runtime::Request> requests;
    for (int i = 0; i < batch; ++i) {
      workload.RequestBytes(pool_sample[i], nonce++, &pages[i]);
      requests.push_back({runtime::PageRef::View(pages[i]),
                          handles[pool_sample[i].wrapper], {}});
    }
    std::vector<util::Result<std::string>> results;
    {
      ScopedSpan span("runtime.pool.batch", 0);
      const int64_t t0 = NowNs();
      results = rt.SubmitBatch(std::move(requests));
      batch_ns += static_cast<double>(NowNs() - t0);
    }
    for (int i = 0; i < batch; ++i) {
      const RequestSpec& s = pool_sample[i];
      if (!Matches(results[i], inputs.pages[s.page], s.wrapper)) {
        ++result.failed;
      }
      workload.RequestBytes(s, nonce++, &pages[i]);
      ScopedSpan span("runtime.pool.service", 0);
      const int64_t t0 = NowNs();
      util::Result<std::string> x = rt.Wrap(handles[s.wrapper], pages[i]);
      service_ns += static_cast<double>(NowNs() - t0);
      if (!Matches(x, inputs.pages[s.page], s.wrapper)) ++result.failed;
    }
  }

  // --- size sweep: ns/node of parse, eval and XML from 1k to 128k nodes -----
  const auto sweep_handle = hit_rt.Register(
      LoadRepoWrapper(config.wrapper_dir + "/catalog_clean.elog").wrapper,
      "class");
  if (!sweep_handle.ok() || !sweep_handle->program->has_ground_plan) {
    Fail("sweep needs catalog_clean.elog with a ground plan");
  }
  const runtime::CompiledWrapperProgram& sweep_program = *sweep_handle->program;
  const int max_shift = config.toy ? 1 : 7;
  struct Bucket {
    double parse = 1e300, eval = 1e300, xml = 1e300;  // best ns/node
  };
  std::vector<Bucket> buckets;
  for (int shift = 0; shift <= max_shift; ++shift) {
    util::Rng rng(config.seed + static_cast<uint64_t>(shift));
    const std::string html =
        GeneratePage(PageKind::kCatalog, 1024 << shift, rng);
    Bucket b;
    for (int rep = 0; rep < 3; ++rep) {
      ScopedSpan root("sweep", shift);
      std::optional<html::Document> doc;
      int64_t t0 = NowNs();
      {
        ScopedSpan span("html.parse", shift);
        auto d = html::ParseHtml(html);
        if (!d.ok()) Fail("sweep parse failed");
        doc.emplace(*std::move(d));
      }
      const double nodes = doc->tree().size();
      b.parse = std::min(b.parse, (NowNs() - t0) / nodes);
      const tree::Tree t = html::ProjectAttributeIntoLabels(*doc, "class");
      t0 = NowNs();
      util::Result<core::EvalResult> eval = util::Status::Internal("");
      {
        ScopedSpan span("core.eval_grounded", shift);
        eval = core::EvaluateGrounded(*sweep_program.ground_plan, t, &arena);
      }
      b.eval = std::min(b.eval, (NowNs() - t0) / nodes);
      if (!eval.ok()) Fail("sweep eval failed");
      const tree::Tree out = wrapper::BuildOutputTree(
          sweep_program.prepared.extraction_patterns,
          CollectMatches(sweep_program, *eval), t);
      t0 = NowNs();
      {
        ScopedSpan span("tree.to_xml", shift);
        g_sink += static_cast<int64_t>(tree::ToXml(out).size());
      }
      b.xml = std::min(
          b.xml, static_cast<double>(NowNs() - t0) / std::max(1, out.size()));
    }
    std::printf(
        "sweep %s: %d nodes: parse %.1f eval %.1f to_xml %.1f ns/node\n",
        config.workload.c_str(), 1024 << shift, b.parse, b.eval, b.xml);
    buckets.push_back(b);
  }

  SetActiveRecorder(nullptr);
  CheckSpans(recorder);
  if (!config.spans_path.empty()) recorder.WriteJson(config.spans_path);

  // --- metrics ---------------------------------------------------------------
  const SpanIndex index(recorder);
  MetricMap& m = result.metrics;
  auto probe = [&](const char* name) {
    return index.Get("request.probe", name);
  };
  m["util.hash_ns_per_kb"] = probe("util.hash").PerUnit();
  m["html.tokenize_ns_per_kb"] = probe("html.tokenize").PerUnit();
  const Agg parse = probe("html.parse");
  m["html.tree_build_ns_per_node"] =
      (parse.ns - probe("html.tokenize").ns) / std::max(parse.units, 1.0);
  m["html.project_ns_per_node"] = probe("html.project").PerUnit();
  m["runtime.doc_cache.hit_ns"] = probe("runtime.doc_cache.hit").Mean();
  m["runtime.memo.hit_path_ns"] = probe("runtime.memo.hit_path").Mean();
  m["runtime.pool.idle_share"] =
      1.0 - service_ns / (config.threads * std::max(batch_ns, 1.0));
  const double replayed = index.Covered("request.replay");
  m["runtime.glue_ns_per_req"] =
      (real_ns - replayed) / std::max<double>(sample.size(), 1);
  m["trace.coverage"] = replayed / std::max(real_ns, 1.0);
  double reg = 0;
  for (double us : register_us) reg += us;
  m["runtime.program_cache.register_us"] =
      reg / std::max<size_t>(register_us.size(), 1);
  m["runtime.program_cache.canonical_key_hits"] =
      static_cast<double>(rt.stats().program_cache.canonical_key_hits);
  auto setup_us = [&](const char* name) {
    return index.Get("setup.probe", name).Mean() / 1e3;
  };
  m["analysis.canonical_key_us"] = setup_us("analysis.canonical_key");
  m["elog.to_datalog_us"] = setup_us("elog.to_datalog");
  m["tmnf.to_tmnf_us"] = setup_us("tmnf.to_tmnf");
  m["core.ground_plan_compile_us"] = setup_us("core.ground_plan_compile");
  const Agg eval = probe("core.eval_grounded");
  const Agg horn = probe("core.horn_solve");
  m["core.eval_grounded_ns_per_node"] = eval.PerUnit();
  m["core.horn_solve_ns_per_node"] = horn.PerUnit();
  m["core.ground_extract_ns_per_node"] = eval.PerUnit() - horn.PerUnit();
  const double gn = std::max<double>(grounded_nodes, 1);
  m["core.clauses_per_node"] = clauses / gn;
  m["core.literals_per_node"] = literals / gn;
  m["core.derived_per_node"] = derived / gn;
  m["elog.eval_native_ns_per_node"] = probe("elog.eval_native").PerUnit();
  m["wrapper.output_tree_ns_per_node"] = probe("wrapper.output_tree").PerUnit();
  m["tree.to_xml_ns_per_out_kb"] = probe("tree.to_xml").PerUnit();
  m["tree.xml_bytes_per_page"] =
      static_cast<double>(xml_bytes) / std::max<int64_t>(probed, 1);
  m["stream.feed_ns_per_kb"] = probe("stream.feed").PerUnit();
  m["stream.finish_ns_per_node"] = probe("stream.finish").PerUnit();
  m["stream.bytes_until_first_result"] =
      static_cast<double>(first_result_bytes) / std::max<int64_t>(probed, 1);
  m["stream.results_before_eof_share"] =
      stream_results > 0
          ? static_cast<double>(stream_before_eof) / stream_results
          : 0;
  const Agg on = probe("telemetry.on_wrap");
  const Agg off = probe("telemetry.off_wrap");
  m["telemetry.overhead_ns_per_req"] = on.Mean() - off.Mean();
  m["html.parse_linearity"] = buckets.back().parse / buckets.front().parse;
  m["core.eval_linearity"] = buckets.back().eval / buckets.front().eval;
  m["tree.to_xml_linearity"] = buckets.back().xml / buckets.front().xml;
  std::printf("trace %s: %zu requests, %zu spans, coverage %.3f, sink %lld\n",
              config.workload.c_str(), sample.size(), recorder.spans().size(),
              m["trace.coverage"], static_cast<long long>(g_sink & 1));
  return result;
}

}  // namespace mdbench

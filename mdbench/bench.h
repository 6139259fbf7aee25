#pragma once

// Shared pieces of the serving benchmark: generated inputs, the reference
// outputs they are checked against, the four workloads, and the bench-owned
// span recorder of the traced pass. run.py builds and drives the binary.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/html/parser.h"
#include "src/runtime/runtime.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

namespace mdbench {

using namespace mdatalog;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exits the process with a message: inputs or outputs the benchmark cannot
/// trust (a wrapper that does not parse, a reference that fails, a wrong
/// answer) must never turn into a number.
[[noreturn]] void Fail(const std::string& message);

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

enum class PageKind { kCatalog, kNews, kBoard };

/// One registered wrapper of a workload.
struct WrapperDef {
  std::string name;
  wrapper::Wrapper wrapper;
  std::string project_attr = "class";
};

/// A generated page and its reference outputs. `html` is a body-rooted page
/// (the wrappers' paths start at <body>); fresh variants prefix it with a
/// comment nonce, which the parser drops, so the references hold for every
/// variant.
struct Page {
  PageKind kind = PageKind::kCatalog;
  std::string html;
  int32_t nodes = 0;
  /// Index into Inputs::wrappers → reference XML of that wrapper.
  std::map<int, std::string> reference;
};

/// A request template: one page through one wrapper.
struct RequestSpec {
  int page = 0;
  int wrapper = 0;
};

struct Inputs {
  std::vector<WrapperDef> wrappers;
  std::vector<Page> pages;
  /// The wrapper each page kind is served with (index into `wrappers`).
  int kind_wrapper[3] = {0, 0, 0};
  int WrapperFor(PageKind kind) const {
    return kind_wrapper[static_cast<int>(kind)];
  }
};

/// Generates a page of `kind` with roughly `target_nodes` nodes.
std::string GeneratePage(PageKind kind, int32_t target_nodes, util::Rng& rng);
/// Reference output: wrapper::WrapHtmlToXml's path — the native Elog engine,
/// independent of the grounded engine the runtime serves with — over the
/// parsed page, projected as the wrapper is registered.
std::string ReferenceXml(const WrapperDef& def, const html::Document& doc);
/// The bytes of fresh variant `nonce` of `page`, into `out` (reused buffer).
void FreshVariant(const Page& page, uint64_t nonce, std::string* out);

/// The wrappers the workloads register: repository wrappers from
/// examples/wrappers (read at run time) plus the bench's own.
WrapperDef LoadRepoWrapper(const std::string& file);
/// News stories under the root's story list.
WrapperDef NewsWrapper();
/// Recursive: posts at every depth of the board's reply tree.
WrapperDef BoardWrapper();
/// Wrappers that find their records at any depth (recursive descent from
/// the root). Their derivations do not hinge on which node ends up as the
/// root, so a stream session can emit results before end of input.
WrapperDef AnywhereWrapper(PageKind kind);

// ---------------------------------------------------------------------------
// Bench spans (traced pass only)
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1 while open
  int32_t parent = -1;
  int64_t request_id = 0;
  /// Work units for per-unit metrics (bytes, nodes, ...); 0 if unused.
  double units = 0;
};

/// In-memory span store. Only the traced pass installs one; the end-to-end
/// pass runs with none, so it records no spans at all.
class SpanRecorder {
 public:
  int32_t Open(const char* name, int64_t request_id);
  void Close(int32_t id, double units);
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span: its duration minus the part covered by its
  /// direct children.
  std::vector<int64_t> SelfTimes() const;
  /// Writes the spans as a JSON array.
  void WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// The recorder of the running pass, or null (end-to-end pass).
SpanRecorder* ActiveRecorder();
void SetActiveRecorder(SpanRecorder* recorder);

/// RAII bench span around one call into a layer. No-op without a recorder.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, int64_t request_id);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_units(double units) { units_ = units; }

 private:
  SpanRecorder* recorder_;
  int32_t id_ = -1;
  double units_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;  // self-test size: tiny inputs, short runs
  int threads = 4;  // pool workers and client threads (nproc)
  std::string wrapper_dir = "examples/wrappers";  // relative to the repo root
  std::string spans_path;  // where the traced pass writes its spans
};

/// Per-request results of a measured loop.
struct LoopResult {
  int64_t attempted = 0;
  int64_t failed = 0;      // non-OK statuses plus reference mismatches
  double wall_s = 0;       // measured time the requests ran in
  std::vector<float> latency_us;       // sampled per-request latencies
  std::vector<float> first_result_us;  // sampled time to first result
};

/// A workload: its inputs, runtime options, the warm-up that belongs to its
/// set-up, and its closed measurement loop.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Seeded input generation (outside every timing).
  virtual void Generate(const RunConfig& config) = 0;
  virtual runtime::RuntimeOptions Options(const RunConfig& config) const;
  /// Warm-up pass run after Register as part of set-up.
  virtual void WarmUp(runtime::WrapperRuntime& rt,
                      const std::vector<runtime::WrapperHandle>& handles) = 0;
  /// The measured closed loop.
  virtual LoopResult Run(runtime::WrapperRuntime& rt,
                         const std::vector<runtime::WrapperHandle>& handles,
                         double seconds) = 0;
  /// A fixed sample of this workload's requests for the traced pass.
  virtual std::vector<RequestSpec> Sample(int n) const = 0;
  virtual bool fresh() const = 0;
  virtual bool streaming() const { return false; }
  /// Bytes of a sampled request (fresh workloads: variant `nonce`).
  void RequestBytes(const RequestSpec& spec, uint64_t nonce,
                    std::string* out) const;

  const Inputs& inputs() const { return inputs_; }
  /// Prints the stated input size: page count and node/byte distribution.
  void DescribeInputs(const std::string& name) const;

 protected:
  Inputs inputs_;
  uint64_t seed_ = 1;
};

/// The workload named `name`, or null.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// Checks one result against the page's reference; true when it matches.
bool Matches(const util::Result<std::string>& result, const Page& page,
             int wrapper);

// ---------------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------------

using MetricMap = std::map<std::string, double>;

struct TracedResult {
  MetricMap metrics;
  int64_t attempted = 0;
  int64_t failed = 0;  // wrong or failed answers, real or replayed
};

/// Runs the traced pass of `workload` on the warmed runtime `rt` and returns
/// the per-layer metrics it measures (the cache rates come from main).
TracedResult RunTracedPass(const RunConfig& config, Workload& workload,
                        runtime::WrapperRuntime& rt,
                        const std::vector<runtime::WrapperHandle>& handles,
                        const std::vector<double>& register_us);

double Median(std::vector<double> values);
double Percentile(std::vector<float> values, double q);

}  // namespace mdbench

// The serving benchmark binary.
//
//   mdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--toy] [--spans <file>]
//
// Run from the repository root: the wrappers are read from
// examples/wrappers. The pool has nproc workers and the closed loops nproc
// client threads. --toy shrinks inputs for the self-test; --spans names the
// file the bench spans are written to.
//
// --trace 0 runs the end-to-end pass (no bench spans) and prints the
// end-to-end metrics; --trace 1 runs a short load phase and then the
// single-threaded traced pass, and prints the per-layer metrics. The last
// line of stdout is one JSON object {correct, attempted, failed, metrics}.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "mdbench/bench.h"
#include "src/core/simd_kernels.h"

namespace mdbench {
namespace {

struct Setup {
  std::unique_ptr<runtime::WrapperRuntime> rt;
  std::vector<runtime::WrapperHandle> handles;
  std::vector<double> register_us;  // per wrapper
  double seconds = 0;
};

/// Runtime construction + Register of the workload's wrappers + warm-up:
/// what `setup_s` measures. Input generation happened before.
Setup SetUp(const RunConfig& config, Workload& workload) {
  Setup s;
  const int64_t t0 = NowNs();
  s.rt = std::make_unique<runtime::WrapperRuntime>(workload.Options(config));
  for (const WrapperDef& def : workload.inputs().wrappers) {
    const int64_t r0 = NowNs();
    auto handle = s.rt->Register(def.wrapper, def.project_attr);
    s.register_us.push_back((NowNs() - r0) / 1e3);
    if (!handle.ok()) {
      Fail("Register " + def.name + ": " + handle.status().ToString());
    }
    s.handles.push_back(*std::move(handle));
  }
  workload.WarmUp(*s.rt, s.handles);
  s.seconds = (NowNs() - t0) / 1e9;
  return s;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

void PrintHost(const RunConfig& config) {
  std::printf(
      "host: {\"nproc\": %u, \"threads\": %d, \"kernel\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
      std::thread::hardware_concurrency(), config.threads,
      core::simd::ActiveKernelName(), MDBENCH_COMPILER, MDBENCH_BUILD_TYPE);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Units of the per-layer metrics, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>>& LayerUnits() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"util.hash_ns_per_kb", "ns/KB"},
      {"html.tokenize_ns_per_kb", "ns/KB"},
      {"html.tree_build_ns_per_node", "ns/node"},
      {"html.project_ns_per_node", "ns/node"},
      {"runtime.doc_cache.hit_rate", "ratio"},
      {"runtime.doc_cache.evictions_per_kreq", "1/kreq"},
      {"runtime.doc_cache.admission_rejects_per_kreq", "1/kreq"},
      {"runtime.doc_cache.hit_ns", "ns"},
      {"runtime.memo.hit_rate", "ratio"},
      {"runtime.memo.admission_rejects_per_kreq", "1/kreq"},
      {"runtime.memo.hit_path_ns", "ns"},
      {"runtime.pool.idle_share", "ratio"},
      {"runtime.glue_ns_per_req", "ns"},
      {"runtime.program_cache.register_us", "us"},
      {"runtime.program_cache.canonical_key_hits", "count"},
      {"analysis.canonical_key_us", "us"},
      {"elog.to_datalog_us", "us"},
      {"tmnf.to_tmnf_us", "us"},
      {"core.ground_plan_compile_us", "us"},
      {"core.eval_grounded_ns_per_node", "ns/node"},
      {"core.horn_solve_ns_per_node", "ns/node"},
      {"core.ground_extract_ns_per_node", "ns/node"},
      {"core.clauses_per_node", "1/node"},
      {"core.literals_per_node", "1/node"},
      {"core.derived_per_node", "1/node"},
      {"elog.eval_native_ns_per_node", "ns/node"},
      {"wrapper.output_tree_ns_per_node", "ns/node"},
      {"tree.to_xml_ns_per_out_kb", "ns/KB"},
      {"tree.xml_bytes_per_page", "bytes"},
      {"stream.feed_ns_per_kb", "ns/KB"},
      {"stream.finish_ns_per_node", "ns/node"},
      {"stream.bytes_until_first_result", "bytes"},
      {"stream.results_before_eof_share", "ratio"},
      {"telemetry.overhead_ns_per_req", "ns"},
      {"html.parse_linearity", "ratio"},
      {"core.eval_linearity", "ratio"},
      {"tree.to_xml_linearity", "ratio"},
      {"trace.coverage", "ratio"},
  };
  return units;
}

int Main(int argc, char** argv) {
  RunConfig config;
  config.threads = static_cast<int>(std::thread::hardware_concurrency());
  if (config.threads < 1) config.threads = 1;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fail("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value() == "1";
      have_trace = true;
    } else if (arg == "--toy") {
      config.toy = true;
    } else if (arg == "--spans") {
      config.spans_path = value();
    } else {
      Fail("unknown argument " + arg);
    }
  }
  std::unique_ptr<Workload> workload = MakeWorkload(config.workload);
  if (workload == nullptr || !have_trace || !(config.seconds > 0)) {
    Fail("usage: mdbench --workload <name> --seed <n> --seconds <s> "
         "--trace <0|1>");
  }
  PrintHost(config);
#ifndef NDEBUG
  Fail("refusing to report numbers from a build without NDEBUG");
#endif
  if (std::strcmp(MDBENCH_BUILD_TYPE, "Release") != 0) {
    Fail(std::string("refusing to report numbers from a ") +
         MDBENCH_BUILD_TYPE + " build; build Release");
  }

  workload->Generate(config);
  workload->DescribeInputs(config.workload);
  std::fflush(stdout);

  if (!config.trace) {
    // Set up several times and keep the last runtime; setup_s is the median.
    constexpr int kSetups = 5;
    std::vector<double> setup_s;
    Setup setup;
    for (int i = 0; i < kSetups; ++i) {
      setup = Setup{};  // the previous runtime dies outside the timing
      setup = SetUp(config, *workload);
      setup_s.push_back(setup.seconds);
    }
    // A recorder stays installed through the measured loop: any bench span
    // on the end-to-end path would land in it, and it must stay empty.
    SpanRecorder sentinel;
    SetActiveRecorder(&sentinel);
    const runtime::RuntimeStats before = setup.rt->stats();
    LoopResult r = workload->Run(*setup.rt, setup.handles, config.seconds);
    const runtime::RuntimeStats after = setup.rt->stats();
    SetActiveRecorder(nullptr);
    if (!config.spans_path.empty()) sentinel.WriteJson(config.spans_path);
    if (!sentinel.spans().empty()) Fail("end-to-end pass recorded spans");
    const double error_rate =
        r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;
    std::printf("result %s: %lld requests in %.3f s, %zu latency samples, "
                "error_rate %.6g\n",
                config.workload.c_str(), static_cast<long long>(r.attempted),
                r.wall_s, r.latency_us.size(), error_rate);
    std::printf("result %s: memo hits %lld misses %lld, document cache hits "
                "%lld misses %lld\n",
                config.workload.c_str(),
                static_cast<long long>(after.memo_hits - before.memo_hits),
                static_cast<long long>(after.memo_misses - before.memo_misses),
                static_cast<long long>(after.document_cache.hits -
                                       before.document_cache.hits),
                static_cast<long long>(after.document_cache.misses -
                                       before.document_cache.misses));
    const std::vector<Metric> metrics = {
        {"pages_per_s", r.attempted / r.wall_s, "1/s"},
        {"latency_p50_us", Percentile(r.latency_us, 0.50), "us"},
        {"latency_p99_us", Percentile(r.latency_us, 0.99), "us"},
        {"first_result_p50_us", Percentile(r.first_result_us, 0.50), "us"},
        {"first_result_p99_us", Percentile(r.first_result_us, 0.99), "us"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    const bool correct = r.failed == 0 && r.attempted > 0;
    PrintResult(correct, r.attempted, r.failed, metrics);
    return correct ? 0 : 1;
  }

  // Traced run: set up once, put the runtime under the workload's load for
  // half the time (cache counters), then the single-threaded traced pass.
  Setup setup = SetUp(config, *workload);
  const runtime::RuntimeStats before = setup.rt->stats();
  LoopResult load =
      workload->Run(*setup.rt, setup.handles, config.seconds / 2);
  const runtime::RuntimeStats after = setup.rt->stats();
  if (load.failed != 0) Fail("load phase returned wrong results");

  TracedResult traced = RunTracedPass(config, *workload, *setup.rt,
                                      setup.handles, setup.register_us);
  MetricMap& layers = traced.metrics;
  const double kreq = std::max<int64_t>(load.attempted, 1) / 1000.0;
  auto rate = [](int64_t hits, int64_t misses) {
    return hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                             : 0.0;
  };
  const auto& d0 = before.document_cache;
  const auto& d1 = after.document_cache;
  layers["runtime.doc_cache.hit_rate"] =
      rate(d1.hits - d0.hits, d1.misses - d0.misses);
  layers["runtime.doc_cache.evictions_per_kreq"] =
      (d1.evictions - d0.evictions) / kreq;
  layers["runtime.doc_cache.admission_rejects_per_kreq"] =
      (d1.admission_rejects - d0.admission_rejects) / kreq;
  layers["runtime.memo.hit_rate"] =
      rate(after.memo_hits - before.memo_hits,
           after.memo_misses - before.memo_misses);
  layers["runtime.memo.admission_rejects_per_kreq"] =
      (after.memo_admission_rejects - before.memo_admission_rejects) / kreq;

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : LayerUnits()) {
    auto it = layers.find(name);
    if (it == layers.end()) Fail(std::string("traced pass lacks ") + name);
    metrics.push_back({name, it->second, unit});
  }
  const int64_t attempted = load.attempted + traced.attempted;
  const bool correct = traced.failed == 0 && attempted > 0;
  PrintResult(correct, attempted, traced.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mdbench

int main(int argc, char** argv) { return mdbench::Main(argc, argv); }

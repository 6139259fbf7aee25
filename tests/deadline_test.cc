// Per-request deadlines and cooperative cancellation (util/deadline.h),
// threaded from WrapperRuntime through elog/eval, wrapper/wrapper, the
// semi-naive rounds of core/eval.cc, the grounded node sweep, the Horn
// propagation loop of core/horn.cc and the TMNF worklist of
// core/tmnf_eval.cc. The contract under test: a bounded request unwinds
// with a *typed* kDeadlineExceeded / kCancelled status — it never hangs a
// worker, never returns a partial result as success, and never poisons
// shared state for later requests.

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/database.h"
#include "src/core/eval.h"
#include "src/core/grounder.h"
#include "src/core/horn.h"
#include "src/core/tmnf_eval.h"
#include "src/elog/ast.h"
#include "src/elog/eval.h"
#include "src/elog/to_datalog.h"
#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/runtime/runtime.h"
#include "src/telemetry/trace.h"
#include "src/tmnf/pipeline.h"
#include "src/tree/generator.h"
#include "src/tree/serialize.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

namespace {

using namespace mdatalog;
using std::chrono::milliseconds;

util::Deadline ExpiredDeadline() { return util::Deadline::After(milliseconds(-1)); }

wrapper::Wrapper BoardWrapper() {
  auto program = elog::ParseElog(R"(
    anynode(X) <- root(X).
    anynode(X) <- anynode(P), subelem(P, "_", X).
    litem(X) <- anynode(P), subelem(P, "li", X).
    deepleaf(X) <- litem(X), leaf(X).
  )");
  EXPECT_TRUE(program.ok());
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"litem", "deepleaf"};
  return w;
}

/// The Corollary 6.4 pipeline of BoardWrapper: the TMNF program the grounded
/// and semi-naive engines run in the serving runtime.
core::Program BoardTmnf() {
  auto datalog = elog::ElogToDatalog(BoardWrapper().program);
  EXPECT_TRUE(datalog.ok());
  auto tmnf = tmnf::ToTmnf(*datalog);
  EXPECT_TRUE(tmnf.ok());
  return *tmnf;
}

// ---------------------------------------------------------------------------
// util/deadline.h primitives
// ---------------------------------------------------------------------------

TEST(DeadlineTest, DefaultIsInfinite) {
  util::Deadline d;
  EXPECT_FALSE(d.has_deadline());
  EXPECT_FALSE(d.expired());
  EXPECT_FALSE(util::Deadline::Infinite().expired());
}

TEST(DeadlineTest, PastDeadlineIsExpired) {
  EXPECT_TRUE(ExpiredDeadline().expired());
  EXPECT_FALSE(util::Deadline::After(std::chrono::hours(1)).expired());
}

TEST(CancelTokenTest, CancelIsSticky) {
  util::CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

TEST(EvalControlTest, ChecksReportTypedStatuses) {
  EXPECT_TRUE(util::EvalControl().Check().ok());
  EXPECT_TRUE(util::EvalControl().unbounded());

  util::EvalControl expired(ExpiredDeadline(), nullptr);
  EXPECT_FALSE(expired.unbounded());
  EXPECT_EQ(expired.Check().code(), util::StatusCode::kDeadlineExceeded);

  util::CancelToken token;
  util::EvalControl cancellable(util::Deadline::Infinite(), &token);
  EXPECT_TRUE(cancellable.Check().ok());
  token.Cancel();
  // Cancellation wins over the (infinite) deadline.
  EXPECT_EQ(cancellable.Check().code(), util::StatusCode::kCancelled);
}

TEST(EvalTickerTest, NullAndUnboundedControlsNeverFail) {
  util::EvalTicker null_ticker(nullptr);
  EXPECT_FALSE(null_ticker.active());
  util::EvalControl unbounded;
  util::EvalTicker unbounded_ticker(&unbounded);
  EXPECT_FALSE(unbounded_ticker.active());
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(null_ticker.Tick().ok());
    EXPECT_TRUE(unbounded_ticker.Tick().ok());
  }
}

TEST(EvalTickerTest, StridedTickFiresWithinOneStride) {
  util::EvalControl expired(ExpiredDeadline(), nullptr);
  util::EvalTicker ticker(&expired, /*stride=*/64);
  EXPECT_TRUE(ticker.active());
  int ok_ticks = 0;
  util::Status status = util::Status::OK();
  while (status.ok() && ok_ticks <= 64) {
    status = ticker.Tick();
    if (status.ok()) ++ok_ticks;
  }
  EXPECT_EQ(status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_LT(ok_ticks, 64);
}

// ---------------------------------------------------------------------------
// Engine-level checks: every fixpoint loop unwinds with the typed status.
// ---------------------------------------------------------------------------

TEST(EngineDeadlineTest, SemiNaiveRoundsHonorTheDeadline) {
  core::Program tmnf = BoardTmnf();
  util::Rng rng(7);
  tree::Tree t = tree::RandomTree(rng, 200, {"ul", "li", "a", "b"});
  core::TreeDatabase db(t);
  util::EvalControl expired(ExpiredDeadline(), nullptr);
  core::EvalOptions options;
  options.control = &expired;
  auto result = core::EvaluateSemiNaive(tmnf, db, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
}

TEST(EngineDeadlineTest, NaiveEngineHonorsCancellation) {
  core::Program tmnf = BoardTmnf();
  util::Rng rng(8);
  tree::Tree t = tree::RandomTree(rng, 100, {"ul", "li"});
  core::TreeDatabase db(t);
  util::CancelToken token;
  token.Cancel();
  util::EvalControl control(util::Deadline::Infinite(), &token);
  core::EvalOptions options;
  options.control = &control;
  auto result = core::EvaluateNaive(tmnf, db, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCancelled);
}

TEST(EngineDeadlineTest, GroundedReplayHonorsTheControl) {
  core::Program tmnf = BoardTmnf();
  auto plan = core::GroundPlan::Compile(tmnf);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  util::Rng rng(9);
  tree::Tree t = tree::RandomTree(rng, 500, {"ul", "li", "a"});

  util::EvalControl expired(ExpiredDeadline(), nullptr);
  core::GroundArena arena;
  auto result =
      core::EvaluateGrounded(*plan, t, &arena, /*stats=*/nullptr, &expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);

  // The same arena still produces correct results afterwards — an aborted
  // replay leaves no residue (Clear() on entry).
  auto ok_result = core::EvaluateGrounded(*plan, t, &arena);
  ASSERT_TRUE(ok_result.ok());
  auto fresh = core::EvaluateGrounded(tmnf, t);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(ok_result->num_derived(), fresh->num_derived());
}

TEST(EngineDeadlineTest, TmnfBatchEntryHonorsTheControl) {
  core::Program tmnf = BoardTmnf();
  auto rules = core::TmnfRules::Compile(tmnf, {});
  ASSERT_NE(rules, nullptr);
  util::Rng rng(10);
  tree::Tree big = tree::RandomTree(rng, 5000, {"ul", "li", "a"});
  tree::Tree small = tree::RandomTree(rng, 60, {"ul", "li", "a"});
  core::TmnfEval<tree::Tree> eval;  // one scratch for every call below
  ASSERT_TRUE(eval.Evaluate(*rules, big, nullptr).ok());

  util::EvalControl expired(ExpiredDeadline(), nullptr);
  util::Status s = eval.Evaluate(*rules, big, &expired);
  EXPECT_EQ(s.code(), util::StatusCode::kDeadlineExceeded);

  util::CancelToken token;
  token.Cancel();
  util::EvalControl cancelled(util::Deadline::Infinite(), &token);
  s = eval.Evaluate(*rules, big, &cancelled);
  EXPECT_EQ(s.code(), util::StatusCode::kCancelled);

  // The aborted scratch serves the next, smaller tree correctly: nothing of
  // the big tree's facts survives.
  ASSERT_TRUE(eval.Evaluate(*rules, small, nullptr).ok());
  auto want = core::EvaluateGrounded(tmnf, small);
  ASSERT_TRUE(want.ok());
  const std::vector<bool> intensional = tmnf.IntensionalMask();
  for (core::PredId q = 0; q < tmnf.preds().size(); ++q) {
    if (intensional[q]) {
      EXPECT_EQ(eval.Members(q), want->Unary(q)) << tmnf.preds().Name(q);
    }
  }
  EXPECT_EQ(eval.num_derived(), want->num_derived());
}

TEST(EngineDeadlineTest, HornPropagationHonorsTheDeadline) {
  // An implication chain longer than the ticker stride, so the propagation
  // queue itself (not the setup) hits the poll.
  core::FlatHornInstance instance;
  const int32_t n = 3 * util::EvalTicker::kDefaultStride;
  instance.num_atoms = n;
  instance.Commit(0);  // fact: atom 0
  for (int32_t a = 1; a < n; ++a) {
    instance.body_lits.push_back(a - 1);
    instance.Commit(a);
  }
  core::HornSolveScratch scratch;
  // Unbounded: the full chain derives.
  ASSERT_TRUE(core::SolveHornBounded(instance, &scratch, nullptr).ok());
  EXPECT_TRUE(scratch.value[n - 1]);

  util::EvalControl expired(ExpiredDeadline(), nullptr);
  util::Status status = core::SolveHornBounded(instance, &scratch, &expired);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kDeadlineExceeded);
}

TEST(EngineDeadlineTest, NativeElogHonorsTheControl) {
  wrapper::Wrapper w = BoardWrapper();
  util::Rng rng(11);
  std::string page = html::NestedBoardPage(rng, 4, 3);
  auto doc = html::ParseHtml(page);
  ASSERT_TRUE(doc.ok());

  util::EvalControl expired(ExpiredDeadline(), nullptr);
  auto result = elog::EvaluateElog(w.program, doc->tree(),
                                   elog::kDefaultMaxDerivations, &expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);

  // And through the wrapper layer.
  auto wrapped = wrapper::WrapTree(w, doc->tree(), &expired);
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.status().code(), util::StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Runtime-level: the adversarial page and the serving counters.
// ---------------------------------------------------------------------------

TEST(RuntimeDeadlineTest, AdversarialPageReturnsDeadlineExceededUnder1ms) {
  // A deep synthetic board (~88k nodes): hashing + parsing + grounding far
  // exceeds 1ms on any hardware this runs on, and every stage past the entry
  // check polls cooperatively — the request must come back as a typed
  // kDeadlineExceeded, not hang the worker.
  util::Rng rng(13);
  const std::string adversarial = html::NestedBoardPage(rng, 13, 3);

  runtime::WrapperRuntime rt;
  auto handle = rt.Register(BoardWrapper());
  ASSERT_TRUE(handle.ok());

  runtime::RequestOptions request;
  request.deadline = util::Deadline::After(milliseconds(1));
  auto got = rt.Wrap(*handle, adversarial, request);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rt.stats().deadline_exceeded, 1);

  // A deadline failure is not memoized and does not poison the caches: the
  // same page without a deadline evaluates fully and correctly.
  auto unbounded = rt.Wrap(*handle, adversarial);
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
  auto doc = html::ParseHtml(adversarial);
  ASSERT_TRUE(doc.ok());
  auto reference = wrapper::WrapTree(BoardWrapper(), doc->tree());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(*unbounded, tree::ToXml(*reference));
}

TEST(RuntimeDeadlineTest, DeadlinePassedBeforeTheOutputWasBuiltIsNotOk) {
  // A 2k-node page derives fewer facts than one polling stride, so no poll
  // inside the evaluation sees a deadline that passes during evaluation or
  // output construction. The caller-owned trace says when the output was
  // built; a request whose deadline came before that must not be OK. The
  // deadlines sweep the length of one whole request, so some of them fall
  // in that window on fast and slow (sanitizer) builds alike.
  util::Rng rng(13);
  const std::string page = html::NestedBoardPage(rng, 10, 3);
  runtime::RuntimeOptions opts;
  opts.result_memo.byte_budget = 0;  // every request evaluates
  runtime::WrapperRuntime rt(opts);
  auto handle = rt.Register(BoardWrapper());
  ASSERT_TRUE(handle.ok());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(rt.Wrap(*handle, page).ok());  // the document is now cached
  const auto step = (std::chrono::steady_clock::now() - start) / 100;

  int late = 0;
  for (int round = 0; round < 20 && late == 0; ++round) {
    for (int k = 0; k <= 100; ++k) {
      telemetry::TraceContext trace("wrap");
      runtime::RequestOptions request;
      request.trace = &trace;
      request.deadline = util::Deadline::After(step * k);
      const auto got = rt.Wrap(*handle, page, request);
      const int64_t deadline_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              request.deadline.at().time_since_epoch())
              .count();
      for (const telemetry::SpanRecord& span : trace.spans()) {
        if (std::string_view(span.name) != "output.build" ||
            span.end_ns < deadline_ns) {
          continue;
        }
        ++late;
        ASSERT_FALSE(got.ok()) << "deadline step " << k;
        EXPECT_EQ(got.status().code(), util::StatusCode::kDeadlineExceeded);
      }
    }
  }
  EXPECT_GT(late, 0);
}

TEST(RuntimeDeadlineTest, ExpiredRequestFastFailsBeforeAnyWork) {
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(BoardWrapper());
  ASSERT_TRUE(handle.ok());
  runtime::RequestOptions request;
  request.deadline = ExpiredDeadline();
  auto got = rt.Wrap(*handle, "<ul><li>x</li></ul>", request);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kDeadlineExceeded);
  // Fast-fail means no parse, no cache traffic.
  EXPECT_EQ(rt.stats().document_cache.misses, 0);
  EXPECT_EQ(rt.stats().pages_wrapped, 0);
}

TEST(RuntimeDeadlineTest, MixedBoundedAndUnboundedTrafficAt8Threads) {
  // 8 workers, half the requests carrying an already-expired deadline: the
  // bounded half must all fail typed, the unbounded half must all succeed
  // byte-identically — bounded failures never bleed into neighbors.
  runtime::RuntimeOptions opts;
  opts.num_threads = 8;
  opts.result_memo.byte_budget = 0;  // every request actually evaluates
  runtime::WrapperRuntime rt(opts);
  auto handle = rt.Register(BoardWrapper());
  ASSERT_TRUE(handle.ok());

  std::vector<std::string> pages;
  std::vector<std::string> expected;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    util::Rng rng(seed);
    pages.push_back(html::NestedBoardPage(rng, 3, 3));
    auto doc = html::ParseHtml(pages.back());
    ASSERT_TRUE(doc.ok());
    auto ref = wrapper::WrapTree(BoardWrapper(), doc->tree());
    ASSERT_TRUE(ref.ok());
    expected.push_back(tree::ToXml(*ref));
  }

  runtime::RequestOptions expired_request;
  expired_request.deadline = ExpiredDeadline();
  std::vector<std::future<util::Result<std::string>>> bounded;
  std::vector<std::future<util::Result<std::string>>> unbounded;
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < pages.size(); ++i) {
      bounded.push_back(rt.Submit(
          {runtime::PageRef::View(pages[i]), *handle, expired_request}));
      unbounded.push_back(
          rt.Submit({runtime::PageRef::View(pages[i]), *handle, {}}));
    }
  }
  for (auto& f : bounded) {
    auto got = f.get();
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), util::StatusCode::kDeadlineExceeded);
  }
  size_t i = 0;
  for (auto& f : unbounded) {
    auto got = f.get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, expected[i % pages.size()]);
    ++i;
  }
  EXPECT_EQ(rt.stats().deadline_exceeded,
            static_cast<int64_t>(bounded.size()));
}

}  // namespace

// Failure injection: every parser and translator in the library must turn
// malformed input into a clean Status — never crash, never silently accept.
// Plus resource-limit behavior (budgets return ResourceExhausted, not hangs).

#include <pthread.h>

#include <functional>
#include <string_view>

#include <gtest/gtest.h>

#include "src/caterpillar/eval.h"
#include "src/caterpillar/expr.h"
#include "src/core/eval.h"
#include "src/core/grounder.h"
#include "src/core/parser.h"
#include "src/core/examples.h"
#include "src/core/program_generator.h"
#include "src/core/validate.h"
#include "src/elog/ast.h"
#include "src/elog/eval.h"
#include "src/html/parser.h"
#include "src/mso/compile.h"
#include "src/mso/formula.h"
#include "src/runtime/runtime.h"
#include "src/stream/stream_session.h"
#include "src/tmnf/pipeline.h"
#include "src/tree/generator.h"
#include "src/tree/serialize.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"
#include "src/xpath/xpath.h"
#include "tests/random_garbage.h"

namespace mdatalog {
namespace {

// ---------------------------------------------------------------------------
// Fuzz-ish inputs: random byte soup through every parser
// ---------------------------------------------------------------------------

using testing_util::RandomGarbage;

TEST(RobustnessTest, ParsersSurviveGarbage) {
  util::Rng rng(20260610);
  for (int trial = 0; trial < 300; ++trial) {
    std::string junk = RandomGarbage(rng, 1 + rng.Below(60));
    // Each call must return (ok or error) — no crash, no hang.
    (void)core::ParseProgram(junk);
    (void)caterpillar::ParseExpr(junk);
    (void)mso::ParseFormula(junk);
    (void)elog::ParseElog(junk);
    (void)xpath::ParseXPath(junk);
  }
  SUCCEED();
}

TEST(RobustnessTest, HtmlParserSurvivesGarbage) {
  util::Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    std::string junk = RandomGarbage(rng, 1 + rng.Below(120));
    auto doc = html::ParseHtml(junk);
    if (doc.ok()) {
      // Whatever came out must be a well-formed tree.
      const tree::Tree& t = doc->tree();
      const tree::Tree::Columns c = t.columns();
      EXPECT_TRUE(tree::CheckStructure({t.size(), c.parent, c.first_child,
                                        c.last_child, c.prev_sibling,
                                        c.next_sibling, c.label},
                                       static_cast<int32_t>(t.labels().size()))
                      .ok());
    }
  }
}

TEST(RobustnessTest, HtmlPathologies) {
  // Deeply nested, never closed.
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "<div>";
  auto doc = html::ParseHtml(deep + "x");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->tree().size(), 201);
  // The root strip shifted every id down by one; the chain is one id range.
  EXPECT_EQ(doc->tree().label_name(199), "div");
  EXPECT_EQ(doc->tree().text(200), "x");
  EXPECT_EQ(tree::LastDescendant(doc->tree(), 0), 200);
  EXPECT_EQ(doc->tree().SubtreeText(0), "x");
  std::string xml;
  for (int i = 0; i < 200; ++i) xml += "<div>";
  xml += "<#text>x</#text>";
  for (int i = 0; i < 200; ++i) xml += "</div>";
  EXPECT_EQ(tree::ToXml(doc->tree(), -1), xml);
  // A wall of end tags with no matching start.
  EXPECT_FALSE(html::ParseHtml("</a></b></c>").ok());  // no content at all
  // Attributes with every quoting style and junk between them.
  auto attrs = html::ParseHtml("<a x=1 === y='2' \"stray\" z>t</a>");
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->GetAttr(0, "x"), "1");
  EXPECT_EQ(attrs->GetAttr(0, "y"), "2");
  EXPECT_TRUE(attrs->HasAttr(0, "z"));
}

// ---------------------------------------------------------------------------
// Random program × random tree sweeps through every engine must agree and
// never crash (wider than the per-module suites: one shared corpus).
// ---------------------------------------------------------------------------

TEST(RobustnessTest, EngineSweepNeverDiverges) {
  util::Rng rng(909);
  for (int trial = 0; trial < 30; ++trial) {
    core::ProgramGenOptions opts;
    opts.num_rules = 1 + static_cast<int32_t>(rng.Below(10));
    opts.num_idb_preds = 1 + static_cast<int32_t>(rng.Below(5));
    opts.max_body_atoms = 1 + static_cast<int32_t>(rng.Below(6));
    opts.allow_extended = rng.Chance(1, 2);
    core::Program p = core::RandomMonadicProgram(rng, opts);
    tree::Tree t = tree::RandomTree(
        rng, 1 + static_cast<int32_t>(rng.Below(30)), {"a", "b"});
    auto semi = core::EvaluateOnTree(p, t, core::Engine::kSemiNaive);
    auto naive = core::EvaluateOnTree(p, t, core::Engine::kNaive);
    ASSERT_TRUE(semi.ok());
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(semi->Unary(p.query_pred()), naive->Unary(p.query_pred()));
    // The TMNF pipeline must accept everything the generator emits.
    auto tmnf = tmnf::ToTmnf(p);
    ASSERT_TRUE(tmnf.ok()) << tmnf.status().ToString() << core::ToString(p);
  }
}

// ---------------------------------------------------------------------------
// Resource limits surface as ResourceExhausted
// ---------------------------------------------------------------------------

TEST(RobustnessTest, MsoStateBudget) {
  // A formula with several set quantifiers under a tiny state budget.
  auto f = mso::ParseFormula(
      "exists Z. exists W. forall x. (in(x, Z) | in(x, W))");
  ASSERT_TRUE(f.ok());
  mso::MsoCompileOptions opts;
  opts.alphabet = {"a"};
  opts.max_states = 2;
  auto bta = mso::CompileSentence(*f, opts);
  EXPECT_FALSE(bta.ok());
  EXPECT_EQ(bta.status().code(), util::StatusCode::kResourceExhausted);
}

TEST(RobustnessTest, ElogDerivationBudget) {
  auto p = elog::ParseElog(
      "anynode(X) <- root(X).\n"
      "anynode(X) <- anynode(P), subelem(P, \"_\", X).\n");
  ASSERT_TRUE(p.ok());
  tree::Tree t = tree::ChainTree(64, "a");
  auto r = elog::EvaluateElog(*p, t, /*max_derivations=*/8);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kResourceExhausted);
}

TEST(RobustnessTest, FixpointDerivationBudget) {
  core::Program p = core::DomProgram();
  tree::Tree t = tree::ChainTree(100, "a");
  core::TreeDatabase db(t);
  core::EvalOptions opts;
  opts.max_derived = 5;
  auto naive = core::EvaluateNaive(p, db, opts);
  EXPECT_FALSE(naive.ok());
  EXPECT_EQ(naive.status().code(), util::StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Degenerate trees through the main pipelines
// ---------------------------------------------------------------------------

TEST(RobustnessTest, SingleNodeTreeEverywhere) {
  tree::TreeBuilder b;
  b.Root("a");
  tree::Tree t = b.Build();

  auto even = core::EvaluateOnTree(core::EvenAProgram(), t);
  ASSERT_TRUE(even.ok());
  EXPECT_TRUE(even->Query().empty());  // one 'a': odd

  auto xp = xpath::EvalXPath(t, "//a");
  ASSERT_TRUE(xp.ok());
  EXPECT_EQ(*xp, (std::vector<tree::NodeId>{0}));

  auto elog_p = elog::ParseElog("q(X) <- root(X), leaf(X).");
  ASSERT_TRUE(elog_p.ok());
  auto er = elog::EvaluateElog(*elog_p, t);
  ASSERT_TRUE(er.ok());
  EXPECT_EQ(er->Of("q"), (std::vector<tree::NodeId>{0}));
}

TEST(RobustnessTest, WideFlatTreeEverywhere) {
  tree::Tree t =
      tree::ChildrenWord("r", std::vector<std::string>(500, "a"));
  auto anc = core::EvaluateOnTree(core::HasAncestorProgram("r"), t);
  ASSERT_TRUE(anc.ok());
  EXPECT_EQ(anc->Query().size(), 500u);
  auto xp = xpath::EvalXPath(t, "//a[not(following-sibling::a)]");
  ASSERT_TRUE(xp.ok());
  EXPECT_EQ(*xp, (std::vector<tree::NodeId>{500}));
}

TEST(RobustnessTest, DeepChainTreeEverywhere) {
  tree::Tree t = tree::ChainTree(800, "a");
  auto even = core::EvaluateOnTree(core::EvenAProgram(), t);
  ASSERT_TRUE(even.ok());
  EXPECT_EQ(even->Query().size(), 400u);  // every other depth is even-sized
  auto ord = caterpillar::EvalImage(t, caterpillar::DocumentOrderExpr(),
                                    {t.root()});
  ASSERT_TRUE(ord.ok());
  EXPECT_EQ(ord->size(), 799u);  // everything after the root
}

// ---------------------------------------------------------------------------
// Deep pages: every layer of the serving path walks trees by id, never by
// recursion, so nesting depth costs heap, not stack.
// ---------------------------------------------------------------------------

/// Runs `fn` on a thread with a 256 KB stack, so a depth-proportional stack
/// shows up the same way whatever the host's default stack size is.
void RunOnSmallStack(const std::function<void()>& fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 256 * 1024), 0);
  pthread_t thread;
  const auto run = [](void* arg) -> void* {
    (*static_cast<const std::function<void()>*>(arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, run,
                           const_cast<std::function<void()>*>(&fn)),
            0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
}

TEST(RobustnessTest, DeepPageServesOnSmallStack) {
  constexpr int kDepth = 100000;
  std::string page;
  for (int i = 0; i < kDepth; ++i) page += "<div class=x>";
  page += "y";
  // Leaf-only output: the one text node under the innermost div@x.
  auto program = elog::ParseElog(R"(
    chain(X) <- root(X).
    chain(X) <- chain(P), subelem(P, "div@x", X).
    deepest(X) <- chain(P), subelem(P, "#text", X), leaf(X).
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"deepest"};
  const std::string expected = "<result>\n  <deepest>y</deepest>\n</result>\n";

  RunOnSmallStack([&] {
    auto doc = html::ParseHtml(page);
    ASSERT_TRUE(doc.ok());
    ASSERT_EQ(doc->tree().size(), kDepth + 1);
    const tree::Tree projected = html::ProjectAttributeIntoLabels(*doc, "class");
    EXPECT_EQ(projected.label_name(kDepth - 1), "div@x");
    EXPECT_EQ(projected.SubtreeText(0), "y");
    const std::string xml = tree::ToXml(projected, -1);
    EXPECT_EQ(xml.size(), kDepth * (sizeof("<div@x></div@x>") - 1) +
                              sizeof("<#text>y</#text>") - 1);

    runtime::WrapperRuntime rt;
    auto handle = rt.Register(w, "class");
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    auto wrapped = rt.Wrap(*handle, page);
    ASSERT_TRUE(wrapped.ok()) << wrapped.status().ToString();
    EXPECT_EQ(*wrapped, expected);

    std::vector<runtime::Request> batch(
        2, {.page = runtime::PageRef::View(page), .wrapper = *handle});
    for (auto& r : rt.SubmitBatch(std::move(batch))) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(*r, expected);
    }

    std::vector<std::string> emitted;
    stream::StreamOptions options;
    options.on_result = [&](const stream::StreamResult& r) {
      emitted.push_back(r.text);
    };
    auto session = rt.SubmitStream({.wrapper = *handle}, std::move(options));
    ASSERT_TRUE(session.ok());
    for (size_t at = 0; at < page.size(); at += 4096) {
      ASSERT_TRUE((*session)->Feed(std::string_view(page).substr(at, 4096))
                      .ok());
    }
    auto streamed = (*session)->Finish();
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_EQ(*streamed, expected);
    EXPECT_EQ(emitted, std::vector<std::string>{"y"});
  });
}

}  // namespace
}  // namespace mdatalog

#include <gtest/gtest.h>

#include <algorithm>

#include "src/caterpillar/containment.h"
#include "src/caterpillar/eval.h"
#include "src/caterpillar/expr.h"
#include "src/caterpillar/nfa.h"
#include "src/caterpillar/to_datalog.h"
#include "src/core/grounder.h"
#include "src/core/parser.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"

namespace mdatalog::caterpillar {
namespace {

using tree::NodeId;
using tree::Tree;
using tree::TreeBuilder;

// gtest fixture bodies resolve unqualified Test to testing::Test; wrap ours.
ExprPtr NodeTest(const std::string& name) {
  return ::mdatalog::caterpillar::Test(name);
}

// ---------------------------------------------------------------------------
// Parsing and printing
// ---------------------------------------------------------------------------

TEST(CaterpillarParseTest, DocumentOrderSyntax) {
  auto e = ParseExpr("child+ | (child^-1)*.nextsibling+.child*");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, Expr::Kind::kUnion);
}

TEST(CaterpillarParseTest, BracketsDenoteTests) {
  auto e = ParseExpr("firstchild.[lastsibling]");
  ASSERT_TRUE(e.ok());
  ASSERT_EQ((*e)->children.size(), 2u);
  EXPECT_EQ((*e)->children[1]->kind, Expr::Kind::kTest);
  EXPECT_EQ((*e)->children[1]->name, "lastsibling");
}

TEST(CaterpillarParseTest, EpsKeyword) {
  auto e = ParseExpr("eps | firstchild");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->children[0]->kind, Expr::Kind::kEpsilon);
}

TEST(CaterpillarParseTest, PrecedencePostfixOverConcatOverUnion) {
  auto e = ParseExpr("a.b* | c");
  ASSERT_TRUE(e.ok());
  ASSERT_EQ((*e)->kind, Expr::Kind::kUnion);
  const ExprPtr& left = (*e)->children[0];
  ASSERT_EQ(left->kind, Expr::Kind::kConcat);
  EXPECT_EQ(left->children[1]->kind, Expr::Kind::kStar);
}

TEST(CaterpillarParseTest, Errors) {
  EXPECT_FALSE(ParseExpr("").ok());
  EXPECT_FALSE(ParseExpr("(child").ok());
  EXPECT_FALSE(ParseExpr("[leaf").ok());
  EXPECT_FALSE(ParseExpr("child |").ok());
  EXPECT_FALSE(ParseExpr("child extra garbage )").ok());
}

TEST(CaterpillarParseTest, RoundTrip) {
  for (const char* text :
       {"child+ | (child^-1)*.nextsibling+.child*",
        "firstchild.[lastsibling]", "eps", "(a | b).c*",
        "firstchild^-1.nextsibling"}) {
    auto e1 = ParseExpr(text);
    ASSERT_TRUE(e1.ok()) << text;
    auto e2 = ParseExpr(ToString(*e1));
    ASSERT_TRUE(e2.ok()) << ToString(*e1);
    EXPECT_EQ(ToString(*e1), ToString(*e2));
  }
}

TEST(CaterpillarExprTest, SizeAndFactories) {
  ExprPtr e = Plus(Rel("child"));  // child.child*
  EXPECT_EQ(e->kind, Expr::Kind::kConcat);
  EXPECT_EQ(ExprSize(e), 4);
  // Union(1) + [child.child*](4) + [(child^-1)*.ns+.child*](10).
  EXPECT_EQ(ExprSize(DocumentOrderExpr()), 15);
}

// ---------------------------------------------------------------------------
// Proposition 2.3 / 2.4: inverse push-down
// ---------------------------------------------------------------------------

bool HasInverseNode(const ExprPtr& e) {
  if (e->kind == Expr::Kind::kInverse) return true;
  for (const ExprPtr& c : e->children) {
    if (HasInverseNode(c)) return true;
  }
  return false;
}

TEST(PushDownInversesTest, RemovesAllInverseNodes) {
  util::Rng rng(3);
  ExprPtr e = Inverse(Concat(
      {Rel("firstchild"), Star(Inverse(Rel("nextsibling"))), NodeTest("leaf")}));
  ExprPtr pushed = PushDownInverses(e);
  EXPECT_FALSE(HasInverseNode(pushed));
  // (E.F)^-1 = F^-1.E^-1: the test comes first now.
  ASSERT_EQ(pushed->kind, Expr::Kind::kConcat);
  EXPECT_EQ(pushed->children[0]->kind, Expr::Kind::kTest);
  (void)rng;
}

TEST(PushDownInversesTest, DoubleInverseCancels) {
  ExprPtr e = Inverse(Inverse(Rel("firstchild")));
  ExprPtr pushed = PushDownInverses(e);
  EXPECT_EQ(pushed->kind, Expr::Kind::kRel);
  EXPECT_FALSE(pushed->inverted);
}

TEST(PushDownInversesTest, SemanticsPreservedOnRandomTrees) {
  util::Rng rng(17);
  std::vector<ExprPtr> exprs = {
      Inverse(Concat({Rel("firstchild"), Rel("nextsibling")})),
      Inverse(Union({Rel("child"), Rel("nextsibling")})),
      Inverse(Star(Rel("nextsibling"))),
      Inverse(Concat({Star(Rel("child")), NodeTest("leaf")})),
  };
  for (int trial = 0; trial < 10; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(20)),
                              {"a", "b"});
    for (const ExprPtr& e : exprs) {
      auto lhs = EvalRelationReference(t, e);
      auto rhs = EvalRelationReference(t, PushDownInverses(e));
      ASSERT_TRUE(lhs.ok());
      ASSERT_TRUE(rhs.ok());
      EXPECT_EQ(*lhs, *rhs) << ToString(e);
    }
  }
}

// ---------------------------------------------------------------------------
// NFA evaluation vs. denotational reference
// ---------------------------------------------------------------------------

ExprPtr RandomExpr(util::Rng& rng, int32_t depth) {
  if (depth == 0 || rng.Chance(1, 3)) {
    switch (rng.Below(8)) {
      case 0: return Rel("firstchild");
      case 1: return Rel("nextsibling");
      case 2: return Rel("child");
      case 3: return Rel("lastchild");
      case 4: return NodeTest("leaf");
      case 5: return NodeTest("label_a");
      case 6: return NodeTest("lastsibling");
      default: return Epsilon();
    }
  }
  switch (rng.Below(4)) {
    case 0:
      return Concat({RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1)});
    case 1:
      return Union({RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1)});
    case 2:
      return Star(RandomExpr(rng, depth - 1));
    default:
      return Inverse(RandomExpr(rng, depth - 1));
  }
}

TEST(CaterpillarEvalTest, NfaMatchesReferenceOnRandomExprs) {
  util::Rng rng(20240610);
  for (int trial = 0; trial < 60; ++trial) {
    ExprPtr e = RandomExpr(rng, 3);
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(18)),
                              {"a", "b"});
    auto ref = EvalRelationReference(t, e);
    ASSERT_TRUE(ref.ok());
    CatNfa nfa = CompileToNfa(e);
    for (NodeId src = 0; src < t.size(); ++src) {
      std::vector<NodeId> expected;
      for (const auto& [x, y] : *ref) {
        if (x == src) expected.push_back(y);
      }
      auto got = EvalImage(t, nfa, {src});
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, expected) << ToString(e) << " from node " << src;
    }
  }
}

TEST(CaterpillarEvalTest, ExpandDerivedPreservesSemantics) {
  util::Rng rng(5);
  std::vector<ExprPtr> exprs = {
      Rel("child"), Rel("lastchild"), Inverse(Rel("child")),
      Star(Rel("child")), Concat({Rel("child"), Rel("lastchild")})};
  for (int trial = 0; trial < 10; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(16)),
                              {"a"});
    for (const ExprPtr& e : exprs) {
      auto lhs = EvalRelationReference(t, e);
      auto rhs = EvalRelationReference(t, ExpandDerivedRels(e));
      ASSERT_TRUE(lhs.ok());
      ASSERT_TRUE(rhs.ok());
      EXPECT_EQ(*lhs, *rhs) << ToString(e);
    }
  }
}

TEST(CaterpillarEvalTest, EvalPairAndMultiSource) {
  Tree t = tree::PaperFigure1Tree();
  auto pair = EvalPair(t, Rel("child"), 0, 1);
  ASSERT_TRUE(pair.ok());
  EXPECT_TRUE(*pair);
  auto not_pair = EvalPair(t, Rel("child"), 1, 0);
  ASSERT_TRUE(not_pair.ok());
  EXPECT_FALSE(*not_pair);
  // Multi-source image: children of n3 (id 2) and of root.
  auto img = EvalImage(t, Rel("child"), {0, 2});
  ASSERT_TRUE(img.ok());
  EXPECT_EQ(*img, (std::vector<NodeId>{1, 2, 3, 4, 5}));
}

TEST(CaterpillarEvalTest, UnknownNamesAreErrors) {
  Tree t = tree::PaperFigure1Tree();
  EXPECT_FALSE(EvalImage(t, Rel("sideways"), {0}).ok());
  EXPECT_FALSE(EvalImage(t, NodeTest("shiny"), {0}).ok());
}

// ---------------------------------------------------------------------------
// Example 2.5: document order
// ---------------------------------------------------------------------------

TEST(DocumentOrderTest, MatchesPreorderOnFigure1) {
  Tree t = tree::PaperFigure1Tree();
  auto rel = EvalRelationReference(t, DocumentOrderExpr());
  ASSERT_TRUE(rel.ok());
  // n1 ≺ n2 ≺ n3 ≺ n4 ≺ n5 ≺ n6 (ids 0..5): all 15 ordered pairs.
  EXPECT_EQ(rel->size(), 15u);
  for (NodeId x = 0; x < 6; ++x) {
    for (NodeId y = x + 1; y < 6; ++y) {
      EXPECT_TRUE(std::binary_search(rel->begin(), rel->end(),
                                     std::make_pair(x, y)))
          << x << " ≺ " << y;
    }
  }
}

TEST(DocumentOrderTest, MatchesIdOrderOnRandomTrees) {
  // NodeId order is document order (tree.h): ≺ is x < y.
  util::Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    Tree t = tree::RandomTree(rng, 2 + static_cast<int32_t>(rng.Below(20)),
                              {"a", "b"});
    auto rel = EvalRelationReference(t, DocumentOrderExpr());
    ASSERT_TRUE(rel.ok());
    std::set<std::pair<NodeId, NodeId>> got(rel->begin(), rel->end());
    for (NodeId x = 0; x < t.size(); ++x) {
      for (NodeId y = 0; y < t.size(); ++y) {
        EXPECT_EQ(got.count({x, y}) > 0, x < y)
            << "pair (" << x << "," << y << ")";
      }
    }
  }
}

TEST(DocumentOrderTest, ChildInverseIdentity) {
  // Example 2.5: child^-1 = (nextsibling^-1)*.firstchild^-1.
  util::Rng rng(13);
  ExprPtr lhs = Inverse(Rel("child"));
  auto rhs = ParseExpr("(nextsibling^-1)*.firstchild^-1");
  ASSERT_TRUE(rhs.ok());
  for (int trial = 0; trial < 10; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(20)),
                              {"a"});
    auto a = EvalRelationReference(t, lhs);
    auto b = EvalRelationReference(t, *rhs);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);
  }
}

TEST(DocumentOrderTest, AnyNodeExprIsTotal) {
  util::Rng rng(23);
  Tree t = tree::RandomTree(rng, 12, {"a", "b"});
  auto rel = EvalRelationReference(t, AnyNodeExpr());
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), static_cast<size_t>(t.size()) * t.size());
}

// ---------------------------------------------------------------------------
// Lemma 5.9: caterpillar → monadic datalog
// ---------------------------------------------------------------------------

TEST(CaterpillarToDatalogTest, Example510ChildRelation) {
  // Example 5.10: p.child where p = label_c nodes of a(b, c(d, e), f).
  TreeBuilder b;
  auto r = b.Root("a");
  b.Child(r, "b");
  auto c = b.Child(r, "c");
  b.Child(c, "d");
  b.Child(c, "e");
  b.Child(r, "f");
  Tree t = b.Build();

  core::Program program;
  core::PredId p = program.preds().MustIntern("p", 1);
  core::PredId label_c = program.preds().MustIntern("label_c", 1);
  program.AddRule(core::MakeRule(core::MakeAtom(p, {core::Term::Var(0)}),
                                 {core::MakeAtom(label_c, {core::Term::Var(0)})},
                                 {"x"}));
  auto res = AppendCaterpillarRules(&program, p, Rel("child"), "pc");
  ASSERT_TRUE(res.ok());
  program.set_query_pred(*res);
  auto eval = core::EvaluateOnTree(program, t);
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->Query(), (std::vector<int32_t>{3, 4}));
}

TEST(CaterpillarToDatalogTest, RulesAreTmnfShaped) {
  core::Program program;
  core::PredId p = program.preds().MustIntern("p", 1);
  core::PredId root = program.preds().MustIntern("root", 1);
  program.AddRule(core::MakeRule(core::MakeAtom(p, {core::Term::Var(0)}),
                                 {core::MakeAtom(root, {core::Term::Var(0)})},
                                 {"x"}));
  auto res = AppendCaterpillarRules(&program, p, DocumentOrderExpr(), "ord");
  ASSERT_TRUE(res.ok());
  for (const core::Rule& rule : program.rules()) {
    EXPECT_LE(rule.body.size(), 2u);
    EXPECT_LE(rule.num_vars(), 2);
    EXPECT_EQ(rule.head.args.size(), 1u);
  }
}

TEST(CaterpillarToDatalogTest, MatchesNfaEvalOnRandomExprs) {
  util::Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    ExprPtr e = RandomExpr(rng, 3);
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(20)),
                              {"a", "b"});
    // Source set: all nodes labeled a.
    std::vector<NodeId> sources;
    for (NodeId n = 0; n < t.size(); ++n) {
      if (t.label_name(n) == "a") sources.push_back(n);
    }
    auto expected = EvalImage(t, e, sources);
    ASSERT_TRUE(expected.ok());

    core::Program program;
    core::PredId p = program.preds().MustIntern("src", 1);
    core::PredId label_a = program.preds().MustIntern("label_a", 1);
    program.AddRule(core::MakeRule(
        core::MakeAtom(p, {core::Term::Var(0)}),
        {core::MakeAtom(label_a, {core::Term::Var(0)})}, {"x"}));
    auto res = AppendCaterpillarRules(&program, p, e, "cw");
    ASSERT_TRUE(res.ok()) << ToString(e);
    program.set_query_pred(*res);
    auto eval = core::EvaluateOnTree(program, t);
    ASSERT_TRUE(eval.ok());
    EXPECT_EQ(eval->Query(), *expected) << ToString(e);
  }
}

TEST(CaterpillarToDatalogTest, OutputSizeLinearInExpr) {
  core::Program program;
  core::PredId p = program.preds().MustIntern("p", 1);
  core::PredId root = program.preds().MustIntern("root", 1);
  program.AddRule(core::MakeRule(core::MakeAtom(p, {core::Term::Var(0)}),
                                 {core::MakeAtom(root, {core::Term::Var(0)})},
                                 {"x"}));
  ExprPtr e = DocumentOrderExpr();
  size_t before = program.rules().size();
  ASSERT_TRUE(AppendCaterpillarRules(&program, p, e, "ord").ok());
  // Thompson NFA has O(|E|) states/edges; after child-expansion |E| grows by
  // a constant factor. Generous linear bound:
  EXPECT_LE(program.rules().size() - before,
            static_cast<size_t>(20 * ExprSize(e)));
}

// ---------------------------------------------------------------------------
// Corollary 5.12: containment
// ---------------------------------------------------------------------------

TEST(ContainmentTest, WordLevelBasics) {
  ExprPtr plus = Plus(Rel("child"));
  ExprPtr star = Star(Rel("child"));
  auto a = WordLanguageContained(plus, star);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(*a);
  auto b = WordLanguageContained(star, plus);  // ε distinguishes
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(*b);
}

TEST(ContainmentTest, UnionAndConcat) {
  auto fc = Rel("firstchild");
  auto ns = Rel("nextsibling");
  auto e1 = Concat({fc, ns});
  auto e2 = Concat({Union({fc, ns}), Union({fc, ns})});
  auto r = WordLanguageContained(e1, e2);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  auto r2 = WordLanguageContained(e2, e1);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(*r2);
}

TEST(ContainmentTest, InversionDistinguishes) {
  auto r = WordLanguageContained(Rel("firstchild"),
                                 Inverse(Rel("firstchild")));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(ContainmentTest, WordLevelIsSoundButIncomplete) {
  // Tree-level, firstchild ⊆ child; at word level the letters differ, so the
  // (sound, incomplete) word check must say "not contained".
  auto r = WordLanguageContained(Rel("firstchild"), Rel("child"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  // ... and the randomized tree-level falsifier finds no counterexample.
  util::Rng rng(7);
  auto cex = FindContainmentCounterexample(Rel("firstchild"), Rel("child"),
                                           rng, 100, 20);
  EXPECT_FALSE(cex.ok());
  EXPECT_EQ(cex.status().code(), util::StatusCode::kNotFound);
}

TEST(ContainmentTest, FalsifierFindsWitness) {
  // child* selects the root itself; child+ does not.
  util::Rng rng(9);
  auto cex = FindContainmentCounterexample(Star(Rel("child")),
                                           Plus(Rel("child")), rng, 50, 10);
  ASSERT_TRUE(cex.ok());
  EXPECT_EQ(cex->node, cex->tree.root());
}

TEST(ContainmentTest, SelfContainment) {
  ExprPtr e = DocumentOrderExpr();
  auto r = WordLanguageContained(e, e);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

}  // namespace
}  // namespace mdatalog::caterpillar

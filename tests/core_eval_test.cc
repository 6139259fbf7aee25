#include <gtest/gtest.h>

#include "src/core/database.h"
#include "src/core/eval.h"
#include "src/core/examples.h"
#include "src/core/grounder.h"
#include "src/core/horn.h"
#include "src/core/parser.h"
#include "src/core/program_generator.h"
#include "src/core/validate.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"

namespace mdatalog::core {
namespace {

using tree::Tree;
using tree::TreeBuilder;

Tree SmallTree() {
  // a(b, c(d, e), f)  — ids 0..5
  TreeBuilder b;
  auto r = b.Root("a");
  b.Child(r, "b");
  auto c = b.Child(r, "c");
  b.Child(c, "d");
  b.Child(c, "e");
  b.Child(r, "f");
  return b.Build();
}

// ---------------------------------------------------------------------------
// TreeDatabase: the τ_ur relational view
// ---------------------------------------------------------------------------

TEST(TreeDatabaseTest, UnaryRelations) {
  Tree t = SmallTree();
  TreeDatabase db(t);
  EXPECT_EQ(db.Get("root", 1)->unary_tuples(), (std::vector<int32_t>{0}));
  EXPECT_EQ(db.Get("leaf", 1)->unary_tuples(),
            (std::vector<int32_t>{1, 3, 4, 5}));
  EXPECT_EQ(db.Get("lastsibling", 1)->unary_tuples(),
            (std::vector<int32_t>{4, 5}));
  EXPECT_EQ(db.Get("firstsibling", 1)->unary_tuples(),
            (std::vector<int32_t>{1, 3}));
  EXPECT_EQ(db.Get("label_c", 1)->unary_tuples(), (std::vector<int32_t>{2}));
  // Unknown label: empty but valid relation (Remark 2.2).
  EXPECT_EQ(db.Get("label_zzz", 1)->size(), 0);
}

TEST(TreeDatabaseTest, BinaryRelations) {
  Tree t = SmallTree();
  TreeDatabase db(t);
  using P = std::vector<std::pair<int32_t, int32_t>>;
  EXPECT_EQ(db.Get("firstchild", 2)->binary_tuples(),
            (P{{0, 1}, {2, 3}}));
  EXPECT_EQ(db.Get("nextsibling", 2)->binary_tuples(),
            (P{{1, 2}, {2, 5}, {3, 4}}));
  EXPECT_EQ(db.Get("child", 2)->binary_tuples(),
            (P{{0, 1}, {0, 2}, {0, 5}, {2, 3}, {2, 4}}));
  EXPECT_EQ(db.Get("lastchild", 2)->binary_tuples(), (P{{0, 5}, {2, 4}}));
  EXPECT_EQ(db.Get("child1", 2)->binary_tuples(), (P{{0, 1}, {2, 3}}));
  EXPECT_EQ(db.Get("child2", 2)->binary_tuples(), (P{{0, 2}, {2, 4}}));
  EXPECT_EQ(db.Get("child3", 2)->binary_tuples(), (P{{0, 5}}));
}

TEST(TreeDatabaseTest, NextSiblingTransitiveClosureIsReflexive) {
  Tree t = SmallTree();
  TreeDatabase db(t);
  const Relation* tc = db.Get("nextsibling_tc", 2);
  // Reflexive pairs for all 6 nodes + (1,2),(1,5),(2,5),(3,4).
  EXPECT_EQ(tc->size(), 6 + 4);
  EXPECT_TRUE(tc->ContainsBinary(0, 0));
  EXPECT_TRUE(tc->ContainsBinary(1, 5));
  EXPECT_FALSE(tc->ContainsBinary(5, 1));
}

TEST(TreeDatabaseTest, RejectsNonTreePredicates) {
  Tree t = SmallTree();
  TreeDatabase db(t);
  EXPECT_EQ(db.Get("edge", 2), nullptr);
  EXPECT_EQ(db.Get("root", 2), nullptr);
  EXPECT_EQ(db.Get("firstchild", 1), nullptr);
}

TEST(TreeDatabaseTest, IndexedAccessPaths) {
  Tree t = SmallTree();
  TreeDatabase db(t);
  const Relation* child = db.Get("child", 2);
  EXPECT_EQ(child->Forward(0), (std::vector<int32_t>{1, 2, 5}));
  EXPECT_EQ(child->Backward(4), (std::vector<int32_t>{2}));
  EXPECT_TRUE(child->ContainsBinary(0, 5));
  EXPECT_FALSE(child->ContainsBinary(0, 4));
}

TEST(ExplicitDatabaseTest, StoresArbitraryFacts) {
  ExplicitDatabase db(4);
  db.AddFact("p");
  db.AddFact("u", 2);
  db.AddFact("e", 0, 1);
  db.AddFact("e", 1, 2);
  EXPECT_TRUE(db.Get("p", 0)->nullary_true());
  EXPECT_TRUE(db.Get("u", 1)->ContainsUnary(2));
  EXPECT_EQ(db.Get("e", 2)->Forward(1), (std::vector<int32_t>{2}));
  EXPECT_EQ(db.Get("missing", 1), nullptr);
}

// ---------------------------------------------------------------------------
// LTUR Horn solver (Proposition 3.5)
// ---------------------------------------------------------------------------

TEST(HornTest, FactsAndChains) {
  HornInstance inst;
  inst.num_atoms = 4;
  inst.clauses = {{0, {}}, {1, {0}}, {2, {1}}, {3, {2}}};
  std::vector<bool> model = SolveHorn(inst);
  EXPECT_EQ(model, (std::vector<bool>{true, true, true, true}));
}

TEST(HornTest, CyclesAreNotSelfSupporting) {
  HornInstance inst;
  inst.num_atoms = 2;
  inst.clauses = {{0, {1}}, {1, {0}}};
  std::vector<bool> model = SolveHorn(inst);
  EXPECT_EQ(model, (std::vector<bool>{false, false}));
}

TEST(HornTest, ConjunctionNeedsAllBodyAtoms) {
  HornInstance inst;
  inst.num_atoms = 4;
  inst.clauses = {{0, {}}, {3, {0, 1}}, {1, {}}, {2, {0, 3}}};
  std::vector<bool> model = SolveHorn(inst);
  EXPECT_TRUE(model[3]);
  EXPECT_TRUE(model[2]);
}

TEST(HornTest, DuplicateBodyAtomsCountedPerOccurrence) {
  HornInstance inst;
  inst.num_atoms = 2;
  inst.clauses = {{0, {}}, {1, {0, 0}}};
  std::vector<bool> model = SolveHorn(inst);
  EXPECT_TRUE(model[1]);
}

TEST(HornTest, UnreachableStaysFalse) {
  HornInstance inst;
  inst.num_atoms = 3;
  inst.clauses = {{0, {}}, {1, {2}}};
  std::vector<bool> model = SolveHorn(inst);
  EXPECT_EQ(model, (std::vector<bool>{true, false, false}));
}

// ---------------------------------------------------------------------------
// Example 3.2: the paper's fixpoint trace, reproduced exactly
// ---------------------------------------------------------------------------

TEST(Example32Test, FixpointTraceMatchesPaper) {
  // Tree: root n1 with children n2, n3, n4 (paper ids) = our ids 0..3.
  Tree t = tree::PaperExample32Tree();
  Program p = EvenAProgram();
  TreeDatabase db(t);
  EvalOptions opts;
  opts.trace = true;
  auto result = EvaluateNaive(p, db, opts);
  ASSERT_TRUE(result.ok());

  auto pred = [&](const std::string& name) { return p.preds().Find(name); };
  auto atoms_of_stage = [&](size_t i) {
    std::vector<std::pair<std::string, int32_t>> out;
    for (const GroundAtom& g : result->stages()[i].new_atoms) {
      out.emplace_back(p.preds().Name(g.pred), g.args[0]);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  using A = std::vector<std::pair<std::string, int32_t>>;

  // T1 = {B0(n2), B0(n3), B0(n4)}
  ASSERT_EQ(result->stages().size(), 7u);
  EXPECT_EQ(atoms_of_stage(0), (A{{"b0", 1}, {"b0", 2}, {"b0", 3}}));
  // T2 adds C1 on the three leaves.
  EXPECT_EQ(atoms_of_stage(1), (A{{"c1", 1}, {"c1", 2}, {"c1", 3}}));
  // T3 = {R1(n4)}
  EXPECT_EQ(atoms_of_stage(2), (A{{"r1", 3}}));
  // T4 = {R0(n3)}
  EXPECT_EQ(atoms_of_stage(3), (A{{"r0", 2}}));
  // T5 = {R1(n2)}
  EXPECT_EQ(atoms_of_stage(4), (A{{"r1", 1}}));
  // T6 = {B1(n1)}
  EXPECT_EQ(atoms_of_stage(5), (A{{"b1", 0}}));
  // T7 = {C0(n1)}
  EXPECT_EQ(atoms_of_stage(6), (A{{"c0", 0}}));

  // Query C0 evaluates to {n1}.
  EXPECT_EQ(result->Query(), (std::vector<int32_t>{0}));
  // 7 productive iterations + 1 fixpoint check.
  EXPECT_EQ(result->num_iterations(), 8);
  (void)pred;
}

TEST(Example32Test, AllEnginesAgree) {
  Tree t = tree::PaperExample32Tree();
  Program p = EvenAProgram();
  auto naive = EvaluateOnTree(p, t, Engine::kNaive);
  auto semi = EvaluateOnTree(p, t, Engine::kSemiNaive);
  auto grounded = EvaluateOnTree(p, t, Engine::kGrounded);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(semi.ok());
  ASSERT_TRUE(grounded.ok());
  EXPECT_EQ(naive->Query(), (std::vector<int32_t>{0}));
  EXPECT_EQ(semi->Query(), (std::vector<int32_t>{0}));
  EXPECT_EQ(grounded->Query(), (std::vector<int32_t>{0}));
}

TEST(Example32Test, EvenAOnVariousTrees) {
  Program p = EvenAProgram();
  // Single node labeled a: subtree has 1 'a' -> odd -> not selected.
  {
    TreeBuilder b;
    b.Root("a");
    auto r = EvaluateOnTree(p, b.Build());
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->Query().empty());
  }
  // Chain of 4 a's: node at depth d roots a subtree with 4-d a's.
  {
    Tree t = tree::ChainTree(4, "a");
    auto r = EvaluateOnTree(p, t);
    ASSERT_TRUE(r.ok());
    // Subtree sizes: 4,3,2,1 -> even at ids 0 and 2.
    EXPECT_EQ(r->Query(), (std::vector<int32_t>{0, 2}));
  }
}

TEST(Example32Test, EvenACountsOnlyLabelA) {
  Program p = EvenAProgram({"b"});
  // Tree a(b, a): root subtree has two a's -> selected; b-leaf has zero
  // a's -> even -> selected; a-leaf has one -> not.
  Tree t = tree::ChildrenWord("a", {"b", "a"});
  auto r = EvaluateOnTree(p, t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{0, 1}));
}

// ---------------------------------------------------------------------------
// Reference query programs
// ---------------------------------------------------------------------------

TEST(ExampleProgramsTest, HasAncestor) {
  // a(b, c(d, e), f): descendants of label c = {d, e}.
  Tree t = SmallTree();
  auto r = EvaluateOnTree(HasAncestorProgram("c"), t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{3, 4}));
  auto ra = EvaluateOnTree(HasAncestorProgram("a"), t);
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(ra->Query(), (std::vector<int32_t>{1, 2, 3, 4, 5}));
}

TEST(ExampleProgramsTest, EvenDepthLeaves) {
  Tree t = SmallTree();  // leaves: 1 (d1), 3 (d2), 4 (d2), 5 (d1)
  auto r = EvaluateOnTree(EvenDepthLeafProgram(), t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{3, 4}));
}

TEST(ExampleProgramsTest, ChainProgramDerivesRootOnly) {
  Tree t = SmallTree();
  Program p = ChainProgram(10);
  auto r = EvaluateOnTree(p, t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{0}));
}

TEST(ExampleProgramsTest, DomProgramSelectsAllNodes) {
  Tree t = SmallTree();
  auto r = EvaluateOnTree(DomProgram(), t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{0, 1, 2, 3, 4, 5}));
}

// ---------------------------------------------------------------------------
// Engine cross-validation (naive == semi-naive == grounded)
// ---------------------------------------------------------------------------

void ExpectSameResults(const Program& p, const Tree& t) {
  TreeDatabase db(t);
  auto naive = EvaluateNaive(p, db);
  auto semi = EvaluateSemiNaive(p, db);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(semi.ok());
  std::vector<bool> intensional = p.IntensionalMask();
  for (PredId q = 0; q < p.preds().size(); ++q) {
    if (!intensional[q]) continue;
    if (p.preds().Arity(q) == 1) {
      EXPECT_EQ(naive->Unary(q), semi->Unary(q))
          << "pred " << p.preds().Name(q) << "\n" << ToString(p);
    } else if (p.preds().Arity(q) == 0) {
      EXPECT_EQ(naive->NullaryTrue(q), semi->NullaryTrue(q));
    }
  }
  if (GroundableOverTree(p)) {
    auto grounded = EvaluateGrounded(p, t);
    ASSERT_TRUE(grounded.ok());
    for (PredId q = 0; q < p.preds().size(); ++q) {
      if (!intensional[q]) continue;
      if (p.preds().Arity(q) == 1) {
        EXPECT_EQ(naive->Unary(q), grounded->Unary(q))
            << "pred " << p.preds().Name(q) << "\n" << ToString(p);
      } else if (p.preds().Arity(q) == 0) {
        EXPECT_EQ(naive->NullaryTrue(q), grounded->NullaryTrue(q));
      }
    }
  }
}

TEST(EngineEquivalenceTest, RandomProgramsOnRandomTrees) {
  util::Rng rng(20240610);
  for (int trial = 0; trial < 40; ++trial) {
    ProgramGenOptions opts;
    opts.num_rules = 3 + static_cast<int32_t>(rng.Below(8));
    opts.num_idb_preds = 2 + static_cast<int32_t>(rng.Below(4));
    Program p = RandomMonadicProgram(rng, opts);
    ASSERT_TRUE(GroundableOverTree(p)) << ToString(p);
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(60)),
                              {"a", "b", "c"});
    ExpectSameResults(p, t);
  }
}

TEST(EngineEquivalenceTest, ExtendedSignatureProgramsSemiVsNaive) {
  util::Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    ProgramGenOptions opts;
    opts.allow_extended = true;
    opts.num_rules = 3 + static_cast<int32_t>(rng.Below(6));
    Program p = RandomMonadicProgram(rng, opts);
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(40)),
                              {"a", "b"});
    ExpectSameResults(p, t);
  }
}

TEST(EngineEquivalenceTest, PaperProgramsOnRandomTrees) {
  util::Rng rng(7);
  std::vector<Program> programs;
  programs.push_back(EvenAProgram({"b", "c"}));
  programs.push_back(HasAncestorProgram("b"));
  programs.push_back(EvenDepthLeafProgram());
  programs.push_back(DomProgram());
  for (int trial = 0; trial < 15; ++trial) {
    Tree t = tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(100)),
                              {"a", "b", "c"});
    for (const Program& p : programs) ExpectSameResults(p, t);
  }
}

// ---------------------------------------------------------------------------
// Grounded engine specifics (Theorem 4.2)
// ---------------------------------------------------------------------------

TEST(GroundedTest, RejectsExtendedSignature) {
  auto p = ParseProgram("q(X) :- child(X, Y), leaf(Y).");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(GroundableOverTree(*p));
  EXPECT_FALSE(EvaluateGrounded(*p, SmallTree()).ok());
  // The facade falls back to semi-naive.
  auto r = EvaluateOnTree(*p, SmallTree(), Engine::kAuto);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Unary(p->preds().Find("q")), (std::vector<int32_t>{0, 2}));
}

TEST(GroundedTest, DisconnectedRuleSplitsViaBridge) {
  // q(X) holds for all leaves X iff some node is labeled c.
  auto p = ParseProgramWithQuery("q(X) :- leaf(X), label_c(Y).", "q");
  ASSERT_TRUE(p.ok());
  auto r = EvaluateGrounded(*p, SmallTree());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{1, 3, 4, 5}));
  // Without any c-labeled node the bridge stays false.
  auto r2 = EvaluateGrounded(*p, tree::PaperExample32Tree());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->Query().empty());
}

TEST(GroundedTest, PropositionalHeads) {
  auto p = ParseProgramWithQuery(
      "found :- label_e(X). q(X) :- leaf(X), found.", "q");
  ASSERT_TRUE(p.ok());
  auto r = EvaluateGrounded(*p, SmallTree());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{1, 3, 4, 5}));
  EXPECT_TRUE(r->NullaryTrue(p->preds().Find("found")));
}

TEST(GroundedTest, ConstantsInRules) {
  // Node 2 of SmallTree is labeled c.
  auto p = ParseProgramWithQuery("q(2) :- root(0). r(X) :- q(X).", "q");
  ASSERT_TRUE(p.ok());
  auto res = EvaluateGrounded(*p, SmallTree());
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->Query(), (std::vector<int32_t>{2}));
  EXPECT_EQ(res->Unary(p->preds().Find("r")), (std::vector<int32_t>{2}));
}

TEST(GroundedTest, ChildKBackwardRequiresExactPosition) {
  auto p = ParseProgramWithQuery("q(X) :- child2(X, Y), label_e(Y).", "q");
  ASSERT_TRUE(p.ok());
  auto r = EvaluateGrounded(*p, SmallTree());
  ASSERT_TRUE(r.ok());
  // e (id 4) is the 2nd child of c (id 2).
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{2}));
}

TEST(GroundedTest, OutOfRangeChildIndexIsAnUnknownPredicate) {
  // 4294967297 = 2^32 + 1 wrapped to child1 in 32-bit arithmetic, and
  // 99999999999 overflowed int32_t outright. An index above INT32_MAX names
  // no schema relation: it is an unknown EDB predicate like any other.
  const Tree t = SmallTree();
  const TreeDatabase db(t);
  auto unknown = ParseProgramWithQuery("q(Y) :- root(X), edge(X, Y).", "q");
  ASSERT_TRUE(unknown.ok());
  for (const std::string name : {"child4294967297", "child99999999999"}) {
    SCOPED_TRACE(name);
    auto p = ParseProgramWithQuery("q(Y) :- root(X), " + name + "(X, Y).",
                                   "q");
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(db.Get(name, 2), nullptr);
    EXPECT_EQ(GroundableOverTree(*p), GroundableOverTree(*unknown));
    EXPECT_FALSE(GroundableOverTree(*p));
    EXPECT_EQ(CheckTreeSignature(*p, /*allow_extended=*/true).code(),
              CheckTreeSignature(*unknown, true).code());
    auto r = EvaluateOnTree(*p, t);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->Query().empty());
  }
  // The largest index still is one.
  auto p = ParseProgramWithQuery("q(Y) :- root(X), child2147483647(X, Y).",
                                 "q");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(GroundableOverTree(*p));
  EXPECT_NE(db.Get("child2147483647", 2), nullptr);
}

TEST(GroundedTest, StatsAreLinear) {
  Program p = EvenAProgram();
  Tree t = tree::CompleteBinaryTree(6, "a");  // 127 nodes
  GroundStats stats;
  auto r = EvaluateGrounded(p, t, &stats);
  ASSERT_TRUE(r.ok());
  // At most one ground clause per (rule, node).
  EXPECT_LE(stats.num_clauses,
            static_cast<int64_t>(p.rules().size()) * t.size());
  EXPECT_GT(stats.num_clauses, 0);
}

TEST(GroundedTest, SelfLoopBinaryAtomIsUnsatisfiable) {
  auto p = ParseProgramWithQuery("q(X) :- nextsibling(X, X).", "q");
  ASSERT_TRUE(p.ok());
  auto r = EvaluateGrounded(*p, SmallTree());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Query().empty());
}

TEST(EvalOptionsTest, MaxDerivedGuard) {
  Program p = DomProgram();
  Tree t = tree::ChainTree(50, "a");
  TreeDatabase db(t);
  EvalOptions opts;
  opts.max_derived = 10;
  auto r = EvaluateSemiNaive(p, db, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kResourceExhausted);
}

TEST(EvalTest, BinaryIdbSupportedByFixpointEngines) {
  // Non-monadic baseline: transitive closure of nextsibling.
  auto p = ParseProgram(
      "tc(X, Y) :- nextsibling(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), nextsibling(Y, Z).\n");
  ASSERT_TRUE(p.ok());
  Tree t = SmallTree();  // TreeDatabase references the tree; keep it alive.
  TreeDatabase db(t);
  auto r = EvaluateSemiNaive(*p, db);
  ASSERT_TRUE(r.ok());
  using P = std::vector<std::pair<int32_t, int32_t>>;
  EXPECT_EQ(r->Binary(p->preds().Find("tc")),
            (P{{1, 2}, {1, 5}, {2, 5}, {3, 4}}));
}

TEST(EvalTest, ExplicitDatabaseEvaluation) {
  // Reachability over an explicit graph (arbitrary finite structure).
  auto p = ParseProgramWithQuery(
      "reach(X) :- start(X).\n"
      "reach(Y) :- reach(X), edge(X, Y).\n",
      "reach");
  ASSERT_TRUE(p.ok());
  ExplicitDatabase db(5);
  db.AddFact("start", 0);
  db.AddFact("edge", 0, 1);
  db.AddFact("edge", 1, 2);
  db.AddFact("edge", 3, 4);
  auto r = EvaluateNaive(*p, db);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Query(), (std::vector<int32_t>{0, 1, 2}));
}

}  // namespace
}  // namespace mdatalog::core

// Cross-engine equivalence property test: on random monadic programs over
// random trees, the naive, semi-naive and grounded (Theorem 4.2) engines —
// and the pre-rewrite reference engines kept in reference_eval.h — must
// compute identical fixpoints, and their derivation counters must agree
// (num_derived is the size of the IDB part of T^ω_P regardless of engine).

#include <gtest/gtest.h>

#include "src/core/ast.h"
#include "src/core/eval.h"
#include "src/core/grounder.h"
#include "src/core/parser.h"
#include "src/core/program_generator.h"
#include "src/core/tmnf_eval.h"
#include "src/tmnf/pipeline.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"
#include "tests/support/reference_eval.h"

namespace {

using namespace mdatalog;

TEST(EngineEquivalenceTest, AllEnginesAgreeOnRandomPrograms) {
  util::Rng rng(20260729);
  int grounded_runs = 0;
  for (int trial = 0; trial < 50; ++trial) {
    core::ProgramGenOptions opts;
    opts.num_rules = 1 + static_cast<int32_t>(rng.Below(12));
    opts.num_idb_preds = 1 + static_cast<int32_t>(rng.Below(6));
    opts.max_body_atoms = 1 + static_cast<int32_t>(rng.Below(6));
    opts.allow_extended = rng.Chance(1, 2);
    core::Program p = core::RandomMonadicProgram(rng, opts);
    tree::Tree t = tree::RandomTree(
        rng, 1 + static_cast<int32_t>(rng.Below(60)), {"a", "b"});
    core::TreeDatabase db(t);

    auto naive = core::EvaluateNaive(p, db);
    auto semi = core::EvaluateSemiNaive(p, db);
    auto ref_naive = core::EvaluateNaiveReference(p, db);
    auto ref_semi = core::EvaluateSemiNaiveReference(p, db);
    ASSERT_TRUE(naive.ok()) << core::ToString(p);
    ASSERT_TRUE(semi.ok()) << core::ToString(p);
    ASSERT_TRUE(ref_naive.ok()) << core::ToString(p);
    ASSERT_TRUE(ref_semi.ok()) << core::ToString(p);

    EXPECT_EQ(naive->Query(), semi->Query()) << core::ToString(p);
    EXPECT_EQ(naive->Query(), ref_naive->Query()) << core::ToString(p);
    EXPECT_EQ(naive->Query(), ref_semi->Query()) << core::ToString(p);

    // The whole IDB must match, not just the query predicate. The generator
    // only emits unary IDB, but compare every arity's accessors anyway so a
    // future generator extension is covered automatically.
    for (core::PredId q = 0; q < p.preds().size(); ++q) {
      EXPECT_EQ(naive->NullaryTrue(q), semi->NullaryTrue(q));
      EXPECT_EQ(naive->NullaryTrue(q), ref_naive->NullaryTrue(q));
      EXPECT_EQ(naive->Binary(q), semi->Binary(q));
      EXPECT_EQ(naive->Binary(q), ref_naive->Binary(q));
      if (p.preds().Arity(q) != 1) continue;
      EXPECT_EQ(naive->Unary(q), semi->Unary(q))
          << p.preds().Name(q) << "\n" << core::ToString(p);
      EXPECT_EQ(naive->Unary(q), ref_naive->Unary(q))
          << p.preds().Name(q) << "\n" << core::ToString(p);
    }

    // num_derived counts the unique atoms of the fixpoint's IDB part.
    EXPECT_EQ(naive->num_derived(), semi->num_derived()) << core::ToString(p);
    EXPECT_EQ(naive->num_derived(), ref_naive->num_derived())
        << core::ToString(p);
    EXPECT_EQ(naive->num_derived(), ref_semi->num_derived())
        << core::ToString(p);

    if (core::GroundableOverTree(p)) {
      ++grounded_runs;
      auto grounded = core::EvaluateGrounded(p, t);
      ASSERT_TRUE(grounded.ok()) << core::ToString(p);
      EXPECT_EQ(naive->Query(), grounded->Query()) << core::ToString(p);
      for (core::PredId q = 0; q < p.preds().size(); ++q) {
        if (p.preds().Arity(q) != 1) continue;
        EXPECT_EQ(naive->Unary(q), grounded->Unary(q))
            << p.preds().Name(q) << "\n" << core::ToString(p);
      }
      EXPECT_EQ(naive->num_derived(), grounded->num_derived())
          << core::ToString(p);
    }
  }
  // The sweep must actually exercise the Theorem 4.2 path.
  EXPECT_GT(grounded_runs, 5);
}

// The serving engine: core::TmnfEval's batch entry over the TMNF translation
// of random programs must give every IDB predicate of the source program the
// extent the semi-naive engine (source program) and the grounded engine
// (TMNF program) give it. One evaluator serves every tree of every program,
// a large tree before the small ones, so a bit left over from an earlier
// page or program would show up as a spurious member.
TEST(EngineEquivalenceTest, TmnfBatchEntryMatchesSemiNaiveAndGrounded) {
  util::Rng rng(20261019);
  core::TmnfEval<tree::Tree> eval;
  int programs_run = 0;
  for (int trial = 0; trial < 40; ++trial) {
    core::ProgramGenOptions opts;
    opts.num_rules = 1 + static_cast<int32_t>(rng.Below(10));
    opts.num_idb_preds = 1 + static_cast<int32_t>(rng.Below(5));
    opts.max_body_atoms = 1 + static_cast<int32_t>(rng.Below(4));
    opts.allow_extended = rng.Chance(1, 2);
    const core::Program p = core::RandomMonadicProgram(rng, opts);
    auto tmnf = tmnf::ToTmnf(p);
    ASSERT_TRUE(tmnf.ok()) << tmnf.status().ToString() << "\n"
                           << core::ToString(p);
    auto rules = core::TmnfRules::Compile(*tmnf, {});
    ASSERT_NE(rules, nullptr) << core::ToString(*tmnf);
    ++programs_run;

    std::vector<tree::Tree> trees;
    trees.push_back(tree::RandomTree(rng, 300, {"a", "b"}));
    trees.push_back(tree::RandomTree(
        rng, 1 + static_cast<int32_t>(rng.Below(40)), {"a", "b"},
        /*depth_bias=*/true));
    trees.push_back(tree::ChainTree(1, "a"));
    // Labels the program never names: only the structural EDB holds.
    trees.push_back(tree::RandomTree(
        rng, 1 + static_cast<int32_t>(rng.Below(20)), {"x", "y"}));
    for (const tree::Tree& t : trees) {
      const std::string context =
          core::ToString(p) + "on " + tree::ToDebugString(t);
      ASSERT_TRUE(eval.Evaluate(*rules, t, nullptr).ok()) << context;
      core::TreeDatabase db(t);
      auto semi = core::EvaluateSemiNaive(p, db);
      auto grounded = core::EvaluateGrounded(*tmnf, t);
      ASSERT_TRUE(semi.ok()) << context;
      ASSERT_TRUE(grounded.ok()) << context;
      const std::vector<bool> intensional = p.IntensionalMask();
      for (core::PredId q = 0; q < p.preds().size(); ++q) {
        if (!intensional[q]) continue;
        const core::PredId tq = tmnf->preds().Find(p.preds().Name(q));
        const std::vector<tree::NodeId> got = eval.Members(tq);
        EXPECT_EQ(got, semi->Unary(q)) << p.preds().Name(q) << "\n"
                                       << context;
        EXPECT_EQ(got, tq < 0 ? std::vector<tree::NodeId>{}
                              : grounded->Unary(tq))
            << p.preds().Name(q) << "\n" << context;
      }
    }
  }
  EXPECT_EQ(programs_run, 40);
}

// The random generator emits only unary IDB, so the dense nullary/binary
// stores and their deltas get a directed cross-engine check here: binary
// transitive closure plus a nullary bridge, naive vs semi-naive vs the
// reference oracle.
TEST(EngineEquivalenceTest, BinaryAndNullaryIdbAgreeAcrossEngines) {
  auto p = core::ParseProgram(
      "tc(X, Y) :- nextsibling(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), nextsibling(Y, Z).\n"
      "found :- tc(X, Y), label_b(Y).\n"
      "hit(X) :- leaf(X), found.\n");
  ASSERT_TRUE(p.ok());
  util::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    tree::Tree t = tree::RandomTree(
        rng, 1 + static_cast<int32_t>(rng.Below(40)), {"a", "b"});
    core::TreeDatabase db(t);
    auto naive = core::EvaluateNaive(*p, db);
    auto semi = core::EvaluateSemiNaive(*p, db);
    auto ref = core::EvaluateSemiNaiveReference(*p, db);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(semi.ok());
    ASSERT_TRUE(ref.ok());
    const core::PredId tc = p->preds().Find("tc");
    const core::PredId found = p->preds().Find("found");
    const core::PredId hit = p->preds().Find("hit");
    EXPECT_EQ(naive->Binary(tc), semi->Binary(tc));
    EXPECT_EQ(naive->Binary(tc), ref->Binary(tc));
    EXPECT_EQ(naive->NullaryTrue(found), semi->NullaryTrue(found));
    EXPECT_EQ(naive->NullaryTrue(found), ref->NullaryTrue(found));
    EXPECT_EQ(naive->Unary(hit), semi->Unary(hit));
    EXPECT_EQ(naive->Unary(hit), ref->Unary(hit));
    EXPECT_EQ(naive->num_derived(), semi->num_derived());
    EXPECT_EQ(naive->num_derived(), ref->num_derived());
  }
}

// Heads with out-of-domain constants are not derivable — and every engine,
// including the reference oracle, must agree (eval.h contract).
TEST(EngineEquivalenceTest, OutOfDomainHeadConstantsAreNotDerivable) {
  auto p = core::ParseProgramWithQuery("p(7) :- root(X).", "p");
  ASSERT_TRUE(p.ok());
  tree::Tree t = tree::ChainTree(3, "a");
  core::TreeDatabase db(t);
  auto naive = core::EvaluateNaive(*p, db);
  auto semi = core::EvaluateSemiNaive(*p, db);
  auto ref = core::EvaluateSemiNaiveReference(*p, db);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(semi.ok());
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(naive->Query().empty());
  EXPECT_TRUE(semi->Query().empty());
  EXPECT_TRUE(ref->Query().empty());
  EXPECT_EQ(naive->num_derived(), 0);
  EXPECT_EQ(ref->num_derived(), 0);
}

}  // namespace

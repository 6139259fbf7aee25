#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <set>
#include <utility>
#include <vector>

#include "src/caterpillar/eval.h"
#include "src/caterpillar/expr.h"
#include "src/core/database.h"
#include "src/core/tree_schema.h"
#include "src/tree/generator.h"
#include "src/util/rng.h"

namespace mdatalog::core {
namespace {

using tree::kNoNode;
using tree::NodeId;
using tree::Tree;
using Pairs = std::vector<std::pair<NodeId, NodeId>>;

/// One entry per kind, plus extra members of the two families (an absent
/// label, several child indices), each under its canonical name.
struct Entry {
  std::string name;
  SchemaRef ref;
};
std::vector<Entry> SchemaTable() {
  return {
      {"root", {SchemaPred::kRoot, 0, ""}},
      {"leaf", {SchemaPred::kLeaf, 0, ""}},
      {"firstsibling", {SchemaPred::kFirstSibling, 0, ""}},
      {"lastsibling", {SchemaPred::kLastSibling, 0, ""}},
      {"label_a", {SchemaPred::kLabel, 0, "a"}},
      {"label_b", {SchemaPred::kLabel, 0, "b"}},
      {"label_zz", {SchemaPred::kLabel, 0, "zz"}},
      {"firstchild", {SchemaPred::kFirstChild, 0, ""}},
      {"nextsibling", {SchemaPred::kNextSibling, 0, ""}},
      {"child", {SchemaPred::kChild, 0, ""}},
      {"lastchild", {SchemaPred::kLastChild, 0, ""}},
      {"nextsibling_tc", {SchemaPred::kNextSiblingTc, 0, ""}},
      {"child1", {SchemaPred::kChildK, 1, ""}},
      {"child2", {SchemaPred::kChildK, 2, ""}},
      {"child3", {SchemaPred::kChildK, 3, ""}},
  };
}

/// The unary predicates by their Section 2 definitions.
bool UnaryOracle(const Tree& t, const SchemaRef& ref, NodeId n) {
  switch (ref.pred) {
    case SchemaPred::kRoot: return t.IsRoot(n);
    case SchemaPred::kLeaf: return t.IsLeaf(n);
    case SchemaPred::kFirstSibling: return t.IsFirstSibling(n);
    case SchemaPred::kLastSibling: return t.IsLastSibling(n);
    case SchemaPred::kLabel: return t.label_name(n) == ref.label;
    default: ADD_FAILURE() << "not unary"; return false;
  }
}

/// The binary relations by their definitions over each node's child list,
/// in (x, y) order.
Pairs BinaryOracle(const Tree& t, const SchemaRef& ref) {
  std::set<std::pair<NodeId, NodeId>> out;
  for (NodeId x = 0; x < t.size(); ++x) {
    const std::vector<NodeId> kids = t.Children(x);
    const int32_t num = static_cast<int32_t>(kids.size());
    for (int32_t i = 0; i < num; ++i) {
      switch (ref.pred) {
        case SchemaPred::kFirstChild:
          if (i == 0) out.emplace(x, kids[i]);
          break;
        case SchemaPred::kNextSibling:
          if (i + 1 < num) out.emplace(kids[i], kids[i + 1]);
          break;
        case SchemaPred::kChild: out.emplace(x, kids[i]); break;
        case SchemaPred::kLastChild:
          if (i == num - 1) out.emplace(x, kids[i]);
          break;
        case SchemaPred::kNextSiblingTc:
          for (int32_t j = i; j < num; ++j) out.emplace(kids[i], kids[j]);
          break;
        case SchemaPred::kChildK:
          if (i == ref.k - 1) out.emplace(x, kids[i]);
          break;
        default: ADD_FAILURE() << "not binary";
      }
    }
  }
  // nextsibling* is reflexive on the whole domain, the root included.
  if (ref.pred == SchemaPred::kNextSiblingTc) out.emplace(0, 0);
  return Pairs(out.begin(), out.end());
}

std::vector<NodeId> Walk(const Tree& t, const SchemaRef& ref, bool inverse,
                         NodeId n) {
  std::vector<NodeId> out;
  ForEachSuccessor(t, {ref.pred, ref.k}, inverse, n,
                   [&](NodeId m) { out.push_back(m); });
  return out;
}

std::vector<NodeId> Sorted(std::vector<NodeId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<Tree> RandomTrees() {
  std::vector<Tree> trees;
  util::Rng rng(20021);
  trees.push_back(tree::RandomTree(rng, 1, {"a"}));
  for (int i = 0; i < 40; ++i) {
    const int32_t size = static_cast<int32_t>(rng.Range(2, 40));
    trees.push_back(tree::RandomTree(rng, size, {"a", "b", "c"},
                                     /*depth_bias=*/i % 2 == 0));
  }
  return trees;
}

TEST(TreeSchemaTest, CanonicalNamesClassifyBackToTheirKind) {
  std::set<SchemaPred> kinds;
  for (const auto& [name, ref] : SchemaTable()) {
    SCOPED_TRACE(name);
    const std::optional<SchemaRef> back =
        ClassifySchemaPred(name, SchemaArity(ref.pred));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->pred, ref.pred);
    EXPECT_EQ(back->k, ref.k);
    EXPECT_EQ(back->label, ref.label);
    // The other arity is never a schema predicate.
    EXPECT_FALSE(ClassifySchemaPred(name, 3 - SchemaArity(ref.pred)));
    kinds.insert(ref.pred);
  }
  EXPECT_EQ(static_cast<int>(kinds.size()), kNumSchemaPreds);
  EXPECT_EQ(ClassifySchemaPred("child2147483647", 2)->k, INT32_MAX);
  EXPECT_EQ(ClassifySchemaPred(LabelPredName("td"), 1)->label, "td");
}

TEST(TreeSchemaTest, NearMissesAreNotSchemaPredicates) {
  // "child" without an index is the child relation, never a child_k.
  EXPECT_EQ(ClassifySchemaPred("child", 2)->pred, SchemaPred::kChild);
  EXPECT_FALSE(ClassifySchemaPred("child", 1));
  for (const char* name : {"child0", "childx", "child1x", "child-1",
                           "child4294967297", "child2147483648",
                           "child99999999999"}) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(ClassifySchemaPred(name, 2));
  }
  EXPECT_FALSE(ClassifySchemaPred("label_", 1));
  EXPECT_FALSE(ClassifySchemaPred("label", 1));
  EXPECT_FALSE(ClassifySchemaPred("leaf", 2));
  EXPECT_FALSE(ClassifySchemaPred("root", 0));
  EXPECT_FALSE(ClassifySchemaPred("Root", 1));
  EXPECT_FALSE(ClassifySchemaPred("edge", 2));
}

TEST(TreeSchemaTest, EveryKindConformsOnRandomTrees) {
  for (const Tree& t : RandomTrees()) {
    TreeDatabase db(t);
    for (const auto& [name, ref] : SchemaTable()) {
      SCOPED_TRACE(name + " on " + tree::ToDebugString(t));
      const Relation* rel = db.Get(name, SchemaArity(ref.pred));
      ASSERT_NE(rel, nullptr);

      if (SchemaArity(ref.pred) == 1) {
        const tree::LabelId label = t.FindLabel(ref.label);
        std::vector<int32_t> expected;
        for (NodeId n = 0; n < t.size(); ++n) {
          const bool in = UnaryOracle(t, ref, n);
          EXPECT_EQ(Holds(t, ref.pred, label, n), in) << "node " << n;
          if (in) expected.push_back(n);
          auto image = caterpillar::EvalImage(t, caterpillar::Test(name), {n});
          ASSERT_TRUE(image.ok()) << image.status().ToString();
          EXPECT_EQ(*image, in ? std::vector<NodeId>{n}
                               : std::vector<NodeId>{});
        }
        EXPECT_EQ(rel->unary_tuples(), expected);
        continue;
      }

      // The relation is the forward walk, pair for pair and in order.
      const Pairs expected = BinaryOracle(t, ref);
      Pairs walked;
      for (NodeId n = 0; n < t.size(); ++n) {
        for (NodeId m : Walk(t, ref, /*inverse=*/false, n)) {
          walked.emplace_back(n, m);
        }
      }
      EXPECT_EQ(rel->binary_tuples(), walked);
      Pairs sorted_walk = walked;
      std::sort(sorted_walk.begin(), sorted_walk.end());
      EXPECT_EQ(sorted_walk, expected);

      const bool functional = kFunctionalAxes.contains(ref.pred);
      for (NodeId n = 0; n < t.size(); ++n) {
        std::vector<NodeId> succ, pred;
        for (const auto& [x, y] : expected) {
          if (x == n) succ.push_back(y);
          if (y == n) pred.push_back(x);
        }
        const std::vector<NodeId> fwd = Walk(t, ref, false, n);
        const std::vector<NodeId> bwd = Walk(t, ref, true, n);
        EXPECT_EQ(Sorted(fwd), succ) << "node " << n;
        EXPECT_EQ(Sorted(bwd), pred) << "node " << n;

        // Proposition 4.1: one successor and one predecessor at most, and
        // Backward inverts Forward.
        if (functional) {
          const Axis axis{ref.pred, ref.k};
          const NodeId y = Forward(t, axis, n);
          const NodeId x = Backward(t, axis, n);
          EXPECT_EQ(y, succ.empty() ? kNoNode : succ[0]);
          EXPECT_EQ(x, pred.empty() ? kNoNode : pred[0]);
          if (y != kNoNode) EXPECT_EQ(Backward(t, axis, y), n);
          if (x != kNoNode) EXPECT_EQ(Forward(t, axis, x), n);
        }

        // The caterpillar step, both ways. nextsibling_tc is outside the
        // caterpillar signature (the language writes it nextsibling*).
        auto image = caterpillar::EvalImage(t, caterpillar::Rel(name), {n});
        auto inverse = caterpillar::EvalImage(
            t, caterpillar::Rel(name, /*inverted=*/true), {n});
        if (ref.pred == SchemaPred::kNextSiblingTc) {
          EXPECT_FALSE(image.ok());
          EXPECT_FALSE(inverse.ok());
          continue;
        }
        ASSERT_TRUE(image.ok()) << image.status().ToString();
        ASSERT_TRUE(inverse.ok()) << inverse.status().ToString();
        EXPECT_EQ(*image, succ) << "node " << n;
        EXPECT_EQ(*inverse, pred) << "node " << n;
      }
    }
  }
}

}  // namespace
}  // namespace mdatalog::core

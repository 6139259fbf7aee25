#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "src/html/parser.h"
#include "src/html/tokenizer.h"
#include "src/tree/binary.h"
#include "src/tree/generator.h"
#include "src/tree/ranked.h"
#include "src/tree/serialize.h"
#include "src/tree/tree.h"
#include "src/util/rng.h"

namespace mdatalog::tree {
namespace {

Tree SmallTree() {
  // a(b, c(d, e), f)
  TreeBuilder b;
  NodeId r = b.Root("a");
  b.Child(r, "b");
  NodeId c = b.Child(r, "c");
  b.Child(c, "d");
  b.Child(c, "e");
  b.Child(r, "f");
  return b.Build();
}

TEST(TreeTest, BuilderLinksSiblingsAndParents) {
  Tree t = SmallTree();
  ASSERT_EQ(t.size(), 6);
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.label_name(0), "a");
  std::vector<NodeId> kids = t.Children(0);
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(t.label_name(kids[0]), "b");
  EXPECT_EQ(t.label_name(kids[1]), "c");
  EXPECT_EQ(t.label_name(kids[2]), "f");
  EXPECT_EQ(t.parent(kids[1]), 0);
  EXPECT_EQ(t.next_sibling(kids[0]), kids[1]);
  EXPECT_EQ(t.prev_sibling(kids[1]), kids[0]);
  EXPECT_EQ(t.first_child(0), kids[0]);
  EXPECT_EQ(t.last_child(0), kids[2]);
}

TEST(TreeTest, UnaryRelationsOfTauUr) {
  Tree t = SmallTree();
  // root
  EXPECT_TRUE(t.IsRoot(0));
  EXPECT_FALSE(t.IsRoot(1));
  // leaf
  EXPECT_TRUE(t.IsLeaf(1));
  EXPECT_FALSE(t.IsLeaf(2));
  EXPECT_TRUE(t.IsLeaf(5));
  // lastsibling: root is NOT a last sibling (paper, Section 2).
  EXPECT_FALSE(t.IsLastSibling(0));
  EXPECT_TRUE(t.IsLastSibling(5));   // f
  EXPECT_TRUE(t.IsLastSibling(4));   // e
  EXPECT_FALSE(t.IsLastSibling(1));  // b
  // firstsibling symmetric
  EXPECT_FALSE(t.IsFirstSibling(0));
  EXPECT_TRUE(t.IsFirstSibling(1));
  EXPECT_TRUE(t.IsFirstSibling(3));
  EXPECT_FALSE(t.IsFirstSibling(5));
}

TEST(TreeTest, ChildKIsOneBased) {
  Tree t = SmallTree();
  EXPECT_EQ(t.ChildK(0, 1), 1);
  EXPECT_EQ(t.ChildK(0, 2), 2);
  EXPECT_EQ(t.ChildK(0, 3), 5);
  EXPECT_EQ(t.ChildK(0, 4), kNoNode);
  EXPECT_EQ(t.ChildK(1, 1), kNoNode);
}

TEST(TreeTest, DepthHeightArity) {
  Tree t = SmallTree();
  EXPECT_EQ(t.Depth(0), 0);
  EXPECT_EQ(t.Depth(3), 2);
  EXPECT_EQ(t.Height(), 2);
  EXPECT_EQ(t.MaxArity(), 3);
  EXPECT_EQ(t.NumChildren(2), 2);
}

TEST(TreeTest, AncestorCheck) {
  Tree t = SmallTree();
  EXPECT_TRUE(t.IsAncestor(0, 3));
  EXPECT_TRUE(t.IsAncestor(2, 4));
  EXPECT_FALSE(t.IsAncestor(3, 2));
  EXPECT_FALSE(t.IsAncestor(3, 3));  // not a *proper* ancestor
  EXPECT_FALSE(t.IsAncestor(1, 3));
}

/// The columns of `t` as a frozen view, for CheckStructure.
Tree::FrozenView ViewOf(const Tree& t) {
  const Tree::Columns c = t.columns();
  return {t.size(),         c.parent,       c.first_child, c.last_child,
          c.prev_sibling,   c.next_sibling, c.label};
}

TEST(TreeTest, PreorderIsDocumentOrder) {
  // a(b, c(d, e), f): ids are document order, so every subtree is an id
  // range ending at its last descendant.
  Tree t = SmallTree();
  const std::vector<NodeId> last = {5, 1, 4, 3, 4, 5};
  for (NodeId n = 0; n < t.size(); ++n) {
    EXPECT_EQ(LastDescendant(t, n), last[n]) << n;
    if (n > 0) EXPECT_LT(t.parent(n), n);
  }
  // On random shapes: y lies in x's id range iff x is y's proper ancestor,
  // and the columns pass the structure check.
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Tree r = RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(40)), {"a"});
    EXPECT_TRUE(CheckStructure(ViewOf(r), 1).ok()) << ToDebugString(r);
    for (NodeId x = 0; x < r.size(); ++x) {
      for (NodeId y = 0; y < r.size(); ++y) {
        EXPECT_EQ(r.IsAncestor(x, y), x < y && y <= LastDescendant(r, x));
      }
    }
  }
}

TEST(TreeBuilderDeathTest, ChildRejectsParentOffRightmostPath) {
  // After a(b(c), d) the rightmost path is a, d: b is closed for good.
  TreeBuilder b;
  NodeId a = b.Root("a");
  NodeId bb = b.Child(a, "b");
  b.Child(bb, "c");
  b.Child(a, "d");
  EXPECT_DEATH(b.Child(bb, "e"), "OnRightmostPath");
}

TEST(TreeTest, CheckStructureRejectsInconsistentColumns) {
  // a(b, c(d, e), f) as six mutable columns.
  const Tree t = SmallTree();
  const Tree::FrozenView good = ViewOf(t);
  const int32_t num_labels = static_cast<int32_t>(t.labels().size());
  const auto column = [&](const int32_t* col) {
    return std::vector<int32_t>(col, col + t.size());
  };
  const auto check = [&](int which, NodeId n, int32_t value,
                         std::vector<uint32_t> offsets = {}) {
    std::vector<std::vector<int32_t>> cols = {
        column(good.parent),       column(good.first_child),
        column(good.last_child),   column(good.prev_sibling),
        column(good.next_sibling), column(good.label)};
    if (which >= 0) cols[which][n] = value;
    const Tree::FrozenView view = {
        t.size(),       cols[0].data(), cols[1].data(),
        cols[2].data(), cols[3].data(), cols[4].data(),
        cols[5].data(), offsets.empty() ? nullptr : offsets.data(),
        ""};
    return CheckStructure(view, num_labels);
  };
  EXPECT_TRUE(check(-1, 0, 0).ok());
  EXPECT_TRUE(check(-1, 0, 0, {0, 0, 1, 1, 2, 2, 3}).ok());
  // Parent later than the node, and parent off the rightmost path (e under
  // b instead of c: b closed when c opened).
  EXPECT_EQ(check(0, 2, 3).code(), util::StatusCode::kDataLoss);
  EXPECT_EQ(check(0, 4, 1).code(), util::StatusCode::kDataLoss);
  // In-range links that disagree with the parent column.
  EXPECT_EQ(check(1, 2, 4).code(), util::StatusCode::kDataLoss);
  EXPECT_EQ(check(2, 0, 2).code(), util::StatusCode::kDataLoss);
  EXPECT_EQ(check(3, 5, 1).code(), util::StatusCode::kDataLoss);
  EXPECT_EQ(check(4, 3, kNoNode).code(), util::StatusCode::kDataLoss);
  // A label past the alphabet, and text offsets that go backwards.
  EXPECT_EQ(check(5, 1, num_labels).code(), util::StatusCode::kDataLoss);
  EXPECT_EQ(check(-1, 0, 0, {0, 2, 1, 1, 2, 2, 3}).code(),
            util::StatusCode::kDataLoss);
}

TEST(TreeTest, TextPayload) {
  TreeBuilder b;
  NodeId r = b.Root("p");
  NodeId c = b.Child(r, "text");
  b.SetText(c, "hello");
  Tree t = b.Build();
  EXPECT_EQ(t.text(c), "hello");
  EXPECT_EQ(t.text(r), "");
  EXPECT_TRUE(t.HasText(c));
  EXPECT_FALSE(t.HasText(r));
  EXPECT_EQ(t.SubtreeText(r), "hello");
}

TEST(TreeTest, EqualityIsStructuralAndLabelBased) {
  Tree a = SmallTree();
  Tree b = SmallTree();
  EXPECT_TRUE(TreesEqual(a, b));
  TreeBuilder tb;
  NodeId r = tb.Root("a");
  tb.Child(r, "b");
  Tree c = tb.Build();
  EXPECT_FALSE(TreesEqual(a, c));
}

TEST(TreeTest, EqualityDifferentInternOrder) {
  // Same tree built with different label-interning order must compare equal.
  TreeBuilder b1;
  NodeId r1 = b1.Root("x");
  b1.Child(r1, "y");
  Tree t1 = b1.Build();

  TreeBuilder b2;
  NodeId r2 = b2.Root("x");  // interner here sees "x" first too, so force skew:
  NodeId c2 = b2.Child(r2, "y");
  (void)c2;
  Tree t2 = b2.Build();
  EXPECT_TRUE(TreesEqual(t1, t2));
}

/// The node-by-node rebuild of n's subtree that the in-place root strip
/// replaced: source node m becomes node m - n.
Tree RebuildSubtree(const Tree& t, NodeId n) {
  TreeBuilder builder;
  builder.Root(t.label_name(n));
  const NodeId last = LastDescendant(t, n);
  for (NodeId m = n; m <= last; ++m) {
    const NodeId dst =
        m == n ? 0 : builder.Child(t.parent(m) - n, t.label_name(m));
    if (t.HasText(m)) builder.SetText(dst, t.text(m));
  }
  return builder.Build();
}

/// Same ids, parents, label ids and names, texts and alphabet order.
void ExpectIdentical(const Tree& got, const Tree& want) {
  ASSERT_EQ(got.size(), want.size());
  for (NodeId n = 0; n < got.size(); ++n) {
    ASSERT_EQ(got.parent(n), want.parent(n)) << n;
    ASSERT_EQ(got.label(n), want.label(n)) << n;
    ASSERT_EQ(got.label_name(n), want.label_name(n)) << n;
    ASSERT_EQ(got.text(n), want.text(n)) << n;
  }
  ASSERT_EQ(got.labels().size(), want.labels().size());
  for (LabelId id = 0; id < got.labels().size(); ++id) {
    EXPECT_EQ(got.labels().Name(id), want.labels().Name(id)) << id;
  }
}

/// Constructs `page` and checks TreeConstructor::Build against the
/// unstripped tree: its node-1 rebuild when the root is stripped, the tree
/// itself when it is kept. Returns whether the root was stripped.
bool CheckRootStrip(std::string_view page) {
  html::TreeConstructor constructor;
  html::StreamTokenizer scanner;
  EXPECT_TRUE(scanner.Feed(page, &constructor).ok());
  EXPECT_TRUE(scanner.Finish(&constructor).ok());
  EXPECT_TRUE(constructor.Finish().ok());
  TreeBuilder unstripped = constructor.builder();
  const Tree full = unstripped.Build();
  const bool strips = constructor.strips_root();
  const Tree built = constructor.Build();
  ExpectIdentical(built, strips ? RebuildSubtree(full, 1) : full);
  EXPECT_EQ(built.FindLabel("#document") == util::kInvalidSymbol, strips);
  return strips;
}

TEST(TreeBuilderTest, BuildWithoutRootEqualsRebuildingNodeOne) {
  // Labels shared across levels and texts on several nodes.
  EXPECT_TRUE(CheckRootStrip(
      "<div class=a><p>x &amp; y</p>mid<div><p>z</p><br></div>tail</div>"));
  // Several top-level nodes: the root stays.
  EXPECT_FALSE(CheckRootStrip("<p>a</p>between<p>b</p>"));
  // The only top-level node is a text run.
  EXPECT_TRUE(CheckRootStrip("just text"));
  // 100k-deep: no recursion anywhere.
  std::string deep;
  for (int i = 0; i < 100000; ++i) deep += "<div>";
  EXPECT_TRUE(CheckRootStrip(deep + "x"));
}

TEST(TreeBuilderTest, BuildWithoutRootOnAHandBuiltTree) {
  // #document(x(y, x("t"), z)): node 0's label goes, the others keep their
  // order of first use.
  TreeBuilder b;
  const NodeId r = b.Root("#document");
  const NodeId x = b.Child(r, "x");
  b.Child(x, "y");
  b.SetText(b.Child(x, "x"), "t");
  b.Child(x, "z");
  TreeBuilder copy = b;
  const Tree full = copy.Build();
  const Tree t = b.BuildWithoutRoot();
  ExpectIdentical(t, RebuildSubtree(full, 1));
  EXPECT_EQ(ToDebugString(t), "x(y,x,z)");
  EXPECT_EQ(t.parent(0), kNoNode);
  EXPECT_EQ(t.label(0), 0);
  EXPECT_EQ(t.text(2), "t");
  EXPECT_EQ(t.FindLabel("#document"), util::kInvalidSymbol);
}

TEST(TreeTest, DebugString) {
  EXPECT_EQ(ToDebugString(SmallTree()), "a(b,c(d,e),f)");
  EXPECT_EQ(ToDebugString(ChainTree(3, "z")), "z(z(z))");
}

TEST(BinaryEncodingTest, Figure1Encoding) {
  // Figure 1: n1 -fc-> n2, n2 -ns-> n3, n3 -fc-> n4, n4 -ns-> n5, n3 -ns-> n6.
  Tree t = PaperFigure1Tree();
  BinaryTree b = EncodeFirstChildNextSibling(t);
  // Node ids: n1=0, n2=1, n3=2, n4=3, n5=4, n6=5.
  EXPECT_EQ(b.nodes[0].left, 1);
  EXPECT_EQ(b.nodes[0].right, kNoNode);
  EXPECT_EQ(b.nodes[1].left, kNoNode);
  EXPECT_EQ(b.nodes[1].right, 2);
  EXPECT_EQ(b.nodes[2].left, 3);
  EXPECT_EQ(b.nodes[2].right, 5);
  EXPECT_EQ(b.nodes[3].right, 4);
  EXPECT_EQ(b.nodes[4].right, kNoNode);
  EXPECT_EQ(b.nodes[5].right, kNoNode);
}

TEST(BinaryEncodingTest, RoundTripSmall) {
  Tree t = SmallTree();
  auto back = DecodeFirstChildNextSibling(EncodeFirstChildNextSibling(t));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(TreesEqual(t, *back));
}

TEST(BinaryEncodingTest, RoundTripRandomProperty) {
  util::Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    Tree t = RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(80)),
                        {"a", "b", "c"});
    auto back = DecodeFirstChildNextSibling(EncodeFirstChildNextSibling(t));
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(TreesEqual(t, *back)) << ToDebugString(t);
  }
}

TEST(BinaryEncodingTest, DecodeRejectsRootWithRightChild) {
  BinaryTree b;
  b.nodes.push_back({.label = "a", .left = kNoNode, .right = 1});
  b.nodes.push_back({.label = "b", .left = kNoNode, .right = kNoNode});
  b.root = 0;
  EXPECT_FALSE(DecodeFirstChildNextSibling(b).ok());
}

TEST(BinaryEncodingTest, DecodeRejectsEmpty) {
  BinaryTree b;
  EXPECT_FALSE(DecodeFirstChildNextSibling(b).ok());
}

TEST(BinaryEncodingTest, DecodeRejectsCyclesAndStrayLinks) {
  BinaryTree cycle;
  cycle.nodes.push_back({.label = "a", .left = 1, .right = kNoNode});
  cycle.nodes.push_back({.label = "b", .left = 1, .right = kNoNode});
  cycle.root = 0;
  EXPECT_FALSE(DecodeFirstChildNextSibling(cycle).ok());
  BinaryTree stray = cycle;
  stray.nodes[1].left = 7;
  EXPECT_FALSE(DecodeFirstChildNextSibling(stray).ok());
  BinaryTree to_root = cycle;
  to_root.nodes[1].left = 0;
  EXPECT_FALSE(DecodeFirstChildNextSibling(to_root).ok());
}

TEST(GeneratorTest, CompleteBinaryTreeSize) {
  for (int32_t d = 0; d <= 6; ++d) {
    Tree t = CompleteBinaryTree(d, "a");
    EXPECT_EQ(t.size(), (1 << (d + 1)) - 1);
    EXPECT_EQ(t.Height(), d);
    EXPECT_LE(t.MaxArity(), 2);
  }
}

TEST(GeneratorTest, ChainTree) {
  Tree t = ChainTree(5, "a");
  EXPECT_EQ(t.size(), 5);
  EXPECT_EQ(t.Height(), 4);
  EXPECT_EQ(t.MaxArity(), 1);
}

TEST(GeneratorTest, ChildrenWord) {
  Tree t = ChildrenWord("r", {"a", "a", "b"});
  EXPECT_EQ(t.size(), 4);
  EXPECT_EQ(t.label_name(0), "r");
  EXPECT_EQ(t.label_name(1), "a");
  EXPECT_EQ(t.label_name(3), "b");
}

TEST(GeneratorTest, RandomTreeRespectsSizeAndLabels) {
  util::Rng rng(1);
  Tree t = RandomTree(rng, 200, {"x", "y"});
  EXPECT_EQ(t.size(), 200);
  for (NodeId n = 0; n < t.size(); ++n) {
    EXPECT_TRUE(t.label_name(n) == "x" || t.label_name(n) == "y");
  }
}

TEST(GeneratorTest, RandomBoundedArity) {
  util::Rng rng(5);
  Tree t = RandomBoundedArityTree(rng, 300, {"a"}, 2);
  EXPECT_EQ(t.size(), 300);
  EXPECT_LE(t.MaxArity(), 2);
}

TEST(GeneratorTest, PaperTrees) {
  EXPECT_EQ(ToDebugString(PaperExample32Tree()), "a(a,a,a)");
  EXPECT_EQ(ToDebugString(PaperFigure1Tree()), "a(a,a(a,a),a)");
  EXPECT_EQ(ToDebugString(PaperExample49Tree()), "a(a,a)");
}

TEST(RankedAlphabetTest, ValidatesArity) {
  RankedAlphabet sigma;
  sigma.Declare("f", 2);
  sigma.Declare("g", 1);
  sigma.Declare("c", 0);
  EXPECT_EQ(sigma.MaxRank(), 2);
  EXPECT_EQ(sigma.RankOf("f"), 2);
  EXPECT_EQ(sigma.RankOf("nope"), -1);

  TreeBuilder b;
  NodeId r = b.Root("f");
  NodeId g = b.Child(r, "g");
  b.Child(g, "c");
  b.Child(r, "c");
  Tree ok = b.Build();
  EXPECT_TRUE(sigma.Validate(ok).ok());

  TreeBuilder b2;
  NodeId r2 = b2.Root("f");
  b2.Child(r2, "c");
  Tree bad = b2.Build();  // f should have 2 children
  EXPECT_FALSE(sigma.Validate(bad).ok());
}

TEST(RankedAlphabetTest, MaxArityCheck) {
  Tree t = PaperExample32Tree();  // root has 3 children
  EXPECT_TRUE(ValidateMaxArity(t, 3).ok());
  EXPECT_FALSE(ValidateMaxArity(t, 2).ok());
}

TEST(SerializeTest, SimpleXml) {
  TreeBuilder b;
  NodeId r = b.Root("item");
  NodeId name = b.Child(r, "name");
  b.SetText(name, "Widget <1> & \"co\"");
  Tree t = b.Build();
  std::string xml = ToXml(t, -1);
  EXPECT_EQ(xml,
            "<item><name>Widget &lt;1&gt; &amp; &quot;co&quot;</name></item>");
}

TEST(SerializeTest, IndentedXmlHasNewlines) {
  Tree t = SmallTree();
  std::string xml = ToXml(t, 2);
  EXPECT_NE(xml.find("<a>\n"), std::string::npos);
  EXPECT_NE(xml.find("  <b></b>"), std::string::npos);
}

}  // namespace
}  // namespace mdatalog::tree

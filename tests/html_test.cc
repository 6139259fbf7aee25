#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/html/tokenizer.h"
#include "src/tree/serialize.h"
#include "src/util/rng.h"
#include "tests/random_garbage.h"

namespace mdatalog::html {
namespace {

using tree::NodeId;

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

TEST(TokenizerTest, BasicTagsAndText) {
  auto tokens = Tokenize("<p>Hello</p>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].type, Token::Type::kStartTag);
  EXPECT_EQ(tokens[0].data, "p");
  EXPECT_EQ(tokens[1].type, Token::Type::kText);
  EXPECT_EQ(tokens[1].data, "Hello");
  EXPECT_EQ(tokens[2].type, Token::Type::kEndTag);
}

TEST(TokenizerTest, TagNamesAreLowercased) {
  auto tokens = Tokenize("<DIV CLASS=Big></DIV>");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].data, "div");
  ASSERT_EQ(tokens[0].attrs.size(), 1u);
  EXPECT_EQ(tokens[0].attrs[0].name, "class");
  EXPECT_EQ(tokens[0].attrs[0].value, "Big");  // values keep their case
}

TEST(TokenizerTest, AttributeQuoting) {
  auto tokens =
      Tokenize("<a href=\"x&amp;y\" title='hi there' data-k=v checked>");
  ASSERT_EQ(tokens.size(), 1u);
  const auto& attrs = tokens[0].attrs;
  ASSERT_GE(attrs.size(), 4u);
  EXPECT_EQ(attrs[0].name, "href");
  EXPECT_EQ(attrs[0].value, "x&y");
  EXPECT_EQ(attrs[1].name, "title");
  EXPECT_EQ(attrs[1].value, "hi there");
  EXPECT_EQ(attrs[2].name, "data-k");
  EXPECT_EQ(attrs[2].value, "v");
  EXPECT_EQ(attrs[3].name, "checked");
  EXPECT_EQ(attrs[3].value, "");
}

TEST(TokenizerTest, SelfClosingAndComments) {
  auto tokens = Tokenize("<br/><!-- note --><img src=x />");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_TRUE(tokens[0].self_closing);
  EXPECT_EQ(tokens[1].type, Token::Type::kComment);
  EXPECT_EQ(tokens[1].data, " note ");
  EXPECT_TRUE(tokens[2].self_closing);
}

TEST(TokenizerTest, DoctypeAndEntities) {
  auto tokens = Tokenize("<!DOCTYPE html><p>a &lt; b &amp; c &#65;</p>");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].type, Token::Type::kDoctype);
  EXPECT_EQ(tokens[2].data, "a < b & c A");
}

TEST(TokenizerTest, ScriptContentIsRaw) {
  auto tokens = Tokenize("<script>if (a < b) { x(); }</script><p>hi</p>");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].data, "script");
  // The inequality sign did not open a tag.
  bool has_p = false;
  for (const auto& t : tokens) {
    if (t.type == Token::Type::kStartTag && t.data == "p") has_p = true;
  }
  EXPECT_TRUE(has_p);
}

/// "type|data" per token, one a line.
std::string Sig(const std::vector<Token>& tokens) {
  std::string sig;
  for (const Token& t : tokens) {
    sig += std::to_string(static_cast<int>(t.type)) + "|" + t.data + "\n";
  }
  return sig;
}

TEST(TokenizerTest, RawTextCloserIgnoresCaseAndNeedsANameBoundary) {
  const std::string script_p = "0|script\n1|script\n0|p\n2|hi\n1|p\n";
  // An upper-case closer ends the script; the page after it is not swallowed.
  EXPECT_EQ(Sig(Tokenize("<SCRIPT>x</SCRIPT><p>hi</p>")), script_p);
  EXPECT_EQ(Sig(Tokenize("<script>x</ScRiPt><p>hi</p>")), script_p);
  // A longer name is no closer: the body runs on to the real </script>.
  EXPECT_EQ(Sig(Tokenize("<script>a</scripts><p>x</p></script>")),
            "0|script\n1|script\n");
  // Whitespace, '/' and end of input end the name too.
  EXPECT_EQ(Sig(Tokenize("<style>a</style >b")), "0|style\n1|style\n2|b\n");
  EXPECT_EQ(Sig(Tokenize("<style>a</STYLE/>b")), "0|style\n1|style\n2|b\n");
  EXPECT_EQ(Sig(Tokenize("<script>a</script")), "0|script\n1|script\n");
  EXPECT_EQ(Sig(Tokenize("<script>a</scrip")), "0|script\n");
}

TEST(TokenizerTest, StrayAngleBracketIsText) {
  auto tokens = Tokenize("<p>1 < 2</p>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].data, "1 < 2");
}

TEST(TokenizerTest, WhitespaceOnlyTextIsDropped) {
  auto tokens = Tokenize("<div>\n  \t<p>x</p>\n</div>");
  for (const auto& t : tokens) {
    if (t.type == Token::Type::kText) {
      EXPECT_EQ(t.data, "x");
    }
  }
}

TEST(DecodeEntitiesTest, UnknownEntitiesPassThrough) {
  EXPECT_EQ(DecodeEntities("&bogus; &amp; &#9999;"), "&bogus; & &#9999;");
  EXPECT_EQ(DecodeEntities("&nbsp;"), " ");
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(ParserTest, BuildsNestedTree) {
  auto doc = ParseHtml("<html><body><p>hi</p></body></html>");
  ASSERT_TRUE(doc.ok());
  const tree::Tree& t = doc->tree();
  EXPECT_EQ(t.label_name(t.root()), "html");
  NodeId body = t.first_child(t.root());
  EXPECT_EQ(t.label_name(body), "body");
  NodeId p = t.first_child(body);
  EXPECT_EQ(t.label_name(p), "p");
  NodeId text = t.first_child(p);
  EXPECT_EQ(t.label_name(text), "#text");
  EXPECT_EQ(t.text(text), "hi");
}

TEST(ParserTest, SyntheticRootForFragments) {
  auto doc = ParseHtml("<p>a</p><p>b</p>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->tree().label_name(0), "#document");
  EXPECT_EQ(doc->tree().NumChildren(0), 2);
}

TEST(ParserTest, VoidElementsDoNotNest) {
  auto doc = ParseHtml("<div><br><img src=x><span>y</span></div>");
  ASSERT_TRUE(doc.ok());
  const tree::Tree& t = doc->tree();
  EXPECT_EQ(t.NumChildren(t.root()), 3);  // br, img, span all siblings
}

TEST(ParserTest, AutoCloseListItems) {
  auto doc = ParseHtml("<ul><li>a<li>b<li>c</ul>");
  ASSERT_TRUE(doc.ok());
  const tree::Tree& t = doc->tree();
  EXPECT_EQ(t.label_name(t.root()), "ul");
  EXPECT_EQ(t.NumChildren(t.root()), 3);
}

TEST(ParserTest, AutoCloseTableCellsAndRows) {
  auto doc = ParseHtml("<table><tr><td>1<td>2<tr><td>3</table>");
  ASSERT_TRUE(doc.ok());
  const tree::Tree& t = doc->tree();
  std::vector<NodeId> rows = t.Children(t.root());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(t.NumChildren(rows[0]), 2);
  EXPECT_EQ(t.NumChildren(rows[1]), 1);
}

TEST(ParserTest, NestedListsKeepNesting) {
  auto doc = ParseHtml("<ul><li>a<ul><li>a1<li>a2</ul></li><li>b</ul>");
  ASSERT_TRUE(doc.ok());
  const tree::Tree& t = doc->tree();
  std::vector<NodeId> top = t.Children(t.root());
  ASSERT_EQ(top.size(), 2u);
  // First li contains text + inner ul with two li's.
  std::vector<NodeId> inner = t.Children(top[0]);
  ASSERT_EQ(inner.size(), 2u);
  EXPECT_EQ(t.label_name(inner[1]), "ul");
  EXPECT_EQ(t.NumChildren(inner[1]), 2);
}

TEST(ParserTest, UnmatchedEndTagIgnored) {
  auto doc = ParseHtml("<div><p>x</span></p></div>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(tree::ToDebugString(doc->tree()), "div(p(#text))");
}

TEST(ParserTest, UnclosedTagsCloseAtEof) {
  auto doc = ParseHtml("<div><p>x");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(tree::ToDebugString(doc->tree()), "div(p(#text))");
}

TEST(ParserTest, EmptyInputFails) {
  EXPECT_FALSE(ParseHtml("").ok());
  EXPECT_FALSE(ParseHtml("   \n  ").ok());
  EXPECT_FALSE(ParseHtml("<!-- only a comment -->").ok());
}

TEST(ParserTest, AttributesAccessible) {
  auto doc = ParseHtml("<div class=main id=top><a href=\"/x\">l</a></div>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetAttr(0, "class"), "main");
  EXPECT_EQ(doc->GetAttr(0, "id"), "top");
  EXPECT_TRUE(doc->HasAttr(0, "id"));
  EXPECT_FALSE(doc->HasAttr(0, "style"));
  std::vector<NodeId> with_href = doc->NodesWithAttr("href", "/x");
  ASSERT_EQ(with_href.size(), 1u);
  EXPECT_EQ(doc->tree().label_name(with_href[0]), "a");
}

TEST(ParserTest, ProjectAttributeIntoLabels) {
  auto doc = ParseHtml("<div class=main><span class=price>$5</span></div>");
  ASSERT_TRUE(doc.ok());
  tree::Tree t = ProjectAttributeIntoLabels(*doc, "class");
  EXPECT_EQ(t.label_name(t.root()), "div@main");
  EXPECT_EQ(t.label_name(t.first_child(t.root())), "span@price");

  // ParseTree projects while it builds: it must give exactly the tree of
  // the parse-then-project pair, on every input shape.
  std::vector<std::string> pages = {
      // The pathological shapes of the tests above.
      "<html><body><p>hi</p></body></html>",
      "<p>a</p><p>b</p>",
      "<div><br><img src=x><span>y</span></div>",
      "<ul><li>a<li>b<li>c</ul>",
      "<table><tr><td>1<td>2<tr><td>3</table>",
      "<ul><li>a<ul><li>a1<li>a2</ul></li><li>b</ul>",
      "<div><p>x</span></p></div>",
      "<div><p>x",
      "",
      "   \n  ",
      "<!-- only a comment -->",
      "just text",
      "<div class=main id=top><a href=\"/x\">l</a></div>",
      "<a x=1 === y='2' \"stray\" z>t</a>",
      // Projection edge cases: the first occurrence wins, empty values and
      // bare attributes do not project.
      "<p class=a class=b>x</p><p class='' class=c>y</p><p class>z</p>",
  };
  util::Rng rng(1);
  CatalogOptions opts;
  opts.num_items = 9;
  opts.with_ads = true;
  pages.push_back(ProductCatalogPage(rng, opts));
  opts.alt_layout = true;
  pages.push_back(ProductCatalogPage(rng, opts));
  pages.push_back(NewsIndexPage(rng, 12));
  pages.push_back(NestedBoardPage(rng, 3, 2));
  // RobustnessTest.HtmlParserSurvivesGarbage's corpus.
  util::Rng garbage(77);
  for (int trial = 0; trial < 300; ++trial) {
    pages.push_back(
        testing_util::RandomGarbage(garbage, 1 + garbage.Below(120)));
  }
  for (const std::string& page : pages) {
    for (const std::string attr : {"", "class"}) {
      SCOPED_TRACE("attr '" + attr + "' page: " + page);
      auto want = ParseHtml(page);
      auto got = ParseTree(page, attr);
      ASSERT_EQ(got.ok(), want.ok());
      if (!want.ok()) {
        EXPECT_EQ(got.status().code(), want.status().code());
        continue;
      }
      EXPECT_TRUE(
          tree::TreesEqual(*got, ProjectAttributeIntoLabels(*want, attr)));
    }
  }
}

// ---------------------------------------------------------------------------
// Synthetic pages
// ---------------------------------------------------------------------------

TEST(SyntheticTest, CatalogPageStructure) {
  util::Rng rng(1);
  CatalogOptions opts;
  opts.num_items = 7;
  auto doc = ParseHtml(ProductCatalogPage(rng, opts));
  ASSERT_TRUE(doc.ok());
  // Count rows with class=item.
  std::vector<NodeId> items;
  for (NodeId n = 0; n < doc->tree().size(); ++n) {
    if (doc->tree().label_name(n) == "tr" &&
        doc->GetAttr(n, "class") == "item") {
      items.push_back(n);
    }
  }
  EXPECT_EQ(items.size(), 7u);
  // Each item row has name/price/seller cells.
  for (NodeId row : items) {
    std::vector<NodeId> cells = doc->tree().Children(row);
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(doc->GetAttr(cells[0], "class"), "name");
    EXPECT_EQ(doc->GetAttr(cells[1], "class"), "price");
    EXPECT_EQ(doc->GetAttr(cells[2], "class"), "seller");
    EXPECT_FALSE(doc->tree().SubtreeText(cells[1]).empty());
  }
}

TEST(SyntheticTest, CatalogAdsAddRows) {
  util::Rng rng(2);
  CatalogOptions opts;
  opts.num_items = 9;
  opts.with_ads = true;
  auto doc = ParseHtml(ProductCatalogPage(rng, opts));
  ASSERT_TRUE(doc.ok());
  int32_t ads = 0;
  for (NodeId n = 0; n < doc->tree().size(); ++n) {
    if (doc->GetAttr(n, "class") == "ad") ++ads;
  }
  EXPECT_EQ(ads, 2);  // after items 3 and 6
}

TEST(SyntheticTest, AltLayoutKeepsItems) {
  util::Rng rng(3);
  CatalogOptions opts;
  opts.num_items = 5;
  opts.alt_layout = true;
  auto doc = ParseHtml(ProductCatalogPage(rng, opts));
  ASSERT_TRUE(doc.ok());
  int32_t items = 0;
  for (NodeId n = 0; n < doc->tree().size(); ++n) {
    if (doc->GetAttr(n, "class") == "item") ++items;
  }
  EXPECT_EQ(items, 5);
}

TEST(SyntheticTest, NewsIndexArticles) {
  util::Rng rng(4);
  auto doc = ParseHtml(NewsIndexPage(rng, 12));
  ASSERT_TRUE(doc.ok());
  int32_t articles = 0;
  for (NodeId n = 0; n < doc->tree().size(); ++n) {
    if (doc->GetAttr(n, "class") == "article") ++articles;
  }
  EXPECT_EQ(articles, 12);
}

TEST(SyntheticTest, NestedBoardDepth) {
  util::Rng rng(5);
  auto doc = ParseHtml(NestedBoardPage(rng, 3, 2));
  ASSERT_TRUE(doc.ok());
  // The deepest li chain passes through 4 levels of ul.
  int32_t max_ul_depth = 0;
  for (NodeId n = 0; n < doc->tree().size(); ++n) {
    if (doc->tree().label_name(n) != "ul") continue;
    int32_t d = 0;
    for (NodeId p = n; p != tree::kNoNode; p = doc->tree().parent(p)) {
      if (doc->tree().label_name(p) == "ul") ++d;
    }
    max_ul_depth = std::max(max_ul_depth, d);
  }
  EXPECT_EQ(max_ul_depth, 4);
}

TEST(SyntheticTest, GeneratorsAreDeterministic) {
  util::Rng a(42), b(42);
  CatalogOptions opts;
  EXPECT_EQ(ProductCatalogPage(a, opts), ProductCatalogPage(b, opts));
}

}  // namespace
}  // namespace mdatalog::html

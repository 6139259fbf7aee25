// The zero-copy scanner (src/html/tokenizer.h) against the tokenizer it
// replaced (tests/support/reference_tokenizer.h): on synthetic pages, the
// parser stress fragments and seeded garbage, fed whole and in 1-byte,
// 7-byte, 4 KB and random chunks, the scanner's events are the oracle's
// tokens. Every tree that ParseTree, ParseHtml and chunked construction
// build passes tree::CheckStructure, and ParseTree equals the
// parse-then-project pair.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/html/tokenizer.h"
#include "src/tree/tree.h"
#include "src/util/rng.h"
#include "tests/html_pages.h"
#include "tests/random_garbage.h"
#include "tests/support/reference_tokenizer.h"

namespace mdatalog::html {
namespace {

std::vector<std::string> Pages() {
  std::vector<std::string> pages = testing_util::NastyPages();
  util::Rng rng(20261020);
  CatalogOptions opts;
  opts.num_items = 25;
  pages.push_back(ProductCatalogPage(rng, opts));
  opts.with_ads = true;
  pages.push_back(ProductCatalogPage(rng, opts));
  opts.alt_layout = true;
  pages.push_back(ProductCatalogPage(rng, opts));
  pages.push_back(NewsIndexPage(rng, 20));
  pages.push_back(NestedBoardPage(rng, 4, 3));
  const size_t bases = pages.size();
  for (int32_t i = 0; i < 60; ++i) {
    // Garbage alone, and garbage spliced into a base page.
    pages.push_back(testing_util::RandomGarbage(rng, 1 + rng.Below(150)));
    std::string mutant = pages[rng.Below(bases)];
    for (int32_t e = 0; e < 3; ++e) {
      mutant.insert(rng.Below(mutant.size() + 1),
                    testing_util::RandomGarbage(rng, 1 + rng.Below(12)));
    }
    pages.push_back(std::move(mutant));
  }
  return pages;
}

std::vector<std::string> Chunks(const std::string& page, size_t n) {
  std::vector<std::string> out;
  for (size_t i = 0; i < page.size(); i += n) out.push_back(page.substr(i, n));
  return out;
}

std::vector<std::vector<std::string>> Chunkings(const std::string& page,
                                                util::Rng& rng) {
  std::vector<std::vector<std::string>> out = {
      {page}, Chunks(page, 1), Chunks(page, 7), Chunks(page, 4096)};
  std::vector<std::string>& random = out.emplace_back();
  for (size_t i = 0; i < page.size();) {
    const size_t n = 1 + rng.Below(40);
    random.push_back(page.substr(i, n));
    i += n;
  }
  return out;
}

util::Status CheckTree(const tree::Tree& t) {
  const tree::Tree::Columns c = t.columns();
  tree::Tree::FrozenView view;
  view.num_nodes = t.size();
  view.parent = c.parent;
  view.first_child = c.first_child;
  view.last_child = c.last_child;
  view.prev_sibling = c.prev_sibling;
  view.next_sibling = c.next_sibling;
  view.label = c.label;
  return tree::CheckStructure(view, t.labels().size());
}

TEST(ScannerDifferentialTest, EventsEqualTheReferenceUnderEveryChunking) {
  const std::vector<std::string> pages = Pages();
  util::Rng rng(7);
  for (size_t pi = 0; pi < pages.size(); ++pi) {
    const std::string& page = pages[pi];
    const std::string expected = TokenSig(ReferenceTokenize(page));
    EXPECT_EQ(TokenSig(Tokenize(page)), expected) << "page " << pi << ": "
                                                  << page;
    for (const auto& chunks : Chunkings(page, rng)) {
      StreamTokenizer scanner;
      std::vector<Token> tokens;
      for (const std::string& chunk : chunks) {
        ASSERT_TRUE(scanner.Feed(chunk, &tokens).ok());
      }
      ASSERT_TRUE(scanner.Finish(&tokens).ok());
      EXPECT_EQ(TokenSig(tokens), expected)
          << "page " << pi << " in " << chunks.size() << " chunks: " << page;
    }
  }
}

TEST(ScannerDifferentialTest, EveryTreeIsWellFormedAndProjectionAgrees) {
  const std::vector<std::string> pages = Pages();
  util::Rng rng(8);
  for (size_t pi = 0; pi < pages.size(); ++pi) {
    const std::string& page = pages[pi];
    SCOPED_TRACE("page " + std::to_string(pi) + ": " + page);
    auto doc = ParseHtml(page);
    for (const std::string attr : {"", "class"}) {
      auto tree = ParseTree(page, attr);
      ASSERT_EQ(tree.ok(), doc.ok());
      if (!doc.ok()) {
        EXPECT_EQ(tree.status().code(), doc.status().code());
        continue;
      }
      EXPECT_TRUE(CheckTree(doc->tree()).ok());
      EXPECT_TRUE(CheckTree(*tree).ok());
      EXPECT_TRUE(
          tree::TreesEqual(*tree, ProjectAttributeIntoLabels(*doc, attr)));
      // Chunked construction, as the stream grows its tree.
      for (const auto& chunks : Chunkings(page, rng)) {
        TreeConstructor constructor(attr);
        StreamTokenizer scanner;
        for (const std::string& chunk : chunks) {
          ASSERT_TRUE(scanner.Feed(chunk, &constructor).ok());
        }
        ASSERT_TRUE(scanner.Finish(&constructor).ok());
        ASSERT_TRUE(constructor.Finish().ok());
        const tree::Tree streamed = constructor.Build();
        EXPECT_TRUE(CheckTree(streamed).ok());
        EXPECT_TRUE(tree::TreesEqual(streamed, *tree))
            << chunks.size() << " chunks";
      }
    }
  }
}

}  // namespace
}  // namespace mdatalog::html

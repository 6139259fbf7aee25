// The corpus store: pack → save → mmap-open → serve must be byte-identical
// to parsing, corrupt bytes must surface as typed errors (never as wrong
// answers or crashes), and a store-backed runtime must produce exactly the
// XML a parse-every-time runtime produces — and the native and semi-naive
// engine oracles produce over the frozen trees.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/elog/ast.h"
#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/runtime/document_cache.h"
#include "src/runtime/runtime.h"
#include "src/store/corpus_store.h"
#include "src/store/format.h"
#include "src/tree/serialize.h"
#include "src/tree/tree.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/wrapper/wrapper.h"
#include "tests/engine_oracle.h"

namespace {

using namespace mdatalog;

std::string CatalogPage(uint64_t seed, int32_t items) {
  util::Rng rng(seed);
  html::CatalogOptions opts;
  opts.num_items = items;
  opts.with_ads = true;
  return html::ProductCatalogPage(rng, opts);
}

std::string BoardPage(uint64_t seed, int32_t depth, int32_t fanout) {
  util::Rng rng(seed);
  return html::NestedBoardPage(rng, depth, fanout);
}

wrapper::Wrapper CatalogWrapper() {
  auto program = elog::ParseElog(R"(
    anynode(X) <- root(X).
    anynode(X) <- anynode(P), subelem(P, "_", X).
    item(X)  <- anynode(P), subelem(P, "tr@item", X).
    price(Y) <- item(X), subelem(X, "td@price", Y).
  )");
  EXPECT_TRUE(program.ok());
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"item", "price"};
  return w;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Builds a store of `n` catalog pages under `attr` projection plus one
/// board page (raw labels), saved at `path`.
std::shared_ptr<const store::CorpusStore> BuildAndOpen(
    const std::string& path, int32_t n, const std::string& attr) {
  store::CorpusStore::Builder b;
  for (int32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(b.AddHtml(CatalogPage(100 + i, 8 + i % 5), attr).ok());
  }
  EXPECT_TRUE(b.AddHtml(BoardPage(7, 3, 3), "").ok());
  EXPECT_TRUE(b.Save(path).ok());
  auto store = store::CorpusStore::Open(path);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return *store;
}

// ---------------------------------------------------------------------------
// Round trip
// ---------------------------------------------------------------------------

TEST(CorpusStoreTest, RoundTripsTreesByteForByte) {
  const std::string path = TempPath("roundtrip.mdcs");
  auto store = BuildAndOpen(path, 4, "class");
  ASSERT_EQ(store->size(), 5);

  for (int32_t i = 0; i < 4; ++i) {
    const std::string page = CatalogPage(100 + i, 8 + i % 5);
    auto frozen = store->Find(util::HashBytes128(page), "class");
    ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
    EXPECT_EQ(frozen->project_attr, "class");

    // The frozen tree must equal the tree the serving runtime would build by
    // parsing + projecting — structure, labels and texts.
    auto doc = html::ParseHtml(page);
    ASSERT_TRUE(doc.ok());
    const tree::Tree expected = html::ProjectAttributeIntoLabels(*doc, "class");
    const tree::Tree got = frozen->MakeTree();
    EXPECT_TRUE(got.frozen());
    EXPECT_TRUE(tree::TreesEqual(expected, got));
    // And serialize identically (exercises text() views over the mapping).
    EXPECT_EQ(tree::ToXml(expected), tree::ToXml(got));
  }

  // The raw (unprojected) board page lives under attr "".
  const std::string board = BoardPage(7, 3, 3);
  auto frozen = store->Find(util::HashBytes128(board), "");
  ASSERT_TRUE(frozen.ok());
  auto doc = html::ParseHtml(board);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(tree::TreesEqual(doc->tree(), frozen->MakeTree()));

  // Same bytes, different projection: not the same document.
  EXPECT_EQ(store->Find(util::HashBytes128(board), "class").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(store->Find(util::HashBytes128("<p>absent</p>"), "").status().code(),
            util::StatusCode::kNotFound);
}

TEST(CorpusStoreTest, DedupsAndReplacesByContentAndAttr) {
  store::CorpusStore::Builder b;
  const std::string page = CatalogPage(1, 6);
  ASSERT_TRUE(b.AddHtml(page, "").ok());
  ASSERT_TRUE(b.AddHtml(page, "").ok());      // same key: replaced, not added
  ASSERT_TRUE(b.AddHtml(page, "class").ok()); // different projection: added
  EXPECT_EQ(b.num_documents(), 2);

  const std::string path = TempPath("dedup.mdcs");
  ASSERT_TRUE(b.Save(path).ok());
  auto store = store::CorpusStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->size(), 2);
}

TEST(CorpusStoreTest, EmptyStoreRoundTrips) {
  const std::string path = TempPath("empty.mdcs");
  store::CorpusStore::Builder b;
  ASSERT_TRUE(b.Save(path).ok());
  auto store = store::CorpusStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->size(), 0);
  EXPECT_EQ((*store)->Find({1, 2}, "").status().code(),
            util::StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Typed rejection of bad files
// ---------------------------------------------------------------------------

TEST(CorpusStoreTest, RejectsGarbageAsInvalidArgument) {
  const std::string path = TempPath("garbage.mdcs");
  WriteFile(path, std::string(256, 'x'));
  auto store = store::CorpusStore::Open(path);
  EXPECT_EQ(store.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(CorpusStoreTest, RejectsTruncationAsDataLoss) {
  const std::string path = TempPath("trunc.mdcs");
  BuildAndOpen(path, 1, "");
  const std::string bytes = ReadFile(path);

  // Sub-header truncation.
  WriteFile(path, bytes.substr(0, 10));
  EXPECT_EQ(store::CorpusStore::Open(path).status().code(),
            util::StatusCode::kDataLoss);
  // Tail truncation (file_size mismatch).
  WriteFile(path, bytes.substr(0, bytes.size() - 13));
  EXPECT_EQ(store::CorpusStore::Open(path).status().code(),
            util::StatusCode::kDataLoss);
}

TEST(CorpusStoreTest, RejectsWrongVersionAsFailedPrecondition) {
  const std::string path = TempPath("version.mdcs");
  BuildAndOpen(path, 1, "");
  std::string bytes = ReadFile(path);
  bytes[4] = 99;  // FileHeader::version
  WriteFile(path, bytes);
  EXPECT_EQ(store::CorpusStore::Open(path).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(CorpusStoreTest, RejectsFlippedPayloadByteAsDataLoss) {
  const std::string path = TempPath("bitrot.mdcs");
  BuildAndOpen(path, 1, "");
  std::string bytes = ReadFile(path);
  // First doc blob sits right after the file header; flip one byte inside
  // its payload (past the doc header).
  const size_t victim =
      sizeof(store::FileHeader) + sizeof(store::DocHeader) + 8;
  ASSERT_LT(victim, bytes.size());
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
  WriteFile(path, bytes);

  // The file-level structure is intact, so Open succeeds...
  auto store = store::CorpusStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // ...but serving the damaged document reports DataLoss, never bad data.
  EXPECT_EQ((*store)->Get(0).status().code(), util::StatusCode::kDataLoss);
}

TEST(CorpusStoreTest, RejectsForgedNodeColumnsAsDataLoss) {
  const std::string path = TempPath("forged.mdcs");
  BuildAndOpen(path, 1, "");
  const std::string clean = ReadFile(path);
  const size_t blob = sizeof(store::FileHeader);
  store::DocHeader h;
  std::memcpy(&h, clean.data() + blob, sizeof(h));
  const auto read32 = [&](size_t at) {
    int32_t v;
    std::memcpy(&v, clean.data() + blob + at, sizeof(v));
    return v;
  };
  // Writes `patch` at blob offset `at`, re-seals the (unkeyed) checksum the
  // way a forger would, and serves the document.
  const auto serve_patched = [&](size_t at, std::string_view patch) {
    std::string bytes = clean;
    std::memcpy(bytes.data() + blob + at, patch.data(), patch.size());
    store::DocHeader sealed = h;
    sealed.payload_checksum = store::Checksum64(
        bytes.data() + blob + sizeof(h), h.blob_size - sizeof(h));
    std::memcpy(bytes.data() + blob, &sealed, sizeof(sealed));
    WriteFile(path, bytes);
    auto store = store::CorpusStore::Open(path);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return store.ok() ? (*store)->Get(0).status().code()
                      : util::StatusCode::kOk;
  };
  const auto serve_forged = [&](size_t at, int32_t value) {
    return serve_patched(
        at, std::string_view(reinterpret_cast<const char*>(&value),
                             sizeof(value)));
  };
  // Re-parent one node onto its predecessor: every id stays in range, but
  // the sibling links no longer match.
  const auto parent_at = [&](int32_t n) { return h.off_nodes + 4 * n; };
  int32_t victim = 2;
  while (read32(parent_at(victim)) == victim - 1) ++victim;
  ASSERT_LT(victim, static_cast<int32_t>(h.num_nodes));
  EXPECT_EQ(serve_forged(parent_at(victim), victim - 1),
            util::StatusCode::kDataLoss);
  // A label offset past its successor: that label's length would underflow.
  ASSERT_GE(h.num_labels, 2u);
  EXPECT_EQ(serve_forged(h.off_labels + 4, read32(h.off_labels + 8) + 1),
            util::StatusCode::kDataLoss);
  // One label's bytes copied over a later one of equal length: every offset
  // stays valid, but the alphabet now repeats a name.
  const size_t label_bytes = h.off_labels + 4 * (h.num_labels + 1);
  const auto label_at = [&](uint32_t id) {
    const int32_t begin = read32(h.off_labels + 4 * id);
    const int32_t end = read32(h.off_labels + 4 * (id + 1));
    return std::string_view(clean).substr(blob + label_bytes + begin,
                                          end - begin);
  };
  uint32_t a = 0, b = 1;
  while (label_at(a).size() != label_at(b).size()) {
    if (++b == h.num_labels) b = ++a + 1;
    ASSERT_LT(b, h.num_labels) << "no two labels of equal length";
  }
  EXPECT_EQ(serve_patched(label_bytes + read32(h.off_labels + 4 * b),
                          label_at(a)),
            util::StatusCode::kDataLoss);
}

TEST(CorpusStoreTest, MissingFileIsInvalidArgument) {
  EXPECT_EQ(
      store::CorpusStore::Open(TempPath("never_written.mdcs")).status().code(),
      util::StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Runtime integration: snapshot-served == parse-served == engine oracles
// ---------------------------------------------------------------------------

TEST(CorpusStoreRuntimeTest, SnapshotServingIsByteIdenticalAcrossEngines) {
  const std::string path = TempPath("serving.mdcs");
  constexpr int32_t kPages = 6;
  std::vector<std::string> pages;
  store::CorpusStore::Builder b;
  for (int32_t i = 0; i < kPages; ++i) {
    pages.push_back(CatalogPage(500 + i, 6 + i));
    ASSERT_TRUE(b.AddHtml(pages.back(), "class").ok());
  }
  ASSERT_TRUE(b.Save(path).ok());
  auto store = store::CorpusStore::Open(path);
  ASSERT_TRUE(store.ok());

  runtime::RuntimeOptions plain_opts;
  plain_opts.result_memo.byte_budget = 0;  // compare evaluations, not memo hits
  runtime::WrapperRuntime plain(plain_opts);

  runtime::RuntimeOptions stored_opts = plain_opts;
  stored_opts.corpus_store = *store;
  runtime::WrapperRuntime stored(stored_opts);

  auto plain_handle = plain.Register(CatalogWrapper(), "class");
  auto stored_handle = stored.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(plain_handle.ok() && stored_handle.ok());

  for (const std::string& page : pages) {
    auto want = plain.Wrap(*plain_handle, page);
    auto got = stored.Wrap(*stored_handle, page);
    ASSERT_TRUE(want.ok() && got.ok());
    EXPECT_EQ(*want, *got);  // byte-identical extraction output
    // Both engine oracles, run directly on the frozen tree, agree.
    auto frozen = (*store)->Find(util::HashBytes128(page), "class");
    ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
    oracle::ExpectMatchesOracles(*got, *stored_handle->program,
                                 frozen->MakeTree());
  }
  // Every page was served out of the snapshot, none was parsed.
  EXPECT_EQ(stored.stats().document_cache.store_hits, kPages);
  EXPECT_EQ(plain.stats().document_cache.store_hits, 0);
}

TEST(CorpusStoreRuntimeTest, FallsBackToParsingOnStoreMiss) {
  const std::string path = TempPath("fallback.mdcs");
  store::CorpusStore::Builder b;
  ASSERT_TRUE(b.AddHtml(CatalogPage(1, 5), "class").ok());
  ASSERT_TRUE(b.Save(path).ok());
  auto store = store::CorpusStore::Open(path);
  ASSERT_TRUE(store.ok());

  runtime::RuntimeOptions opts;
  opts.corpus_store = *store;
  runtime::WrapperRuntime rt(opts);
  auto handle = rt.Register(CatalogWrapper(), "class");
  ASSERT_TRUE(handle.ok());

  // Not in the store: parsed, still served correctly.
  const std::string cold = CatalogPage(999, 7);
  auto got = rt.Wrap(*handle, cold);
  ASSERT_TRUE(got.ok());
  EXPECT_NE(got->find("<item>"), std::string::npos);
  EXPECT_EQ(rt.stats().document_cache.store_hits, 0);

  // In the store: served from the snapshot.
  auto warm = rt.Wrap(*handle, CatalogPage(1, 5));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(rt.stats().document_cache.store_hits, 1);
}

TEST(CorpusStoreRuntimeTest, ConcurrentReadersShareOneMapping) {
  const std::string path = TempPath("concurrent.mdcs");
  constexpr int32_t kPages = 4;
  std::vector<std::string> pages;
  store::CorpusStore::Builder b;
  for (int32_t i = 0; i < kPages; ++i) {
    pages.push_back(CatalogPage(700 + i, 10));
    ASSERT_TRUE(b.AddHtml(pages[i], "class").ok());
  }
  ASSERT_TRUE(b.Save(path).ok());
  auto store = store::CorpusStore::Open(path);
  ASSERT_TRUE(store.ok());

  // Many threads rehydrate and evaluate the same frozen documents with no
  // coordination beyond the store's immutability.
  const wrapper::Wrapper w = CatalogWrapper();
  std::vector<std::string> expected;
  for (const auto& page : pages) {
    auto doc = html::ParseHtml(page);
    ASSERT_TRUE(doc.ok());
    auto out =
        wrapper::WrapTree(w, html::ProjectAttributeIntoLabels(*doc, "class"));
    ASSERT_TRUE(out.ok());
    expected.push_back(tree::ToXml(*out));
  }

  constexpr int32_t kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int32_t> failures(kThreads, 0);
  for (int32_t ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      for (int32_t round = 0; round < 3; ++round) {
        for (size_t pi = 0; pi < pages.size(); ++pi) {
          auto frozen =
              (*store)->Find(util::HashBytes128(pages[pi]), "class");
          if (!frozen.ok()) { ++failures[ti]; continue; }
          const tree::Tree t = frozen->MakeTree();
          auto out = wrapper::WrapTree(w, t);
          if (!out.ok() || tree::ToXml(*out) != expected[pi]) ++failures[ti];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int32_t f : failures) EXPECT_EQ(f, 0);
}

}  // namespace

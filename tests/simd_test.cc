// The SIMD NodeSet kernels against their scalar oracle. The dispatch
// contract is that AVX2 and scalar agree bit for bit on every operation and
// every length (including the scalar tail lengths the vector loop doesn't
// cover), so these are randomized property tests: same inputs through both
// implementations, equal outputs required. On hosts without AVX2 the two
// sides are the same code and the tests degenerate to self-consistency.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/nodeset.h"
#include "src/core/simd_kernels.h"
#include "src/util/bits.h"
#include "src/util/rng.h"

namespace {

using namespace mdatalog;
using core::simd::ForceScalar;

/// Pins the scalar kernels for one scope; restores detection on exit.
struct ScalarGuard {
  ScalarGuard() { ForceScalar(true); }
  ~ScalarGuard() { ForceScalar(false); }
};

std::vector<uint64_t> RandomWords(util::Rng& rng, size_t n, double density) {
  std::vector<uint64_t> w(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    for (int b = 0; b < 64; ++b) {
      if (rng.Chance(static_cast<uint64_t>(density * 1000), 1000)) {
        v |= uint64_t{1} << b;
      }
    }
    w[i] = v;
  }
  return w;
}

// Word counts straddling every vector-loop boundary: 0, sub-vector, exact
// multiples of the 4-word stride, and stride±tail.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65,
                           127, 128, 129, 1000, 2048, 2049};

TEST(SimdKernelTest, AssignOpsMatchScalarOracle) {
  util::Rng rng(42);
  for (size_t n : kLengths) {
    for (double density : {0.0, 0.01, 0.5, 1.0}) {
      const std::vector<uint64_t> dst0 = RandomWords(rng, n, density);
      const std::vector<uint64_t> src = RandomWords(rng, n, 1.0 - density);

      for (int op = 0; op < 3; ++op) {
        std::vector<uint64_t> want = dst0, got = dst0;
        int64_t want_count, got_count;
        {
          ScalarGuard scalar;
          want_count = op == 0 ? core::simd::OrAssignCount(want.data(),
                                                           src.data(), n)
                     : op == 1 ? core::simd::AndAssignCount(want.data(),
                                                            src.data(), n)
                               : core::simd::AndNotAssignCount(want.data(),
                                                               src.data(), n);
        }
        got_count = op == 0 ? core::simd::OrAssignCount(got.data(), src.data(),
                                                        n)
                  : op == 1 ? core::simd::AndAssignCount(got.data(),
                                                         src.data(), n)
                            : core::simd::AndNotAssignCount(got.data(),
                                                            src.data(), n);
        EXPECT_EQ(want, got) << "op " << op << " n " << n;
        EXPECT_EQ(want_count, got_count) << "op " << op << " n " << n;
      }
    }
  }
}

TEST(SimdKernelTest, CountAndFindFirstMatchScalarOracle) {
  util::Rng rng(43);
  for (size_t n : kLengths) {
    for (double density : {0.0, 0.004, 0.3}) {
      const std::vector<uint64_t> w = RandomWords(rng, n, density);
      int64_t want_count, want_first;
      {
        ScalarGuard scalar;
        want_count = core::simd::Count(w.data(), n);
        want_first = core::simd::FindFirst(w.data(), n);
      }
      EXPECT_EQ(want_count, core::simd::Count(w.data(), n)) << n;
      EXPECT_EQ(want_first, core::simd::FindFirst(w.data(), n)) << n;
    }
  }
}

TEST(SimdKernelTest, FindFirstLocatesSingleBitAnywhere) {
  // One bit at every word/offset combination of a mid-size array.
  const size_t n = 21;
  for (size_t wi = 0; wi < n; ++wi) {
    for (int b : {0, 1, 31, 63}) {
      std::vector<uint64_t> w(n, 0);
      w[wi] = uint64_t{1} << b;
      const int64_t want = static_cast<int64_t>(wi) * 64 + b;
      EXPECT_EQ(core::simd::FindFirst(w.data(), n), want);
      ScalarGuard scalar;
      EXPECT_EQ(core::simd::FindFirst(w.data(), n), want);
    }
  }
  std::vector<uint64_t> zeros(n, 0);
  EXPECT_EQ(core::simd::FindFirst(zeros.data(), n), -1);
  EXPECT_EQ(core::simd::FindFirst(zeros.data(), 0), -1);
}

TEST(SimdKernelTest, ForceScalarFlipsDispatch) {
  // Whatever the host supports, ForceScalar(true) must pin "scalar" and
  // ForceScalar(false) must restore the detected implementation.
  const std::string detected = core::simd::ActiveKernelName();
  ForceScalar(true);
  EXPECT_STREQ(core::simd::ActiveKernelName(), "scalar");
  EXPECT_FALSE(core::simd::Avx2Active());
  ForceScalar(false);
  EXPECT_EQ(core::simd::ActiveKernelName(), detected);
}

// ---------------------------------------------------------------------------
// NodeSet-level properties (the kernels as the engine uses them)
// ---------------------------------------------------------------------------

core::NodeSet RandomSet(util::Rng& rng, int32_t domain, uint32_t fill_permil) {
  core::NodeSet s(domain);
  for (int32_t i = 0; i < domain; ++i) {
    if (rng.Chance(fill_permil, 1000)) s.Insert(i);
  }
  return s;
}

TEST(SimdKernelTest, NodeSetAlgebraMatchesPerElementDefinition) {
  util::Rng rng(44);
  for (int32_t domain : {1, 63, 64, 65, 257, 4096, 10000}) {
    const core::NodeSet a = RandomSet(rng, domain, 300);
    const core::NodeSet b = RandomSet(rng, domain, 300);

    core::NodeSet un = a, in = a, diff = a;
    un.UnionWith(b);
    in.IntersectWith(b);
    diff.DifferenceWith(b);

    int64_t un_count = 0, in_count = 0, diff_count = 0;
    for (int32_t i = 0; i < domain; ++i) {
      const bool ia = a.Contains(i), ib = b.Contains(i);
      EXPECT_EQ(un.Contains(i), ia || ib);
      EXPECT_EQ(in.Contains(i), ia && ib);
      EXPECT_EQ(diff.Contains(i), ia && !ib);
      un_count += (ia || ib);
      in_count += (ia && ib);
      diff_count += (ia && !ib);
    }
    // The fused popcounts must agree with the per-element truth.
    EXPECT_EQ(un.count(), un_count);
    EXPECT_EQ(in.count(), in_count);
    EXPECT_EQ(diff.count(), diff_count);
    EXPECT_EQ(diff.FindFirst(), diff.empty() ? -1 : diff.ToVector().front());
  }
}

}  // namespace

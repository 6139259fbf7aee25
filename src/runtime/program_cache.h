#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/ast.h"
#include "src/core/grounder.h"
#include "src/util/result.h"
#include "src/wrapper/wrapper.h"

/// \file program_cache.h
/// The compiled-program side of the serving runtime. A wrapper program is
/// fixed while documents stream past, so everything derived from the program
/// alone is compiled exactly once and shared:
///
///  * the Elog validation (PreparedElogProgram);
///  * for Elog⁻ programs (no Δ builtins) the full Corollary 6.4 pipeline —
///    ElogToDatalog → TMNF normalization (Theorem 5.2) → GroundPlan
///    (Theorem 4.2 schedules) — so per-document evaluation is a plan replay
///    in O(|P|·|dom|) with per-worker arena reuse.
///
/// Elog⁻Δ programs (before%/notafter/notbefore — beyond MSO, Theorem 6.6)
/// have no datalog counterpart and keep the native evaluator; the cache
/// still amortizes their validation.

namespace mdatalog::runtime {

/// A wrapper compiled for serving. Immutable after construction; shared
/// (shared_ptr const) between all threads and all documents.
struct CompiledWrapperProgram {
  wrapper::PreparedWrapper prepared;

  /// The Corollary 6.4 pipeline, when available.
  bool has_ground_plan = false;
  core::Program tmnf;  // owns the PredicateTable pattern_preds indexes
  std::optional<core::GroundPlan> ground_plan;
  /// PredId of "pat_<pattern>" in `tmnf` per extraction pattern (parallel to
  /// prepared.extraction_patterns); -1 if the pattern is never derivable.
  std::vector<core::PredId> pattern_preds;

  /// Fingerprint of the wrapper text + pattern list, as registered.
  uint64_t fingerprint = 0;
  /// Canonical-key fingerprint (analysis::CanonicalWrapperKey): equal for
  /// every formulation of the same wrapper, so it is the right key for
  /// result memo entries. Equals `fingerprint` when canonical keying is
  /// disabled.
  uint64_t canonical_fingerprint = 0;
};

struct ProgramCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int32_t entries = 0;
  /// Programs whose Corollary 6.4 pipeline compiled (vs native-only).
  int64_t ground_plans = 0;
  /// Hits resolved through the canonical key: the wrapper text was new but
  /// canonically identical to a cached program (reformulated revision).
  /// Counted inside `hits` as well.
  int64_t canonical_key_hits = 0;
};

/// LRU cache of compiled wrapper programs, keyed two ways: by a fingerprint
/// of the program text plus the extraction-pattern list (cheap, exact), and
/// — on a syntactic miss — by the canonical key (analysis::CanonicalKey
/// pipeline: minimize, normalize variables, sort rules), so reformulated but
/// equivalent wrapper revisions share one compiled plan. Capacity is
/// entry-count based: programs are tiny next to documents, the bound only
/// guards against unbounded churn from generated programs.
///
/// Thread safety: all public methods are safe to call concurrently. A
/// compile miss holds the lock — program compilation is rare (once per
/// wrapper deployment) and concurrent duplicate compilation would waste more
/// than it saves.
class ProgramCache {
 public:
  /// `canonical_keys` = false keys strictly on the syntactic fingerprint, so
  /// a canonically equal program compiled earlier is never substituted (the
  /// engine oracles in tests need exactly the wrapper they were given).
  explicit ProgramCache(int32_t capacity, bool canonical_keys = true);

  util::Result<std::shared_ptr<const CompiledWrapperProgram>> GetOrCompile(
      const wrapper::Wrapper& wrapper);

  ProgramCacheStats stats() const;

  /// The syntactic fingerprint GetOrCompile keys on first.
  static uint64_t Fingerprint(const wrapper::Wrapper& wrapper);

 private:
  /// Aliases kept per entry: each new formulation of a cached wrapper adds
  /// its syntactic fingerprint so repeat registrations skip
  /// canonicalization. Bounded — formulations beyond the cap still hit via
  /// the canonical index, they just recompute the canonical key each time.
  static constexpr size_t kMaxAliases = 8;

  struct Entry {
    uint64_t canonical_fp;
    std::vector<uint64_t> syntactic_fps;  // every formulation seen (capped)
    std::shared_ptr<const CompiledWrapperProgram> program;
  };

  const int32_t capacity_;
  const bool canonical_keys_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
  std::unordered_map<uint64_t, std::list<Entry>::iterator> canonical_index_;
  ProgramCacheStats stats_;
};

}  // namespace mdatalog::runtime

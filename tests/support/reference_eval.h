#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/core/ast.h"
#include "src/core/database.h"
#include "src/util/result.h"

/// \file reference_eval.h
/// The pre-compilation fixpoint engines, preserved verbatim from before the
/// vectorized rewrite (NodeSet relations + CompiledProgram plans, eval.h).
///
/// They re-plan every rule on every enumeration, resolve every body atom
/// through the string-keyed EdbSource::Get per join step, and store IDB
/// relations in std::map — exactly the costs the production engines
/// eliminated. Kept as an independent oracle for the cross-engine
/// equivalence tests: a bug would have to be reintroduced twice, in two very
/// different implementations, to go unnoticed. Test-only — it is linked into
/// the tests (mdatalog_test_support), not into the library.

namespace mdatalog::core {

/// Fixpoint of the reference engines, restricted to intensional predicates.
class ReferenceResult {
 public:
  bool NullaryTrue(PredId p) const;
  bool ContainsUnary(PredId p, int32_t a) const;

  /// Members of a unary IDB predicate, sorted ascending.
  std::vector<int32_t> Unary(PredId p) const;
  /// Pairs of a binary IDB predicate, sorted.
  std::vector<std::pair<int32_t, int32_t>> Binary(PredId p) const;
  /// Query result, sorted. Program must have a query predicate.
  std::vector<int32_t> Query() const;

  int64_t num_iterations() const { return num_iterations_; }
  int64_t num_derived() const { return num_derived_; }

 private:
  friend class ReferenceEngine;
  std::map<PredId, Relation> idb_;
  PredId query_pred_ = -1;
  int64_t num_iterations_ = 0;
  int64_t num_derived_ = 0;
};

/// Naive evaluation: literally iterates T_P until fixpoint.
util::Result<ReferenceResult> EvaluateNaiveReference(const Program& program,
                                                     const EdbSource& edb);

/// Semi-naive evaluation with delta relations; same fixpoint.
util::Result<ReferenceResult> EvaluateSemiNaiveReference(
    const Program& program, const EdbSource& edb);

}  // namespace mdatalog::core

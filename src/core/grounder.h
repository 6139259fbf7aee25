#pragma once

#include <memory>
#include <vector>

#include "src/core/ast.h"
#include "src/core/eval.h"
#include "src/core/horn.h"
#include "src/tree/tree.h"
#include "src/util/deadline.h"
#include "src/util/result.h"

/// \file grounder.h
/// The Theorem 4.2 evaluator: monadic datalog over τ_rk / τ_ur in time
/// O(|P| · |dom|).
///
/// Following the paper's proof, evaluation proceeds in three steps:
///  1. every rule is made *connected* by splitting off variable components
///     that do not contain the head variable into fresh propositional bridge
///     predicates (p(x) ← p1(x), p2(y).  ⇒  p(x) ← p1(x), b.  and
///     b ← p2(y).);
///  2. each connected rule is grounded: by Proposition 4.1 every binary
///     predicate of the tree schemata (firstchild, nextsibling, child_k) is
///     functional in both directions (Forward/Backward in tree_schema.h), so
///     fixing any one variable of a connected rule determines all others —
///     each rule has only O(|dom|) ground instantiations, found by
///     propagating along the rule's query graph from an anchor node;
///  3. the resulting ground program is propositional Horn and is solved with
///     the linear-time LTUR solver (Proposition 3.5).
///
/// Only the unary schema predicates and the two-way-functional binary ones
/// (kFunctionalAxes) are admitted; programs using child / lastchild /
/// nextsibling_tc must first be normalized (TMNF pipeline, Theorem 5.2) or be
/// evaluated with the semi-naive engine.

namespace mdatalog::core {

struct GroundStats {
  int64_t num_clauses = 0;
  int64_t num_atoms = 0;
  int64_t num_literals = 0;
};

/// True iff every rule of `program` can be grounded by this evaluator
/// (monadic + safe + EDB predicates limited to the functional tree schema).
bool GroundableOverTree(const Program& program);

/// Evaluates `program` over `t` per Theorem 4.2. Fails with
/// FailedPrecondition if !GroundableOverTree(program).
util::Result<EvalResult> EvaluateGrounded(const Program& program,
                                          const tree::Tree& t,
                                          GroundStats* stats = nullptr);

// --- two-phase evaluation (wrapper-serving workloads) -----------------------
//
// A wrapper workload evaluates one fixed program over a stream of documents.
// Everything the Theorem 4.2 evaluator derives from the *program* — the
// connectedness split, the per-component propagation schedules, the
// extensional-predicate classification, the atom-id layout — is identical for
// every tree. GroundPlan captures that work once; EvaluateGrounded(plan, t)
// replays it per tree in O(|P|·|dom|), with only a per-tree label-id
// resolution (labels are interned per tree) on top.

/// Reusable per-worker evaluation state: the CSR clause arena, the Horn
/// solver buffers, and the grounding scratch vectors. Cleared — capacity
/// kept — between evaluations, so a worker serving many similar documents
/// performs no arena allocations after warm-up. Not thread-safe: use one
/// arena per worker thread.
struct GroundArena {
  FlatHornInstance flat;
  HornSolveScratch horn;
  std::vector<tree::NodeId> binding;
  std::vector<int32_t> shared_body;
  std::vector<int32_t> residual_body;
  std::vector<tree::LabelId> unary_labels;  // per-PredId, resolved per tree
};

/// The program-level compilation of the grounded evaluator. Immutable after
/// Compile and safe to share between concurrent evaluations (each with its
/// own GroundArena).
class GroundPlan {
 public:
  /// Compiles `program`. Fails with FailedPrecondition if
  /// !GroundableOverTree(program). The plan is self-contained (copies what it
  /// needs); `program` may be destroyed afterwards.
  static util::Result<GroundPlan> Compile(const Program& program);

  GroundPlan(GroundPlan&&) noexcept;
  GroundPlan& operator=(GroundPlan&&) noexcept;
  ~GroundPlan();

  struct Impl;

 private:
  explicit GroundPlan(std::unique_ptr<const Impl> impl);
  std::unique_ptr<const Impl> impl_;

  friend util::Result<EvalResult> EvaluateGrounded(const GroundPlan&,
                                                   const tree::Tree&,
                                                   GroundArena*, GroundStats*,
                                                   const util::EvalControl*);
};

/// Replays a compiled plan over one tree. `arena` may be nullptr (a local
/// arena is used); passing a per-worker arena amortizes all clause-arena and
/// solver allocations across documents. `control` (nullable) is polled
/// cooperatively during the node sweep and the Horn solve — a deadline or
/// cancellation unwinds with the typed status instead of finishing the page.
util::Result<EvalResult> EvaluateGrounded(
    const GroundPlan& plan, const tree::Tree& t, GroundArena* arena = nullptr,
    GroundStats* stats = nullptr, const util::EvalControl* control = nullptr);

/// Evaluation engine selection for the facade below.
enum class Engine {
  kAuto,       ///< grounded if eligible, else semi-naive
  kGrounded,   ///< Theorem 4.2 (fails if not groundable)
  kSemiNaive,  ///< delta-based fixpoint over TreeDatabase
  kNaive,      ///< literal T_P iteration (supports tracing)
};

/// Facade: evaluates a monadic datalog program on a tree with the chosen
/// engine.
util::Result<EvalResult> EvaluateOnTree(const Program& program,
                                        const tree::Tree& t,
                                        Engine engine = Engine::kAuto,
                                        const EvalOptions& options = {});

}  // namespace mdatalog::core

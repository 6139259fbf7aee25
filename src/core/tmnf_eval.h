#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/ast.h"
#include "src/core/nodeset.h"
#include "src/core/tree_schema.h"
#include "src/tree/tree.h"
#include "src/util/deadline.h"
#include "src/util/result.h"

/// \file tmnf_eval.h
/// Worklist evaluation of a TMNF program over a tree: the engine that serves
/// every wrapper whose program compiles to TMNF, in batch and in the stream.
///
/// The fragment is exactly what tmnf::CheckTmnf admits over τ_ur, which is
/// where the Theorem 5.2 normalizer puts every program (Definition 5.1):
///
///   p(x) ← p0(x).   p(x) ← p0(x), p1(x).   p(x) ← p0(x0), R(x0, x) | R(x, x0)
///
/// with p0, p1 intensional or one of root, leaf, lastsibling, label_a, and
/// R ∈ {firstchild, nextsibling}. Both axes are functional in both
/// directions (Proposition 4.1), so no binary fact is stored: a unary delta
/// p0(a) joins by reading the tree through core::Forward / core::Backward —
/// at most one node per rule. Every fact enters the worklist once and fires
/// each rule that reads it once, so a fixpoint costs O(|P|·|dom|), the bound
/// of Theorem 4.2.
///
/// One evaluator, two ways to feed it:
///
///  * Batch (Evaluate): a finished tree::Tree. The EDB is asserted in one
///    sweep over the node ids, then the worklist runs to fixpoint.
///  * Stream (NodeCreated / NodeClosed / Propagate over a TreeBuilder): the
///    tree grows as bytes arrive, and a unary EDB fact is asserted only when
///    it becomes finally true — label_a (and root, for the world's root) when
///    a node is created, leaf or lastsibling when an element closes. The EDB
///    is insert-only and datalog is monotone, so the fixpoint after every
///    event is sound and the one after the last event equals the batch
///    fixpoint. A node's single in-edge (firstchild from its parent, or
///    nextsibling from its previous sibling) is its one join event, fired
///    when the node is created.
///
/// GroundPlan replay (grounder.h) computes the same fixpoint through
/// propositional Horn clauses; it stays as the paper-faithful engine and
/// test oracle.

namespace mdatalog::core {

/// The compiled, immutable rule index of one TMNF program. Shared by every
/// evaluator of the program, on every thread.
class TmnfRules {
 public:
  /// nullptr when `tmnf` fails tmnf::CheckTmnf over τ_ur. Programs produced
  /// by the Theorem 5.2 normalizer always compile. New members of
  /// `watched[i]` are reported to the evaluators' derive hooks as watch
  /// index i; a PredId may be listed once.
  static std::unique_ptr<const TmnfRules> Compile(const Program& tmnf,
                                                  std::vector<PredId> watched);

  int32_t num_preds() const { return num_preds_; }
  const std::vector<PredId>& watched() const { return watched_; }
  /// The watch index of `pred`, or -1 when it is not watched.
  int32_t watch(PredId pred) const { return watch_[pred]; }

 private:
  template <typename TreeLike>
  friend class TmnfEval;
  enum class Kind : uint8_t {
    kCopy,      // p(x) ← p0(x)
    kAnd,       // p(x) ← p0(x), p1(x)
    kForward,   // p(x) ← p0(x0), axis(x0, x)
    kBackward,  // p(x) ← p0(x0), axis(x, x0)
  };
  struct Rule {
    Kind kind;
    SchemaPred axis;  // kForward/kBackward: firstchild or nextsibling
    PredId head;
    PredId p0;
    PredId p1;  // kAnd only
  };
  /// The forward rules over `axis`, which a new in-edge fires.
  const std::vector<int32_t>& forward(SchemaPred axis) const {
    return axis == SchemaPred::kFirstChild ? forward_firstchild_
                                           : forward_nextsibling_;
  }

  int32_t num_preds_ = 0;
  std::vector<Rule> rules_;
  std::vector<std::vector<int32_t>> by_body_;  // PredId → rules reading it
  std::vector<int32_t> forward_firstchild_, forward_nextsibling_;
  // The unary EDB predicates a body reads (-1: never read).
  PredId root_ = -1, leaf_ = -1, lastsibling_ = -1;
  std::unordered_map<std::string, PredId> labels_;
  std::vector<PredId> watched_;
  std::vector<int32_t> watch_;  // PredId → watch index or -1
};

/// Fixpoint state for one TMNF program over one tree (a tree::Tree, or the
/// TreeBuilder a stream grows) in the world rooted at a given node. Not
/// thread-safe. Evaluate rebinds it to a new tree and clears every fact
/// while keeping the buffers, so a worker that reuses one evaluator
/// allocates nothing once it has seen its largest page.
template <typename TreeLike>
class TmnfEval {
 public:
  using DeriveHook = std::function<void(int32_t watch, tree::NodeId node)>;

  /// An evaluator for the batch entry, bound to no tree yet.
  TmnfEval() = default;
  /// A stream evaluator over `tree` in the world rooted at `root`:
  /// root(root) holds, `root` has no in-edge and is never a last sibling,
  /// and nodes before `root` are outside the world. `rules` and `tree` must
  /// outlive the evaluator. `hook` (may be empty) hears every new member of
  /// a watched predicate, at the moment it is derived.
  TmnfEval(const TmnfRules& rules, const TreeLike& tree, tree::NodeId root,
           DeriveHook hook = {}) {
    Start(rules, tree, root, std::move(hook));
  }
  TmnfEval(const TmnfEval&) = delete;
  TmnfEval& operator=(const TmnfEval&) = delete;

  /// Batch entry: rebinds the evaluator to the finished `tree`, rooted at
  /// node 0, clearing every earlier fact; asserts the tree's whole EDB and
  /// runs the worklist to fixpoint. On kDeadlineExceeded / kCancelled the
  /// facts are incomplete; the next Evaluate clears them.
  util::Status Evaluate(const TmnfRules& rules, const TreeLike& tree,
                        const util::EvalControl* control);

  /// Stream events, in the order the tree grows: node n was just created
  /// (its label and in-edge are in the tree), or n's subtree just closed.
  void NodeCreated(tree::NodeId n);
  void NodeClosed(tree::NodeId n);

  /// Runs the worklist to fixpoint over every fact asserted since the last
  /// call. `control` may be null; on kDeadlineExceeded / kCancelled the
  /// state is consistent but incomplete — call Propagate again to resume.
  util::Status Propagate(const util::EvalControl* control);

  bool Contains(PredId pred, tree::NodeId node) const {
    return pred >= 0 && pred < rules_->num_preds_ &&
           facts_[pred].Contains(node);
  }
  /// Members of `pred`, ascending.
  std::vector<tree::NodeId> Members(PredId pred) const {
    if (pred < 0 || pred >= rules_->num_preds_) return {};
    return facts_[pred].ToVector();
  }

  /// Facts held, EDB included.
  int64_t num_facts() const { return num_facts_; }
  /// Facts derived by a rule (the IDB part).
  int64_t num_derived() const { return num_derived_; }

  /// Heap footprint of the evaluator's own state — one node set per
  /// predicate, the pending-delta queue and the label table, by capacity;
  /// the tree and the shared TmnfRules are not counted. O(#preds) per call.
  int64_t ApproxBytes() const;

 private:
  /// Binds the evaluator to `tree` and the world rooted at `root` and
  /// clears every fact, keeping the buffers.
  void Start(const TmnfRules& rules, const TreeLike& tree, tree::NodeId root,
             DeriveHook hook);
  /// label_a(n), and root(n) for the world's root.
  void AssertCreated(tree::NodeId n);
  /// The PredId of label_a for n's label a, or -1. Resolves the tree's
  /// label ids once each, as the alphabet grows.
  PredId LabelPred(tree::NodeId n);
  /// Records pred(node) if new: sets the bit, fires the hook, enqueues the
  /// delta. Returns true iff new.
  bool Insert(PredId pred, tree::NodeId node);
  void Derive(PredId pred, tree::NodeId node) {
    if (Insert(pred, node)) ++num_derived_;
  }

  const TmnfRules* rules_ = nullptr;
  const TreeLike* tree_ = nullptr;
  tree::NodeId root_ = 0;
  DeriveHook hook_;

  /// Per PredId; may be longer than the program needs (kept from a larger
  /// program an earlier evaluation served).
  std::vector<GrowingNodeSet> facts_;
  /// FIFO of unprocessed (pred, node) deltas: [delta_head_, end).
  std::vector<std::pair<PredId, tree::NodeId>> delta_;
  size_t delta_head_ = 0;
  std::vector<PredId> label_preds_;  // tree LabelId → label_a PredId or -1
  int64_t num_facts_ = 0;
  int64_t num_derived_ = 0;
};

extern template class TmnfEval<tree::Tree>;
extern template class TmnfEval<tree::TreeBuilder>;

}  // namespace mdatalog::core

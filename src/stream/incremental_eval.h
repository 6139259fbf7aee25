#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/ast.h"
#include "src/core/tree_schema.h"
#include "src/tree/tree.h"
#include "src/util/deadline.h"
#include "src/util/result.h"

/// \file incremental_eval.h
/// Insertion-only semi-naive evaluation of a TMNF program over the tree the
/// stream grows — the engine behind the streaming front (stream_session.h).
///
/// The paper's Theorem 4.2 evaluates a monadic datalog program in one pass
/// over a *complete* tree. Streaming inverts the setup: the tree grows as
/// bytes arrive, and the evaluator asserts a unary EDB fact only at the
/// moment it becomes *finally* true — label_a (and root, for the world's
/// root) when a node is created, leaf or lastsibling when an element closes.
/// Under that discipline the EDB is insert-only, datalog is monotone, and
/// the worklist fixpoint maintained here after every event equals the batch
/// fixpoint over the finished tree — early derivations are sound, the final
/// state is complete.
///
/// The fragment is exactly what tmnf::CheckTmnf admits over τ_ur, which is
/// where the Theorem 5.2 normalizer puts every program (Definition 5.1):
///
///   p(x) ← p0(x).   p(x) ← p0(x), p1(x).   p(x) ← p0(x0), R(x0, x) | R(x, x0)
///
/// with p0, p1 intensional or one of root, leaf, lastsibling, label_a, and
/// R ∈ {firstchild, nextsibling}. Both axes are functional in both
/// directions (Proposition 4.1), so no binary fact is stored: a unary delta
/// p0(a) joins by reading the partial tree through core::Forward /
/// core::Backward — at most one node per rule. A node's single in-edge
/// (firstchild from its parent, or nextsibling from its previous sibling) is
/// its one join event, fired when the node is created.

namespace mdatalog::stream {

/// A node set that grows with the domain: one bit per node.
class GrowingNodeSet {
 public:
  bool Contains(tree::NodeId n) const {
    const size_t w = static_cast<size_t>(n) >> 6;
    return w < words_.size() && (words_[w] >> (n & 63)) & 1;
  }
  /// Returns true when `n` was newly inserted.
  bool Insert(tree::NodeId n) {
    const size_t w = static_cast<size_t>(n) >> 6;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const uint64_t mask = uint64_t{1} << (n & 63);
    if (words_[w] & mask) return false;
    words_[w] |= mask;
    return true;
  }
  /// Members, ascending.
  std::vector<tree::NodeId> ToVector() const;
  int64_t ApproxBytes() const {
    return static_cast<int64_t>(words_.capacity() * sizeof(uint64_t));
  }

 private:
  std::vector<uint64_t> words_;
};

/// Incremental fixpoint state for one TMNF program in one root world of a
/// growing tree. Not thread-safe: owned by one StreamSession.
class IncrementalTmnfEval {
 public:
  /// The compiled, immutable rule index of one program. The evaluators of
  /// both root worlds share it.
  class Rules {
   public:
    /// nullptr when `tmnf` fails tmnf::CheckTmnf over τ_ur — the session
    /// then falls back to batch evaluation at Finish. Programs produced by
    /// the Theorem 5.2 normalizer (CompiledWrapperProgram::tmnf) always
    /// compile. New members of `watched[i]` are reported to the evaluators'
    /// derive hooks as watch index i.
    static std::unique_ptr<const Rules> Compile(
        const core::Program& tmnf, const std::vector<core::PredId>& watched);

   private:
    friend class IncrementalTmnfEval;
    enum class Kind : uint8_t {
      kCopy,      // p(x) ← p0(x)
      kAnd,       // p(x) ← p0(x), p1(x)
      kForward,   // p(x) ← p0(x0), axis(x0, x)
      kBackward,  // p(x) ← p0(x0), axis(x, x0)
    };
    struct Rule {
      Kind kind;
      core::SchemaPred axis;  // kForward/kBackward: firstchild or nextsibling
      core::PredId head;
      core::PredId p0;
      core::PredId p1;  // kAnd only
    };
    /// The forward rules over `axis`, which a new in-edge fires.
    const std::vector<int32_t>& forward(core::SchemaPred axis) const {
      return axis == core::SchemaPred::kFirstChild ? forward_firstchild_
                                                   : forward_nextsibling_;
    }

    int32_t num_preds_ = 0;
    std::vector<Rule> rules_;
    std::vector<std::vector<int32_t>> by_body_;  // PredId → rules reading it
    std::vector<int32_t> forward_firstchild_, forward_nextsibling_;
    // The unary EDB predicates a body reads (-1: never read).
    core::PredId root_ = -1, leaf_ = -1, lastsibling_ = -1;
    std::unordered_map<std::string, core::PredId> labels_;
    std::vector<int32_t> watch_;  // PredId → watch index or -1
  };

  using DeriveHook = std::function<void(int32_t watch, tree::NodeId node)>;

  /// An evaluator over `tree` in the world rooted at `root`: root(root)
  /// holds, `root` has no in-edge and is never a last sibling, and nodes
  /// before `root` are outside the world. `rules` and `tree` must outlive
  /// it. `hook` (may be empty) hears every new member of a watched
  /// predicate, at the moment it is derived.
  IncrementalTmnfEval(const Rules& rules, const tree::TreeBuilder& tree,
                      tree::NodeId root, DeriveHook hook);

  /// Tree events, in the order the tree grows: node n was just created (its
  /// label and in-edge are in `tree`), or n's subtree just closed.
  void NodeCreated(tree::NodeId n);
  void NodeClosed(tree::NodeId n);

  /// Runs the worklist to fixpoint over every event since the last call.
  /// `control` may be null; on kDeadlineExceeded / kCancelled the state is
  /// consistent but incomplete — call Propagate again to resume.
  util::Status Propagate(const util::EvalControl* control);

  bool Contains(core::PredId pred, tree::NodeId node) const {
    return pred >= 0 && pred < rules_.num_preds_ && facts_[pred].Contains(node);
  }
  /// Members of `pred`, ascending.
  std::vector<tree::NodeId> Members(core::PredId pred) const;

  int64_t num_facts() const { return num_facts_; }

  /// Heap footprint of the evaluator's own state — one node set per
  /// predicate and the pending-delta queue, by capacity; the tree and the
  /// shared, program-sized Rules are not counted. O(#preds) per call. Feeds
  /// the session's peak_edb_bytes gauge.
  int64_t ApproxBytes() const;

 private:
  /// Records pred(node) if new: sets the bit, fires the hook, enqueues the
  /// delta. Shared by EDB assertion and rule derivation.
  void Insert(core::PredId pred, tree::NodeId node);

  const Rules& rules_;
  const tree::TreeBuilder& tree_;
  const tree::NodeId root_;
  const DeriveHook hook_;

  std::vector<GrowingNodeSet> facts_;  // per PredId
  /// FIFO of unprocessed (pred, node) deltas: [delta_head_, end).
  std::vector<std::pair<core::PredId, tree::NodeId>> delta_;
  size_t delta_head_ = 0;
  int64_t num_facts_ = 0;
};

}  // namespace mdatalog::stream

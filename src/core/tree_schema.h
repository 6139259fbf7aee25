#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "src/tree/tree.h"
#include "src/util/check.h"

/// \file tree_schema.h
/// The tree schemata of Section 2 as one closed vocabulary:
///
///   τ_ur:  root/1, leaf/1, lastsibling/1, label_<a>/1, firstchild/2,
///          nextsibling/2
///   τ_rk:  root/1, leaf/1, label_<a>/1, child<k>/2 (child_k, k >= 1)
///   ext:   firstsibling/1, child/2, lastchild/2 (Sections 5/6) and
///          nextsibling_tc/2, the reflexive-transitive closure nextsibling*
///          of the TMNF chase (Lemma 5.5)
///
/// Every engine, analysis pass and the stream classifies a predicate name
/// here once and evaluates it on a tree through the per-node accessors
/// below. Proposition 4.1 lives in Forward/Backward: firstchild, nextsibling
/// and child_k are functional in both directions.

namespace mdatalog::core {

/// The kind of a schema predicate; the unary kinds come first.
enum class SchemaPred : uint8_t {
  kRoot,
  kLeaf,
  kFirstSibling,
  kLastSibling,
  kLabel,  ///< label_<a>, one predicate per label a
  kFirstChild,
  kNextSibling,
  kChild,
  kLastChild,
  kNextSiblingTc,
  kChildK,  ///< child<k>, one predicate per index k >= 1
};
inline constexpr int kNumSchemaPreds = 11;

constexpr int32_t SchemaArity(SchemaPred p) {
  return p < SchemaPred::kFirstChild ? 1 : 2;
}

/// A classified schema predicate.
struct SchemaRef {
  SchemaPred pred = SchemaPred::kRoot;
  int32_t k = 0;      ///< kChildK: the 1-based child index
  std::string label;  ///< kLabel: the label name (nonempty)
};

/// The kind of predicate `name`/`arity`, or nullopt for a non-schema
/// predicate — near misses included: "child0", "childx", a child index above
/// INT32_MAX, "label_", "leaf" of arity 2.
std::optional<SchemaRef> ClassifySchemaPred(std::string_view name,
                                            int32_t arity);
/// True iff `name`/`arity` classifies as kind `p`.
bool IsSchemaPred(std::string_view name, int32_t arity, SchemaPred p);

/// "label_" + label.
std::string LabelPredName(std::string_view label);
/// A static tag per kind: the name of a fixed kind, "label" or "child_k".
const char* SchemaPredTag(SchemaPred p);

/// A set of kinds: the signature a consumer admits.
class SchemaSet {
 public:
  constexpr SchemaSet(std::initializer_list<SchemaPred> preds) {
    for (SchemaPred p : preds) bits_ |= 1u << static_cast<unsigned>(p);
  }
  constexpr SchemaSet operator|(SchemaSet other) const {
    SchemaSet out = *this;
    out.bits_ |= other.bits_;
    return out;
  }
  constexpr bool contains(SchemaPred p) const {
    return (bits_ >> static_cast<unsigned>(p)) & 1u;
  }
  /// False for a non-schema predicate.
  bool contains(const std::optional<SchemaRef>& ref) const {
    return ref.has_value() && contains(ref->pred);
  }

 private:
  uint32_t bits_ = 0;
};

inline constexpr SchemaSet kUnarySchema{
    SchemaPred::kRoot, SchemaPred::kLeaf, SchemaPred::kFirstSibling,
    SchemaPred::kLastSibling, SchemaPred::kLabel};
/// The unary EDB of τ_rk, and all a TMNF body reads (Definition 5.1).
inline constexpr SchemaSet kTmnfUnary{SchemaPred::kRoot, SchemaPred::kLeaf,
                                      SchemaPred::kLastSibling,
                                      SchemaPred::kLabel};
inline constexpr SchemaSet kUrBinary{SchemaPred::kFirstChild,
                                     SchemaPred::kNextSibling};
inline constexpr SchemaSet kRkBinary{SchemaPred::kChildK};
/// The axes Forward/Backward serve (Proposition 4.1).
inline constexpr SchemaSet kFunctionalAxes = kUrBinary | kRkBinary;

// --- per-node accessors ----------------------------------------------------

/// Unary kind `p` at node n. `label` is the tree's label id for kLabel
/// (t.FindLabel of the SchemaRef's label, resolved once per tree; an absent
/// label is util::kInvalidSymbol, which no node carries — Remark 2.2).
inline bool Holds(const tree::Tree& t, SchemaPred p, tree::LabelId label,
                  tree::NodeId n) {
  switch (p) {
    case SchemaPred::kRoot: return t.IsRoot(n);
    case SchemaPred::kLeaf: return t.IsLeaf(n);
    case SchemaPred::kFirstSibling: return t.IsFirstSibling(n);
    case SchemaPred::kLastSibling: return t.IsLastSibling(n);
    case SchemaPred::kLabel: return t.label(n) == label;
    default: MD_DCHECK(false); return false;
  }
}

/// A binary kind with its child index (k is read for kChildK only).
struct Axis {
  SchemaPred pred = SchemaPred::kFirstChild;
  int32_t k = 0;
};

/// The unique y with axis(x, y), or kNoNode. Requires a functional axis.
/// Reads a Tree, or a TreeBuilder's partial tree (the stream).
template <typename TreeLike>
tree::NodeId Forward(const TreeLike& t, Axis a, tree::NodeId x) {
  switch (a.pred) {
    case SchemaPred::kFirstChild: return t.first_child(x);
    case SchemaPred::kNextSibling: return t.next_sibling(x);
    case SchemaPred::kChildK: return tree::ChildK(t, x, a.k);
    default: MD_DCHECK(false); return tree::kNoNode;
  }
}

/// The unique x with axis(x, y), or kNoNode. Requires a functional axis.
/// Reads a Tree or a TreeBuilder, like Forward.
template <typename TreeLike>
tree::NodeId Backward(const TreeLike& t, Axis a, tree::NodeId y) {
  switch (a.pred) {
    case SchemaPred::kFirstChild:
      return t.prev_sibling(y) == tree::kNoNode ? t.parent(y) : tree::kNoNode;
    case SchemaPred::kNextSibling: return t.prev_sibling(y);
    case SchemaPred::kChildK: {
      // y must be exactly the k-th child of its parent.
      tree::NodeId c = y;
      for (int32_t steps = 1; steps < a.k; ++steps) {
        c = t.prev_sibling(c);
        if (c == tree::kNoNode) return tree::kNoNode;
      }
      return t.prev_sibling(c) == tree::kNoNode ? t.parent(y) : tree::kNoNode;
    }
    default: MD_DCHECK(false); return tree::kNoNode;
  }
}

/// Calls emit(m) for every m with axis(n, m) — or axis(m, n) when `inverse`
/// — in document order of the walk: children left to right; for
/// nextsibling_tc n itself first, then its siblings away from n.
template <typename Emit>
void ForEachSuccessor(const tree::Tree& t, Axis a, bool inverse,
                      tree::NodeId n, Emit&& emit) {
  using tree::kNoNode;
  using tree::NodeId;
  switch (a.pred) {
    case SchemaPred::kChild:
      if (inverse) {
        if (t.parent(n) != kNoNode) emit(t.parent(n));
      } else {
        for (NodeId c = t.first_child(n); c != kNoNode; c = t.next_sibling(c)) {
          emit(c);
        }
      }
      return;
    case SchemaPred::kLastChild: {
      const NodeId m = inverse ? (t.IsLastSibling(n) ? t.parent(n) : kNoNode)
                               : t.last_child(n);
      if (m != kNoNode) emit(m);
      return;
    }
    case SchemaPred::kNextSiblingTc:
      // Reflexive on the whole domain ([[E*]], Section 2).
      emit(n);
      for (NodeId s = inverse ? t.prev_sibling(n) : t.next_sibling(n);
           s != kNoNode; s = inverse ? t.prev_sibling(s) : t.next_sibling(s)) {
        emit(s);
      }
      return;
    default: {
      const NodeId m = inverse ? Backward(t, a, n) : Forward(t, a, n);
      if (m != kNoNode) emit(m);
      return;
    }
  }
}

}  // namespace mdatalog::core

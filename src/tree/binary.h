#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/tree/tree.h"
#include "src/util/result.h"

/// \file binary.h
/// The firstchild/nextsibling binary encoding of unranked trees (Figure 1).
///
/// The paper reduces the unranked case to the ranked one by renaming
/// "firstchild" to child_1 and "nextsibling" to child_2 (proof of Theorem 4.4).
/// A Tree already carries those two pointers, so most modules use the encoding
/// implicitly; this header materializes it explicitly so the bijection can be
/// tested, printed and fed to ranked-tree machinery.

namespace mdatalog::tree {

/// An explicit binary tree: every node has an optional left child
/// (= firstchild in the source tree) and optional right child (= nextsibling).
struct BinaryTree {
  struct BNode {
    std::string label;
    NodeId left = kNoNode;
    NodeId right = kNoNode;
  };
  std::vector<BNode> nodes;  // indexed by the *source* NodeId
  NodeId root = kNoNode;
};

/// Encodes an unranked tree (Figure 1 (a) → (b)). Node ids are preserved.
BinaryTree EncodeFirstChildNextSibling(const Tree& t);

/// Decodes a binary tree back to the unranked original. Fails if the root has
/// a right child (the root of a valid encoding has no next sibling), if a link
/// is out of range, or if a node is linked to twice.
util::Result<Tree> DecodeFirstChildNextSibling(const BinaryTree& b);

/// The same decode over any linked source (ids not in document order, links
/// forming a tree below `root`). `label(s)` runs once per node in document
/// order, so node k of the result is the k-th node labeled. Iterative.
template <typename FirstChild, typename NextSibling, typename Label>
Tree DecodeFirstChildNextSibling(NodeId root, FirstChild first_child,
                                 NextSibling next_sibling, Label label) {
  TreeBuilder builder;
  std::vector<std::pair<NodeId, NodeId>> pending;  // (source, built parent)
  const NodeId built_root = builder.Root(label(root));
  if (first_child(root) != kNoNode) {
    pending.emplace_back(first_child(root), built_root);
  }
  while (!pending.empty()) {
    const auto [src, parent] = pending.back();
    pending.pop_back();
    const NodeId built = builder.Child(parent, label(src));
    // The first child is visited next; the next sibling waits below it.
    const NodeId sibling = next_sibling(src), child = first_child(src);
    if (sibling != kNoNode) pending.emplace_back(sibling, parent);
    if (child != kNoNode) pending.emplace_back(child, built);
  }
  return builder.Build();
}

/// Renders the encoding as lines "n1 -fc-> n2", "n2 -ns-> n3", ... in id order
/// (used by the quickstart example to reproduce Figure 1).
std::string ToDebugString(const BinaryTree& b);

}  // namespace mdatalog::tree

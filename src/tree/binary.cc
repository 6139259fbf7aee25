#include "src/tree/binary.h"

namespace mdatalog::tree {

BinaryTree EncodeFirstChildNextSibling(const Tree& t) {
  BinaryTree b;
  b.nodes.resize(t.size());
  b.root = t.root();
  for (NodeId n = 0; n < t.size(); ++n) {
    b.nodes[n].label = t.label_name(n);
    b.nodes[n].left = t.first_child(n);
    b.nodes[n].right = t.next_sibling(n);
  }
  return b;
}

util::Result<Tree> DecodeFirstChildNextSibling(const BinaryTree& b) {
  if (b.root < 0 || static_cast<size_t>(b.root) >= b.nodes.size()) {
    return util::Status::InvalidArgument("empty binary tree");
  }
  if (b.nodes[b.root].right != kNoNode) {
    return util::Status::InvalidArgument(
        "root of a firstchild/nextsibling encoding must have no right child");
  }
  // In-range links, none shared: then the links below the root form a tree.
  std::vector<bool> linked(b.nodes.size(), false);
  linked[b.root] = true;
  for (const BinaryTree::BNode& node : b.nodes) {
    for (NodeId to : {node.left, node.right}) {
      if (to == kNoNode) continue;
      if (to < 0 || static_cast<size_t>(to) >= linked.size() || linked[to]) {
        return util::Status::InvalidArgument("binary tree links form no tree");
      }
      linked[to] = true;
    }
  }
  return DecodeFirstChildNextSibling(
      b.root, [&](NodeId s) { return b.nodes[s].left; },
      [&](NodeId s) { return b.nodes[s].right; },
      [&](NodeId s) -> const std::string& { return b.nodes[s].label; });
}

std::string ToDebugString(const BinaryTree& b) {
  std::string out;
  for (size_t n = 0; n < b.nodes.size(); ++n) {
    if (b.nodes[n].left != kNoNode) {
      out += "n" + std::to_string(n) + " -fc-> n" +
             std::to_string(b.nodes[n].left) + "\n";
    }
    if (b.nodes[n].right != kNoNode) {
      out += "n" + std::to_string(n) + " -ns-> n" +
             std::to_string(b.nodes[n].right) + "\n";
    }
  }
  return out;
}

}  // namespace mdatalog::tree

#include "src/tree/generator.h"

#include "src/tree/binary.h"

namespace mdatalog::tree {

namespace {

const std::string& PickLabel(util::Rng& rng,
                             const std::vector<std::string>& labels) {
  MD_CHECK(!labels.empty());
  return labels[rng.Below(labels.size())];
}

/// Builds the tree with parent table `parent` (parent[i] < i; siblings in
/// id order) in document order, drawing each non-root label as its node is
/// created.
Tree BuildFromParents(util::Rng& rng, const std::vector<int32_t>& parent,
                      const std::vector<std::string>& labels,
                      const std::string& root_label) {
  const auto n = static_cast<NodeId>(parent.size());
  std::vector<NodeId> first(n, kNoNode), last(n, kNoNode), next(n, kNoNode);
  for (NodeId i = 1; i < n; ++i) {
    const NodeId p = parent[i];
    if (last[p] == kNoNode) {
      first[p] = i;
    } else {
      next[last[p]] = i;
    }
    last[p] = i;
  }
  return DecodeFirstChildNextSibling(
      0, [&](NodeId s) { return first[s]; }, [&](NodeId s) { return next[s]; },
      [&](NodeId s) -> const std::string& {
        return s == 0 ? root_label : PickLabel(rng, labels);
      });
}

}  // namespace

Tree RandomTree(util::Rng& rng, int32_t num_nodes,
                const std::vector<std::string>& labels, bool depth_bias) {
  MD_CHECK(num_nodes >= 1);
  const std::string& root_label = PickLabel(rng, labels);
  // Drawing parents straight into a TreeBuilder would restrict them to the
  // rightmost path; a parent table first allows every shape.
  std::vector<int32_t> parent(num_nodes, -1);
  for (int32_t i = 1; i < num_nodes; ++i) {
    if (depth_bias && i > 1 && rng.Chance(2, 3)) {
      // Attach near the end for deeper shapes.
      parent[i] = static_cast<int32_t>(rng.Range(i / 2, i - 1));
    } else {
      parent[i] = static_cast<int32_t>(rng.Below(i));
    }
  }
  return BuildFromParents(rng, parent, labels, root_label);
}

Tree RandomBoundedArityTree(util::Rng& rng, int32_t num_nodes,
                            const std::vector<std::string>& labels,
                            int32_t max_arity) {
  MD_CHECK(num_nodes >= 1 && max_arity >= 1);
  std::vector<int32_t> parent(num_nodes, -1);
  std::vector<int32_t> arity(num_nodes, 0);
  std::vector<int32_t> open = {0};  // nodes with spare capacity
  for (int32_t i = 1; i < num_nodes; ++i) {
    size_t slot = rng.Below(open.size());
    int32_t p = open[slot];
    parent[i] = p;
    if (++arity[p] >= max_arity) {
      open[slot] = open.back();
      open.pop_back();
    }
    open.push_back(i);
  }
  return BuildFromParents(rng, parent, labels, PickLabel(rng, labels));
}

Tree CompleteBinaryTree(int32_t depth, const std::string& label) {
  MD_CHECK(depth >= 0 && depth < 30);
  // Heap numbering: the children of s are 2s+1 and 2s+2.
  const NodeId size = (NodeId{2} << depth) - 1;
  return DecodeFirstChildNextSibling(
      0, [&](NodeId s) { return 2 * s + 1 < size ? 2 * s + 1 : kNoNode; },
      [&](NodeId s) { return s % 2 == 1 ? s + 1 : kNoNode; },
      [&](NodeId) -> const std::string& { return label; });
}

Tree RandomFullBinaryTree(util::Rng& rng, int32_t num_internal,
                          const std::vector<std::string>& labels) {
  MD_CHECK(num_internal >= 0);
  // Grow a parent table by repeatedly splitting a random leaf.
  int32_t num_nodes = 2 * num_internal + 1;
  std::vector<int32_t> parent(num_nodes, -1);
  std::vector<int32_t> leaves = {0};
  int32_t next = 1;
  for (int32_t s = 0; s < num_internal; ++s) {
    size_t slot = rng.Below(leaves.size());
    int32_t node = leaves[slot];
    leaves[slot] = leaves.back();
    leaves.pop_back();
    for (int32_t c = 0; c < 2; ++c) {
      parent[next] = node;
      leaves.push_back(next);
      ++next;
    }
  }
  return BuildFromParents(rng, parent, labels, PickLabel(rng, labels));
}

Tree ChainTree(int32_t num_nodes, const std::string& label) {
  MD_CHECK(num_nodes >= 1);
  TreeBuilder b;
  NodeId cur = b.Root(label);
  for (int32_t i = 1; i < num_nodes; ++i) cur = b.Child(cur, label);
  return b.Build();
}

Tree ChildrenWord(const std::string& root_label,
                  const std::vector<std::string>& child_labels) {
  TreeBuilder b;
  NodeId root = b.Root(root_label);
  for (const std::string& l : child_labels) b.Child(root, l);
  return b.Build();
}

Tree PaperExample32Tree() {
  return ChildrenWord("a", {"a", "a", "a"});
}

Tree PaperFigure1Tree() {
  TreeBuilder b;
  NodeId n1 = b.Root("a");
  b.Child(n1, "a");            // n2
  NodeId n3 = b.Child(n1, "a");
  b.Child(n3, "a");            // n4
  b.Child(n3, "a");            // n5
  b.Child(n1, "a");            // n6
  return b.Build();
}

Tree PaperExample49Tree() {
  return ChildrenWord("a", {"a", "a"});
}

}  // namespace mdatalog::tree

#include "src/tree/tree.h"

#include <utility>

namespace mdatalog::tree {

namespace {

/// True iff `p` is `last` or one of its ancestors, i.e. a new node under `p`
/// keeps NodeId order equal to document order. The nodes walked past leave
/// the rightmost path for good, so the walks of a whole build take O(size).
bool OnRightmostPath(const NodeId* parent, NodeId last, NodeId p) {
  while (last != p && last != kNoNode) last = parent[last];
  return last == p;
}

}  // namespace

Tree& Tree::operator=(const Tree& other) {
  if (this == &other) return *this;
  size_ = other.size_;
  frozen_ = other.frozen_;
  parent_ = other.parent_;
  first_child_ = other.first_child_;
  last_child_ = other.last_child_;
  prev_sibling_ = other.prev_sibling_;
  next_sibling_ = other.next_sibling_;
  label_ = other.label_;
  text_offsets_ = other.text_offsets_;
  text_base_ = other.text_base_;
  own_parent_ = other.own_parent_;
  own_first_child_ = other.own_first_child_;
  own_last_child_ = other.own_last_child_;
  own_prev_sibling_ = other.own_prev_sibling_;
  own_next_sibling_ = other.own_next_sibling_;
  own_label_ = other.own_label_;
  texts_ = other.texts_;
  labels_ = other.labels_;
  Rebind();
  return *this;
}

Tree& Tree::operator=(Tree&& other) noexcept {
  if (this == &other) return *this;
  size_ = other.size_;
  frozen_ = other.frozen_;
  parent_ = other.parent_;
  first_child_ = other.first_child_;
  last_child_ = other.last_child_;
  prev_sibling_ = other.prev_sibling_;
  next_sibling_ = other.next_sibling_;
  label_ = other.label_;
  text_offsets_ = other.text_offsets_;
  text_base_ = other.text_base_;
  own_parent_ = std::move(other.own_parent_);
  own_first_child_ = std::move(other.own_first_child_);
  own_last_child_ = std::move(other.own_last_child_);
  own_prev_sibling_ = std::move(other.own_prev_sibling_);
  own_next_sibling_ = std::move(other.own_next_sibling_);
  own_label_ = std::move(other.own_label_);
  texts_ = std::move(other.texts_);
  labels_ = std::move(other.labels_);
  other.size_ = 0;
  other.Rebind();
  Rebind();
  return *this;
}

void Tree::Rebind() {
  if (frozen_) return;  // views reference external memory; nothing to fix
  parent_ = own_parent_.data();
  first_child_ = own_first_child_.data();
  last_child_ = own_last_child_.data();
  prev_sibling_ = own_prev_sibling_.data();
  next_sibling_ = own_next_sibling_.data();
  label_ = own_label_.data();
  size_ = static_cast<int32_t>(own_label_.size());
}

Tree Tree::FromFrozenView(const FrozenView& view, util::Interner labels) {
  MD_CHECK(view.num_nodes > 0);
  Tree t;
  t.frozen_ = true;
  t.size_ = view.num_nodes;
  t.parent_ = view.parent;
  t.first_child_ = view.first_child;
  t.last_child_ = view.last_child;
  t.prev_sibling_ = view.prev_sibling;
  t.next_sibling_ = view.next_sibling;
  t.label_ = view.label;
  t.text_offsets_ = view.text_offsets;
  t.text_base_ = view.text_base;
  t.labels_ = std::move(labels);
  return t;
}

std::vector<NodeId> Tree::Children(NodeId n) const {
  std::vector<NodeId> out;
  for (NodeId c = first_child(n); c != kNoNode; c = next_sibling(c)) {
    out.push_back(c);
  }
  return out;
}

int32_t Tree::NumChildren(NodeId n) const {
  int32_t count = 0;
  for (NodeId c = first_child(n); c != kNoNode; c = next_sibling(c)) {
    ++count;
  }
  return count;
}

NodeId Tree::ChildK(NodeId n, int32_t k) const {
  return tree::ChildK(*this, n, k);
}

int32_t Tree::Depth(NodeId n) const {
  int32_t d = 0;
  for (NodeId p = parent(n); p != kNoNode; p = parent(p)) ++d;
  return d;
}

bool Tree::IsAncestor(NodeId anc, NodeId n) const {
  for (NodeId p = parent(n); p != kNoNode; p = parent(p)) {
    if (p == anc) return true;
  }
  return false;
}

int32_t Tree::MaxArity() const {
  int32_t best = 0;
  for (NodeId n = 0; n < size(); ++n) {
    best = std::max(best, NumChildren(n));
  }
  return best;
}

int32_t Tree::Height() const {
  int32_t best = 0;
  for (NodeId n = 0; n < size(); ++n) {
    if (IsLeaf(n)) best = std::max(best, Depth(n));
  }
  return best;
}

std::string Tree::SubtreeText(NodeId n) const {
  std::string out;
  const NodeId last = LastDescendant(*this, n);
  for (NodeId m = n; m <= last; ++m) out += text(m);
  return out;
}

int64_t Tree::ApproxBytes() const {
  int64_t bytes = labels_.ApproxBytes();
  if (frozen_) return bytes + static_cast<int64_t>(sizeof(Tree));
  for (const auto* col :
       {&own_parent_, &own_first_child_, &own_last_child_, &own_prev_sibling_,
        &own_next_sibling_, &own_label_}) {
    bytes += static_cast<int64_t>(col->capacity()) * sizeof(int32_t);
  }
  bytes += static_cast<int64_t>(texts_.capacity()) * sizeof(std::string);
  for (const std::string& t : texts_) {
    bytes += static_cast<int64_t>(t.capacity());
  }
  return bytes;
}

NodeId TreeBuilder::Root(std::string_view label) {
  MD_CHECK(tree_.own_label_.empty());
  tree_.own_parent_.push_back(kNoNode);
  tree_.own_first_child_.push_back(kNoNode);
  tree_.own_last_child_.push_back(kNoNode);
  tree_.own_prev_sibling_.push_back(kNoNode);
  tree_.own_next_sibling_.push_back(kNoNode);
  tree_.own_label_.push_back(tree_.labels_.Intern(label));
  return 0;
}

NodeId TreeBuilder::Child(NodeId parent, std::string_view label) {
  MD_CHECK(!tree_.own_label_.empty());
  MD_CHECK(parent >= 0 &&
           static_cast<size_t>(parent) < tree_.own_label_.size());
  const NodeId id = static_cast<NodeId>(tree_.own_label_.size());
  MD_CHECK(OnRightmostPath(tree_.own_parent_.data(), id - 1, parent));
  const NodeId prev = tree_.own_last_child_[parent];
  tree_.own_parent_.push_back(parent);
  tree_.own_first_child_.push_back(kNoNode);
  tree_.own_last_child_.push_back(kNoNode);
  tree_.own_prev_sibling_.push_back(prev);
  tree_.own_next_sibling_.push_back(kNoNode);
  tree_.own_label_.push_back(tree_.labels_.Intern(label));
  if (prev == kNoNode) {
    tree_.own_first_child_[parent] = id;
  } else {
    tree_.own_next_sibling_[prev] = id;
  }
  tree_.own_last_child_[parent] = id;
  return id;
}

void TreeBuilder::SetText(NodeId n, std::string_view text) {
  MD_CHECK(n >= 0 && static_cast<size_t>(n) < tree_.own_label_.size());
  if (tree_.texts_.size() <= static_cast<size_t>(n)) {
    tree_.texts_.resize(n + 1);
  }
  tree_.texts_[n] = std::string(text);
}

Tree TreeBuilder::Build() {
  MD_CHECK(!tree_.own_label_.empty());
  tree_.Rebind();
  return std::move(tree_);
}

Tree CopySubtree(const Tree& t, NodeId n) {
  MD_CHECK(n >= 0 && n < t.size());
  TreeBuilder builder;
  builder.Root(t.label_name(n));
  const NodeId last = LastDescendant(t, n);
  for (NodeId m = n; m <= last; ++m) {
    const NodeId dst =
        m == n ? 0 : builder.Child(t.parent(m) - n, t.label_name(m));
    if (t.HasText(m)) builder.SetText(dst, t.text(m));
  }
  return builder.Build();
}

bool TreesEqual(const Tree& a, const Tree& b) {
  // Both are numbered in document order, so equal parent columns mean equal
  // ordered shapes.
  if (a.size() != b.size()) return false;
  for (NodeId n = 0; n < a.size(); ++n) {
    if (a.parent(n) != b.parent(n) || a.label_name(n) != b.label_name(n) ||
        a.text(n) != b.text(n)) {
      return false;
    }
  }
  return true;
}

std::string ToDebugString(const Tree& t) {
  std::string out;
  for (NodeId n = 0; n < t.size(); ++n) {
    if (n > 0) {
      // Close every node between the previous one and n's parent.
      for (NodeId a = n - 1; a != t.parent(n); a = t.parent(a)) {
        if (!t.IsLeaf(a)) out += ')';
      }
      if (t.prev_sibling(n) != kNoNode) out += ',';
    }
    out += t.label_name(n);
    if (!t.IsLeaf(n)) out += '(';
  }
  for (NodeId a = t.size() - 1; a != kNoNode; a = t.parent(a)) {
    if (!t.IsLeaf(a)) out += ')';
  }
  return out;
}

util::Status CheckStructure(const Tree::FrozenView& view, int32_t num_labels) {
  const auto bad = [](const char* what, NodeId n) {
    return util::Status::DataLoss(std::string("tree column ") + what +
                                  " corrupt at node " + std::to_string(n));
  };
  const int32_t size = view.num_nodes;
  if (size <= 0 || view.parent[0] != kNoNode) return bad("parent", 0);
  // Recompute the links from the parent column, then compare.
  std::vector<NodeId> first(size, kNoNode), last(size, kNoNode);
  std::vector<NodeId> next(size, kNoNode);
  for (NodeId n = 1; n < size; ++n) {
    const NodeId p = view.parent[n];
    if (p < 0 || p >= n || !OnRightmostPath(view.parent, n - 1, p)) {
      return bad("parent", n);
    }
    const NodeId prev = last[p];
    if (view.prev_sibling[n] != prev) return bad("prev_sibling", n);
    if (prev == kNoNode) {
      first[p] = n;
    } else {
      next[prev] = n;
    }
    last[p] = n;
  }
  if (view.prev_sibling[0] != kNoNode) return bad("prev_sibling", 0);
  for (NodeId n = 0; n < size; ++n) {
    if (view.first_child[n] != first[n]) return bad("first_child", n);
    if (view.last_child[n] != last[n]) return bad("last_child", n);
    if (view.next_sibling[n] != next[n]) return bad("next_sibling", n);
    if (view.label[n] < 0 || view.label[n] >= num_labels) {
      return bad("label", n);
    }
    if (view.text_offsets != nullptr &&
        view.text_offsets[n] > view.text_offsets[n + 1]) {
      return bad("text_offsets", n);
    }
  }
  return util::Status::OK();
}

}  // namespace mdatalog::tree

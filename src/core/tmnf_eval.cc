#include "src/core/tmnf_eval.h"

#include "src/tmnf/normal_form.h"

namespace mdatalog::core {

std::unique_ptr<const TmnfRules> TmnfRules::Compile(
    const Program& tmnf, std::vector<PredId> watched) {
  // The rule shapes below are exactly what CheckTmnf admits.
  if (!tmnf::CheckTmnf(tmnf, {.ranked = false}).ok()) return nullptr;
  auto index = std::make_unique<TmnfRules>();
  const PredicateTable& preds = tmnf.preds();
  index->num_preds_ = preds.size();
  index->by_body_.resize(index->num_preds_);
  index->watch_.assign(index->num_preds_, -1);
  for (size_t i = 0; i < watched.size(); ++i) {
    MD_CHECK(watched[i] >= 0 && watched[i] < index->num_preds_ &&
             index->watch_[watched[i]] == -1);
    index->watch_[watched[i]] = static_cast<int32_t>(i);
  }
  index->watched_ = std::move(watched);

  const std::vector<bool> intensional = tmnf.IntensionalMask();
  for (PredId p = 0; p < preds.size(); ++p) {
    if (intensional[p]) continue;
    std::optional<SchemaRef> ref =
        ClassifySchemaPred(preds.Name(p), preds.Arity(p));
    if (!ref.has_value()) continue;
    switch (ref->pred) {
      case SchemaPred::kRoot:
        index->root_ = p;
        break;
      case SchemaPred::kLeaf:
        index->leaf_ = p;
        break;
      case SchemaPred::kLastSibling:
        index->lastsibling_ = p;
        break;
      case SchemaPred::kLabel:
        index->labels_.emplace(std::move(ref->label), p);
        break;
      default:  // the axes: read from the tree, never asserted
        break;
    }
  }

  for (const core::Rule& rule : tmnf.rules()) {
    const VarId x = rule.head.args[0].value;
    Rule r{Kind::kCopy, SchemaPred::kFirstChild, rule.head.pred,
           rule.body[0].pred, -1};
    if (rule.body.size() == 2 && rule.body[1].args.size() == 1 &&
        rule.body[0].args.size() == 1) {
      r.kind = Kind::kAnd;
      r.p1 = rule.body[1].pred;
    } else if (rule.body.size() == 2) {
      const bool unary_first = rule.body[0].args.size() == 1;
      const Atom& un = rule.body[unary_first ? 0 : 1];
      const Atom& bin = rule.body[unary_first ? 1 : 0];
      r.p0 = un.pred;
      r.axis = ClassifySchemaPred(preds.Name(bin.pred), 2)->pred;
      r.kind = bin.args[1].value == x ? Kind::kForward : Kind::kBackward;
    }
    const int32_t id = static_cast<int32_t>(index->rules_.size());
    index->by_body_[r.p0].push_back(id);
    // kAnd fires from either conjunct's delta; index it under both.
    if (r.kind == Kind::kAnd && r.p1 != r.p0) {
      index->by_body_[r.p1].push_back(id);
    }
    if (r.kind == Kind::kForward) {
      (r.axis == SchemaPred::kFirstChild ? index->forward_firstchild_
                                         : index->forward_nextsibling_)
          .push_back(id);
    }
    index->rules_.push_back(r);
  }
  return index;
}

template <typename TreeLike>
void TmnfEval<TreeLike>::Start(const TmnfRules& rules, const TreeLike& tree,
                               tree::NodeId root, DeriveHook hook) {
  rules_ = &rules;
  tree_ = &tree;
  root_ = root;
  hook_ = std::move(hook);
  if (facts_.size() < static_cast<size_t>(rules.num_preds_)) {
    facts_.resize(rules.num_preds_);
  }
  for (PredId p = 0; p < rules.num_preds_; ++p) facts_[p].Clear();
  delta_.clear();
  delta_head_ = 0;
  label_preds_.clear();
  num_facts_ = 0;
  num_derived_ = 0;
}

template <typename TreeLike>
util::Status TmnfEval<TreeLike>::Evaluate(const TmnfRules& rules,
                                          const TreeLike& tree,
                                          const util::EvalControl* control) {
  Start(rules, tree, 0, {});
  // Checked once up front: a tree smaller than the ticker stride would
  // otherwise never reach a poll.
  if (control != nullptr) MD_RETURN_NOT_OK(control->Check());
  // Every node's unary EDB in one sweep. The axes need no event: the tree
  // is complete, so a delta's Forward join already sees every edge.
  for (tree::NodeId n = 0; n < tree.size(); ++n) {
    AssertCreated(n);
    NodeClosed(n);
  }
  return Propagate(control);
}

template <typename TreeLike>
PredId TmnfEval<TreeLike>::LabelPred(tree::NodeId n) {
  const tree::LabelId label = tree_->label(n);
  if (static_cast<size_t>(label) >= label_preds_.size()) {
    const util::Interner& names = tree_->labels();
    for (int32_t id = static_cast<int32_t>(label_preds_.size());
         id < names.size(); ++id) {
      const auto it = rules_->labels_.find(names.Name(id));
      label_preds_.push_back(it != rules_->labels_.end() ? it->second : -1);
    }
  }
  return label_preds_[label];
}

template <typename TreeLike>
void TmnfEval<TreeLike>::AssertCreated(tree::NodeId n) {
  const PredId label = LabelPred(n);
  if (label >= 0) Insert(label, n);
  if (n == root_ && rules_->root_ >= 0) Insert(rules_->root_, n);
}

template <typename TreeLike>
void TmnfEval<TreeLike>::NodeCreated(tree::NodeId n) {
  if (n < root_) return;
  AssertCreated(n);
  if (n == root_) return;
  // The in-edge joins the forward rules from its source. A backward rule
  // would need p0 at n, which holds no derived fact yet; n's own deltas
  // read the edge through Backward when they are processed.
  const tree::NodeId prev = tree_->prev_sibling(n);
  const bool first = prev == tree::kNoNode;
  const tree::NodeId source = first ? tree_->parent(n) : prev;
  for (const int32_t id : rules_->forward(first ? SchemaPred::kFirstChild
                                                : SchemaPred::kNextSibling)) {
    const TmnfRules::Rule& rule = rules_->rules_[id];
    if (facts_[rule.p0].Contains(source)) Derive(rule.head, n);
  }
}

template <typename TreeLike>
void TmnfEval<TreeLike>::NodeClosed(tree::NodeId n) {
  if (n < root_) return;
  const tree::NodeId last = tree_->last_child(n);
  if (last == tree::kNoNode) {
    if (rules_->leaf_ >= 0) Insert(rules_->leaf_, n);
  } else if (rules_->lastsibling_ >= 0) {
    Insert(rules_->lastsibling_, last);
  }
}

template <typename TreeLike>
bool TmnfEval<TreeLike>::Insert(PredId pred, tree::NodeId node) {
  if (!facts_[pred].Insert(node)) return false;
  ++num_facts_;
  delta_.emplace_back(pred, node);
  if (hook_) {
    const int32_t watch = rules_->watch_[pred];
    if (watch >= 0) hook_(watch, node);
  }
  return true;
}

template <typename TreeLike>
util::Status TmnfEval<TreeLike>::Propagate(const util::EvalControl* control) {
  // Each delta is processed atomically: the ticker is consulted only at the
  // loop top, so an abort leaves every queued delta intact and a later
  // Propagate resumes exactly where this one stopped.
  util::EvalTicker ticker(control);
  while (delta_head_ < delta_.size()) {
    MD_RETURN_NOT_OK(ticker.Tick());
    const auto [pred, a] = delta_[delta_head_++];
    for (const int32_t id : rules_->by_body_[pred]) {
      const TmnfRules::Rule& rule = rules_->rules_[id];
      tree::NodeId b = a;
      switch (rule.kind) {
        case TmnfRules::Kind::kCopy:
          break;
        case TmnfRules::Kind::kAnd:
          // Indexed under both conjuncts; probe the other one.
          if (!facts_[pred == rule.p0 ? rule.p1 : rule.p0].Contains(a)) {
            continue;
          }
          break;
        case TmnfRules::Kind::kForward:
          b = Forward(*tree_, {rule.axis}, a);
          break;
        case TmnfRules::Kind::kBackward:
          // The world's root has no in-edge.
          b = a == root_ ? tree::kNoNode : Backward(*tree_, {rule.axis}, a);
          break;
      }
      if (b != tree::kNoNode) Derive(rule.head, b);
    }
    // Drop the processed prefix once it dominates, so the queue holds
    // O(pending) entries rather than every fact of a long Propagate.
    if (delta_head_ >= 1024 && delta_head_ * 2 >= delta_.size()) {
      delta_.erase(delta_.begin(), delta_.begin() + delta_head_);
      delta_head_ = 0;
    }
  }
  delta_.clear();
  delta_head_ = 0;
  return util::Status::OK();
}

template <typename TreeLike>
int64_t TmnfEval<TreeLike>::ApproxBytes() const {
  int64_t bytes = static_cast<int64_t>(
      sizeof(*this) + facts_.capacity() * sizeof(GrowingNodeSet) +
      delta_.capacity() * sizeof(delta_[0]) +
      label_preds_.capacity() * sizeof(PredId));
  for (const GrowingNodeSet& set : facts_) bytes += set.ApproxBytes();
  return bytes;
}

template class TmnfEval<tree::Tree>;
template class TmnfEval<tree::TreeBuilder>;

}  // namespace mdatalog::core

#include "src/stream/incremental_eval.h"

#include "src/tmnf/normal_form.h"
#include "src/util/bits.h"

namespace mdatalog::stream {

using core::SchemaPred;

std::vector<tree::NodeId> GrowingNodeSet::ToVector() const {
  std::vector<tree::NodeId> out;
  for (size_t w = 0; w < words_.size(); ++w) {
    for (uint64_t word = words_[w]; word != 0; word &= word - 1) {
      out.push_back(static_cast<tree::NodeId>(w * 64) + util::Ctz64(word));
    }
  }
  return out;
}

std::unique_ptr<const IncrementalTmnfEval::Rules>
IncrementalTmnfEval::Rules::Compile(const core::Program& tmnf,
                                    const std::vector<core::PredId>& watched) {
  // The rule shapes below are exactly what CheckTmnf admits.
  if (!tmnf::CheckTmnf(tmnf, {.ranked = false}).ok()) return nullptr;
  auto index = std::make_unique<Rules>();
  const core::PredicateTable& preds = tmnf.preds();
  index->num_preds_ = preds.size();
  index->by_body_.resize(index->num_preds_);
  index->watch_.assign(index->num_preds_, -1);
  for (size_t i = 0; i < watched.size(); ++i) {
    if (watched[i] >= 0) index->watch_[watched[i]] = static_cast<int32_t>(i);
  }

  const std::vector<bool> intensional = tmnf.IntensionalMask();
  for (core::PredId p = 0; p < preds.size(); ++p) {
    if (intensional[p]) continue;
    std::optional<core::SchemaRef> ref =
        core::ClassifySchemaPred(preds.Name(p), preds.Arity(p));
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
    const core::VarId x = rule.head.args[0].value;
    Rule r{Kind::kCopy, SchemaPred::kFirstChild, rule.head.pred,
           rule.body[0].pred, -1};
    if (rule.body.size() == 2 && rule.body[1].args.size() == 1 &&
        rule.body[0].args.size() == 1) {
      r.kind = Kind::kAnd;
      r.p1 = rule.body[1].pred;
    } else if (rule.body.size() == 2) {
      const bool unary_first = rule.body[0].args.size() == 1;
      const core::Atom& un = rule.body[unary_first ? 0 : 1];
      const core::Atom& bin = rule.body[unary_first ? 1 : 0];
      r.p0 = un.pred;
      r.axis = core::ClassifySchemaPred(preds.Name(bin.pred), 2)->pred;
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

IncrementalTmnfEval::IncrementalTmnfEval(const Rules& rules,
                                         const tree::TreeBuilder& tree,
                                         tree::NodeId root, DeriveHook hook)
    : rules_(rules),
      tree_(tree),
      root_(root),
      hook_(std::move(hook)),
      facts_(rules.num_preds_) {}

void IncrementalTmnfEval::NodeCreated(tree::NodeId n) {
  if (n < root_) return;
  const auto label = rules_.labels_.find(tree_.label_name(n));
  if (label != rules_.labels_.end()) Insert(label->second, n);
  if (n == root_) {
    if (rules_.root_ >= 0) Insert(rules_.root_, n);
    return;
  }
  // The in-edge joins the forward rules from its source. A backward rule
  // would need p0 at n, which holds no derived fact yet; n's own deltas
  // read the edge through Backward when they are processed.
  const tree::NodeId prev = tree_.prev_sibling(n);
  const bool first = prev == tree::kNoNode;
  const tree::NodeId source = first ? tree_.parent(n) : prev;
  for (const int32_t id : rules_.forward(first ? SchemaPred::kFirstChild
                                               : SchemaPred::kNextSibling)) {
    const Rules::Rule& rule = rules_.rules_[id];
    if (facts_[rule.p0].Contains(source)) Insert(rule.head, n);
  }
}

void IncrementalTmnfEval::NodeClosed(tree::NodeId n) {
  if (n < root_) return;
  const tree::NodeId last = tree_.last_child(n);
  if (last == tree::kNoNode) {
    if (rules_.leaf_ >= 0) Insert(rules_.leaf_, n);
  } else if (rules_.lastsibling_ >= 0) {
    Insert(rules_.lastsibling_, last);
  }
}

void IncrementalTmnfEval::Insert(core::PredId pred, tree::NodeId node) {
  if (!facts_[pred].Insert(node)) return;
  ++num_facts_;
  delta_.emplace_back(pred, node);
  const int32_t watch = rules_.watch_[pred];
  if (watch >= 0 && hook_) hook_(watch, node);
}

util::Status IncrementalTmnfEval::Propagate(const util::EvalControl* control) {
  // Each event is processed atomically: the ticker is consulted only at the
  // loop top, so an abort leaves every queued event intact and a later
  // Propagate resumes exactly where this one stopped.
  util::EvalTicker ticker(control);
  while (delta_head_ < delta_.size()) {
    MD_RETURN_NOT_OK(ticker.Tick());
    const auto [pred, a] = delta_[delta_head_++];
    for (const int32_t id : rules_.by_body_[pred]) {
      const Rules::Rule& rule = rules_.rules_[id];
      tree::NodeId b = a;
      switch (rule.kind) {
        case Rules::Kind::kCopy:
          break;
        case Rules::Kind::kAnd:
          // Indexed under both conjuncts; probe the other one.
          if (!facts_[pred == rule.p0 ? rule.p1 : rule.p0].Contains(a)) {
            continue;
          }
          break;
        case Rules::Kind::kForward:
          b = core::Forward(tree_, {rule.axis}, a);
          break;
        case Rules::Kind::kBackward:
          // The world's root has no in-edge.
          b = a == root_ ? tree::kNoNode
                         : core::Backward(tree_, {rule.axis}, a);
          break;
      }
      if (b != tree::kNoNode) Insert(rule.head, b);
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

std::vector<tree::NodeId> IncrementalTmnfEval::Members(
    core::PredId pred) const {
  if (pred < 0 || pred >= rules_.num_preds_) return {};
  return facts_[pred].ToVector();
}

int64_t IncrementalTmnfEval::ApproxBytes() const {
  int64_t bytes = static_cast<int64_t>(
      sizeof(*this) + facts_.capacity() * sizeof(GrowingNodeSet) +
      delta_.capacity() * sizeof(delta_[0]));
  for (const GrowingNodeSet& set : facts_) bytes += set.ApproxBytes();
  return bytes;
}

}  // namespace mdatalog::stream

#include "src/stream/incremental_eval.h"

#include <algorithm>

#include "src/core/tree_schema.h"
#include "src/util/check.h"

namespace mdatalog::stream {

namespace {

bool AllVars(const core::Atom& atom) {
  for (const core::Term& t : atom.args) {
    if (!t.is_var()) return false;
  }
  return true;
}

}  // namespace

std::unique_ptr<IncrementalTmnfEval> IncrementalTmnfEval::Compile(
    const core::Program& tmnf) {
  std::unique_ptr<IncrementalTmnfEval> eval(new IncrementalTmnfEval());
  const core::PredicateTable& preds = tmnf.preds();
  eval->num_preds_ = preds.size();
  eval->unary_.resize(eval->num_preds_);
  eval->rules_by_p0_.resize(eval->num_preds_);
  eval->pred_to_rel_.assign(eval->num_preds_, -1);
  eval->hooked_.assign(eval->num_preds_, false);

  const std::vector<bool> intensional = tmnf.IntensionalMask();

  auto rel_index = [&](core::PredId b) {
    if (eval->pred_to_rel_[b] < 0) {
      eval->pred_to_rel_[b] = static_cast<int32_t>(eval->rels_.size());
      eval->rels_.emplace_back();
      eval->rules_by_rel_.emplace_back();
      eval->rel_pred_.push_back(b);
    }
    return eval->pred_to_rel_[b];
  };

  for (const core::Rule& rule : tmnf.rules()) {
    // Every supported rule has a unary, variable head.
    if (rule.head.args.size() != 1 || !AllVars(rule.head)) return nullptr;
    const core::PredId head = rule.head.pred;
    const core::VarId hv = rule.head.args[0].value;
    for (const core::Atom& b : rule.body) {
      if (!AllVars(b)) return nullptr;  // constants: outside the fragment
    }

    CompiledRule cr;
    cr.head = head;
    if (rule.body.size() == 1) {
      // Form (1): p(x) ← p0(x).
      const core::Atom& b = rule.body[0];
      if (b.args.size() != 1 || b.args[0].value != hv) return nullptr;
      cr.kind = RuleKind::kCopy;
      cr.p0 = b.pred;
    } else if (rule.body.size() == 2 && rule.body[0].args.size() == 1 &&
               rule.body[1].args.size() == 1) {
      // Form (3): p(x) ← p0(x), p1(x).
      if (rule.body[0].args[0].value != hv ||
          rule.body[1].args[0].value != hv) {
        return nullptr;
      }
      cr.kind = RuleKind::kAnd;
      cr.p0 = rule.body[0].pred;
      cr.p1 = rule.body[1].pred;
    } else if (rule.body.size() == 2) {
      // Form (2): p(x) ← p0(x0), B(…) with B binary and extensional.
      const core::Atom& first = rule.body[0];
      const core::Atom& second = rule.body[1];
      const core::Atom& un = first.args.size() == 1 ? first : second;
      const core::Atom& bin = first.args.size() == 2 ? first : second;
      if (un.args.size() != 1 || bin.args.size() != 2) return nullptr;
      if (intensional[bin.pred]) return nullptr;
      const core::VarId uv = un.args[0].value;
      if (uv == hv) return nullptr;  // diagonal B(x,x): not a TMNF shape
      cr.p0 = un.pred;
      const bool tc = core::IsSchemaPred(preds.Name(bin.pred), 2,
                                         core::SchemaPred::kNextSiblingTc);
      if (bin.args[0].value == uv && bin.args[1].value == hv) {
        cr.kind = tc ? RuleKind::kTcFwd : RuleKind::kJoinFwd;
      } else if (bin.args[0].value == hv && bin.args[1].value == uv) {
        cr.kind = tc ? RuleKind::kTcBwd : RuleKind::kJoinBwd;
      } else {
        return nullptr;
      }
      if (cr.kind == RuleKind::kTcFwd || cr.kind == RuleKind::kTcBwd) {
        cr.tc_mark = static_cast<int32_t>(eval->tc_marks_.size());
        eval->tc_marks_.emplace_back();
      } else {
        cr.rel = rel_index(bin.pred);
      }
    } else {
      return nullptr;
    }
    if (preds.Arity(cr.p0) != 1) return nullptr;
    if (cr.p1 >= 0 && preds.Arity(cr.p1) != 1) return nullptr;

    const int32_t id = static_cast<int32_t>(eval->rules_.size());
    eval->rules_by_p0_[cr.p0].push_back(id);
    // kAnd fires from either conjunct's delta; index it under both.
    if (cr.kind == RuleKind::kAnd && cr.p1 != cr.p0) {
      eval->rules_by_p0_[cr.p1].push_back(id);
    }
    if (cr.rel >= 0) eval->rules_by_rel_[cr.rel].push_back(id);
    eval->rules_.push_back(cr);
  }
  return eval;
}

void IncrementalTmnfEval::AddNode(int32_t node, int32_t prev_sibling) {
  MD_CHECK(node == domain_);
  domain_ = node + 1;
  next_sibling_.push_back(-1);
  prev_sibling_.push_back(prev_sibling);
  if (prev_sibling >= 0) next_sibling_[prev_sibling] = node;
  for (auto& rel : rels_) {
    rel.fwd.emplace_back();
    rel.bwd.emplace_back();
  }
  binary_bytes_ +=
      static_cast<int64_t>(rels_.size()) * 2 * sizeof(std::vector<int32_t>);
  if (prev_sibling < 0) return;
  // A kTcFwd rule whose mark reached prev_sibling covers every later sibling
  // too: extend the mark (and the head) onto the new chain tail.
  for (const CompiledRule& rule : rules_) {
    if (rule.kind != RuleKind::kTcFwd) continue;
    if (tc_marks_[rule.tc_mark].Test(prev_sibling) &&
        tc_marks_[rule.tc_mark].Set(node)) {
      Insert(rule.head, node);
    }
  }
}

void IncrementalTmnfEval::AddUnaryFact(core::PredId pred, int32_t node) {
  MD_CHECK(pred >= 0 && pred < num_preds_ && node >= 0 && node < domain_);
  Insert(pred, node);
}

void IncrementalTmnfEval::AddBinaryFact(core::PredId pred, int32_t a,
                                        int32_t b) {
  MD_CHECK(a >= 0 && a < domain_ && b >= 0 && b < domain_);
  MD_CHECK(pred >= 0 && pred < num_preds_);
  const int32_t rel = pred_to_rel_[pred];
  if (rel < 0) return;  // no rule reads this relation
  rels_[rel].fwd[a].push_back(b);
  rels_[rel].bwd[b].push_back(a);
  binary_bytes_ += 2 * sizeof(int32_t);
  binary_delta_.push_back({rel, a, b});
}

int64_t IncrementalTmnfEval::ApproxBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(*this)) + binary_bytes_;
  for (const Bits& b : unary_) {
    bytes += static_cast<int64_t>(b.words.capacity()) * sizeof(uint64_t);
  }
  for (const Bits& b : tc_marks_) {
    bytes += static_cast<int64_t>(b.words.capacity()) * sizeof(uint64_t);
  }
  bytes += static_cast<int64_t>(next_sibling_.capacity() +
                                prev_sibling_.capacity()) *
           sizeof(int32_t);
  bytes += static_cast<int64_t>(unary_delta_.size()) *
           sizeof(std::pair<core::PredId, int32_t>);
  bytes += static_cast<int64_t>(binary_delta_.size()) *
           sizeof(std::array<int32_t, 3>);
  bytes += static_cast<int64_t>(insertion_log_.capacity()) *
           sizeof(std::pair<core::PredId, int32_t>);
  return bytes;
}

void IncrementalTmnfEval::Insert(core::PredId pred, int32_t node) {
  if (!unary_[pred].Set(node)) return;
  ++num_facts_;
  insertion_log_.emplace_back(pred, node);
  if (hooked_[pred] && hook_) hook_(pred, node);
  unary_delta_.emplace_back(pred, node);
}

util::Status IncrementalTmnfEval::Propagate(const util::EvalControl* control) {
  // Each event is processed atomically: the ticker is consulted only at the
  // loop top and the event is popped only after all its rules fired, so an
  // abort leaves every queued event intact and the tc mark invariant
  // ("marked ⇒ all chain positions beyond it are marked") unbroken — a later
  // Propagate resumes exactly where this one stopped.
  util::EvalTicker ticker(control);
  while (!unary_delta_.empty() || !binary_delta_.empty()) {
    MD_RETURN_NOT_OK(ticker.Tick());
    if (!unary_delta_.empty()) {
      const auto [pred, a] = unary_delta_.front();
      for (int32_t rid : rules_by_p0_[pred]) {
        const CompiledRule& rule = rules_[rid];
        switch (rule.kind) {
          case RuleKind::kCopy:
            Insert(rule.head, a);
            break;
          case RuleKind::kAnd: {
            // Indexed under both conjuncts; probe the other one.
            const core::PredId other = pred == rule.p0 ? rule.p1 : rule.p0;
            if (unary_[other].Test(a)) Insert(rule.head, a);
            break;
          }
          case RuleKind::kJoinFwd:
            for (int32_t b : rels_[rule.rel].fwd[a]) Insert(rule.head, b);
            break;
          case RuleKind::kJoinBwd:
            for (int32_t b : rels_[rule.rel].bwd[a]) Insert(rule.head, b);
            break;
          case RuleKind::kTcFwd:
            // p0 at a ⇒ head holds at a and every sibling after it. Walk
            // forward until a position this rule already covered: everything
            // beyond is covered too (marks only grow from covered seeds).
            for (int32_t n = a; n >= 0; n = next_sibling_[n]) {
              if (!tc_marks_[rule.tc_mark].Set(n)) break;
              Insert(rule.head, n);
            }
            break;
          case RuleKind::kTcBwd:
            for (int32_t n = a; n >= 0; n = prev_sibling_[n]) {
              if (!tc_marks_[rule.tc_mark].Set(n)) break;
              Insert(rule.head, n);
            }
            break;
        }
      }
      unary_delta_.pop_front();
      continue;
    }
    const auto [rel, a, b] = binary_delta_.front();
    for (int32_t rid : rules_by_rel_[rel]) {
      const CompiledRule& rule = rules_[rid];
      if (rule.kind == RuleKind::kJoinFwd) {
        if (unary_[rule.p0].Test(a)) Insert(rule.head, b);
      } else {
        if (unary_[rule.p0].Test(b)) Insert(rule.head, a);
      }
    }
    binary_delta_.pop_front();
  }
  return util::Status::OK();
}

void IncrementalTmnfEval::SetDeriveHook(
    const std::vector<core::PredId>& preds,
    std::function<void(core::PredId, int32_t)> hook) {
  hooked_.assign(num_preds_, false);
  for (core::PredId p : preds) {
    if (p >= 0 && p < num_preds_) hooked_[p] = true;
  }
  hook_ = std::move(hook);
  if (!hook_) return;
  for (const auto& [pred, node] : insertion_log_) {
    if (hooked_[pred]) hook_(pred, node);
  }
}

bool IncrementalTmnfEval::Contains(core::PredId pred, int32_t node) const {
  return pred >= 0 && pred < num_preds_ && unary_[pred].Test(node);
}

std::vector<int32_t> IncrementalTmnfEval::Members(core::PredId pred) const {
  std::vector<int32_t> out;
  if (pred < 0 || pred >= num_preds_) return out;
  const Bits& bits = unary_[pred];
  for (size_t w = 0; w < bits.words.size(); ++w) {
    uint64_t word = bits.words[w];
    while (word != 0) {
      const int bit = __builtin_ctzll(word);
      out.push_back(static_cast<int32_t>(w * 64 + bit));
      word &= word - 1;
    }
  }
  return out;
}

}  // namespace mdatalog::stream

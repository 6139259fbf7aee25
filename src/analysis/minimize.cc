#include "src/analysis/minimize.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/core/tree_schema.h"
#include "src/tmnf/pipeline.h"
#include "src/util/check.h"

namespace mdatalog::analysis {

namespace {

using core::Atom;
using core::PredId;
using core::Program;
using core::Rule;
using core::Term;

/// Binary tree predicates whose second argument necessarily has a parent
/// (it is some node's child).
constexpr core::SchemaSet kParentChild{
    core::SchemaPred::kChild, core::SchemaPred::kFirstChild,
    core::SchemaPred::kLastChild, core::SchemaPred::kChildK};

/// Tree-axiom unsatisfiability of a rule body (Section 2 semantics: the
/// root is neither a first nor a last sibling and has no parent; a leaf has
/// no children; a last sibling has no next sibling; every node carries
/// exactly one label). Only extensional tree predicates participate — a
/// user-defined predicate that happens to share a name is intensional and
/// is skipped.
bool BodyUnsatOnTrees(const Program& program, const Rule& rule,
                      const std::vector<bool>& intensional) {
  struct VarFacts {
    std::unordered_set<std::string> labels;
    bool is_root = false, is_leaf = false;
    bool is_lastsibling = false, is_firstsibling = false;
    bool has_parent = false, has_prev = false;
    bool has_child = false, has_next = false;
  };
  std::unordered_map<int32_t, VarFacts> facts;
  const auto& preds = program.preds();
  for (const Atom& a : rule.body) {
    if (intensional[a.pred]) continue;
    std::optional<core::SchemaRef> ref = core::ClassifySchemaPred(
        preds.Name(a.pred), static_cast<int32_t>(a.args.size()));
    if (!ref.has_value()) continue;
    if (a.args.size() == 1 && a.args[0].is_var()) {
      VarFacts& f = facts[a.args[0].value];
      switch (ref->pred) {
        case core::SchemaPred::kRoot: f.is_root = true; break;
        case core::SchemaPred::kLeaf: f.is_leaf = true; break;
        case core::SchemaPred::kLastSibling: f.is_lastsibling = true; break;
        case core::SchemaPred::kFirstSibling: f.is_firstsibling = true; break;
        case core::SchemaPred::kLabel:
          f.labels.insert(std::move(ref->label));
          break;
        default: break;
      }
    } else if (a.args.size() == 2 && a.args[0].is_var() &&
               a.args[1].is_var()) {
      // nextsibling_tc is reflexive and constrains nothing on its own.
      if (kParentChild.contains(ref->pred)) {
        facts[a.args[0].value].has_child = true;
        facts[a.args[1].value].has_parent = true;
      } else if (ref->pred == core::SchemaPred::kNextSibling) {
        facts[a.args[0].value].has_next = true;
        facts[a.args[1].value].has_prev = true;
      }
    }
  }
  for (const auto& [var, f] : facts) {
    (void)var;
    if (f.labels.size() >= 2) return true;
    if (f.is_root && (f.is_lastsibling || f.is_firstsibling ||
                      f.has_parent || f.has_prev)) {
      return true;
    }
    if (f.is_leaf && f.has_child) return true;
    if (f.is_lastsibling && f.has_next) return true;
    if (f.is_firstsibling && f.has_prev) return true;
  }
  return false;
}

/// Order-sensitive rule key with variables renamed by first occurrence —
/// catches textual duplicates cheaply; θ-subsumption catches the rest.
std::string RuleKey(const Rule& rule) {
  std::unordered_map<int32_t, int32_t> rename;
  std::string key;
  auto add_atom = [&](const Atom& a) {
    key += 'p';
    key += std::to_string(a.pred);
    key += '(';
    for (const Term& t : a.args) {
      if (t.is_var()) {
        auto [it, inserted] =
            rename.emplace(t.value, static_cast<int32_t>(rename.size()));
        (void)inserted;
        key += 'v';
        key += std::to_string(it->second);
      } else {
        key += 'c';
        key += std::to_string(t.value);
      }
      key += ',';
    }
    key += ')';
  };
  add_atom(rule.head);
  key += ":-";
  for (const Atom& a : rule.body) add_atom(a);
  return key;
}

/// Backtracking matcher for θ-subsumption: maps each subsumer body atom
/// onto some subsumee body atom under a growing substitution. Bodies are
/// small (a handful of literals), so the exponential worst case is moot.
class SubsumptionMatcher {
 public:
  SubsumptionMatcher(const Rule& subsumer, const Rule& subsumee)
      : subsumer_(subsumer), subsumee_(subsumee) {}

  bool Match() {
    theta_.clear();
    if (!UnifyAtom(subsumer_.head, subsumee_.head)) return false;
    return MatchBody(0);
  }

 private:
  bool UnifyTerm(const Term& from, const Term& to,
                 std::vector<std::pair<int32_t, Term>>* trail) {
    if (!from.is_var()) {
      return !to.is_var() && from.value == to.value;
    }
    auto it = theta_.find(from.value);
    if (it != theta_.end()) {
      return it->second.is_var() == to.is_var() &&
             it->second.value == to.value;
    }
    theta_.emplace(from.value, to);
    trail->push_back({from.value, to});
    return true;
  }

  bool UnifyAtom(const Atom& from, const Atom& to) {
    if (from.pred != to.pred || from.args.size() != to.args.size()) {
      return false;
    }
    std::vector<std::pair<int32_t, Term>> trail;
    for (size_t i = 0; i < from.args.size(); ++i) {
      if (!UnifyTerm(from.args[i], to.args[i], &trail)) {
        for (const auto& [v, t] : trail) {
          (void)t;
          theta_.erase(v);
        }
        return false;
      }
    }
    return true;
  }

  bool MatchBody(size_t i) {
    if (i == subsumer_.body.size()) return true;
    for (const Atom& target : subsumee_.body) {
      // Snapshot-and-restore via trail inside UnifyAtom is per-atom; a
      // failed deeper match needs the whole atom's bindings undone, so
      // record the map size and erase newcomers on backtrack.
      std::unordered_map<int32_t, Term> saved = theta_;
      if (UnifyAtom(subsumer_.body[i], target)) {
        if (MatchBody(i + 1)) return true;
      }
      theta_ = std::move(saved);
    }
    return false;
  }

  const Rule& subsumer_;
  const Rule& subsumee_;
  std::unordered_map<int32_t, Term> theta_;
};

/// Builds a program from the predicate table of `base` and the alive subset
/// of `rules`.
Program BuildProgram(const Program& base, const std::vector<Rule>& rules,
                     const std::vector<bool>& alive) {
  Program out;
  out.preds() = base.preds();
  for (size_t i = 0; i < rules.size(); ++i) {
    if (alive[i]) out.AddRule(rules[i]);
  }
  out.set_query_pred(base.query_pred());
  return out;
}

/// Drops redundant body literals: literal k is removable when the full rule
/// θ-subsumes the reduced rule (identical heads), which pins the two rules
/// to the same extent. Greedy to a fixpoint.
int32_t CondenseRule(Rule* rule) {
  int32_t removed = 0;
  bool changed = true;
  while (changed && rule->body.size() > 1) {
    changed = false;
    for (size_t k = 0; k < rule->body.size(); ++k) {
      Rule reduced = *rule;
      reduced.body.erase(reduced.body.begin() + static_cast<int64_t>(k));
      if (Subsumes(*rule, reduced)) {
        *rule = std::move(reduced);
        ++removed;
        changed = true;
        break;
      }
    }
  }
  return removed;
}

util::Status VerifyEquivalentOnRoots(const Program& original,
                                     const Program& minimized,
                                     const std::vector<PredId>& roots,
                                     const ContainmentOptions& copts,
                                     Verdict* combined) {
  *combined = Verdict::kContained;
  for (PredId root : roots) {
    Program a = original;
    Program b = minimized;
    a.set_query_pred(root);
    b.set_query_pred(root);
    MD_ASSIGN_OR_RETURN(Program ta, tmnf::ToTmnf(a));
    MD_ASSIGN_OR_RETURN(Program tb, tmnf::ToTmnf(b));
    MD_ASSIGN_OR_RETURN(EquivalenceResult eq, Equivalent(ta, tb, copts));
    if (eq.verdict == Verdict::kNotContained) {
      return util::Status::Internal(
          "minimizer bug: bounded containment refuted equivalence on root "
          "predicate '" +
          original.preds().Name(root) + "'");
    }
    if (eq.verdict == Verdict::kUnknown) *combined = Verdict::kUnknown;
  }
  return util::Status::OK();
}

}  // namespace

const char* RuleFateName(RuleFate fate) {
  switch (fate) {
    case RuleFate::kKept:
      return "kept";
    case RuleFate::kUnsatBody:
      return "unsat-body";
    case RuleFate::kUnderivableBody:
      return "underivable-body";
    case RuleFate::kUnreachable:
      return "unreachable";
    case RuleFate::kDuplicate:
      return "duplicate";
    case RuleFate::kSubsumed:
      return "subsumed";
  }
  return "unknown";
}

bool Subsumes(const Rule& subsumer, const Rule& subsumee) {
  if (subsumer.head.pred != subsumee.head.pred) return false;
  return SubsumptionMatcher(subsumer, subsumee).Match();
}

util::Result<MinimizeResult> Minimize(const Program& program,
                                      const MinimizeOptions& options) {
  const size_t n = program.rules().size();
  std::vector<Rule> rules = program.rules();
  std::vector<RuleFate> fates(n, RuleFate::kKept);
  std::vector<int32_t> literals_removed(n, 0);
  std::vector<bool> alive(n, true);
  // The intensional mask of the *input*: a predicate that loses its rules
  // during minimization stays logically intensional (empty extent), never
  // a tree-EDB predicate.
  const std::vector<bool> intensional = program.IntensionalMask();

  std::vector<PredId> roots = options.roots;
  if (roots.empty() && program.query_pred() >= 0) {
    roots.push_back(program.query_pred());
  }

  auto kill = [&](size_t i, RuleFate why) {
    alive[i] = false;
    fates[i] = why;
  };

  bool changed = true;
  while (changed) {
    changed = false;

    // 1. Tree-axiom unsatisfiable bodies.
    for (size_t i = 0; i < n; ++i) {
      if (alive[i] && BodyUnsatOnTrees(program, rules[i], intensional)) {
        kill(i, RuleFate::kUnsatBody);
        changed = true;
      }
    }

    // 2. Underivable bodies — over the current rule set, so removing a
    // predicate's last rule cascades.
    Program current = BuildProgram(program, rules, alive);
    std::vector<bool> derivable = core::DerivablePreds(current);
    // Predicates intensional in the input but extensional in `current`
    // (all rules gone) are empty, not EDB.
    for (size_t p = 0; p < derivable.size(); ++p) {
      if (intensional[p]) {
        bool has_rule = false;
        for (size_t i = 0; i < n && !has_rule; ++i) {
          has_rule = alive[i] && rules[i].head.pred == static_cast<PredId>(p);
        }
        if (!has_rule) derivable[p] = false;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      for (const Atom& a : rules[i].body) {
        if (!derivable[a.pred]) {
          kill(i, RuleFate::kUnderivableBody);
          changed = true;
          break;
        }
      }
    }

    // 3. Heads that no root predicate depends on.
    if (options.remove_unreachable && !roots.empty()) {
      current = BuildProgram(program, rules, alive);
      std::vector<bool> reachable = core::ReachablePreds(current, roots);
      for (size_t i = 0; i < n; ++i) {
        if (alive[i] && !reachable[rules[i].head.pred]) {
          kill(i, RuleFate::kUnreachable);
          changed = true;
        }
      }
    }

    // 4. Redundant literals within each surviving rule.
    if (options.condense_literals) {
      for (size_t i = 0; i < n; ++i) {
        if (!alive[i]) continue;
        int32_t removed = CondenseRule(&rules[i]);
        if (removed > 0) {
          literals_removed[i] += removed;
          changed = true;
        }
      }
    }

    // 5. Exact duplicates (first occurrence wins).
    {
      std::unordered_set<std::string> seen;
      for (size_t i = 0; i < n; ++i) {
        if (!alive[i]) continue;
        if (!seen.insert(RuleKey(rules[i])).second) {
          kill(i, RuleFate::kDuplicate);
          changed = true;
        }
      }
    }

    // 6. θ-subsumed rules. Earlier rules win ties, so two rules that
    // subsume each other (renamings) keep exactly one.
    if (options.remove_subsumed) {
      for (size_t i = 0; i < n; ++i) {
        if (!alive[i]) continue;
        for (size_t j = 0; j < n; ++j) {
          if (i == j || !alive[j]) continue;
          if (rules[i].head.pred != rules[j].head.pred) continue;
          if (Subsumes(rules[i], rules[j])) {
            kill(j, RuleFate::kSubsumed);
            changed = true;
          }
        }
      }
    }
  }

  MinimizeResult result;
  result.program = BuildProgram(program, rules, alive);
  result.fates = std::move(fates);
  result.literals_removed = std::move(literals_removed);

  if (options.verify) {
    if (roots.empty()) {
      return util::Status::InvalidArgument(
          "Minimize verification needs a query predicate or explicit roots");
    }
    MD_RETURN_NOT_OK(VerifyEquivalentOnRoots(program, result.program, roots,
                                             options.verify_options,
                                             &result.verified));
  }
  return result;
}

}  // namespace mdatalog::analysis

#include "src/core/validate.h"

#include <algorithm>
#include <functional>
#include <set>

#include "src/core/tree_schema.h"

namespace mdatalog::core {

util::Status CheckSafety(const Program& program) {
  for (const Rule& r : program.rules()) {
    std::vector<bool> in_body(r.num_vars(), false);
    for (const Atom& a : r.body) {
      for (const Term& t : a.args) {
        if (t.is_var()) in_body[t.value] = true;
      }
    }
    for (const Term& t : r.head.args) {
      if (t.is_var() && !in_body[t.value]) {
        return util::Status::InvalidArgument(
            "unsafe rule (head variable '" + r.var_names[t.value] +
            "' not in body): " + ToString(program, r));
      }
    }
  }
  return util::Status::OK();
}

util::Status CheckMonadic(const Program& program) {
  std::vector<bool> intensional = program.IntensionalMask();
  for (PredId p = 0; p < program.preds().size(); ++p) {
    if (intensional[p] && program.preds().Arity(p) > 1) {
      return util::Status::InvalidArgument(
          "intensional predicate '" + program.preds().Name(p) +
          "' has arity " + std::to_string(program.preds().Arity(p)) +
          " (monadic datalog requires arity <= 1)");
    }
  }
  return util::Status::OK();
}

util::Status CheckTreeSignature(const Program& program, bool allow_extended) {
  constexpr SchemaSet kExtendedBinary{
      SchemaPred::kChild, SchemaPred::kLastChild, SchemaPred::kNextSiblingTc};
  std::vector<bool> intensional = program.IntensionalMask();
  for (const Rule& r : program.rules()) {
    for (const Atom& a : r.body) {
      if (intensional[a.pred]) continue;
      const std::string& name = program.preds().Name(a.pred);
      int32_t arity = program.preds().Arity(a.pred);
      const std::optional<SchemaRef> ref = ClassifySchemaPred(name, arity);
      if (!ref.has_value()) {
        return util::Status::InvalidArgument(
            "extensional predicate '" + name + "'/" + std::to_string(arity) +
            " is not a tree-schema predicate");
      }
      if (!allow_extended && kExtendedBinary.contains(ref->pred)) {
        return util::Status::InvalidArgument(
            "extensional predicate '" + name +
            "' requires the extended signature");
      }
    }
  }
  return util::Status::OK();
}

std::vector<std::string> ExtensionalPredNames(const Program& program) {
  std::vector<bool> intensional = program.IntensionalMask();
  std::set<std::string> names;
  for (const Rule& r : program.rules()) {
    for (const Atom& a : r.body) {
      if (!intensional[a.pred]) names.insert(program.preds().Name(a.pred));
    }
  }
  return std::vector<std::string>(names.begin(), names.end());
}

int32_t FindGuard(const Rule& rule) {
  std::set<VarId> all_vars;
  for (const Atom& a : rule.body) {
    for (const Term& t : a.args) {
      if (t.is_var()) all_vars.insert(t.value);
    }
  }
  for (size_t i = 0; i < rule.body.size(); ++i) {
    std::set<VarId> atom_vars;
    for (const Term& t : rule.body[i].args) {
      if (t.is_var()) atom_vars.insert(t.value);
    }
    if (atom_vars == all_vars) return static_cast<int32_t>(i);
  }
  return -1;
}

std::vector<int32_t> RuleVarComponents(const Program& program,
                                       const Rule& rule) {
  (void)program;
  int32_t n = rule.num_vars();
  std::vector<int32_t> parent(n);
  for (int32_t i = 0; i < n; ++i) parent[i] = i;
  std::function<int32_t(int32_t)> find = [&](int32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const Atom& a : rule.body) {
    if (a.args.size() != 2) continue;
    if (a.args[0].is_var() && a.args[1].is_var()) {
      int32_t ra = find(a.args[0].value), rb = find(a.args[1].value);
      if (ra != rb) parent[ra] = rb;
    }
  }
  // Renumber roots densely.
  std::vector<int32_t> comp(n, -1);
  int32_t next = 0;
  for (int32_t i = 0; i < n; ++i) {
    int32_t root = find(i);
    if (comp[root] < 0) comp[root] = next++;
    comp[i] = comp[root];
  }
  return comp;
}

bool IsConnectedRule(const Program& program, const Rule& rule) {
  if (rule.num_vars() <= 1) return true;
  std::vector<int32_t> comp = RuleVarComponents(program, rule);
  return *std::max_element(comp.begin(), comp.end()) == 0;
}

void PruneUnderivableRules(Program* program) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<bool> has_rule(program->preds().size(), false);
    for (const Rule& r : program->rules()) has_rule[r.head.pred] = true;
    std::vector<Rule> kept;
    for (Rule& r : program->mutable_rules()) {
      bool fireable = true;
      for (const Atom& a : r.body) {
        if (has_rule[a.pred]) continue;
        if (ClassifySchemaPred(program->preds().Name(a.pred),
                               static_cast<int32_t>(a.args.size()))) {
          continue;
        }
        fireable = false;
        break;
      }
      if (fireable) {
        kept.push_back(std::move(r));
      } else {
        changed = true;
      }
    }
    program->mutable_rules() = std::move(kept);
  }
}

bool IsDatalogLit(const Program& program) {
  for (const Rule& r : program.rules()) {
    bool all_monadic = true;
    for (const Atom& a : r.body) {
      if (a.args.size() > 1) all_monadic = false;
    }
    if (all_monadic) continue;
    if (FindGuard(r) < 0) return false;
  }
  return true;
}

}  // namespace mdatalog::core

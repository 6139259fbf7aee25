#include "src/core/grounder.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/core/database.h"
#include "src/core/tree_schema.h"
#include "src/core/validate.h"

namespace mdatalog::core {

namespace {

/// The EDB a groundable body may read: the unary predicates and the binary
/// relations functional in both directions (Proposition 4.1).
constexpr SchemaSet kGroundable = kUnarySchema | kFunctionalAxes;

}  // namespace

bool GroundableOverTree(const Program& program) {
  if (!CheckSafety(program).ok()) return false;
  if (!CheckMonadic(program).ok()) return false;
  std::vector<bool> intensional = program.IntensionalMask();
  for (const Rule& r : program.rules()) {
    for (const Atom& a : r.body) {
      if (intensional[a.pred]) continue;
      if (!kGroundable.contains(ClassifySchemaPred(
              program.preds().Name(a.pred), program.preds().Arity(a.pred)))) {
        return false;
      }
    }
  }
  return true;
}

/// The compiled, tree-independent form of a groundable program. Everything
/// here is derived from the program alone; evaluation replays it per tree.
struct GroundPlan::Impl {
  // Predicate metadata (copied — the plan outlives the source Program).
  int32_t num_preds = 0;
  PredId query_pred = -1;
  std::vector<bool> intensional;
  std::vector<int8_t> pred_arity;

  // Atom-id layout, statically assigned: unary IDB atoms occupy
  // [0, num_unary·n); nullary IDB atoms [num_unary·n, +num_nullary); bridge
  // atoms (connectedness split, proof step 1) [.., +num_bridges). Only the
  // unary block scales with the tree.
  std::vector<int32_t> unary_index;   // per pred, -1 or dense unary slot
  std::vector<int32_t> nullary_slot;  // per pred, -1 or dense nullary slot
  int32_t num_unary = 0;
  int32_t num_nullary = 0;
  int32_t num_bridges = 0;

  // Extensional classification, per EDB PredId. Label ids are interned per
  // tree, so the plan keeps the label *name* and each evaluation resolves it
  // once against its tree's alphabet (GroundArena::unary_labels).
  std::vector<SchemaRef> edb;

  /// One propagation step of a component schedule (spanning-tree assignment
  /// or consistency check, BFS order from the anchor).
  struct Step {
    bool assign;  // true: binding[to] = f(from); false: f(from) == binding[to]
    VarId from, to;
    Axis rel;
    bool forward;
  };

  /// The compiled schedule of one variable component of one rule.
  struct ComponentPlan {
    VarId anchor = -1;
    int32_t num_vars = 0;  // size of the component (for the BFS invariant)
    std::vector<Step> steps;
    std::vector<std::pair<PredId, VarId>> unary_checks;  // EDB arity-1
    std::vector<std::pair<PredId, VarId>> idb_lits;      // IDB arity-1
    std::vector<Atom> residual;  // constant-carrying binary EDB/IDB atoms
    int32_t bridge_slot = -1;    // >= 0 iff this is a bridge component
  };

  struct RulePlan {
    PredId head_pred = -1;
    bool head_has_arg = false;  // arity-1 head
    bool head_is_var = false;
    int32_t head_const = -1;  // when arity-1 head with a constant
    VarId head_var = -1;      // when arity-1 head with a variable
    int32_t num_vars = 0;
    std::vector<Atom> ground_atoms;  // variable-free body atoms
    std::vector<ComponentPlan> bridges;
    std::optional<ComponentPlan> head_comp;  // nullopt: const/nullary head
  };
  std::vector<RulePlan> rules;
};

GroundPlan::GroundPlan(std::unique_ptr<const Impl> impl)
    : impl_(std::move(impl)) {}
GroundPlan::GroundPlan(GroundPlan&&) noexcept = default;
GroundPlan& GroundPlan::operator=(GroundPlan&&) noexcept = default;
GroundPlan::~GroundPlan() = default;

namespace {

/// Compiles one variable component: atom partition + BFS schedule.
GroundPlan::Impl::ComponentPlan CompileComponent(
    const GroundPlan::Impl& plan, const Rule& rule,
    const std::vector<int32_t>& comp, int32_t c,
    const std::vector<const Atom*>& atoms) {
  GroundPlan::Impl::ComponentPlan out;

  std::vector<VarId> vars;
  for (VarId v = 0; v < rule.num_vars(); ++v) {
    if (comp[v] == c) vars.push_back(v);
  }
  MD_CHECK(!vars.empty());
  out.num_vars = static_cast<int32_t>(vars.size());
  out.anchor = vars[0];

  struct DirEdge {
    VarId from, to;
    Axis rel;
    bool forward;
    int32_t atom;
  };
  std::vector<std::vector<DirEdge>> adj(rule.num_vars());
  for (size_t ai = 0; ai < atoms.size(); ++ai) {
    const Atom* a = atoms[ai];
    if (plan.intensional[a->pred]) {
      // Monadic + in this component ⇒ one argument, and it is a variable.
      MD_DCHECK(a->args.size() == 1 && a->args[0].is_var());
      out.idb_lits.emplace_back(a->pred, a->args[0].value);
    } else if (a->args.size() == 1) {
      MD_DCHECK(a->args[0].is_var());
      out.unary_checks.emplace_back(a->pred, a->args[0].value);
    } else if (a->args[0].is_var() && a->args[1].is_var()) {
      const Axis kind{plan.edb[a->pred].pred, plan.edb[a->pred].k};
      VarId x = a->args[0].value, y = a->args[1].value;
      adj[x].push_back({x, y, kind, true, static_cast<int32_t>(ai)});
      adj[y].push_back({y, x, kind, false, static_cast<int32_t>(ai)});
    } else {
      out.residual.push_back(*a);
    }
  }

  // BFS from the anchor: spanning-tree assignments + consistency checks.
  // Each binary atom is validated exactly once (the tree relations are
  // injective partial functions, so the reverse direction needs no re-check).
  std::vector<bool> atom_done(atoms.size(), false);
  std::vector<bool> assigned(rule.num_vars(), false);
  assigned[out.anchor] = true;
  std::vector<VarId> queue{out.anchor};
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    for (const DirEdge& e : adj[queue[qi]]) {
      if (!assigned[e.to]) {
        out.steps.push_back({true, e.from, e.to, e.rel, e.forward});
        assigned[e.to] = true;
        atom_done[e.atom] = true;
        queue.push_back(e.to);
      } else if (!atom_done[e.atom]) {
        out.steps.push_back({false, e.from, e.to, e.rel, e.forward});
        atom_done[e.atom] = true;
      }
    }
  }
  MD_DCHECK(queue.size() == vars.size());  // component is connected
  return out;
}

}  // namespace

util::Result<GroundPlan> GroundPlan::Compile(const Program& program) {
  if (!GroundableOverTree(program)) {
    return util::Status::FailedPrecondition(
        "program not groundable over the functional tree schema; normalize "
        "with the TMNF pipeline or use the semi-naive engine");
  }
  auto impl = std::make_unique<Impl>();
  const PredicateTable& preds = program.preds();
  impl->num_preds = preds.size();
  impl->query_pred = program.query_pred();
  impl->intensional = program.IntensionalMask();
  impl->pred_arity.resize(preds.size());
  impl->edb.resize(preds.size());
  impl->unary_index.assign(preds.size(), -1);
  impl->nullary_slot.assign(preds.size(), -1);

  for (PredId p = 0; p < preds.size(); ++p) {
    impl->pred_arity[p] = static_cast<int8_t>(preds.Arity(p));
    if (impl->intensional[p]) {
      if (preds.Arity(p) == 1) {
        impl->unary_index[p] = impl->num_unary++;
      } else {
        impl->nullary_slot[p] = impl->num_nullary++;
      }
      continue;
    }
    // Extensional classification. Unclassifiable predicates never occur in a
    // body of a groundable program, so their specs are never read.
    std::optional<SchemaRef> ref = ClassifySchemaPred(preds.Name(p),
                                                      preds.Arity(p));
    if (ref.has_value()) impl->edb[p] = std::move(*ref);
  }

  // Per-rule compilation (proof steps 1–2 of Theorem 4.2, program side).
  for (const Rule& rule : program.rules()) {
    Impl::RulePlan rp;
    rp.head_pred = rule.head.pred;
    rp.num_vars = rule.num_vars();
    if (!rule.head.args.empty()) {
      rp.head_has_arg = true;
      rp.head_is_var = rule.head.args[0].is_var();
      if (rp.head_is_var) {
        rp.head_var = rule.head.args[0].value;
      } else {
        rp.head_const = rule.head.args[0].value;
      }
    }

    std::vector<int32_t> comp = RuleVarComponents(program, rule);
    int32_t num_comps =
        rule.num_vars() == 0
            ? 0
            : 1 + *std::max_element(comp.begin(), comp.end());
    int32_t head_comp = -1;
    if (rp.head_has_arg && rp.head_is_var) head_comp = comp[rp.head_var];

    std::vector<std::vector<const Atom*>> comp_atoms(num_comps);
    for (const Atom& a : rule.body) {
      int32_t c = -1;
      for (const Term& t : a.args) {
        if (t.is_var()) {
          c = comp[t.value];
          break;
        }
      }
      if (c < 0) {
        rp.ground_atoms.push_back(a);
      } else {
        comp_atoms[c].push_back(&a);
      }
    }

    for (int32_t c = 0; c < num_comps; ++c) {
      Impl::ComponentPlan cp =
          CompileComponent(*impl, rule, comp, c, comp_atoms[c]);
      if (c == head_comp) {
        rp.head_comp = std::move(cp);
      } else {
        cp.bridge_slot = impl->num_bridges++;
        rp.bridges.push_back(std::move(cp));
      }
    }
    impl->rules.push_back(std::move(rp));
  }
  return GroundPlan(std::move(impl));
}

/// Per-tree replay of a GroundPlan: grounds every rule by schedule replay,
/// emits clauses into the arena, solves, and assembles the EvalResult.
/// (Named GroundedEvaluator to keep the EvalResult friendship.)
class GroundedEvaluator {
 public:
  GroundedEvaluator(const GroundPlan::Impl& plan, const tree::Tree& t,
                    GroundArena& arena, const util::EvalControl* control)
      : plan_(plan), tree_(t), arena_(arena), control_(control),
        ticker_(control), n_(t.size()) {}

  util::Result<EvalResult> Run(GroundStats* stats) {
    // Fast-fail: a request already past its bounds (queue delay, slow parse)
    // must not ground anything. Also makes expiry deterministic for trees
    // smaller than the ticker stride.
    if (control_ != nullptr) MD_RETURN_NOT_OK(control_->Check());
    arena_.flat.Clear();
    nullary_base_ = plan_.num_unary * n_;
    bridge_base_ = nullary_base_ + plan_.num_nullary;
    arena_.flat.num_atoms = bridge_base_ + plan_.num_bridges;

    // Per-tree label resolution: the only tree-dependent compile work. A
    // label absent from this tree's alphabet resolves to kInvalidSymbol,
    // which no node carries — the empty relation of Remark 2.2.
    arena_.unary_labels.assign(plan_.num_preds, util::kInvalidSymbol);
    for (PredId p = 0; p < plan_.num_preds; ++p) {
      if (!plan_.intensional[p] && plan_.pred_arity[p] == 1 &&
          plan_.edb[p].pred == SchemaPred::kLabel) {
        arena_.unary_labels[p] = tree_.FindLabel(plan_.edb[p].label);
      }
    }

    // Grounding sweep: each rule replays its schedule over all anchor nodes,
    // ticking the deadline poll per node; the sweep unwinds mid-rule when it
    // fires. The Horn solve below polls its own propagation queue.
    for (const GroundPlan::Impl::RulePlan& rp : plan_.rules) {
      GroundRule(rp);
      if (aborted_) return abort_status_;
    }

    MD_RETURN_NOT_OK(SolveHornBounded(arena_.flat, &arena_.horn, control_));
    const std::vector<bool>& model = arena_.horn.value;

    EvalResult result;
    result.query_pred_ = plan_.query_pred;
    result.facts_.resize(plan_.num_preds);
    for (PredId p = 0; p < plan_.num_preds; ++p) {
      if (!plan_.intensional[p]) continue;
      EvalResult::PredFacts& f = result.facts_[p];
      if (plan_.pred_arity[p] == 1) {
        NodeSet members(std::max(n_, 1));
        const int32_t base = plan_.unary_index[p] * n_;
        for (tree::NodeId node = 0; node < n_; ++node) {
          if (model[base + node]) {
            members.Insert(node);
            ++result.num_derived_;
          }
        }
        if (!members.empty()) {
          f.arity = 1;
          f.unary = std::move(members);
        }
      } else {
        if (model[nullary_base_ + plan_.nullary_slot[p]]) {
          f.arity = 0;
          f.nullary_true = true;
          ++result.num_derived_;
        }
      }
    }
    result.num_iterations_ = 1;
    if (stats != nullptr) {
      stats->num_clauses = arena_.flat.num_clauses();
      stats->num_atoms = arena_.flat.num_atoms;
      stats->num_literals = arena_.flat.NumLiterals();
    }
    return result;
  }

 private:
  int32_t UnaryAtomId(PredId p, tree::NodeId node) const {
    MD_DCHECK(plan_.unary_index[p] >= 0);
    return plan_.unary_index[p] * n_ + node;
  }
  int32_t NullaryAtomId(PredId p) const {
    MD_DCHECK(plan_.nullary_slot[p] >= 0);
    return nullary_base_ + plan_.nullary_slot[p];
  }

  void GroundRule(const GroundPlan::Impl::RulePlan& rp) {
    // Grounding of the fully ground part: EDB atoms checked now; IDB atoms
    // become Horn literals shared by every instantiation.
    arena_.shared_body.clear();
    for (const Atom& a : rp.ground_atoms) {
      if (!EmitGroundAtom(a, nullptr, &arena_.shared_body)) return;
    }

    // Bridge components, then (head atoms are statically assigned) the
    // bridge literals join the shared body of the main part.
    for (const GroundPlan::Impl::ComponentPlan& cp : rp.bridges) {
      GroundComponent(rp, cp, /*head_pred=*/-1,
                      bridge_base_ + cp.bridge_slot, /*extra_body=*/{});
      if (aborted_) return;
      arena_.shared_body.push_back(bridge_base_ + cp.bridge_slot);
    }

    if (rp.head_comp.has_value()) {
      GroundComponent(rp, *rp.head_comp, rp.head_pred, /*fixed_head_atom=*/-1,
                      arena_.shared_body);
    } else {
      // Ground or propositional head: a single clause.
      int32_t head_atom;
      if (!rp.head_has_arg) {
        head_atom = NullaryAtomId(rp.head_pred);
      } else {
        if (rp.head_const < 0 || rp.head_const >= n_) return;
        head_atom = UnaryAtomId(rp.head_pred, rp.head_const);
      }
      arena_.flat.body_lits.insert(arena_.flat.body_lits.end(),
                                   arena_.shared_body.begin(),
                                   arena_.shared_body.end());
      arena_.flat.Commit(head_atom);
    }
  }

  /// Replays one component schedule over all anchor nodes. If head_pred >= 0,
  /// emits clauses with head head_pred(binding of the rule's head variable);
  /// otherwise with the fixed (bridge) head atom. `extra_body` is copied into
  /// every emitted clause. Note: `extra_body` must not alias arena_ buffers
  /// that this function mutates (it only appends to flat.body_lits, which is
  /// disjoint from shared_body).
  void GroundComponent(const GroundPlan::Impl::RulePlan& rp,
                       const GroundPlan::Impl::ComponentPlan& cp,
                       PredId head_pred, int32_t fixed_head_atom,
                       const std::vector<int32_t>& extra_body) {
    FlatHornInstance& flat = arena_.flat;
    std::vector<tree::NodeId>& binding = arena_.binding;
    binding.assign(std::max(rp.num_vars, 1), tree::kNoNode);

    for (tree::NodeId node = 0; node < n_; ++node) {
      if (ticker_.active()) {
        util::Status s = ticker_.Tick();
        if (!s.ok()) {
          aborted_ = true;
          abort_status_ = std::move(s);
          return;
        }
      }
      binding[cp.anchor] = node;
      bool failed = false;
      for (const GroundPlan::Impl::Step& s : cp.steps) {
        const tree::NodeId target =
            s.forward ? Forward(tree_, s.rel, binding[s.from])
                      : Backward(tree_, s.rel, binding[s.from]);
        if (s.assign) {
          if (target == tree::kNoNode) {
            failed = true;
            break;
          }
          binding[s.to] = target;
        } else if (target != binding[s.to]) {
          failed = true;
          break;
        }
      }
      if (failed) continue;
      for (const auto& [p, v] : cp.unary_checks) {
        if (!Holds(tree_, plan_.edb[p].pred, arena_.unary_labels[p],
                   binding[v])) {
          failed = true;
          break;
        }
      }
      if (failed) continue;
      for (const Atom& a : cp.residual) {
        arena_.residual_body.clear();
        if (!EmitGroundAtom(a, &binding, &arena_.residual_body)) {
          failed = true;
          break;
        }
        // Residual atoms are EDB-only (CompileComponent routes intensional
        // atoms to idb_lits), so EmitGroundAtom must emit no literals here —
        // anything it pushed would be silently dropped from the clause.
        MD_DCHECK(arena_.residual_body.empty());
      }
      if (failed) continue;

      // Emit the clause straight into the flat arena.
      flat.body_lits.insert(flat.body_lits.end(), extra_body.begin(),
                            extra_body.end());
      for (const auto& [p, v] : cp.idb_lits) {
        flat.body_lits.push_back(UnaryAtomId(p, binding[v]));
      }
      flat.Commit(head_pred >= 0 ? UnaryAtomId(head_pred, binding[rp.head_var])
                                 : fixed_head_atom);
    }
  }

  /// For a (now fully bound) body atom: checks EDB atoms against the tree
  /// (returning false if violated) and appends IDB atoms to `body`.
  /// `binding` may be nullptr for atoms without variables.
  bool EmitGroundAtom(const Atom& a, const std::vector<tree::NodeId>* binding,
                      std::vector<int32_t>* body) {
    auto value_of = [&](const Term& t) -> int32_t {
      if (t.is_var()) {
        MD_CHECK(binding != nullptr);
        return (*binding)[t.value];
      }
      return t.value;
    };
    if (plan_.intensional[a.pred]) {
      if (a.args.empty()) {
        body->push_back(NullaryAtomId(a.pred));
      } else {
        int32_t v = value_of(a.args[0]);
        if (v < 0 || v >= n_) return false;
        body->push_back(UnaryAtomId(a.pred, v));
      }
      return true;
    }
    if (a.args.size() == 1) {
      int32_t v = value_of(a.args[0]);
      if (v < 0 || v >= n_) return false;
      return Holds(tree_, plan_.edb[a.pred].pred, arena_.unary_labels[a.pred],
                   v);
    }
    MD_CHECK(a.args.size() == 2);
    int32_t x = value_of(a.args[0]);
    int32_t y = value_of(a.args[1]);
    if (x < 0 || x >= n_ || y < 0 || y >= n_) return false;
    const SchemaRef& rel = plan_.edb[a.pred];
    return Forward(tree_, {rel.pred, rel.k}, x) == y;
  }

  const GroundPlan::Impl& plan_;
  const tree::Tree& tree_;
  GroundArena& arena_;
  const util::EvalControl* control_;
  util::EvalTicker ticker_;
  bool aborted_ = false;
  util::Status abort_status_ = util::Status::OK();
  int32_t n_;
  int32_t nullary_base_ = 0;
  int32_t bridge_base_ = 0;
};

util::Result<EvalResult> EvaluateGrounded(const GroundPlan& plan,
                                          const tree::Tree& t,
                                          GroundArena* arena,
                                          GroundStats* stats,
                                          const util::EvalControl* control) {
  GroundArena local;
  GroundedEvaluator evaluator(*plan.impl_, t,
                              arena != nullptr ? *arena : local, control);
  return evaluator.Run(stats);
}

util::Result<EvalResult> EvaluateGrounded(const Program& program,
                                          const tree::Tree& t,
                                          GroundStats* stats) {
  MD_ASSIGN_OR_RETURN(GroundPlan plan, GroundPlan::Compile(program));
  return EvaluateGrounded(plan, t, nullptr, stats);
}

util::Result<EvalResult> EvaluateOnTree(const Program& program,
                                        const tree::Tree& t, Engine engine,
                                        const EvalOptions& options) {
  switch (engine) {
    case Engine::kGrounded:
      return EvaluateGrounded(program, t);
    case Engine::kAuto:
      if (GroundableOverTree(program)) return EvaluateGrounded(program, t);
      [[fallthrough]];
    case Engine::kSemiNaive: {
      TreeDatabase db(t);
      return EvaluateSemiNaive(program, db, options);
    }
    case Engine::kNaive: {
      TreeDatabase db(t);
      return EvaluateNaive(program, db, options);
    }
  }
  return util::Status::Internal("unknown engine");
}

}  // namespace mdatalog::core

#include "src/analysis/containment.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/analysis/sat_solver.h"
#include "src/analysis/tmnf_view.h"
#include "src/core/database.h"
#include "src/core/eval.h"
#include "src/telemetry/trace.h"
#include "src/tree/binary.h"
#include "src/util/check.h"

namespace mdatalog::analysis {

namespace {

/// Hard cap on template size: depth/branch bounds past this are an encoding
/// the caller should not be asking for (the SAT instance would be the
/// bottleneck long before the cap bites on sensible bounds).
constexpr int32_t kMaxTemplateNodes = 4096;

/// One slot of the complete max_branch-ary tree template. Fields are slot
/// indices (-1 = no such slot).
struct TemplateNode {
  int32_t parent = -1;
  int32_t depth = 0;
  int32_t child_index = 0;
  int32_t first_child = -1;
  int32_t prev_sibling = -1;
  int32_t next_sibling = -1;
};

util::Result<std::vector<TemplateNode>> BuildTemplate(int32_t depth,
                                                      int32_t branch) {
  std::vector<TemplateNode> nodes(1);
  for (size_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].depth >= depth) continue;
    if (static_cast<int64_t>(nodes.size()) + branch > kMaxTemplateNodes) {
      return util::Status::InvalidArgument(
          "containment bounds exceed the " +
          std::to_string(kMaxTemplateNodes) + "-node template cap");
    }
    const int32_t first = static_cast<int32_t>(nodes.size());
    nodes[n].first_child = first;
    for (int32_t k = 0; k < branch; ++k) {
      TemplateNode c;
      c.parent = static_cast<int32_t>(n);
      c.depth = nodes[n].depth + 1;
      c.child_index = k;
      c.prev_sibling = k > 0 ? first + k - 1 : -1;
      c.next_sibling = k + 1 < branch ? first + k + 1 : -1;
      nodes.push_back(c);
    }
  }
  return nodes;
}

/// A body-literal truth value: a compile-time constant or a solver literal.
struct MaybeLit {
  bool is_const = false;
  bool const_val = false;
  Lit lit = 0;

  static MaybeLit Const(bool v) { return {true, v, 0}; }
  static MaybeLit Of(Lit l) { return {false, false, l}; }
};

/// Asserts cond → (x < y) over equal-width unsigned bit vectors (MSB first),
/// with a one-sided chain: ~3 clauses and one auxiliary variable per bit.
void AddLessThan(SatSolver& sat, const std::vector<Lit>& x,
                 const std::vector<Lit>& y, Lit cond) {
  MD_CHECK(x.size() == y.size() && !x.empty());
  Lit d = cond;  // "prefix equal so far, comparison still undecided"
  for (size_t i = 0; i < x.size(); ++i) {
    sat.AddTernary(-d, -x[i], y[i]);  // no x_i > y_i while undecided
    Lit dn = sat.NewVar();
    sat.AddClause({-d, -x[i], -y[i], dn});  // both 1: still equal
    sat.AddClause({-d, x[i], y[i], dn});    // both 0: still equal
    d = dn;
  }
  sat.AddUnit(-d);  // all bits equal ⇒ not strictly less
}

/// The full encoding for one Contains(P, Q) call. Variables:
///   e[n]        node n of the template exists
///   lab[n][a]   node n carries alphabet symbol a (exactly one per node)
///   t[i][n]     P's IDB i holds at n, with an acyclic support (≤ least model)
///   lv[i][n][b] support level of t[i][n], binary MSB-first
///   u[j][n]     Q's IDB j holds at n in a Q-closed model (⊇ least model)
///   w[n]        n is the counterexample witness
class Encoder {
 public:
  Encoder(const std::vector<TemplateNode>& tmpl, const TmnfView& p,
          const TmnfView& q, int32_t num_symbols)
      : tmpl_(tmpl), p_(p), q_(q), num_symbols_(num_symbols) {}

  void Encode() {
    AllocVars();
    EncodeStructure();
    EncodeClosure();
    EncodeSupport();
    EncodeWitness();
  }

  SatSolver& sat() { return sat_; }
  const SatSolver& sat() const { return sat_; }
  Lit e(int32_t n) const { return e_[n]; }
  Lit lab(int32_t n, int32_t a) const {
    return lab_[static_cast<size_t>(n) * num_symbols_ + a];
  }
  Lit w(int32_t n) const { return w_[n]; }

 private:
  void AllocVars() {
    const int32_t n_nodes = static_cast<int32_t>(tmpl_.size());
    for (int32_t n = 0; n < n_nodes; ++n) e_.push_back(sat_.NewVar());
    for (int32_t n = 0; n < n_nodes; ++n) {
      for (int32_t a = 0; a < num_symbols_; ++a) lab_.push_back(sat_.NewVar());
    }
    t_.resize(p_.num_idb());
    for (auto& row : t_) {
      for (int32_t n = 0; n < n_nodes; ++n) row.push_back(sat_.NewVar());
    }
    // Level width: ranks of a least-model derivation are bounded by the
    // number of derivable (pred, node) pairs.
    int64_t max_rank = static_cast<int64_t>(p_.num_idb()) * n_nodes + 1;
    int32_t bits = 1;
    while ((int64_t{1} << bits) <= max_rank) ++bits;
    lv_.resize(p_.num_idb());
    for (auto& row : lv_) {
      row.resize(n_nodes);
      for (auto& node_bits : row) {
        for (int32_t b = 0; b < bits; ++b) node_bits.push_back(sat_.NewVar());
      }
    }
    u_.resize(q_.num_idb());
    for (auto& row : u_) {
      for (int32_t n = 0; n < n_nodes; ++n) row.push_back(sat_.NewVar());
    }
    for (int32_t n = 0; n < n_nodes; ++n) w_.push_back(sat_.NewVar());
  }

  void EncodeStructure() {
    sat_.AddUnit(e_[0]);  // trees are nonempty; the root always exists
    for (size_t n = 1; n < tmpl_.size(); ++n) {
      const TemplateNode& node = tmpl_[n];
      sat_.AddBinary(-e_[n], e_[node.parent]);
      if (node.prev_sibling >= 0) {
        // Children fill left slots first — the canonical embedding.
        sat_.AddBinary(-e_[n], e_[node.prev_sibling]);
      }
    }
    // Exactly one symbol per existing node; no symbols on absent nodes.
    std::vector<Lit> at_least_one;
    for (size_t n = 0; n < tmpl_.size(); ++n) {
      at_least_one.clear();
      at_least_one.push_back(-e_[n]);
      for (int32_t a = 0; a < num_symbols_; ++a) {
        const Lit la = lab(static_cast<int32_t>(n), a);
        at_least_one.push_back(la);
        sat_.AddBinary(-la, e_[n]);
        for (int32_t b = a + 1; b < num_symbols_; ++b) {
          sat_.AddBinary(-la, -lab(static_cast<int32_t>(n), b));
        }
      }
      sat_.AddClause(at_least_one);
    }
  }

  /// Truth of a τ_ur unary EDB test at template node n. Exact for existing
  /// nodes; values at absent nodes never influence existing ones (every
  /// structural step carries an existence literal).
  MaybeLit EdbTruth(const EdbRef& ref, int32_t n) const {
    const TemplateNode& node = tmpl_[n];
    switch (ref.kind) {
      case EdbRef::Kind::kRoot:
        return MaybeLit::Const(n == 0);
      case EdbRef::Kind::kLeaf:
        return node.first_child < 0 ? MaybeLit::Const(true)
                                    : MaybeLit::Of(-e_[node.first_child]);
      case EdbRef::Kind::kLastSibling:
        // The root is not a last sibling (Section 2).
        if (n == 0) return MaybeLit::Const(false);
        return node.next_sibling < 0 ? MaybeLit::Const(true)
                                     : MaybeLit::Of(-e_[node.next_sibling]);
      case EdbRef::Kind::kFirstSibling:
        // Not the root; otherwise a template constant — children pack left,
        // so slot 0 never has a previous sibling and later slots always do.
        return MaybeLit::Const(n != 0 && node.child_index == 0);
      case EdbRef::Kind::kLabel:
        return MaybeLit::Of(lab(n, ref.label));
    }
    return MaybeLit::Const(false);
  }

  MaybeLit OperandTruthQ(const OperandRef& op, int32_t n) const {
    return op.is_edb ? EdbTruth(op.edb, n) : MaybeLit::Of(u_[op.idb][n]);
  }

  /// The support node of a kStep rule at head node n, and the existence
  /// literal that makes the structural edge real. Returns false when the
  /// template has no such edge at n.
  bool StepSupport(StepDir dir, int32_t n, int32_t* m, Lit* rel) const {
    const TemplateNode& node = tmpl_[n];
    switch (dir) {
      case StepDir::kFromParent:  // firstchild(u, v): v is a first child
        if (node.parent < 0 || node.child_index != 0) return false;
        *m = node.parent;
        *rel = e_[n];
        return true;
      case StepDir::kFromPrevSibling:  // nextsibling(u, v)
        if (node.prev_sibling < 0) return false;
        *m = node.prev_sibling;
        *rel = e_[n];
        return true;
      case StepDir::kFromFirstChild:  // firstchild(v, u)
        if (node.first_child < 0) return false;
        *m = node.first_child;
        *rel = e_[node.first_child];
        return true;
      case StepDir::kFromNextSibling:  // nextsibling(v, u)
        if (node.next_sibling < 0) return false;
        *m = node.next_sibling;
        *rel = e_[node.next_sibling];
        return true;
    }
    return false;
  }

  /// Q as closure: every rule instance over the template is an implication
  /// clause body → head, so models are exactly the Q-closed supersets of the
  /// least model on the realized tree.
  void EncodeClosure() {
    std::vector<Lit> clause;
    for (const TmnfRuleView& r : q_.rules) {
      for (size_t n = 0; n < tmpl_.size(); ++n) {
        const int32_t ni = static_cast<int32_t>(n);
        clause.clear();
        bool dead = false;
        auto push_body = [&](const MaybeLit& ml) {
          if (ml.is_const) {
            if (!ml.const_val) dead = true;
          } else {
            clause.push_back(-ml.lit);
          }
        };
        if (r.kind == TmnfRuleView::Kind::kStep) {
          int32_t m;
          Lit rel;
          if (!StepSupport(r.dir, ni, &m, &rel)) continue;
          clause.push_back(-rel);
          push_body(OperandTruthQ(r.op0, m));
        } else {
          push_body(OperandTruthQ(r.op0, ni));
          if (r.kind == TmnfRuleView::Kind::kAnd) {
            push_body(OperandTruthQ(r.op1, ni));
          }
        }
        if (dead) continue;
        clause.push_back(u_[r.head][ni]);
        sat_.AddClause(clause);
      }
    }
  }

  /// P as acyclic support: t[i][n] must select some rule instance whose IDB
  /// body atoms hold at strictly smaller levels — true atoms are therefore
  /// exactly derivable atoms (⊆ least model), with no round unrolling.
  void EncodeSupport() {
    // options[i][n] collects the selector literals for head i at node n.
    std::vector<std::vector<std::vector<Lit>>> options(
        p_.num_idb(), std::vector<std::vector<Lit>>(tmpl_.size()));
    for (const TmnfRuleView& r : p_.rules) {
      for (size_t n = 0; n < tmpl_.size(); ++n) {
        const int32_t ni = static_cast<int32_t>(n);
        int32_t body_node = ni;
        Lit rel = 0;
        if (r.kind == TmnfRuleView::Kind::kStep) {
          if (!StepSupport(r.dir, ni, &body_node, &rel)) continue;
        }
        // Gather the option's conditions; drop the option on const-false.
        bool dead = false;
        std::vector<Lit> conds;
        std::vector<int32_t> idb_bodies;  // IDB operands needing levels
        std::vector<int32_t> idb_nodes;
        auto add_operand = [&](const OperandRef& op, int32_t at) {
          if (op.is_edb) {
            MaybeLit ml = EdbTruth(op.edb, at);
            if (ml.is_const) {
              if (!ml.const_val) dead = true;
            } else {
              conds.push_back(ml.lit);
            }
          } else {
            idb_bodies.push_back(op.idb);
            idb_nodes.push_back(at);
          }
        };
        if (rel != 0) conds.push_back(rel);
        add_operand(r.op0, body_node);
        if (r.kind == TmnfRuleView::Kind::kAnd) add_operand(r.op1, ni);
        if (dead) continue;

        const Lit sel = sat_.NewVar();
        for (Lit c : conds) sat_.AddBinary(-sel, c);
        for (size_t k = 0; k < idb_bodies.size(); ++k) {
          sat_.AddBinary(-sel, t_[idb_bodies[k]][idb_nodes[k]]);
          AddLessThan(sat_, lv_[idb_bodies[k]][idb_nodes[k]],
                      lv_[r.head][ni], sel);
        }
        options[r.head][n].push_back(sel);
      }
    }
    std::vector<Lit> clause;
    for (int32_t i = 0; i < p_.num_idb(); ++i) {
      for (size_t n = 0; n < tmpl_.size(); ++n) {
        clause.clear();
        clause.push_back(-t_[i][n]);
        for (Lit sel : options[i][n]) clause.push_back(sel);
        sat_.AddClause(clause);
      }
    }
  }

  void EncodeWitness() {
    std::vector<Lit> some_witness;
    for (size_t n = 0; n < tmpl_.size(); ++n) {
      const int32_t ni = static_cast<int32_t>(n);
      some_witness.push_back(w_[n]);
      sat_.AddBinary(-w_[n], e_[n]);
      sat_.AddBinary(-w_[n], t_[p_.query][ni]);
      sat_.AddBinary(-w_[n], -u_[q_.query][ni]);
    }
    sat_.AddClause(some_witness);
  }

  const std::vector<TemplateNode>& tmpl_;
  const TmnfView& p_;
  const TmnfView& q_;
  const int32_t num_symbols_;

  SatSolver sat_;
  std::vector<Lit> e_;
  std::vector<Lit> lab_;
  std::vector<std::vector<Lit>> t_;
  std::vector<std::vector<std::vector<Lit>>> lv_;
  std::vector<std::vector<Lit>> u_;
  std::vector<Lit> w_;
};

/// Decodes the model into a real tree; `node_map[n]` gets the NodeId of
/// template node n (-1 if absent).
tree::Tree DecodeTree(const Encoder& enc, const std::vector<TemplateNode>& tmpl,
                      const std::vector<std::string>& symbols,
                      std::vector<tree::NodeId>* node_map) {
  const SatSolver& sat = enc.sat();
  node_map->assign(tmpl.size(), tree::kNoNode);
  auto symbol_of = [&](int32_t n) -> const std::string& {
    for (size_t a = 0; a < symbols.size(); ++a) {
      if (sat.ModelValue(enc.lab(n, static_cast<int32_t>(a)))) {
        return symbols[a];
      }
    }
    return symbols.back();  // unreachable under exactly-one; defensive
  };
  // Template ids are BFS order. Existence is closed under parents and
  // left-packed among siblings, so present links reach every present node.
  const auto present = [&](int32_t n) {
    return n >= 0 && sat.ModelValue(enc.e(n)) ? n : tree::kNoNode;
  };
  tree::NodeId next_id = 0;
  return tree::DecodeFirstChildNextSibling(
      0, [&](int32_t n) { return present(tmpl[n].first_child); },
      [&](int32_t n) { return present(tmpl[n].next_sibling); },
      [&](int32_t n) -> const std::string& {
        (*node_map)[n] = next_id++;
        return symbol_of(n);
      });
}

util::Status VerifyWitness(const core::Program& p, const core::Program& q,
                           const tree::Tree& t, tree::NodeId v) {
  core::TreeDatabase db(t);
  MD_ASSIGN_OR_RETURN(core::EvalResult pr, core::EvaluateSemiNaive(p, db));
  MD_ASSIGN_OR_RETURN(core::EvalResult qr, core::EvaluateSemiNaive(q, db));
  if (!pr.ContainsUnary(p.query_pred(), v)) {
    return util::Status::Internal(
        "containment encoder bug: witness not derived by P on the decoded "
        "tree");
  }
  if (qr.ContainsUnary(q.query_pred(), v)) {
    return util::Status::Internal(
        "containment encoder bug: witness derived by Q on the decoded tree");
  }
  return util::Status::OK();
}

void FillStats(const SatSolver& sat, ContainmentResult* out) {
  out->conflicts = sat.conflicts();
  out->decisions = sat.decisions();
  out->propagations = sat.propagations();
  out->num_clauses = sat.num_clauses();
  out->num_vars = sat.num_vars();
}

}  // namespace

util::Result<ContainmentResult> Contains(const core::Program& p,
                                         const core::Program& q,
                                         const ContainmentOptions& options) {
  MD_ASSIGN_OR_RETURN(TmnfView pv, TmnfView::Parse(p));
  MD_ASSIGN_OR_RETURN(TmnfView qv, TmnfView::Parse(q));
  // One shared symbol space: both programs' labels, plus one fresh symbol
  // standing for every label neither mentions (Remark 2.2: unmentioned
  // labels are indistinguishable).
  std::vector<std::string> symbols;
  pv.RelabelInto(&symbols);
  qv.RelabelInto(&symbols);
  std::string other = "_other";
  while (std::find(symbols.begin(), symbols.end(), other) != symbols.end()) {
    other += '_';
  }
  symbols.push_back(other);

  const int32_t depth = std::max(options.max_depth, 0);
  const int32_t branch = std::max(options.max_branch, 1);
  MD_ASSIGN_OR_RETURN(std::vector<TemplateNode> tmpl,
                      BuildTemplate(depth, branch));

  Encoder enc(tmpl, pv, qv, static_cast<int32_t>(symbols.size()));
  enc.Encode();
  SatSolver& sat = enc.sat();

  ContainmentResult result;
  int64_t budget = options.max_conflicts;
  // Depth layering: solve under "no node deeper than d", shallowest first.
  // The encoding is built once; learned clauses persist across layers.
  for (int32_t d = 0; d <= depth; ++d) {
    std::vector<Lit> assumptions;
    for (size_t n = 0; n < tmpl.size(); ++n) {
      if (tmpl[n].depth > d) assumptions.push_back(-enc.e(static_cast<int32_t>(n)));
    }
    const int64_t before = sat.conflicts();
    const int64_t decisions_before = sat.decisions();
    SatSolver::Outcome outcome;
    {
      telemetry::TraceSpan span(telemetry::CurrentTrace(), "sat.solve");
      outcome = sat.Solve(assumptions, budget);
      if (span) {
        span.Value("depth", d);
        span.Value("conflicts", sat.conflicts() - before);
        span.Value("decisions", sat.decisions() - decisions_before);
      }
    }
    if (budget >= 0) budget = std::max<int64_t>(0, budget - (sat.conflicts() - before));
    if (outcome == SatSolver::Outcome::kUnknown ||
        (outcome != SatSolver::Outcome::kSat && budget == 0 && d < depth)) {
      result.verdict = Verdict::kUnknown;
      FillStats(sat, &result);
      return result;
    }
    if (outcome == SatSolver::Outcome::kUnsat) continue;

    // SAT: decode the tree, find the witness node, re-check for real.
    std::vector<tree::NodeId> node_map;
    tree::Tree witness = DecodeTree(enc, tmpl, symbols, &node_map);
    tree::NodeId v = tree::kNoNode;
    for (size_t n = 0; n < tmpl.size(); ++n) {
      if (sat.ModelValue(enc.w(static_cast<int32_t>(n)))) {
        v = node_map[n];
        break;
      }
    }
    MD_CHECK(v != tree::kNoNode);
    if (options.verify_witness) {
      MD_RETURN_NOT_OK(VerifyWitness(p, q, witness, v));
    }
    result.verdict = Verdict::kNotContained;
    result.witness_tree = std::move(witness);
    result.witness_node = v;
    result.witness_depth = d;
    FillStats(sat, &result);
    return result;
  }
  result.verdict = Verdict::kContained;
  FillStats(sat, &result);
  return result;
}

util::Result<EquivalenceResult> Equivalent(const core::Program& p,
                                           const core::Program& q,
                                           const ContainmentOptions& options) {
  EquivalenceResult eq;
  MD_ASSIGN_OR_RETURN(eq.forward, Contains(p, q, options));
  if (eq.forward.verdict == Verdict::kNotContained) {
    eq.verdict = Verdict::kNotContained;
    return eq;
  }
  ContainmentOptions back = options;
  if (back.max_conflicts >= 0) {
    back.max_conflicts = std::max<int64_t>(
        0, back.max_conflicts - eq.forward.conflicts);
  }
  MD_ASSIGN_OR_RETURN(eq.backward, Contains(q, p, back));
  if (eq.backward.verdict == Verdict::kNotContained) {
    eq.verdict = Verdict::kNotContained;
  } else if (eq.forward.verdict == Verdict::kContained &&
             eq.backward.verdict == Verdict::kContained) {
    eq.verdict = Verdict::kContained;
  } else {
    eq.verdict = Verdict::kUnknown;
  }
  return eq;
}

}  // namespace mdatalog::analysis

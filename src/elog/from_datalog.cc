#include "src/elog/from_datalog.h"

#include <set>

#include "src/core/tree_schema.h"
#include "src/tmnf/normal_form.h"
#include "src/tmnf/pipeline.h"
#include "src/util/check.h"

namespace mdatalog::elog {

namespace {

using core::Atom;
using core::PredId;
using core::Rule;

/// A unary predicate a TMNF body mentions: an intensional pattern, or one of
/// the unary schema predicates CheckTmnf admits (root, leaf, lastsibling,
/// label_<l>).
struct UnaryInfo {
  std::string pattern;  ///< the pattern name; empty for a schema predicate
  core::SchemaRef schema;
  bool Is(core::SchemaPred p) const {
    return pattern.empty() && schema.pred == p;
  }
};

class ElogTranslator {
 public:
  explicit ElogTranslator(const core::Program& tmnf)
      : tmnf_(tmnf), intensional_(tmnf.IntensionalMask()) {}

  util::Result<ElogProgram> Run() {
    EmitDomPattern();
    for (const Rule& rule : tmnf_.rules()) {
      MD_RETURN_NOT_OK(TranslateRule(rule));
    }
    EmitHelperPatterns();
    MD_RETURN_NOT_OK(ValidateElog(out_));
    return std::move(out_);
  }

 private:
  static constexpr const char* kDom = "__elogdom";

  static std::string LabelPattern(const std::string& label) {
    return "__lbl_" + label;
  }
  static std::string RootPattern() { return "__isroot"; }

  UnaryInfo ClassifyUnary(PredId pred) const {
    const std::string& name = tmnf_.preds().Name(pred);
    if (intensional_[pred]) return {name, {}};
    std::optional<core::SchemaRef> ref = core::ClassifySchemaPred(name, 1);
    MD_CHECK(core::kTmnfUnary.contains(ref));
    return {"", std::move(*ref)};
  }

  void EmitDomPattern() {
    ElogRule r1;  // dom(X) ← root(X).
    r1.head_pattern = kDom;
    r1.head_var = "X";
    r1.parent_pattern = "root";
    r1.parent_var = "X";
    out_.AddRule(r1);
    ElogRule r2;  // dom(X) ← dom(X0), subelem__(X0, X).
    r2.head_pattern = kDom;
    r2.head_var = "X";
    r2.parent_pattern = kDom;
    r2.parent_var = "X0";
    r2.subelem.steps = {"_"};
    out_.AddRule(r2);
  }

  void EmitHelperPatterns() {
    for (const std::string& label : used_labels_) {
      // __lbl_a(X) ← dom(X0), subelem_a(X0, X). [An a-labeled *root* is not
      // reachable by subelem — the Theorem 6.5 construction's known corner;
      // see from_datalog.h.]
      ElogRule r;
      r.head_pattern = LabelPattern(label);
      r.head_var = "X";
      r.parent_pattern = kDom;
      r.parent_var = "X0";
      r.subelem.steps = {label};
      out_.AddRule(std::move(r));
    }
    if (used_root_pattern_) {
      ElogRule r;
      r.head_pattern = RootPattern();
      r.head_var = "X";
      r.parent_pattern = "root";
      r.parent_var = "X";
      out_.AddRule(std::move(r));
    }
  }

  static ElogCondition PatternRef(const std::string& pattern,
                                  const std::string& var) {
    ElogCondition c;
    c.kind = ElogCondition::Kind::kPatternRef;
    c.pattern = pattern;
    c.var1 = var;
    return c;
  }

  /// A specialization rule with dom parent.
  void DomRule(const std::string& head, std::vector<ElogCondition> conds) {
    ElogRule r;
    r.head_pattern = head;
    r.head_var = "X";
    r.parent_pattern = kDom;
    r.parent_var = "X";
    r.conditions = std::move(conds);
    out_.AddRule(std::move(r));
  }

  /// Condition (or pattern reference) testing `info` on variable `var`.
  ElogCondition UnaryConditionOn(const UnaryInfo& info,
                                 const std::string& var) {
    if (!info.pattern.empty()) return PatternRef(info.pattern, var);
    switch (info.schema.pred) {
      case core::SchemaPred::kLabel:
        used_labels_.insert(info.schema.label);
        return PatternRef(LabelPattern(info.schema.label), var);
      case core::SchemaPred::kRoot:
        used_root_pattern_ = true;
        return PatternRef(RootPattern(), var);
      case core::SchemaPred::kLeaf: {
        ElogCondition c;
        c.kind = ElogCondition::Kind::kLeaf;
        c.var1 = var;
        return c;
      }
      case core::SchemaPred::kLastSibling: {
        ElogCondition c;
        c.kind = ElogCondition::Kind::kLastSibling;
        c.var1 = var;
        return c;
      }
      default: break;
    }
    MD_CHECK(false);
    return {};
  }

  util::Status TranslateRule(const Rule& rule) {
    const std::string head = tmnf_.preds().Name(rule.head.pred);
    if (rule.body.size() == 1) {
      // Form (1): p(x) ← p0(x).
      UnaryInfo info = ClassifyUnary(rule.body[0].pred);
      if (info.Is(core::SchemaPred::kRoot)) {
        ElogRule r;
        r.head_pattern = head;
        r.head_var = "X";
        r.parent_pattern = "root";
        r.parent_var = "X";
        out_.AddRule(r);
      } else if (!info.pattern.empty()) {
        ElogRule r;  // specialization with p0 as the parent pattern
        r.head_pattern = head;
        r.head_var = "X";
        r.parent_pattern = info.pattern;
        r.parent_var = "X";
        out_.AddRule(r);
      } else {
        DomRule(head, {UnaryConditionOn(info, "X")});
      }
      return util::Status::OK();
    }
    MD_CHECK(rule.body.size() == 2);
    const Atom& a = rule.body[0];
    const Atom& b = rule.body[1];

    if (a.args.size() == 1 && b.args.size() == 1) {
      // Form (3): p(x) ← p0(x), p1(x).
      std::vector<ElogCondition> conds;
      bool root_test = false;
      for (const Atom* atom : {&a, &b}) {
        UnaryInfo info = ClassifyUnary(atom->pred);
        if (info.Is(core::SchemaPred::kRoot)) {
          root_test = true;
          continue;
        }
        conds.push_back(UnaryConditionOn(info, "X"));
      }
      if (root_test) {
        ElogRule r;
        r.head_pattern = head;
        r.head_var = "X";
        r.parent_pattern = "root";
        r.parent_var = "X";
        r.conditions = std::move(conds);
        out_.AddRule(std::move(r));
      } else {
        DomRule(head, std::move(conds));
      }
      return util::Status::OK();
    }

    // Form (2): p(x) ← p0(x0), B(x0, x) with B = R or R^-1.
    const Atom& unary = a.args.size() == 1 ? a : b;
    const Atom& binary = a.args.size() == 2 ? a : b;
    core::VarId head_v = rule.head.args[0].value;
    bool forward = binary.args[1].value == head_v;  // B = R
    const std::optional<core::SchemaRef> rel =
        core::ClassifySchemaPred(tmnf_.preds().Name(binary.pred), 2);
    MD_CHECK(core::kUrBinary.contains(rel));
    UnaryInfo p0 = ClassifyUnary(unary.pred);

    if (rel->pred == core::SchemaPred::kNextSibling) {
      // p(x) ← dom(x), nextsibling(x0, x) [or mirrored], p0(x0).
      ElogCondition ns;
      ns.kind = ElogCondition::Kind::kNextSibling;
      if (forward) {
        ns.var1 = "X0";
        ns.var2 = "X";
      } else {
        ns.var1 = "X";
        ns.var2 = "X0";
      }
      DomRule(head, {std::move(ns), UnaryConditionOn(p0, "X0")});
      return util::Status::OK();
    }
    if (forward) {
      // p(X) ← p0'(X0), subelem__(X0, X), firstsibling(X) — the proof's
      // upward-compatible form with p0 referenced at the parent.
      ElogRule r;
      r.head_pattern = head;
      r.head_var = "X";
      r.parent_pattern = kDom;
      r.parent_var = "X0";
      r.subelem.steps = {"_"};
      ElogCondition fs;
      fs.kind = ElogCondition::Kind::kFirstSibling;
      fs.var1 = "X";
      r.conditions.push_back(std::move(fs));
      r.conditions.push_back(UnaryConditionOn(p0, "X0"));
      out_.AddRule(std::move(r));
    } else {
      // p(X) ← dom(X), contains__(X, Y), firstsibling(Y), p0(Y).
      ElogCondition contains;
      contains.kind = ElogCondition::Kind::kContains;
      contains.var1 = "X";
      contains.var2 = "Y";
      contains.path.steps = {"_"};
      ElogCondition fs;
      fs.kind = ElogCondition::Kind::kFirstSibling;
      fs.var1 = "Y";
      DomRule(head, {std::move(contains), std::move(fs),
                     UnaryConditionOn(p0, "Y")});
    }
    return util::Status::OK();
  }

  const core::Program& tmnf_;
  std::vector<bool> intensional_;
  ElogProgram out_;
  std::set<std::string> used_labels_;
  bool used_root_pattern_ = false;
};

}  // namespace

util::Result<ElogProgram> DatalogToElog(const core::Program& input) {
  MD_ASSIGN_OR_RETURN(core::Program tmnf, tmnf::ToTmnf(input));
  MD_RETURN_NOT_OK(tmnf::CheckTmnf(tmnf));
  return ElogTranslator(tmnf).Run();
}

}  // namespace mdatalog::elog

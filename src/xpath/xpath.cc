#include "src/xpath/xpath.h"

#include <cctype>
#include <functional>
#include <set>

#include "src/caterpillar/expr.h"
#include "src/caterpillar/to_datalog.h"
#include "src/core/database.h"
#include "src/core/grounder.h"
#include "src/util/check.h"

namespace mdatalog::xpath {

namespace {

const char* AxisName(Axis axis) {
  switch (axis) {
    case Axis::kSelf: return "self";
    case Axis::kChild: return "child";
    case Axis::kDescendant: return "descendant";
    case Axis::kDescendantOrSelf: return "descendant-or-self";
    case Axis::kParent: return "parent";
    case Axis::kAncestor: return "ancestor";
    case Axis::kAncestorOrSelf: return "ancestor-or-self";
    case Axis::kFollowingSibling: return "following-sibling";
    case Axis::kPrecedingSibling: return "preceding-sibling";
  }
  return "?";
}

ExprP MakeExpr(Expr::Kind kind, Path path, std::vector<ExprP> children) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  e->path = std::move(path);
  e->children = std::move(children);
  return e;
}

// --- parser -----------------------------------------------------------------

class XPathParser {
 public:
  explicit XPathParser(std::string_view text) : text_(text) {}

  util::Result<Path> Parse() {
    MD_ASSIGN_OR_RETURN(Path path, ParsePath());
    Skip();
    if (pos_ != text_.size()) {
      return util::Status::InvalidArgument("trailing input at position " +
                                           std::to_string(pos_));
    }
    return path;
  }

 private:
  util::Result<Path> ParsePath() {
    Path path;
    Skip();
    bool leading_descendant = false;
    if (Peek("//")) {
      pos_ += 2;
      path.absolute = true;
      leading_descendant = true;
    } else if (Peek("/")) {
      ++pos_;
      path.absolute = true;
    }
    while (true) {
      MD_ASSIGN_OR_RETURN(Step step, ParseStep());
      if (leading_descendant) {
        step.axis = Axis::kDescendant;
        leading_descendant = false;
      }
      path.steps.push_back(std::move(step));
      Skip();
      if (Peek("//")) {
        pos_ += 2;
        leading_descendant = true;
        continue;
      }
      if (Peek("/")) {
        ++pos_;
        continue;
      }
      break;
    }
    return path;
  }

  util::Result<Step> ParseStep() {
    Step step;
    Skip();
    size_t save = pos_;
    std::string word;
    if (ParseName(&word)) {
      Skip();
      if (Peek("::")) {
        pos_ += 2;
        MD_ASSIGN_OR_RETURN(step.axis, AxisFromName(word));
        Skip();
        if (Peek("*")) {
          ++pos_;
        } else if (!ParseName(&step.label)) {
          return util::Status::InvalidArgument("expected node test after '" +
                                               word + "::'");
        }
      } else {
        step.axis = Axis::kChild;  // shorthand
        step.label = word;
      }
    } else if (Peek("*")) {
      ++pos_;
      step.axis = Axis::kChild;
    } else {
      pos_ = save;
      return util::Status::InvalidArgument("expected step at position " +
                                           std::to_string(pos_));
    }
    // Predicates.
    Skip();
    while (Peek("[")) {
      ++pos_;
      MD_ASSIGN_OR_RETURN(ExprP e, ParseExpr());
      Skip();
      if (!Peek("]")) return util::Status::InvalidArgument("expected ']'");
      ++pos_;
      step.predicates.push_back(std::move(e));
      Skip();
    }
    return step;
  }

  util::Result<ExprP> ParseExpr() { return ParseOr(); }

  util::Result<ExprP> ParseOr() {
    MD_ASSIGN_OR_RETURN(ExprP lhs, ParseAnd());
    std::vector<ExprP> parts = {lhs};
    while (ConsumeWord("or")) {
      MD_ASSIGN_OR_RETURN(ExprP next, ParseAnd());
      parts.push_back(next);
    }
    if (parts.size() == 1) return parts[0];
    return MakeExpr(Expr::Kind::kOr, {}, std::move(parts));
  }

  util::Result<ExprP> ParseAnd() {
    MD_ASSIGN_OR_RETURN(ExprP lhs, ParsePrimary());
    std::vector<ExprP> parts = {lhs};
    while (ConsumeWord("and")) {
      MD_ASSIGN_OR_RETURN(ExprP next, ParsePrimary());
      parts.push_back(next);
    }
    if (parts.size() == 1) return parts[0];
    return MakeExpr(Expr::Kind::kAnd, {}, std::move(parts));
  }

  util::Result<ExprP> ParsePrimary() {
    Skip();
    if (ConsumeWord("not")) {
      Skip();
      if (!Peek("(")) return util::Status::InvalidArgument("expected '('");
      ++pos_;
      MD_ASSIGN_OR_RETURN(ExprP inner, ParseExpr());
      Skip();
      if (!Peek(")")) return util::Status::InvalidArgument("expected ')'");
      ++pos_;
      return MakeExpr(Expr::Kind::kNot, {}, {inner});
    }
    if (Peek("(")) {
      ++pos_;
      MD_ASSIGN_OR_RETURN(ExprP inner, ParseExpr());
      Skip();
      if (!Peek(")")) return util::Status::InvalidArgument("expected ')'");
      ++pos_;
      return inner;
    }
    MD_ASSIGN_OR_RETURN(Path path, ParsePath());
    return MakeExpr(Expr::Kind::kPath, std::move(path), {});
  }

  util::Result<Axis> AxisFromName(const std::string& name) {
    if (name == "self") return Axis::kSelf;
    if (name == "child") return Axis::kChild;
    if (name == "descendant") return Axis::kDescendant;
    if (name == "descendant-or-self") return Axis::kDescendantOrSelf;
    if (name == "parent") return Axis::kParent;
    if (name == "ancestor") return Axis::kAncestor;
    if (name == "ancestor-or-self") return Axis::kAncestorOrSelf;
    if (name == "following-sibling") return Axis::kFollowingSibling;
    if (name == "preceding-sibling") return Axis::kPrecedingSibling;
    return util::Status::InvalidArgument("unknown axis '" + name + "'");
  }

  /// Names may contain letters, digits, _, -, #, @ (our HTML labels include
  /// #text and class-projected tag@class). A '-' is part of the name only
  /// when followed by a letter (so "a-b" is a name but "a - b" is not; axis
  /// names like following-sibling work).
  bool ParseName(std::string* out) {
    Skip();
    size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '#' || c == '@') {
        ++pos_;
      } else if (c == '-' && pos_ + 1 < text_.size() &&
                 std::isalpha(static_cast<unsigned char>(text_[pos_ + 1]))) {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return false;
    *out = std::string(text_.substr(start, pos_ - start));
    return true;
  }

  bool Peek(std::string_view lit) {
    Skip();
    return text_.substr(pos_, lit.size()) == lit;
  }

  bool ConsumeWord(std::string_view word) {
    Skip();
    if (text_.substr(pos_, word.size()) != word) return false;
    size_t after = pos_ + word.size();
    if (after < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[after])) ||
         text_[after] == '_')) {
      return false;  // prefix of a longer name
    }
    pos_ = after;
    return true;
  }

  void Skip() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

std::string ExprToString(const ExprP& e);

std::string StepToString(const Step& s) {
  std::string out = std::string(AxisName(s.axis)) + "::" +
                    (s.label.empty() ? "*" : s.label);
  for (const ExprP& p : s.predicates) out += "[" + ExprToString(p) + "]";
  return out;
}

std::string ExprToString(const ExprP& e) {
  switch (e->kind) {
    case Expr::Kind::kPath: return ToString(e->path);
    case Expr::Kind::kNot: return "not(" + ExprToString(e->children[0]) + ")";
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      std::string op = e->kind == Expr::Kind::kAnd ? " and " : " or ";
      std::string out;
      for (size_t i = 0; i < e->children.size(); ++i) {
        if (i > 0) out += op;
        out += ExprToString(e->children[i]);
      }
      return out;
    }
  }
  return "?";
}

// --- reference evaluation ---------------------------------------------------

using NodeSet = std::set<tree::NodeId>;

NodeSet AxisImage(const tree::Tree& t, Axis axis, const NodeSet& from) {
  NodeSet out;
  // The descendants of n are the id range (n, LastDescendant(t, n)].
  const auto add_range = [&](tree::NodeId first, tree::NodeId last) {
    for (tree::NodeId m = first; m <= last; ++m) out.insert(m);
  };
  for (tree::NodeId n : from) {
    switch (axis) {
      case Axis::kSelf:
        out.insert(n);
        break;
      case Axis::kChild:
        for (tree::NodeId c = t.first_child(n); c != tree::kNoNode;
             c = t.next_sibling(c)) {
          out.insert(c);
        }
        break;
      case Axis::kDescendant:
        add_range(n + 1, tree::LastDescendant(t, n));
        break;
      case Axis::kDescendantOrSelf:
        add_range(n, tree::LastDescendant(t, n));
        break;
      case Axis::kParent:
        if (t.parent(n) != tree::kNoNode) out.insert(t.parent(n));
        break;
      case Axis::kAncestor:
        for (tree::NodeId p = t.parent(n); p != tree::kNoNode;
             p = t.parent(p)) {
          out.insert(p);
        }
        break;
      case Axis::kAncestorOrSelf:
        for (tree::NodeId p = n; p != tree::kNoNode; p = t.parent(p)) {
          out.insert(p);
        }
        break;
      case Axis::kFollowingSibling:
        for (tree::NodeId s = t.next_sibling(n); s != tree::kNoNode;
             s = t.next_sibling(s)) {
          out.insert(s);
        }
        break;
      case Axis::kPrecedingSibling:
        for (tree::NodeId s = t.prev_sibling(n); s != tree::kNoNode;
             s = t.prev_sibling(s)) {
          out.insert(s);
        }
        break;
    }
  }
  return out;
}

bool EvalPredicate(const tree::Tree& t, const ExprP& e, tree::NodeId n);

NodeSet EvalSteps(const tree::Tree& t, NodeSet current,
                  const std::vector<Step>& steps);

/// Absolute paths start at the *virtual document node* above the root
/// element (standard XPath): its only child is the root; its descendants are
/// all nodes; every other axis from it is empty.
NodeSet AbsoluteSeed(const tree::Tree& t, Axis axis) {
  NodeSet out;
  switch (axis) {
    case Axis::kChild:
      out.insert(t.root());
      break;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      for (tree::NodeId n = 0; n < t.size(); ++n) out.insert(n);
      break;
    default:
      break;  // self/parent/ancestor/siblings of the document node: empty
  }
  return out;
}

NodeSet FilterStep(const tree::Tree& t, NodeSet moved, const Step& step) {
  NodeSet filtered;
  for (tree::NodeId n : moved) {
    if (!step.label.empty() && t.label_name(n) != step.label) continue;
    bool ok = true;
    for (const ExprP& pred : step.predicates) {
      if (!EvalPredicate(t, pred, n)) {
        ok = false;
        break;
      }
    }
    if (ok) filtered.insert(n);
  }
  return filtered;
}

NodeSet EvalPathFromContext(const tree::Tree& t, const Path& path,
                            NodeSet relative_context) {
  if (!path.absolute) {
    return EvalSteps(t, std::move(relative_context), path.steps);
  }
  MD_CHECK(!path.steps.empty());
  NodeSet seed = FilterStep(t, AbsoluteSeed(t, path.steps[0].axis),
                            path.steps[0]);
  std::vector<Step> rest(path.steps.begin() + 1, path.steps.end());
  return EvalSteps(t, std::move(seed), rest);
}

NodeSet EvalSteps(const tree::Tree& t, NodeSet current,
                  const std::vector<Step>& steps) {
  for (const Step& step : steps) {
    current = FilterStep(t, AxisImage(t, step.axis, current), step);
  }
  return current;
}

bool EvalPredicate(const tree::Tree& t, const ExprP& e, tree::NodeId n) {
  switch (e->kind) {
    case Expr::Kind::kPath:
      return !EvalPathFromContext(t, e->path, {n}).empty();
    case Expr::Kind::kNot:
      return !EvalPredicate(t, e->children[0], n);
    case Expr::Kind::kAnd:
      for (const ExprP& c : e->children) {
        if (!EvalPredicate(t, c, n)) return false;
      }
      return true;
    case Expr::Kind::kOr:
      for (const ExprP& c : e->children) {
        if (EvalPredicate(t, c, n)) return true;
      }
      return false;
  }
  return false;
}

// --- datalog compilation ----------------------------------------------------

caterpillar::ExprPtr AxisExpr(Axis axis) {
  using caterpillar::Epsilon;
  using caterpillar::Inverse;
  using caterpillar::Plus;
  using caterpillar::Rel;
  using caterpillar::Star;
  switch (axis) {
    case Axis::kSelf: return Epsilon();
    case Axis::kChild: return Rel("child");
    case Axis::kDescendant: return Plus(Rel("child"));
    case Axis::kDescendantOrSelf: return Star(Rel("child"));
    case Axis::kParent: return Inverse(Rel("child"));
    case Axis::kAncestor: return Inverse(Plus(Rel("child")));
    case Axis::kAncestorOrSelf: return Inverse(Star(Rel("child")));
    case Axis::kFollowingSibling: return Plus(Rel("nextsibling"));
    case Axis::kPrecedingSibling: return Inverse(Plus(Rel("nextsibling")));
  }
  MD_CHECK(false);
  return nullptr;
}

/// Compiles paths/predicates into a shared program. Monadic datalog is
/// positive (Section 3), so not(·) has no image here — queries using it are
/// reported Unimplemented and served by the reference evaluator instead.
class XPathCompiler {
 public:
  util::Result<core::Program> Compile(const Path& path) {
    dom_ = EnsureDom();
    core::PredId result;
    if (path.absolute) {
      MD_CHECK(!path.steps.empty());
      MD_ASSIGN_OR_RETURN(core::PredId seed,
                          AbsoluteSeedSet(path.steps[0].axis));
      MD_ASSIGN_OR_RETURN(seed, ApplyFilters(seed, path.steps[0]));
      std::vector<Step> rest(path.steps.begin() + 1, path.steps.end());
      MD_ASSIGN_OR_RETURN(result, CompileSteps(seed, rest));
    } else {
      MD_ASSIGN_OR_RETURN(result, CompileSteps(dom_, path.steps));
    }
    program_.set_query_pred(result);
    return std::move(program_);
  }

 private:
  core::PredId Fresh() {
    return program_.preds().MustIntern("s" + std::to_string(counter_++), 1);
  }

  core::PredId EnsureDom() {
    core::PredId dom = program_.preds().MustIntern("dom", 1);
    core::PredId root = program_.preds().MustIntern("root", 1);
    core::PredId fc = program_.preds().MustIntern("firstchild", 2);
    core::PredId ns = program_.preds().MustIntern("nextsibling", 2);
    core::Term x = core::Term::Var(0), y = core::Term::Var(1);
    program_.AddRule(core::MakeRule(core::MakeAtom(dom, {x}),
                                    {core::MakeAtom(root, {x})}, {"x"}));
    program_.AddRule(core::MakeRule(
        core::MakeAtom(dom, {y}),
        {core::MakeAtom(dom, {x}), core::MakeAtom(fc, {x, y})}, {"x", "y"}));
    program_.AddRule(core::MakeRule(
        core::MakeAtom(dom, {y}),
        {core::MakeAtom(dom, {x}), core::MakeAtom(ns, {x, y})}, {"x", "y"}));
    return dom;
  }

  util::Result<core::PredId> RootSet() {
    core::PredId p = Fresh();
    core::PredId root = program_.preds().MustIntern("root", 1);
    core::Term x = core::Term::Var(0);
    program_.AddRule(core::MakeRule(core::MakeAtom(p, {x}),
                                    {core::MakeAtom(root, {x})}, {"x"}));
    return p;
  }

  /// The first step of an absolute path, taken from the virtual document
  /// node: child = {root}, descendant(-or-self) = all nodes, anything else
  /// is empty (expressed as a never-firing rule to keep the predicate
  /// intensional).
  util::Result<core::PredId> AbsoluteSeedSet(Axis axis) {
    switch (axis) {
      case Axis::kChild:
        return RootSet();
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
        return dom_;
      default: {
        core::PredId p = Fresh();
        core::PredId ns = program_.preds().MustIntern("nextsibling", 2);
        core::Term x = core::Term::Var(0);
        program_.AddRule(core::MakeRule(core::MakeAtom(p, {x}),
                                        {core::MakeAtom(ns, {x, x})}, {"x"}));
        return p;
      }
    }
  }

  /// current-set × step → new set predicate.
  util::Result<core::PredId> CompileSteps(core::PredId current,
                                          const std::vector<Step>& steps) {
    for (const Step& step : steps) {
      MD_ASSIGN_OR_RETURN(
          core::PredId moved,
          caterpillar::AppendCaterpillarRules(
              &program_, current, AxisExpr(step.axis),
              "ax" + std::to_string(counter_++)));
      MD_ASSIGN_OR_RETURN(current, ApplyFilters(moved, step));
    }
    return current;
  }

  util::Result<core::PredId> ApplyFilters(core::PredId moved,
                                          const Step& step) {
    core::Term x = core::Term::Var(0);
    core::PredId current = moved;
    if (!step.label.empty()) {
      core::PredId lbl =
          program_.preds().MustIntern(core::LabelPredName(step.label), 1);
      core::PredId next = Fresh();
      program_.AddRule(core::MakeRule(
          core::MakeAtom(next, {x}),
          {core::MakeAtom(current, {x}), core::MakeAtom(lbl, {x})}, {"x"}));
      current = next;
    }
    for (const ExprP& pred : step.predicates) {
      MD_ASSIGN_OR_RETURN(core::PredId filter, CompilePredicate(pred));
      core::PredId next = Fresh();
      program_.AddRule(core::MakeRule(
          core::MakeAtom(next, {x}),
          {core::MakeAtom(current, {x}), core::MakeAtom(filter, {x})},
          {"x"}));
      current = next;
    }
    return current;
  }

  /// The set of nodes satisfying a predicate expression.
  util::Result<core::PredId> CompilePredicate(const ExprP& e) {
    core::Term x = core::Term::Var(0);
    switch (e->kind) {
      case Expr::Kind::kNot:
        return util::Status::Unimplemented(
            "not(·) has no positive-datalog image; use the reference "
            "evaluator (monadic datalog is positive, Section 3)");
      case Expr::Kind::kAnd: {
        MD_ASSIGN_OR_RETURN(core::PredId acc,
                            CompilePredicate(e->children[0]));
        for (size_t i = 1; i < e->children.size(); ++i) {
          MD_ASSIGN_OR_RETURN(core::PredId next,
                              CompilePredicate(e->children[i]));
          core::PredId merged = Fresh();
          program_.AddRule(core::MakeRule(
              core::MakeAtom(merged, {x}),
              {core::MakeAtom(acc, {x}), core::MakeAtom(next, {x})}, {"x"}));
          acc = merged;
        }
        return acc;
      }
      case Expr::Kind::kOr: {
        core::PredId merged = Fresh();
        for (const ExprP& c : e->children) {
          MD_ASSIGN_OR_RETURN(core::PredId part, CompilePredicate(c));
          program_.AddRule(core::MakeRule(core::MakeAtom(merged, {x}),
                                          {core::MakeAtom(part, {x})},
                                          {"x"}));
        }
        return merged;
      }
      case Expr::Kind::kPath: {
        // Existence filter: walk the relative path backwards. B_last = nodes
        // matching the last step; B_k = step-k matches with an axis_{k+1}
        // successor in B_{k+1}; filter = inverse-axis_1 image of B_1.
        const std::vector<Step>& steps = e->path.steps;
        MD_CHECK(!steps.empty());
        core::PredId below = -1;
        // The axis linking `below` to the position one step earlier. Local:
        // StepSelfSet recurses into nested predicates, which compile their
        // own paths.
        Axis link_axis = Axis::kChild;
        for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
          MD_ASSIGN_OR_RETURN(core::PredId matches, StepSelfSet(*it));
          if (below >= 0) {
            // matches ∧ (∃ successor via link_axis in below).
            MD_ASSIGN_OR_RETURN(
                core::PredId has_succ,
                caterpillar::AppendCaterpillarRules(
                    &program_, below,
                    caterpillar::Inverse(AxisExpr(link_axis)),
                    "bk" + std::to_string(counter_++)));
            core::PredId merged = Fresh();
            program_.AddRule(core::MakeRule(
                core::MakeAtom(merged, {x}),
                {core::MakeAtom(matches, {x}),
                 core::MakeAtom(has_succ, {x})},
                {"x"}));
            below = merged;
          } else {
            below = matches;
          }
          link_axis = it->axis;
        }
        if (e->path.absolute) {
          // The filter holds of every node iff the absolute path is
          // non-empty from the virtual document node: child axis → the root
          // itself is in B_1; descendant axes → any node is in B_1.
          core::PredId witness = Fresh();
          if (link_axis == Axis::kChild) {
            core::PredId root = program_.preds().MustIntern("root", 1);
            program_.AddRule(core::MakeRule(
                core::MakeAtom(witness, {x}),
                {core::MakeAtom(below, {x}), core::MakeAtom(root, {x})},
                {"x"}));
          } else if (link_axis == Axis::kDescendant ||
                     link_axis == Axis::kDescendantOrSelf) {
            program_.AddRule(core::MakeRule(core::MakeAtom(witness, {x}),
                                            {core::MakeAtom(below, {x})},
                                            {"x"}));
          }  // other axes from the document node: no witness rule (empty)
          // Spread to all nodes: filter(x) ← dom(x), witness(y) is
          // disconnected — allowed (the engines split it), but keep it
          // simple with the document-order-free form:
          core::PredId filter = Fresh();
          core::Term y = core::Term::Var(1);
          program_.AddRule(core::MakeRule(
              core::MakeAtom(filter, {x}),
              {core::MakeAtom(dom_, {x}), core::MakeAtom(witness, {y})},
              {"x", "y"}));
          return filter;
        }
        return caterpillar::AppendCaterpillarRules(
            &program_, below, caterpillar::Inverse(AxisExpr(link_axis)),
            "bk" + std::to_string(counter_++));
      }
    }
    return util::Status::Internal("unreachable predicate kind");
  }

  /// Nodes matching a step's node test and its own predicates (no axis).
  util::Result<core::PredId> StepSelfSet(const Step& step) {
    core::Term x = core::Term::Var(0);
    core::PredId current;
    if (step.label.empty()) {
      current = dom_;
    } else {
      core::PredId lbl =
          program_.preds().MustIntern(core::LabelPredName(step.label), 1);
      current = Fresh();
      program_.AddRule(core::MakeRule(core::MakeAtom(current, {x}),
                                      {core::MakeAtom(lbl, {x})}, {"x"}));
    }
    for (const ExprP& pred : step.predicates) {
      MD_ASSIGN_OR_RETURN(core::PredId filter, CompilePredicate(pred));
      core::PredId next = Fresh();
      program_.AddRule(core::MakeRule(
          core::MakeAtom(next, {x}),
          {core::MakeAtom(current, {x}), core::MakeAtom(filter, {x})},
          {"x"}));
      current = next;
    }
    return current;
  }

  core::Program program_;
  core::PredId dom_ = -1;
  int32_t counter_ = 0;
};

bool UsesNegation(const ExprP& e);

bool PathUsesNegation(const Path& p) {
  for (const Step& s : p.steps) {
    for (const ExprP& pred : s.predicates) {
      if (UsesNegation(pred)) return true;
    }
  }
  return false;
}

bool UsesNegation(const ExprP& e) {
  if (e->kind == Expr::Kind::kNot) return true;
  if (e->kind == Expr::Kind::kPath) return PathUsesNegation(e->path);
  for (const ExprP& c : e->children) {
    if (UsesNegation(c)) return true;
  }
  return false;
}

}  // namespace

util::Result<Path> ParseXPath(std::string_view text) {
  return XPathParser(text).Parse();
}

std::string ToString(const Path& path) {
  std::string out = path.absolute ? "/" : "";
  for (size_t i = 0; i < path.steps.size(); ++i) {
    if (i > 0) out += "/";
    out += StepToString(path.steps[i]);
  }
  return out;
}

util::Result<std::vector<tree::NodeId>> EvalXPathReference(
    const tree::Tree& t, const Path& path) {
  NodeSet everywhere;
  for (tree::NodeId n = 0; n < t.size(); ++n) everywhere.insert(n);
  NodeSet result = EvalPathFromContext(t, path, std::move(everywhere));
  return std::vector<tree::NodeId>(result.begin(), result.end());
}

util::Result<core::Program> XPathToDatalog(const Path& path) {
  if (PathUsesNegation(path)) {
    return util::Status::Unimplemented(
        "not(·) has no positive-datalog image; monadic datalog is positive "
        "(Section 3)");
  }
  return XPathCompiler().Compile(path);
}

util::Result<std::vector<tree::NodeId>> EvalXPath(const tree::Tree& t,
                                                  std::string_view query) {
  MD_ASSIGN_OR_RETURN(Path path, ParseXPath(query));
  if (PathUsesNegation(path)) {
    // Stratified fallback: negation is evaluated by the reference engine.
    return EvalXPathReference(t, path);
  }
  MD_ASSIGN_OR_RETURN(core::Program program, XPathToDatalog(path));
  MD_ASSIGN_OR_RETURN(core::EvalResult result,
                      core::EvaluateOnTree(program, t));
  return result.Query();
}

}  // namespace mdatalog::xpath

#include "src/caterpillar/expr.h"

#include <cctype>

#include "src/core/tree_schema.h"
#include "src/util/check.h"

namespace mdatalog::caterpillar {

namespace {

ExprPtr MakeNode(Expr::Kind kind, std::string name, bool inverted,
                 std::vector<ExprPtr> children) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  e->name = std::move(name);
  e->inverted = inverted;
  e->children = std::move(children);
  return e;
}

}  // namespace

ExprPtr Epsilon() { return MakeNode(Expr::Kind::kEpsilon, "", false, {}); }
ExprPtr Rel(const std::string& name, bool inverted) {
  return MakeNode(Expr::Kind::kRel, name, inverted, {});
}
ExprPtr Test(const std::string& name) {
  return MakeNode(Expr::Kind::kTest, name, false, {});
}
ExprPtr Concat(std::vector<ExprPtr> parts) {
  MD_CHECK(!parts.empty());
  if (parts.size() == 1) return parts[0];
  return MakeNode(Expr::Kind::kConcat, "", false, std::move(parts));
}
ExprPtr Union(std::vector<ExprPtr> parts) {
  MD_CHECK(!parts.empty());
  if (parts.size() == 1) return parts[0];
  return MakeNode(Expr::Kind::kUnion, "", false, std::move(parts));
}
ExprPtr Star(ExprPtr e) {
  return MakeNode(Expr::Kind::kStar, "", false, {std::move(e)});
}
ExprPtr Inverse(ExprPtr e) {
  return MakeNode(Expr::Kind::kInverse, "", false, {std::move(e)});
}
ExprPtr Plus(ExprPtr e) { return Concat({e, Star(e)}); }

// --- parser -----------------------------------------------------------------

namespace {

class ExprParser {
 public:
  explicit ExprParser(std::string_view text) : text_(text) {}

  util::Result<ExprPtr> Parse() {
    auto e = ParseUnion();
    if (!e.ok()) return e;
    Skip();
    if (pos_ != text_.size()) {
      return util::Status::InvalidArgument(
          "trailing input in caterpillar expression at position " +
          std::to_string(pos_));
    }
    return e;
  }

 private:
  util::Result<ExprPtr> ParseUnion() {
    std::vector<ExprPtr> parts;
    auto first = ParseConcat();
    if (!first.ok()) return first;
    parts.push_back(*first);
    Skip();
    while (Consume("|")) {
      auto next = ParseConcat();
      if (!next.ok()) return next;
      parts.push_back(*next);
      Skip();
    }
    return Union(std::move(parts));
  }

  util::Result<ExprPtr> ParseConcat() {
    std::vector<ExprPtr> parts;
    auto first = ParsePostfix();
    if (!first.ok()) return first;
    parts.push_back(*first);
    Skip();
    while (Consume(".")) {
      auto next = ParsePostfix();
      if (!next.ok()) return next;
      parts.push_back(*next);
      Skip();
    }
    return Concat(std::move(parts));
  }

  util::Result<ExprPtr> ParsePostfix() {
    auto base = ParsePrimary();
    if (!base.ok()) return base;
    ExprPtr e = *base;
    while (true) {
      Skip();
      if (Consume("*")) {
        e = Star(e);
      } else if (Consume("+")) {
        e = Plus(e);
      } else if (Consume("^-1")) {
        e = Inverse(e);
      } else {
        break;
      }
    }
    return e;
  }

  util::Result<ExprPtr> ParsePrimary() {
    Skip();
    if (Consume("(")) {
      auto e = ParseUnion();
      if (!e.ok()) return e;
      Skip();
      if (!Consume(")")) {
        return util::Status::InvalidArgument("expected ')'");
      }
      return e;
    }
    if (Consume("[")) {
      std::string name;
      MD_RETURN_NOT_OK(ParseIdent(&name));
      Skip();
      if (!Consume("]")) {
        return util::Status::InvalidArgument("expected ']'");
      }
      return Test(name);
    }
    std::string name;
    MD_RETURN_NOT_OK(ParseIdent(&name));
    if (name == "eps") return Epsilon();
    return Rel(name);
  }

  util::Status ParseIdent(std::string* out) {
    Skip();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) {
      return util::Status::InvalidArgument(
          "expected identifier at position " + std::to_string(start));
    }
    *out = std::string(text_.substr(start, pos_ - start));
    return util::Status::OK();
  }

  bool Consume(std::string_view lit) {
    Skip();
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
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

}  // namespace

util::Result<ExprPtr> ParseExpr(std::string_view text) {
  return ExprParser(text).Parse();
}

std::string ToString(const ExprPtr& e) {
  switch (e->kind) {
    case Expr::Kind::kEpsilon:
      return "eps";
    case Expr::Kind::kRel:
      return e->inverted ? e->name + "^-1" : e->name;
    case Expr::Kind::kTest:
      return "[" + e->name + "]";
    case Expr::Kind::kConcat: {
      std::string out;
      for (size_t i = 0; i < e->children.size(); ++i) {
        if (i > 0) out += ".";
        const ExprPtr& c = e->children[i];
        bool paren = c->kind == Expr::Kind::kUnion;
        out += paren ? "(" + ToString(c) + ")" : ToString(c);
      }
      return out;
    }
    case Expr::Kind::kUnion: {
      std::string out;
      for (size_t i = 0; i < e->children.size(); ++i) {
        if (i > 0) out += " | ";
        out += ToString(e->children[i]);
      }
      return out;
    }
    case Expr::Kind::kStar: {
      const ExprPtr& c = e->children[0];
      bool paren = c->kind == Expr::Kind::kConcat ||
                   c->kind == Expr::Kind::kUnion;
      return (paren ? "(" + ToString(c) + ")" : ToString(c)) + "*";
    }
    case Expr::Kind::kInverse: {
      const ExprPtr& c = e->children[0];
      bool paren = c->kind != Expr::Kind::kRel &&
                   c->kind != Expr::Kind::kTest &&
                   c->kind != Expr::Kind::kEpsilon;
      return (paren ? "(" + ToString(c) + ")" : ToString(c)) + "^-1";
    }
  }
  return "?";
}

int32_t ExprSize(const ExprPtr& e) {
  int32_t n = 1;
  for (const ExprPtr& c : e->children) n += ExprSize(c);
  return n;
}

namespace {

ExprPtr PushDown(const ExprPtr& e, bool invert) {
  switch (e->kind) {
    case Expr::Kind::kEpsilon:
      return Epsilon();  // ǫ^-1 = ǫ
    case Expr::Kind::kTest:
      return Test(e->name);  // identity pairs are symmetric
    case Expr::Kind::kRel:
      return Rel(e->name, invert != e->inverted);  // (R^-1)^-1 = R
    case Expr::Kind::kConcat: {
      std::vector<ExprPtr> parts;
      if (invert) {
        // (E.F)^-1 = F^-1.E^-1 (Proposition 2.3)
        for (auto it = e->children.rbegin(); it != e->children.rend(); ++it) {
          parts.push_back(PushDown(*it, true));
        }
      } else {
        for (const ExprPtr& c : e->children) parts.push_back(PushDown(c, false));
      }
      return Concat(std::move(parts));
    }
    case Expr::Kind::kUnion: {
      // (E ∪ F)^-1 = E^-1 ∪ F^-1
      std::vector<ExprPtr> parts;
      for (const ExprPtr& c : e->children) parts.push_back(PushDown(c, invert));
      return Union(std::move(parts));
    }
    case Expr::Kind::kStar:
      // (E*)^-1 = (E^-1)*
      return Star(PushDown(e->children[0], invert));
    case Expr::Kind::kInverse:
      return PushDown(e->children[0], !invert);
  }
  MD_CHECK(false);
  return nullptr;
}

}  // namespace

ExprPtr PushDownInverses(const ExprPtr& e) { return PushDown(e, false); }

ExprPtr ExpandDerivedRels(const ExprPtr& e) {
  switch (e->kind) {
    case Expr::Kind::kEpsilon:
    case Expr::Kind::kTest:
      return e;
    case Expr::Kind::kRel: {
      ExprPtr expansion;
      if (core::IsSchemaPred(e->name, 2, core::SchemaPred::kChild)) {
        // child = firstchild.nextsibling* (Example 2.5)
        expansion = Concat({Rel("firstchild"), Star(Rel("nextsibling"))});
      } else if (core::IsSchemaPred(e->name, 2, core::SchemaPred::kLastChild)) {
        expansion = Concat({Rel("firstchild"), Star(Rel("nextsibling")),
                            Test("lastsibling")});
      } else {
        return e;
      }
      return e->inverted ? Inverse(expansion) : expansion;
    }
    default: {
      std::vector<ExprPtr> children;
      for (const ExprPtr& c : e->children) children.push_back(ExpandDerivedRels(c));
      return MakeNode(e->kind, e->name, e->inverted, std::move(children));
    }
  }
}

ExprPtr DocumentOrderExpr() {
  ExprPtr child = Rel("child");
  return Union({Plus(child),
                Concat({Star(Inverse(child)), Plus(Rel("nextsibling")),
                        Star(child)})});
}

ExprPtr AnyNodeExpr() {
  ExprPtr order = DocumentOrderExpr();
  return Union({order, Epsilon(), Inverse(order)});
}

}  // namespace mdatalog::caterpillar

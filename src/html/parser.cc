#include "src/html/parser.h"

#include <algorithm>
#include <set>

#include "src/html/tokenizer.h"

namespace mdatalog::html {

bool IsVoidElement(const std::string& name) {
  static const std::set<std::string> kVoid = {
      "area", "base", "br",    "col",  "embed", "hr",   "img",
      "input", "link", "meta", "param", "source", "track", "wbr"};
  return kVoid.count(name) > 0;
}

const std::vector<std::string>& AutoCloses(const std::string& name) {
  static const std::vector<std::string> kNone = {};
  static const std::vector<std::string> kLi = {"li"};
  static const std::vector<std::string> kCell = {"td", "th"};
  static const std::vector<std::string> kRow = {"tr", "td", "th"};
  static const std::vector<std::string> kP = {"p"};
  static const std::vector<std::string> kOption = {"option"};
  static const std::vector<std::string> kDef = {"dd", "dt"};
  if (name == "li") return kLi;
  if (name == "td" || name == "th") return kCell;
  if (name == "tr") return kRow;
  if (name == "p") return kP;
  if (name == "option") return kOption;
  if (name == "dd" || name == "dt") return kDef;
  return kNone;
}

std::string Document::GetAttr(tree::NodeId n, const std::string& name) const {
  if (static_cast<size_t>(n) >= attrs_.size()) return "";
  for (const auto& [k, v] : attrs_[n]) {
    if (k == name) return v;
  }
  return "";
}

bool Document::HasAttr(tree::NodeId n, const std::string& name) const {
  if (static_cast<size_t>(n) >= attrs_.size()) return false;
  for (const auto& [k, v] : attrs_[n]) {
    if (k == name) return true;
  }
  return false;
}

std::vector<tree::NodeId> Document::NodesWithAttr(
    const std::string& name, const std::string& value) const {
  std::vector<tree::NodeId> out;
  for (tree::NodeId n = 0; n < tree_.size(); ++n) {
    if (GetAttr(n, name) == value) out.push_back(n);
  }
  return out;
}

util::Result<Document> ParseHtml(std::string_view html) {
  std::vector<Token> tokens = Tokenize(html);

  // First pass: count top-level elements to decide on a synthetic root.
  // We simply always build under a "#document" root, then strip it if it has
  // exactly one element child and no text children.
  tree::TreeBuilder builder;
  std::vector<std::vector<std::pair<std::string, std::string>>> attrs;
  tree::NodeId root = builder.Root("#document");
  attrs.push_back({});

  // Stack of open nodes: (node id, tag name).
  std::vector<std::pair<tree::NodeId, std::string>> stack = {
      {root, "#document"}};

  auto open_node = [&](const std::string& tag,
                       const std::vector<Attribute>& tag_attrs) {
    tree::NodeId n = builder.Child(stack.back().first, tag);
    attrs.resize(n + 1);
    for (const Attribute& a : tag_attrs) attrs[n].emplace_back(a.name, a.value);
    return n;
  };

  for (const Token& token : tokens) {
    switch (token.type) {
      case Token::Type::kDoctype:
      case Token::Type::kComment:
        break;  // not represented in the document tree
      case Token::Type::kText: {
        tree::NodeId n = open_node("#text", {});
        builder.SetText(n, token.data);
        break;
      }
      case Token::Type::kStartTag: {
        // Pop every implicitly-closed element (e.g. <tr> closes an open td
        // and then the open tr).
        const std::vector<std::string>& closes = AutoCloses(token.data);
        while (stack.size() > 1 &&
               std::find(closes.begin(), closes.end(),
                         stack.back().second) != closes.end()) {
          stack.pop_back();
        }
        tree::NodeId n = open_node(token.data, token.attrs);
        bool is_void = IsVoidElement(token.data);
        if (!is_void && !token.self_closing) stack.emplace_back(n, token.data);
        break;
      }
      case Token::Type::kEndTag: {
        // Find the matching open tag; ignore the end tag if there is none.
        int32_t match = -1;
        for (int32_t i = static_cast<int32_t>(stack.size()) - 1; i >= 1; --i) {
          if (stack[i].second == token.data) {
            match = i;
            break;
          }
        }
        if (match >= 1) stack.resize(match);
        break;
      }
    }
  }

  tree::Tree full = builder.Build();
  if (full.size() == 1) {
    return util::Status::InvalidArgument("no content in HTML input");
  }
  // Strip the synthetic root when the document has a unique top-level node.
  // That node is node 1 and its subtree is every node but the root (NodeId
  // order is document order, see tree.h), so every id shifts down by one.
  if (full.NumChildren(full.root()) == 1) {
    attrs.erase(attrs.begin());
    return Document(tree::CopySubtree(full, 1), std::move(attrs));
  }
  return Document(std::move(full), std::move(attrs));
}

tree::Tree ProjectAttributeIntoLabels(const Document& doc,
                                      const std::string& attr) {
  const tree::Tree& t = doc.tree();
  tree::TreeBuilder builder;
  for (tree::NodeId n = 0; n < t.size(); ++n) {
    std::string label = t.label_name(n);
    std::string value = doc.GetAttr(n, attr);
    if (!value.empty()) label += "@" + value;
    const tree::NodeId dst =
        n == 0 ? builder.Root(label) : builder.Child(t.parent(n), label);
    if (t.HasText(n)) builder.SetText(dst, t.text(n));
  }
  return builder.Build();
}

}  // namespace mdatalog::html

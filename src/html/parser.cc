#include "src/html/parser.h"

#include <algorithm>
#include <set>

namespace mdatalog::html {

namespace {

/// The HTML void elements: never have children, never go on the open stack.
bool IsVoidElement(const std::string& name) {
  static const std::set<std::string> kVoid = {
      "area", "base", "br",    "col",  "embed", "hr",   "img",
      "input", "link", "meta", "param", "source", "track", "wbr"};
  return kVoid.count(name) > 0;
}

/// The open tags that a start tag `name` implicitly closes (e.g. a new <tr>
/// closes an open td and then the open tr).
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

}  // namespace

TreeConstructor::TreeConstructor(std::string_view project_attr,
                                 Observer* observer)
    : project_attr_(project_attr), observer_(observer) {
  static Observer no_observer;
  if (observer_ == nullptr) observer_ = &no_observer;
  open_.push_back({builder_.Root("#document"), "#document", 0});
}

tree::NodeId TreeConstructor::Create(const Token& token,
                                     std::string_view label) {
  OpenElement& parent = open_.back();
  const tree::NodeId n = builder_.Child(parent.node, label);
  if (token.type == Token::Type::kText) builder_.SetText(n, token.data);
  observer_->NodeCreated(n, parent.node, ++parent.num_children, token);
  return n;
}

void TreeConstructor::Pop() {
  observer_->NodeClosed(open_.back().node);
  open_.pop_back();
}

void TreeConstructor::Add(const Token& token) {
  switch (token.type) {
    case Token::Type::kDoctype:
    case Token::Type::kComment:
      break;  // not represented in the document tree
    case Token::Type::kText:
      observer_->NodeClosed(Create(token, "#text"));
      break;
    case Token::Type::kStartTag: {
      const std::vector<std::string>& closes = AutoCloses(token.data);
      while (open_.size() > 1 && std::find(closes.begin(), closes.end(),
                                           open_.back().tag) != closes.end()) {
        Pop();
      }
      // Remark 2.2: the first occurrence of the attribute wins; an empty
      // value does not project.
      const auto attr = std::find_if(
          token.attrs.begin(), token.attrs.end(),
          [&](const Attribute& a) { return a.name == project_attr_; });
      const tree::NodeId n =
          project_attr_.empty() || attr == token.attrs.end() ||
                  attr->value.empty()
              ? Create(token, token.data)
              : Create(token, token.data + "@" + attr->value);
      if (IsVoidElement(token.data) || token.self_closing) {
        observer_->NodeClosed(n);
      } else {
        open_.push_back({n, token.data, 0});
      }
      break;
    }
    case Token::Type::kEndTag:
      // Close up to the innermost matching open element; ignore the end tag
      // if there is none.
      for (size_t i = open_.size() - 1; i >= 1; --i) {
        if (open_[i].tag != token.data) continue;
        while (open_.size() > i) Pop();
        break;
      }
      break;
  }
}

util::Status TreeConstructor::Finish() {
  while (open_.size() > 1) Pop();
  if (builder_.size() == 1) {
    return util::Status::InvalidArgument("no content in HTML input");
  }
  return util::Status::OK();
}

bool TreeConstructor::strips_root() const {
  const tree::NodeId first = builder_.first_child(0);
  return first != tree::kNoNode &&
         builder_.next_sibling(first) == tree::kNoNode;
}

tree::Tree TreeConstructor::Build() {
  const bool strip = strips_root();
  tree::Tree full = builder_.Build();
  // The unique top-level node is node 1 and its subtree is every node but
  // the root (NodeId order is document order, see tree.h).
  return strip ? tree::CopySubtree(full, 1) : std::move(full);
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
  // Every node's attributes, by unstripped id (node 0 is the synthetic root).
  struct AttrRecorder final : TreeConstructor::Observer {
    std::vector<std::vector<std::pair<std::string, std::string>>> attrs{1};
    void NodeCreated(tree::NodeId /*n*/, tree::NodeId /*parent*/,
                     int32_t /*k*/, const Token& token) override {
      auto& node_attrs = attrs.emplace_back();
      for (const Attribute& a : token.attrs) {
        node_attrs.emplace_back(a.name, a.value);
      }
    }
  } recorder;
  TreeConstructor constructor({}, &recorder);
  for (const Token& token : Tokenize(html)) constructor.Add(token);
  MD_RETURN_NOT_OK(constructor.Finish());
  if (constructor.strips_root()) recorder.attrs.erase(recorder.attrs.begin());
  return Document(constructor.Build(), std::move(recorder.attrs));
}

util::Result<tree::Tree> ParseTree(std::string_view html,
                                   std::string_view project_attr) {
  TreeConstructor constructor(project_attr);
  for (const Token& token : Tokenize(html)) constructor.Add(token);
  MD_RETURN_NOT_OK(constructor.Finish());
  return constructor.Build();
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

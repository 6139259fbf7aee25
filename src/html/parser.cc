#include "src/html/parser.h"

#include <algorithm>

namespace mdatalog::html {

namespace {

/// The tags tree construction treats specially. Void elements never have
/// children and never go on the open stack; a start tag of the other kinds
/// closes an open element of its own kind, and a row also closes a cell.
enum class Kind { kOther, kVoid, kP, kLi, kCell, kRow, kOption, kDef };

Kind Classify(std::string_view t) {
  switch (t.size()) {
    case 1:
      return t == "p" ? Kind::kP : Kind::kOther;
    case 2:
      if (t == "li") return Kind::kLi;
      if (t == "td" || t == "th") return Kind::kCell;
      if (t == "tr") return Kind::kRow;
      if (t == "dd" || t == "dt") return Kind::kDef;
      return t == "br" || t == "hr" ? Kind::kVoid : Kind::kOther;
    case 3:
      return t == "col" || t == "img" || t == "wbr" ? Kind::kVoid
                                                    : Kind::kOther;
    case 4:
      return t == "area" || t == "base" || t == "link" || t == "meta"
                 ? Kind::kVoid
                 : Kind::kOther;
    case 5:
      return t == "embed" || t == "input" || t == "param" || t == "track"
                 ? Kind::kVoid
                 : Kind::kOther;
    case 6:
      if (t == "option") return Kind::kOption;
      return t == "source" ? Kind::kVoid : Kind::kOther;
    default:
      return Kind::kOther;
  }
}

/// True iff a start tag of kind `k` implicitly closes an open `open` element.
bool AutoCloses(Kind k, std::string_view open) {
  if (k == Kind::kOther || k == Kind::kVoid) return false;
  const Kind o = Classify(open);
  return o == k || (k == Kind::kRow && o == Kind::kCell);
}

/// Scans `html` whole into `constructor` and ends the input (without an
/// EvalControl the scanner cannot fail).
util::Status Construct(std::string_view html, TreeConstructor* constructor) {
  StreamTokenizer tokenizer;
  (void)tokenizer.Feed(html, constructor);
  (void)tokenizer.Finish(constructor);
  return constructor->Finish();
}

}  // namespace

TreeConstructor::TreeConstructor(std::string_view project_attr,
                                 Observer* observer)
    : project_attr_(project_attr), observer_(observer) {
  static Observer no_observer;
  if (observer_ == nullptr) observer_ = &no_observer;
  open_.push_back({builder_.Root("#document"), "#document", 0});
}

tree::NodeId TreeConstructor::Create(const TokenView& token,
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

void TreeConstructor::Add(const TokenView& token) {
  switch (token.type) {
    case Token::Type::kDoctype:
    case Token::Type::kComment:
      break;  // not represented in the document tree
    case Token::Type::kText:
      observer_->NodeClosed(Create(token, "#text"));
      break;
    case Token::Type::kStartTag: {
      const std::string_view tag = token.data;
      const Kind kind = Classify(tag);
      while (open_.size() > 1 && AutoCloses(kind, open_.back().tag)) Pop();
      // Remark 2.2: the first occurrence of the attribute wins; an empty
      // value does not project.
      std::string_view label = tag;
      const auto attr = std::find_if(
          token.attrs.begin(), token.attrs.end(),
          [&](const AttributeView& a) { return a.name == project_attr_; });
      if (!project_attr_.empty() && attr != token.attrs.end() &&
          !attr->value.empty()) {
        label_.assign(tag).append(1, '@').append(attr->value);
        label = label_;
      }
      const tree::NodeId n = Create(token, label);
      if (kind == Kind::kVoid || token.self_closing) {
        observer_->NodeClosed(n);
      } else {
        open_.push_back({n, std::string(tag), 0});
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
  return strips_root() ? builder_.BuildWithoutRoot() : builder_.Build();
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
                     int32_t /*k*/, const TokenView& token) override {
      auto& node_attrs = attrs.emplace_back();
      for (const AttributeView& a : token.attrs) {
        node_attrs.emplace_back(a.name, a.value);
      }
    }
  } recorder;
  TreeConstructor constructor({}, &recorder);
  MD_RETURN_NOT_OK(Construct(html, &constructor));
  if (constructor.strips_root()) recorder.attrs.erase(recorder.attrs.begin());
  return Document(constructor.Build(), std::move(recorder.attrs));
}

util::Result<tree::Tree> ParseTree(std::string_view html,
                                   std::string_view project_attr) {
  TreeConstructor constructor(project_attr);
  MD_RETURN_NOT_OK(Construct(html, &constructor));
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

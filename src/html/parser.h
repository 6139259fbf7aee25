#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/html/tokenizer.h"
#include "src/tree/tree.h"
#include "src/util/result.h"

/// \file parser.h
/// HTML tree construction: the pre-parsed document trees that tree-based
/// wrapping (Section 1) presupposes, built by one TreeConstructor for the
/// batch parsers below and the streaming session (src/stream/) alike, fed
/// directly by the one scanner of tokenizer.h.
///
/// The builder is forgiving in the usual browser ways: void elements never
/// nest; li/p/td/th/tr/option/dd/dt auto-close their predecessors; unmatched
/// end tags are ignored; everything still open at end of input is closed.
/// Text runs become leaf nodes labeled "#text" whose payload is the decoded
/// character data — the "lists of character symbols modeled as subtrees"
/// reading of Remark 2.2.

namespace mdatalog::html {

/// Event-by-event tree construction. The tree grows under a synthetic
/// "#document" root (node 0, created up front and never reported); the
/// root is stripped at the end when it has exactly one child, so the paper's
/// trees keep a unique root. With a non-empty `project_attr`, each element's
/// label carries that attribute's value (Remark 2.2, "div@sidebar" for
/// <div class=sidebar>): the first occurrence of the attribute wins and an
/// empty value does not project — exactly ProjectAttributeIntoLabels, applied
/// as each node is created instead of in a second tree.
class TreeConstructor : public TokenSink {
 public:
  /// Events in document order. Every created node but the root is closed
  /// exactly once, after its last descendant, by Finish() at the latest.
  class Observer {
   public:
    /// `n` is the new `k`-th child (1-based) of `parent`, made from `token`
    /// (a start tag or a text run event); its label and text are set.
    virtual void NodeCreated(tree::NodeId /*n*/, tree::NodeId /*parent*/,
                             int32_t /*k*/, const TokenView& /*token*/) {}
    virtual void NodeClosed(tree::NodeId /*n*/) {}
  };

  /// A non-null `observer` must outlive the constructor.
  explicit TreeConstructor(std::string_view project_attr = {},
                           Observer* observer = nullptr);

  /// Consumes the next scanner event.
  void Add(const TokenView& token) override;
  /// End of input: closes every element still open, innermost first. Fails
  /// with InvalidArgument when the input held no content.
  util::Status Finish();
  /// The root-strip rule: the synthetic root goes when it has exactly one
  /// child, and every id shifts down by one. Final once Finish() succeeded.
  bool strips_root() const;
  /// The finished tree, root strip applied. Call once, after Finish().
  tree::Tree Build();

  /// The partial tree, unstripped (the synthetic root is node 0).
  const tree::TreeBuilder& builder() const { return builder_; }

 private:
  struct OpenElement {
    tree::NodeId node;
    std::string tag;
    int32_t num_children;
  };

  tree::NodeId Create(const TokenView& token, std::string_view label);
  void Pop();  // closes the innermost open element

  const std::string project_attr_;
  Observer* observer_;  // never null
  tree::TreeBuilder builder_;
  /// Open elements, innermost last; the synthetic root is always first.
  std::vector<OpenElement> open_;
  std::string label_;  ///< reused buffer for a projected "tag@value" label
};

/// A parsed document: the label tree plus per-node attribute lists (kept out
/// of the Tree so the τ_ur schema stays exactly the paper's).
class Document {
 public:
  Document(tree::Tree t, std::vector<std::vector<std::pair<std::string,
           std::string>>> attrs)
      : tree_(std::move(t)), attrs_(std::move(attrs)) {}

  const tree::Tree& tree() const { return tree_; }

  /// Value of attribute `name` on `n`, or "" if absent.
  std::string GetAttr(tree::NodeId n, const std::string& name) const;
  bool HasAttr(tree::NodeId n, const std::string& name) const;

  /// All nodes whose attribute `name` equals `value`.
  std::vector<tree::NodeId> NodesWithAttr(const std::string& name,
                                          const std::string& value) const;

 private:
  tree::Tree tree_;
  std::vector<std::vector<std::pair<std::string, std::string>>> attrs_;
};

/// Parses HTML into a Document that keeps every attribute. If the markup has
/// several top-level nodes, the synthetic "#document" root stays (the
/// paper's trees have a unique root). Fails only on empty input.
util::Result<Document> ParseHtml(std::string_view html);

/// Parses HTML straight into the tree wrappers evaluate over, with
/// `project_attr` (if non-empty) projected into the labels: the same tree as
/// ProjectAttributeIntoLabels(*ParseHtml(html), project_attr), built in one
/// pass and without retaining any attribute. Fails only on empty input.
util::Result<tree::Tree> ParseTree(std::string_view html,
                                   std::string_view project_attr);

/// Remark 2.2: merge selected attributes into the node labels, producing a
/// plain tree whose alphabet is e.g. "div@sidebar" for <div class=sidebar> (the separator is '@' because '.' delimits Elog path steps).
/// Wrappers can then use ordinary label_<l> predicates on attribute values.
tree::Tree ProjectAttributeIntoLabels(const Document& doc,
                                      const std::string& attr);

}  // namespace mdatalog::html

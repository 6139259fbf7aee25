#include "src/tree/serialize.h"

namespace mdatalog::tree {

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string ToXml(const Tree& t, int32_t indent) {
  std::string out;
  const auto pad = [&](int32_t depth) {
    if (indent > 0) out.append(static_cast<size_t>(depth * indent), ' ');
  };
  const auto close = [&](NodeId n, int32_t depth) {
    if (!t.IsLeaf(n)) pad(depth);
    out += "</";
    out += t.label_name(n);
    out += '>';
    if (indent >= 0) out += '\n';
  };
  // Nodes open in id (= document) order; before node n opens, every node
  // from n-1 up to n's parent has closed.
  NodeId last = kNoNode;
  int32_t depth = -1;  // depth of `last`
  for (NodeId n = 0; n < t.size(); ++n) {
    for (; last != t.parent(n); last = t.parent(last), --depth) {
      close(last, depth);
    }
    last = n;
    pad(++depth);
    out += '<';
    out += t.label_name(n);
    out += '>';
    if (t.HasText(n)) out += XmlEscape(t.text(n));
    if (!t.IsLeaf(n) && indent >= 0) out += '\n';
  }
  for (; last != kNoNode; last = t.parent(last), --depth) close(last, depth);
  return out;
}

}  // namespace mdatalog::tree

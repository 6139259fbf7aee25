#pragma once

// HTML fragments that stress the tokenizer and the tree constructor, shared
// by the streaming differential tests and the scanner differential test.

#include <string>
#include <vector>

namespace mdatalog::testing_util {

/// Parser stress fragments: auto-close chains, entities, raw-text elements,
/// comments and doctype, unmatched end tags, void / self-closing elements,
/// multiple top-level nodes (root kept) and single roots (root stripped).
inline const std::vector<std::string>& NastyPages() {
  static const std::vector<std::string> pages = {
      "<html><body><ul><li>a<li>b &amp; c<li>d</ul></body></html>",
      "<p>first<p>second<hr><p>third",
      R"(leading text<div class="x"><span>mid</span></div>trailing)",
      "<!DOCTYPE html><!-- note --><div><script>if(a<b){x=\"</div>\";}"
      "</script><em>t</em></div>",
      R"(<table><tr class=item><td class=price>1 &lt; 2</td><td>x</td>)"
      R"(<tr class=item><td class=price>3</td></table>)",
      "<div><p>unclosed<div>nested</div>",
      "<a/><br><img src=x><b>bold</b>",
      "justtext",
      "<div>&unknown; &amp;&#65;</div>",
      "<ul><li><ul><li>deep</ul></li></ul>",
      "<div>a<!-- c1 --><style>p { color: red }</style>b</div>",
      "<li>top-level-li<li>another",
      "<SCRIPT>x</SCRIPT><p>hi</p>",
      "<div><script>a</scripts><p>x</p></script><b>y</b></div>",
      "<div><Style>p>q{}</STYLE\n><i>z</i><script>w</script/>v</div>",
  };
  return pages;
}

}  // namespace mdatalog::testing_util

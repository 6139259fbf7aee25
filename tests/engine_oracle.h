#pragma once

// Engine oracles for the runtime's differential tests. The serving runtime
// picks one engine per program (the TMNF worklist for Elog⁻, native Elog for
// Elog⁻Δ); the two engines it does not route through are called here
// directly, with no cache, memo or thread pool in between, so every runtime
// answer can be held against them:
//
//  * NativeXml — elog::EvaluateElog over the tree (Section 6 semantics);
//  * SemiNaiveXml — core::EvaluateSemiNaive of the program's TMNF
//    translation over a fresh core::TreeDatabase of the tree. Defined only
//    for programs whose Corollary 6.4 pipeline compiled (has_ground_plan).
//
// Both build the output exactly as the runtime does (BuildOutputTree +
// ToXml), so equal extents give byte-identical XML.

#include <memory>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "src/core/database.h"
#include "src/core/eval.h"
#include "src/elog/eval.h"
#include "src/html/parser.h"
#include "src/runtime/program_cache.h"
#include "src/tree/serialize.h"
#include "src/tree/tree.h"
#include "src/wrapper/wrapper.h"

namespace mdatalog::oracle {

/// The tree the runtime evaluates `html` over: the parse tree, with `attr`
/// projected into the labels when non-empty (Remark 2.2).
inline tree::Tree PreparedTree(std::string_view html,
                               const std::string& attr) {
  auto doc = html::ParseHtml(html);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (!doc.ok()) return tree::Tree();
  return attr.empty() ? doc->tree()
                      : html::ProjectAttributeIntoLabels(*doc, attr);
}

/// Compiles `w` outside any runtime, with syntactic keys only, so a
/// canonically equal wrapper compiled earlier is never substituted for it.
inline std::shared_ptr<const runtime::CompiledWrapperProgram> Compile(
    const wrapper::Wrapper& w) {
  runtime::ProgramCache cache(/*capacity=*/1, /*canonical_keys=*/false);
  auto program = cache.GetOrCompile(w);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return program.ok() ? *program : nullptr;
}

inline std::string ToOutputXml(const runtime::CompiledWrapperProgram& program,
                               const elog::ElogResult& matches,
                               const tree::Tree& t) {
  return tree::ToXml(wrapper::BuildOutputTree(
      program.prepared.extraction_patterns, matches, t));
}

/// Native Elog evaluation of `program` over `t`.
inline std::string NativeXml(const runtime::CompiledWrapperProgram& program,
                             const tree::Tree& t) {
  auto matches = elog::EvaluateElog(program.prepared.program, t);
  EXPECT_TRUE(matches.ok()) << matches.status().ToString();
  if (!matches.ok()) return "";
  return ToOutputXml(program, *matches, t);
}

/// Semi-naive evaluation of `program`'s TMNF translation over `t`.
inline std::string SemiNaiveXml(const runtime::CompiledWrapperProgram& program,
                                const tree::Tree& t) {
  EXPECT_TRUE(program.has_ground_plan) << "no datalog translation";
  if (!program.has_ground_plan) return "";
  const core::TreeDatabase edb(t);
  auto eval = core::EvaluateSemiNaive(program.tmnf, edb);
  EXPECT_TRUE(eval.ok()) << eval.status().ToString();
  if (!eval.ok()) return "";
  elog::ElogResult matches;
  const auto& patterns = program.prepared.extraction_patterns;
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (program.pattern_preds[i] < 0) continue;  // never derivable
    matches.matches[patterns[i]] = eval->Unary(program.pattern_preds[i]);
  }
  return ToOutputXml(program, matches, t);
}

/// Expects `xml` (the runtime's answer for `program` over `t`) to equal the
/// native oracle's, and the semi-naive oracle's where the program has a
/// datalog translation. `context` labels failures.
inline void ExpectMatchesOracles(const std::string& xml,
                                 const runtime::CompiledWrapperProgram& program,
                                 const tree::Tree& t,
                                 const std::string& context = "") {
  EXPECT_EQ(xml, NativeXml(program, t)) << context << " (native oracle)";
  if (program.has_ground_plan) {
    EXPECT_EQ(xml, SemiNaiveXml(program, t))
        << context << " (semi-naive oracle)";
  }
}

}  // namespace mdatalog::oracle

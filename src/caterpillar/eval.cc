#include "src/caterpillar/eval.h"

#include <algorithm>
#include <set>

#include "src/core/tree_schema.h"

namespace mdatalog::caterpillar {

using tree::NodeId;
using tree::Tree;

namespace {

util::Status UnknownRel(const std::string& name) {
  return util::Status::InvalidArgument("unknown binary relation '" + name +
                                       "' in caterpillar expression");
}

util::Status UnknownTest(const std::string& name) {
  return util::Status::InvalidArgument("unknown unary predicate '" + name +
                                       "' in caterpillar expression");
}

/// The caterpillar signature (eval.h).
constexpr core::SchemaSet kTests = core::kUnarySchema;
constexpr core::SchemaSet kRels =
    core::kFunctionalAxes |
    core::SchemaSet{core::SchemaPred::kChild, core::SchemaPred::kLastChild};

/// A test or relation name resolved against one tree; `known` is false for a
/// name outside the caterpillar signature.
struct Resolved {
  bool known = false;
  core::SchemaPred pred = core::SchemaPred::kRoot;
  int32_t k = 0;                               ///< child<k>
  tree::LabelId label = util::kInvalidSymbol;  ///< label_<l>
};

Resolved Resolve(const Tree& t, const std::string& name, bool test) {
  std::optional<core::SchemaRef> ref =
      core::ClassifySchemaPred(name, test ? 1 : 2);
  if (!(test ? kTests : kRels).contains(ref)) return {};
  Resolved r{true, ref->pred, ref->k, util::kInvalidSymbol};
  if (ref->pred == core::SchemaPred::kLabel) r.label = t.FindLabel(ref->label);
  return r;
}

}  // namespace

util::Result<std::vector<NodeId>> EvalImage(
    const Tree& t, const CatNfa& nfa, const std::vector<NodeId>& sources) {
  const int64_t n = t.size();
  const int64_t num_states = nfa.NumStates();
  std::vector<bool> visited(static_cast<size_t>(n * num_states), false);
  std::vector<std::pair<int32_t, NodeId>> worklist;
  auto push = [&](int32_t state, NodeId node) {
    size_t key = static_cast<size_t>(state) * n + node;
    if (!visited[key]) {
      visited[key] = true;
      worklist.emplace_back(state, node);
    }
  };
  for (NodeId src : sources) push(nfa.start, src);

  // Each edge's name is classified once; an unknown one fails when reached.
  std::vector<std::vector<Resolved>> resolved(num_states);
  for (int64_t s = 0; s < num_states; ++s) {
    for (const NfaEdge& edge : nfa.states[s]) {
      resolved[s].push_back(edge.type == NfaEdge::Type::kEps
                                ? Resolved{}
                                : Resolve(t, edge.name,
                                          edge.type == NfaEdge::Type::kTest));
    }
  }

  while (!worklist.empty()) {
    auto [state, node] = worklist.back();
    worklist.pop_back();
    for (size_t i = 0; i < nfa.states[state].size(); ++i) {
      const NfaEdge& edge = nfa.states[state][i];
      const Resolved& r = resolved[state][i];
      switch (edge.type) {
        case NfaEdge::Type::kEps:
          push(edge.target, node);
          break;
        case NfaEdge::Type::kTest:
          if (!r.known) return UnknownTest(edge.name);
          if (core::Holds(t, r.pred, r.label, node)) push(edge.target, node);
          break;
        case NfaEdge::Type::kRel:
          if (!r.known) return UnknownRel(edge.name);
          core::ForEachSuccessor(t, {r.pred, r.k}, edge.inverted, node,
                                 [&](NodeId m) { push(edge.target, m); });
          break;
      }
    }
  }

  std::vector<NodeId> out;
  for (NodeId m = 0; m < t.size(); ++m) {
    if (visited[static_cast<size_t>(nfa.accept) * n + m]) out.push_back(m);
  }
  return out;
}

util::Result<std::vector<NodeId>> EvalImage(
    const Tree& t, const ExprPtr& e, const std::vector<NodeId>& sources) {
  return EvalImage(t, CompileToNfa(e), sources);
}

util::Result<bool> EvalPair(const Tree& t, const ExprPtr& e, NodeId x,
                            NodeId y) {
  MD_ASSIGN_OR_RETURN(std::vector<NodeId> image, EvalImage(t, e, {x}));
  return std::binary_search(image.begin(), image.end(), y);
}

namespace {

using PairSet = std::set<std::pair<NodeId, NodeId>>;

util::Result<PairSet> Denote(const Tree& t, const ExprPtr& e) {
  switch (e->kind) {
    case Expr::Kind::kEpsilon: {
      PairSet out;
      for (NodeId n = 0; n < t.size(); ++n) out.emplace(n, n);
      return out;
    }
    case Expr::Kind::kTest: {
      const Resolved r = Resolve(t, e->name, /*test=*/true);
      if (!r.known) return UnknownTest(e->name);
      PairSet out;
      for (NodeId n = 0; n < t.size(); ++n) {
        if (core::Holds(t, r.pred, r.label, n)) out.emplace(n, n);
      }
      return out;
    }
    case Expr::Kind::kRel: {
      const Resolved r = Resolve(t, e->name, /*test=*/false);
      if (!r.known) return UnknownRel(e->name);
      PairSet out;
      for (NodeId n = 0; n < t.size(); ++n) {
        core::ForEachSuccessor(t, {r.pred, r.k}, e->inverted, n,
                               [&](NodeId m) { out.emplace(n, m); });
      }
      return out;
    }
    case Expr::Kind::kConcat: {
      MD_ASSIGN_OR_RETURN(PairSet acc, Denote(t, e->children[0]));
      for (size_t i = 1; i < e->children.size(); ++i) {
        MD_ASSIGN_OR_RETURN(PairSet next, Denote(t, e->children[i]));
        PairSet joined;
        for (const auto& [x, y] : acc) {
          auto it = next.lower_bound({y, 0});
          for (; it != next.end() && it->first == y; ++it) {
            joined.emplace(x, it->second);
          }
        }
        acc = std::move(joined);
      }
      return acc;
    }
    case Expr::Kind::kUnion: {
      PairSet out;
      for (const ExprPtr& c : e->children) {
        MD_ASSIGN_OR_RETURN(PairSet part, Denote(t, c));
        out.insert(part.begin(), part.end());
      }
      return out;
    }
    case Expr::Kind::kStar: {
      MD_ASSIGN_OR_RETURN(PairSet base, Denote(t, e->children[0]));
      // Reflexive closure + per-node BFS for transitivity.
      std::vector<std::vector<NodeId>> succ(t.size());
      for (const auto& [x, y] : base) succ[x].push_back(y);
      PairSet out;
      for (NodeId src = 0; src < t.size(); ++src) {
        std::vector<bool> seen(t.size(), false);
        std::vector<NodeId> stack = {src};
        seen[src] = true;
        while (!stack.empty()) {
          NodeId u = stack.back();
          stack.pop_back();
          out.emplace(src, u);
          for (NodeId v : succ[u]) {
            if (!seen[v]) {
              seen[v] = true;
              stack.push_back(v);
            }
          }
        }
      }
      return out;
    }
    case Expr::Kind::kInverse: {
      MD_ASSIGN_OR_RETURN(PairSet base, Denote(t, e->children[0]));
      PairSet out;
      for (const auto& [x, y] : base) out.emplace(y, x);
      return out;
    }
  }
  return util::Status::Internal("unreachable expression kind");
}

}  // namespace

util::Result<std::vector<std::pair<NodeId, NodeId>>> EvalRelationReference(
    const Tree& t, const ExprPtr& e) {
  MD_ASSIGN_OR_RETURN(PairSet pairs, Denote(t, e));
  return std::vector<std::pair<NodeId, NodeId>>(pairs.begin(), pairs.end());
}

}  // namespace mdatalog::caterpillar

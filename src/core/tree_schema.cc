#include "src/core/tree_schema.h"

#include <limits>

namespace mdatalog::core {

namespace {

/// Indexed by SchemaPred.
constexpr const char* kTags[kNumSchemaPreds] = {
    "root",       "leaf",        "firstsibling",   "lastsibling",
    "label",      "firstchild",  "nextsibling",    "child",
    "lastchild",  "nextsibling_tc", "child_k"};

constexpr std::string_view kLabelPrefix = "label_";
constexpr std::string_view kChildPrefix = "child";

}  // namespace

const char* SchemaPredTag(SchemaPred p) {
  return kTags[static_cast<int>(p)];
}

std::optional<SchemaRef> ClassifySchemaPred(std::string_view name,
                                            int32_t arity) {
  if (arity == 1 && name.size() > kLabelPrefix.size() &&
      name.starts_with(kLabelPrefix)) {
    return SchemaRef{SchemaPred::kLabel, 0,
                     std::string(name.substr(kLabelPrefix.size()))};
  }
  if (arity == 2 && name.size() > kChildPrefix.size() &&
      name.starts_with(kChildPrefix)) {
    // child<k>: decimal k in [1, INT32_MAX]; a longer index is no schema
    // predicate rather than a wrapped one.
    int64_t k = 0;
    for (char c : name.substr(kChildPrefix.size())) {
      if (c < '0' || c > '9') return std::nullopt;
      k = k * 10 + (c - '0');
      if (k > std::numeric_limits<int32_t>::max()) return std::nullopt;
    }
    if (k < 1) return std::nullopt;
    return SchemaRef{SchemaPred::kChildK, static_cast<int32_t>(k), {}};
  }
  for (int i = 0; i < kNumSchemaPreds; ++i) {
    const auto p = static_cast<SchemaPred>(i);
    if (p == SchemaPred::kLabel || p == SchemaPred::kChildK) continue;
    if (arity == SchemaArity(p) && name == kTags[i]) return SchemaRef{p, 0, {}};
  }
  return std::nullopt;
}

bool IsSchemaPred(std::string_view name, int32_t arity, SchemaPred p) {
  const std::optional<SchemaRef> ref = ClassifySchemaPred(name, arity);
  return ref.has_value() && ref->pred == p;
}

std::string LabelPredName(std::string_view label) {
  return std::string(kLabelPrefix) + std::string(label);
}

}  // namespace mdatalog::core

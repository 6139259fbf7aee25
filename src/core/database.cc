#include "src/core/database.h"

#include <algorithm>

#include "src/telemetry/trace.h"
#include "src/util/check.h"

namespace mdatalog::core {

const std::vector<int32_t> Relation::kEmpty;

void Relation::AddUnary(int32_t a) {
  MD_DCHECK(arity_ == 1);
  MD_DCHECK(a >= 0 && a < domain_size_);
  if (unary_set_.domain_size() != domain_size_) unary_set_.Reset(domain_size_);
  if (!unary_set_.Insert(a)) return;
  unary_.push_back(a);
}

void Relation::AddBinary(int32_t a, int32_t b) {
  MD_DCHECK(arity_ == 2);
  MD_DCHECK(a >= 0 && a < domain_size_ && b >= 0 && b < domain_size_);
  if (fwd_.empty()) {
    fwd_.resize(domain_size_);
    bwd_.resize(domain_size_);
    fwd_fn_.assign(domain_size_, -1);
    bwd_fn_.assign(domain_size_, -1);
  }
  pairs_.emplace_back(a, b);
  fwd_[a].push_back(b);
  bwd_[b].push_back(a);
  if (fwd_fn_[a] != -1 && fwd_fn_[a] != b) fwd_functional_ = false;
  fwd_fn_[a] = b;
  if (bwd_fn_[b] != -1 && bwd_fn_[b] != a) bwd_functional_ = false;
  bwd_fn_[b] = a;
}

bool Relation::ContainsUnary(int32_t a) const {
  MD_DCHECK(arity_ == 1);
  return unary_set_.Contains(a);
}

bool Relation::ContainsBinary(int32_t a, int32_t b) const {
  MD_DCHECK(arity_ == 2);
  if (fwd_.empty() || a < 0 || a >= domain_size_) return false;
  if (fwd_functional_) return b >= 0 && fwd_fn_[a] == b;
  const std::vector<int32_t>& succ = fwd_[a];
  return std::find(succ.begin(), succ.end(), b) != succ.end();
}

const std::vector<int32_t>& Relation::Forward(int32_t a) const {
  MD_DCHECK(arity_ == 2);
  if (fwd_.empty() || a < 0 || a >= domain_size_) return kEmpty;
  return fwd_[a];
}

const std::vector<int32_t>& Relation::Backward(int32_t b) const {
  MD_DCHECK(arity_ == 2);
  if (bwd_.empty() || b < 0 || b >= domain_size_) return kEmpty;
  return bwd_[b];
}

void ExplicitDatabase::AddFact(const std::string& pred) {
  GetOrCreate(pred, 0)->SetNullaryTrue();
}
void ExplicitDatabase::AddFact(const std::string& pred, int32_t a) {
  GetOrCreate(pred, 1)->AddUnary(a);
}
void ExplicitDatabase::AddFact(const std::string& pred, int32_t a, int32_t b) {
  GetOrCreate(pred, 2)->AddBinary(a, b);
}

Relation* ExplicitDatabase::GetOrCreate(const std::string& name,
                                        int32_t arity) {
  auto key = std::make_pair(name, arity);
  auto it = rels_.find(key);
  if (it == rels_.end()) {
    it = rels_.emplace(key, Relation(arity, domain_size_)).first;
  }
  return &it->second;
}

const Relation* ExplicitDatabase::Get(const std::string& name,
                                      int32_t arity) const {
  auto it = rels_.find(std::make_pair(name, arity));
  return it == rels_.end() ? nullptr : &it->second;
}

const Relation* TreeDatabase::Get(const std::string& name,
                                  int32_t arity) const {
  const std::optional<SchemaRef> ref = ClassifySchemaPred(name, arity);
  if (!ref.has_value()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(std::make_pair(name, arity));
  if (it != cache_.end()) return &it->second;
  return Materialize(name, arity, *ref);
}

const Relation* TreeDatabase::Materialize(const std::string& name,
                                          int32_t arity,
                                          const SchemaRef& ref) const {
  const tree::Tree& t = tree_;
  telemetry::TraceSpan span(telemetry::CurrentTrace(), "edb.materialize");
  if (span) {
    span.Tag(SchemaPredTag(ref.pred));
    span.Value("nodes", t.size());
  }
  Relation rel(arity, t.size());
  if (arity == 1) {
    // Compare interned ids, not strings: one int compare per node. A label
    // not in the alphabet matches no node — empty relation (Remark 2.2).
    const tree::LabelId label = ref.pred == SchemaPred::kLabel
                                    ? t.FindLabel(ref.label)
                                    : util::kInvalidSymbol;
    for (tree::NodeId n = 0; n < t.size(); ++n) {
      if (Holds(t, ref.pred, label, n)) rel.AddUnary(n);
    }
  } else {
    for (tree::NodeId n = 0; n < t.size(); ++n) {
      ForEachSuccessor(t, {ref.pred, ref.k}, /*inverse=*/false, n,
                       [&](tree::NodeId m) { rel.AddBinary(n, m); });
    }
  }

  auto [it, inserted] =
      cache_.emplace(std::make_pair(name, arity), std::move(rel));
  MD_CHECK(inserted);
  return &it->second;
}

}  // namespace mdatalog::core

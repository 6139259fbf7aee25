#include "src/mso/automaton.h"

#include <algorithm>
#include <functional>
#include <set>

#include "src/util/check.h"

namespace mdatalog::mso {

BtaState Bta::Step(int32_t sym, BtaState l, BtaState r) const {
  auto it = delta.find({sym, l, r});
  MD_CHECK(it != delta.end());
  return it->second;
}

namespace {

/// Generic reachable-product construction: abstract states of type Key are
/// discovered from the leaf shapes upward; the result is complete over the
/// discovered states. `step` must be total.
template <typename Key>
util::Result<Bta> BuildReachable(
    int32_t num_classes, int32_t num_bits,
    const std::function<Key(int32_t, const Key*, const Key*)>& step,
    const std::function<bool(const Key&)>& is_final, int64_t max_states) {
  Bta out;
  out.num_classes = num_classes;
  out.num_bits = num_bits;
  std::map<Key, BtaState> ids;
  std::vector<Key> keys;
  auto intern = [&](const Key& k) {
    auto it = ids.find(k);
    if (it != ids.end()) return it->second;
    BtaState id = static_cast<BtaState>(keys.size());
    ids.emplace(k, id);
    keys.push_back(k);
    return id;
  };

  int32_t num_syms = num_classes << num_bits;
  // Leaf shapes first.
  for (int32_t sym = 0; sym < num_syms; ++sym) {
    Key k = step(sym, nullptr, nullptr);
    out.delta[{sym, kAbsent, kAbsent}] = intern(k);
  }
  // Saturate: whenever new states appear, extend all combinations.
  size_t processed = 0;  // states whose pair-combinations are complete
  while (processed < keys.size()) {
    if (static_cast<int64_t>(keys.size()) > max_states) {
      return util::Status::ResourceExhausted(
          "tree automaton construction exceeded max_states (" +
          std::to_string(max_states) + ")");
    }
    size_t fresh = processed;
    processed = keys.size();
    // Combinations involving at least one state with id >= fresh.
    for (size_t qi = 0; qi < processed; ++qi) {
      // Copy the key: intern() may reallocate `keys`.
      Key q = keys[qi];
      for (int32_t sym = 0; sym < num_syms; ++sym) {
        if (qi >= fresh) {
          out.delta[{sym, static_cast<BtaState>(qi), kAbsent}] =
              intern(step(sym, &q, nullptr));
          out.delta[{sym, kAbsent, static_cast<BtaState>(qi)}] =
              intern(step(sym, nullptr, &q));
        }
        size_t lo = qi >= fresh ? 0 : fresh;
        for (size_t ri = lo; ri < processed; ++ri) {
          Key r = keys[ri];
          out.delta[{sym, static_cast<BtaState>(qi),
                     static_cast<BtaState>(ri)}] = intern(step(sym, &q, &r));
          if (qi != ri) {
            out.delta[{sym, static_cast<BtaState>(ri),
                       static_cast<BtaState>(qi)}] =
                intern(step(sym, &r, &q));
          }
        }
      }
    }
  }
  out.num_states = static_cast<int32_t>(keys.size());
  out.finals.resize(out.num_states);
  for (int32_t q = 0; q < out.num_states; ++q) {
    out.finals[q] = is_final(keys[q]);
  }
  return out;
}

util::Result<Bta> Product(const Bta& a, const Bta& b, bool conjunction,
                          int64_t max_states) {
  if (a.num_classes != b.num_classes || a.num_bits != b.num_bits) {
    return util::Status::InvalidArgument(
        "product of automata over different alphabets");
  }
  using Key = std::pair<BtaState, BtaState>;
  auto step = [&](int32_t sym, const Key* l, const Key* r) -> Key {
    BtaState la = l ? l->first : kAbsent;
    BtaState lb = l ? l->second : kAbsent;
    BtaState ra = r ? r->first : kAbsent;
    BtaState rb = r ? r->second : kAbsent;
    return {a.Step(sym, la, ra), b.Step(sym, lb, rb)};
  };
  auto is_final = [&](const Key& k) {
    return conjunction ? (a.finals[k.first] && b.finals[k.second])
                       : (a.finals[k.first] || b.finals[k.second]);
  };
  auto result = BuildReachable<Key>(a.num_classes, a.num_bits, step, is_final,
                                    max_states);
  if (!result.ok()) return result;
  return Minimize(*result);
}

}  // namespace

util::Result<Bta> Intersect(const Bta& a, const Bta& b, int64_t max_states) {
  return Product(a, b, /*conjunction=*/true, max_states);
}

util::Result<Bta> UnionOp(const Bta& a, const Bta& b, int64_t max_states) {
  return Product(a, b, /*conjunction=*/false, max_states);
}

Bta Complement(const Bta& a) {
  Bta out = a;
  for (int32_t q = 0; q < out.num_states; ++q) {
    out.finals[q] = !out.finals[q];
  }
  return out;
}

util::Result<Bta> ProjectLastBit(const Bta& a, int64_t max_states) {
  MD_CHECK(a.num_bits >= 1);
  int32_t new_bits = a.num_bits - 1;
  int32_t high_bit = 1 << new_bits;  // the bit being erased (last in order)
  using Key = std::vector<BtaState>;  // sorted subset
  auto step = [&](int32_t sym, const Key* l, const Key* r) -> Key {
    int32_t cls = sym % a.num_classes;
    uint32_t mask = static_cast<uint32_t>(sym / a.num_classes);
    std::set<BtaState> next;
    for (uint32_t bit : {0u, static_cast<uint32_t>(high_bit)}) {
      int32_t full_sym = a.Sym(cls, mask | bit);
      Key empty;
      const Key& ls = l ? *l : empty;
      const Key& rs = r ? *r : empty;
      if (!l && !r) {
        next.insert(a.Step(full_sym, kAbsent, kAbsent));
      } else if (l && !r) {
        for (BtaState ql : ls) next.insert(a.Step(full_sym, ql, kAbsent));
      } else if (!l && r) {
        for (BtaState qr : rs) next.insert(a.Step(full_sym, kAbsent, qr));
      } else {
        for (BtaState ql : ls) {
          for (BtaState qr : rs) next.insert(a.Step(full_sym, ql, qr));
        }
      }
    }
    return Key(next.begin(), next.end());
  };
  auto is_final = [&](const Key& k) {
    for (BtaState q : k) {
      if (a.finals[q]) return true;
    }
    return false;
  };
  auto result = BuildReachable<Key>(a.num_classes, new_bits, step, is_final,
                                    max_states);
  if (!result.ok()) return result;
  return Minimize(*result);
}

Bta SingletonBit(int32_t num_classes, int32_t num_bits, int32_t bit) {
  // States: 0 = bit unseen, 1 = seen once, 2 = seen more than once (sink).
  Bta out;
  out.num_classes = num_classes;
  out.num_bits = num_bits;
  out.num_states = 3;
  out.finals = {false, true, false};
  int32_t num_syms = num_classes << num_bits;
  auto combine = [&](int32_t here, BtaState l, BtaState r) -> BtaState {
    int32_t count = here + (l == kAbsent ? 0 : l) + (r == kAbsent ? 0 : r);
    return std::min(count, 2);
  };
  for (int32_t sym = 0; sym < num_syms; ++sym) {
    uint32_t mask = static_cast<uint32_t>(sym / num_classes);
    int32_t here = (mask >> bit) & 1;
    for (BtaState l = kAbsent; l < 3; ++l) {
      for (BtaState r = kAbsent; r < 3; ++r) {
        out.delta[{sym, l, r}] = combine(here, l, r);
      }
    }
  }
  return out;
}

Bta Minimize(const Bta& a) {
  // 1. Reachability prune via the identity construction.
  auto pruned = BuildReachable<BtaState>(
      a.num_classes, a.num_bits,
      [&](int32_t sym, const BtaState* l, const BtaState* r) {
        return a.Step(sym, l ? *l : kAbsent, r ? *r : kAbsent);
      },
      [&](const BtaState& q) { return a.finals[q]; },
      /*max_states=*/a.num_states + 1);
  MD_CHECK(pruned.ok());
  Bta b = std::move(*pruned);

  // 2. Moore refinement.
  std::vector<int32_t> cls(b.num_states);
  for (int32_t q = 0; q < b.num_states; ++q) cls[q] = b.finals[q] ? 1 : 0;
  int32_t num_syms = b.NumSymbols();
  bool changed = true;
  while (changed) {
    changed = false;
    std::map<std::vector<int32_t>, int32_t> sig_ids;
    std::vector<int32_t> next_cls(b.num_states);
    for (int32_t q = 0; q < b.num_states; ++q) {
      std::vector<int32_t> sig;
      sig.push_back(cls[q]);
      for (int32_t sym = 0; sym < num_syms; ++sym) {
        sig.push_back(cls[b.Step(sym, q, kAbsent)]);
        sig.push_back(cls[b.Step(sym, kAbsent, q)]);
        for (int32_t r = 0; r < b.num_states; ++r) {
          sig.push_back(cls[b.Step(sym, q, r)]);
          sig.push_back(cls[b.Step(sym, r, q)]);
        }
      }
      auto [it, inserted] =
          sig_ids.emplace(std::move(sig), static_cast<int32_t>(sig_ids.size()));
      next_cls[q] = it->second;
    }
    if (next_cls != cls) {
      changed = true;
      cls = std::move(next_cls);
    } else {
      // Renumber stabilized classes densely (sig_ids order).
      cls = std::move(next_cls);
    }
  }

  int32_t num_classes_out = 0;
  for (int32_t c : cls) num_classes_out = std::max(num_classes_out, c + 1);
  Bta out;
  out.num_classes = b.num_classes;
  out.num_bits = b.num_bits;
  out.num_states = num_classes_out;
  out.finals.resize(num_classes_out, false);
  for (int32_t q = 0; q < b.num_states; ++q) {
    if (b.finals[q]) out.finals[cls[q]] = true;
  }
  for (const auto& [key, to] : b.delta) {
    const auto& [sym, l, r] = key;
    out.delta[{sym, l == kAbsent ? kAbsent : cls[l],
               r == kAbsent ? kAbsent : cls[r]}] = cls[to];
  }
  return out;
}

util::Result<std::vector<int32_t>> ClassOfNodes(
    const tree::Tree& t, const std::vector<std::string>& alphabet) {
  std::vector<int32_t> out(t.size());
  for (tree::NodeId n = 0; n < t.size(); ++n) {
    auto it = std::find(alphabet.begin(), alphabet.end(), t.label_name(n));
    if (it == alphabet.end()) {
      return util::Status::InvalidArgument(
          "tree label '" + t.label_name(n) +
          "' is outside the formula's finite alphabet");
    }
    out[n] = static_cast<int32_t>(it - alphabet.begin());
  }
  return out;
}

namespace {

/// Bottom-up states with all mark bits 0. Children in the *binary encoding*:
/// left = first child, right = next sibling — both later in document order,
/// so states are computed in decreasing NodeId order.
std::vector<BtaState> BottomUpStates(const Bta& a, const tree::Tree& t,
                                     const std::vector<int32_t>& class_of) {
  std::vector<BtaState> state(t.size(), kAbsent);
  for (tree::NodeId n = t.size() - 1; n >= 0; --n) {
    BtaState l = t.first_child(n) == tree::kNoNode ? kAbsent
                                                   : state[t.first_child(n)];
    BtaState r = t.next_sibling(n) == tree::kNoNode
                     ? kAbsent
                     : state[t.next_sibling(n)];
    state[n] = a.Step(a.Sym(class_of[n], 0), l, r);
  }
  return state;
}

}  // namespace

util::Result<bool> BtaAcceptsTree(const Bta& a, const tree::Tree& t,
                                  const std::vector<int32_t>& class_of) {
  if (a.num_bits != 0) {
    return util::Status::InvalidArgument(
        "sentence acceptance requires a 0-bit automaton");
  }
  std::vector<BtaState> state = BottomUpStates(a, t, class_of);
  return static_cast<bool>(a.finals[state[t.root()]]);
}

util::Result<std::vector<tree::NodeId>> BtaUnaryQuery(
    const Bta& a, const tree::Tree& t, const std::vector<int32_t>& class_of) {
  if (a.num_bits != 1) {
    return util::Status::InvalidArgument(
        "unary query evaluation requires a 1-bit automaton");
  }
  std::vector<BtaState> s0 = BottomUpStates(a, t, class_of);

  // ctx[v][q]: if v's binary subtree evaluated to q (all other nodes
  // unmarked), would the whole tree be accepted?
  std::vector<std::vector<bool>> ctx(
      t.size(), std::vector<bool>(a.num_states, false));
  ctx[t.root()] = std::vector<bool>(a.finals.begin(), a.finals.end());

  for (tree::NodeId v = 0; v < t.size(); ++v) {
    tree::NodeId l = t.first_child(v);
    tree::NodeId r = t.next_sibling(v);
    int32_t sym0 = a.Sym(class_of[v], 0);
    BtaState ls = l == tree::kNoNode ? kAbsent : s0[l];
    BtaState rs = r == tree::kNoNode ? kAbsent : s0[r];
    for (BtaState q = 0; q < a.num_states; ++q) {
      if (l != tree::kNoNode && ctx[v][a.Step(sym0, q, rs)]) {
        ctx[l][q] = true;
      }
      if (r != tree::kNoNode && ctx[v][a.Step(sym0, ls, q)]) {
        ctx[r][q] = true;
      }
    }
    // ctx[l]/ctx[r] accumulate from a single binary parent (the encoding is
    // a tree), and both l and r have larger ids than v: visited later.
  }

  std::vector<tree::NodeId> selected;
  for (tree::NodeId v = 0; v < t.size(); ++v) {
    tree::NodeId l = t.first_child(v);
    tree::NodeId r = t.next_sibling(v);
    BtaState ls = l == tree::kNoNode ? kAbsent : s0[l];
    BtaState rs = r == tree::kNoNode ? kAbsent : s0[r];
    BtaState marked = a.Step(a.Sym(class_of[v], 1), ls, rs);
    if (ctx[v][marked]) selected.push_back(v);
  }
  return selected;
}

}  // namespace mdatalog::mso

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/core/simd_kernels.h"
#include "src/util/bits.h"
#include "src/util/check.h"

/// \file nodeset.h
/// Dense bitsets over the evaluation domain: NodeSet over a fixed
/// {0..domain_size-1}, GrowingNodeSet over a domain that grows.
///
/// Monadic datalog's intensional predicates are node *sets* (arity ≤ 1), so
/// the engine stores every unary IDB relation and semi-naive delta as a
/// NodeSet: one bit per domain element, packed into 64-bit words. Membership
/// and insertion are O(1); union/intersection/difference run through the
/// runtime-dispatched kernels of simd_kernels.h (AVX2 with a scalar
/// fallback); iteration visits members in ascending order via
/// count-trailing-zeros.

namespace mdatalog::core {

class NodeSet {
 public:
  NodeSet() = default;
  explicit NodeSet(int32_t domain_size) { Reset(domain_size); }

  /// Resizes to `domain_size` and clears all members.
  void Reset(int32_t domain_size) {
    MD_DCHECK(domain_size >= 0);
    domain_size_ = domain_size;
    count_ = 0;
    words_.assign((static_cast<size_t>(domain_size) + 63) / 64, 0);
  }

  int32_t domain_size() const { return domain_size_; }
  bool empty() const { return count_ == 0; }
  int64_t count() const { return count_; }

  /// Word-level read access.
  const uint64_t* words() const { return words_.data(); }
  size_t num_words() const { return words_.size(); }

  /// Membership; out-of-domain values are simply not members.
  bool Contains(int32_t a) const {
    if (a < 0 || a >= domain_size_) return false;
    return (words_[static_cast<size_t>(a) >> 6] >> (a & 63)) & 1;
  }

  /// Inserts `a` (must be in-domain). Returns true iff newly inserted.
  bool Insert(int32_t a) {
    MD_DCHECK(a >= 0 && a < domain_size_);
    uint64_t& w = words_[static_cast<size_t>(a) >> 6];
    const uint64_t m = uint64_t{1} << (a & 63);
    if (w & m) return false;
    w |= m;
    ++count_;
    return true;
  }

  /// Removes all members; keeps the domain size.
  void Clear() {
    if (count_ == 0) return;
    std::fill(words_.begin(), words_.end(), 0);
    count_ = 0;
  }

  /// this ∪= other. Domains must match.
  void UnionWith(const NodeSet& other) {
    MD_DCHECK(domain_size_ == other.domain_size_);
    count_ = simd::OrAssignCount(words_.data(), other.words_.data(),
                                 words_.size());
  }

  /// this ∩= other. Domains must match.
  void IntersectWith(const NodeSet& other) {
    MD_DCHECK(domain_size_ == other.domain_size_);
    count_ = simd::AndAssignCount(words_.data(), other.words_.data(),
                                  words_.size());
  }

  /// this −= other. Domains must match.
  void DifferenceWith(const NodeSet& other) {
    MD_DCHECK(domain_size_ == other.domain_size_);
    count_ = simd::AndNotAssignCount(words_.data(), other.words_.data(),
                                     words_.size());
  }

  /// Smallest member, or -1 when empty.
  int32_t FindFirst() const {
    if (count_ == 0) return -1;
    return static_cast<int32_t>(simd::FindFirst(words_.data(), words_.size()));
  }

  /// Calls fn(member) for every member, in ascending order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        const int32_t b = util::Ctz64(w);
        fn(static_cast<int32_t>(wi * 64) + b);
        w &= w - 1;
      }
    }
  }

  /// Members as a sorted-ascending vector.
  std::vector<int32_t> ToVector() const {
    std::vector<int32_t> out;
    out.reserve(static_cast<size_t>(count_));
    ForEach([&](int32_t a) { out.push_back(a); });
    return out;
  }

  bool operator==(const NodeSet& other) const {
    return domain_size_ == other.domain_size_ && words_ == other.words_;
  }

 private:
  int32_t domain_size_ = 0;
  int64_t count_ = 0;
  std::vector<uint64_t> words_;
};

/// A node set whose domain grows with its largest member: one bit per node,
/// for a tree that is still growing (the stream) or whose size the set need
/// not know up front. Clear keeps the word buffer, so a set reused across
/// trees stops allocating once it has seen the largest one.
class GrowingNodeSet {
 public:
  bool Contains(int32_t n) const {
    const size_t w = static_cast<size_t>(n) >> 6;
    return w < words_.size() && (words_[w] >> (n & 63)) & 1;
  }
  /// Inserts `n` (>= 0). Returns true iff newly inserted.
  bool Insert(int32_t n) {
    MD_DCHECK(n >= 0);
    const size_t w = static_cast<size_t>(n) >> 6;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const uint64_t mask = uint64_t{1} << (n & 63);
    if (words_[w] & mask) return false;
    words_[w] |= mask;
    return true;
  }
  /// Removes all members. O(1): the words are zeroed again as they are
  /// regrown.
  void Clear() { words_.clear(); }
  /// Members, ascending.
  std::vector<int32_t> ToVector() const {
    std::vector<int32_t> out;
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t word = words_[w]; word != 0; word &= word - 1) {
        out.push_back(static_cast<int32_t>(w * 64) + util::Ctz64(word));
      }
    }
    return out;
  }
  int64_t ApproxBytes() const {
    return static_cast<int64_t>(words_.capacity() * sizeof(uint64_t));
  }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace mdatalog::core

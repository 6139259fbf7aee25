#pragma once

// Random byte soup for the parser robustness tests: short strings over a
// pool of markup, bracket and punctuation characters, so every parser sees
// unbalanced tags, stray quotes and half-formed constructs.

#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/rng.h"

namespace mdatalog::testing_util {

inline std::string RandomGarbage(util::Rng& rng, int32_t len) {
  // string_view, and the bound derived from it: a hand-counted literal pool
  // size read past the terminator (caught by ASan in CI).
  constexpr std::string_view pool =
      "abcXY_()[]{}<>/\\.,:;|&~^-=*+\"'0123456789 \t\n%@#!?";
  std::string out;
  for (int32_t i = 0; i < len; ++i) {
    out += pool[rng.Below(pool.size())];
  }
  return out;
}

}  // namespace mdatalog::testing_util

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/html/tokenizer.h"
#include "src/util/deadline.h"
#include "src/util/result.h"

/// \file reference_tokenizer.h
/// The HTML tokenizer as it was before the zero-copy scanner (tokenizer.h),
/// preserved with one fix: a raw-text element ends at "</script" or
/// "</style" in any case, followed by whitespace, '/', '>' or end of input.
///
/// It copies every construct into a buffer, accumulates text byte by byte,
/// rescans a split construct from scratch and returns one heap-allocated
/// Token per construct — exactly the costs the scanner removed. Kept as an
/// independent oracle for the scanner's differential test: a tokenizing bug
/// would have to be written twice, in two very different implementations,
/// to go unnoticed. Test-only — it is linked into the tests
/// (mdatalog_test_support), not into the library.

namespace mdatalog::html {

/// The pre-scanner incremental tokenizer: Feed() once per chunk, then
/// Finish() once. Same Token stream contract as StreamTokenizer.
class ReferenceTokenizer {
 public:
  util::Status Feed(std::string_view chunk, std::vector<Token>* out,
                    const util::EvalControl* control = nullptr);
  util::Status Finish(std::vector<Token>* out,
                      const util::EvalControl* control = nullptr);

 private:
  enum class Scan { kToken, kStray, kNeedMore, kAborted };

  util::Status Drain(bool eof, std::vector<Token>* out,
                     const util::EvalControl* control);
  Scan ScanMarkup(size_t i, bool eof, util::EvalTicker* ticker, Token* token,
                  size_t* end);
  /// Raw-text (script/style) content handling; consumes from the front of
  /// buf_. Returns true when the raw element was closed (or eof discarded
  /// it) and normal scanning may resume.
  bool DrainRawText(bool eof, std::vector<Token>* out);
  void FlushText(std::vector<Token>* out);

  std::string buf_;        ///< unconsumed bytes of a split construct
  std::string text_;       ///< raw text run accumulated since the last flush
  std::string raw_name_;   ///< the raw-text element name, while inside it
  util::Status scan_status_;  ///< failure captured inside ScanMarkup
  bool finished_ = false;
};

/// Feed(html) + Finish() on a fresh ReferenceTokenizer.
std::vector<Token> ReferenceTokenize(std::string_view html);

/// One line per token: type, data, attributes and the self-closing mark —
/// equal signatures mean equal token streams.
std::string TokenSig(const std::vector<Token>& tokens);

}  // namespace mdatalog::html

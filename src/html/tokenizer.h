#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/deadline.h"
#include "src/util/result.h"

/// \file tokenizer.h
/// A small, forgiving HTML scanner — the front end that turns Web page bytes
/// into the token events consumed by the tree constructor (parser.h). The
/// paper's whole premise is that wrappers operate on *pre-parsed* document
/// trees (Section 1); this module is that prerequisite substrate.
///
/// Supported: start/end tags, attributes (double-, single- and unquoted,
/// and bare), self-closing tags, comments, doctype, character data with
/// basic entity decoding (&amp; &lt; &gt; &quot; &apos; &nbsp; &#NN;), and
/// raw-text elements (script, style), skipped up to "</script" / "</style"
/// in any case followed by whitespace, '/', '>' or end of input.
///
/// Each construct reaches a TokenSink as an event, a TokenView: views into
/// the caller's bytes, or into a reused buffer where a name was lower-cased
/// or an entity decoded. Nothing is allocated per token. A construct or text
/// run that straddles a chunk edge is the only thing copied: it is held back
/// and rescanned from its start once more bytes arrive, so events never
/// depend on chunking. Tokenize() and the std::vector<Token> overloads are
/// adapters that collect the events as owning Tokens, for tests and tools.

namespace mdatalog::html {

struct Attribute {
  std::string name;   ///< lowercased
  std::string value;  ///< entity-decoded
};

struct Token {
  enum class Type { kStartTag, kEndTag, kText, kComment, kDoctype };
  Type type;
  std::string data;               ///< tag name (lowercased) or text payload
  std::vector<Attribute> attrs;   ///< kStartTag only
  bool self_closing = false;      ///< kStartTag only
};

/// Attribute and Token as views, valid during TokenSink::Add.
struct AttributeView {
  std::string_view name, value;
};
struct TokenView {
  Token::Type type;
  std::string_view data;
  std::span<const AttributeView> attrs;
  bool self_closing = false;
};

/// Receives the scanner's events in document order.
class TokenSink {
 public:
  virtual void Add(const TokenView& token) = 0;

 protected:
  ~TokenSink() = default;
};

/// Incremental scanner: Feed() once per arriving chunk, then Finish() once
/// at end of input (a whole page is one Feed). A construct is reported as
/// soon as the bytes that finish it arrive.
///
/// Never fails on malformed markup (stray '<' becomes text; an unterminated
/// tag or comment is closed at end of input). The only failure mode is the
/// optional EvalControl firing, in which case the typed kDeadlineExceeded /
/// kCancelled status unwinds out of the scan and the scanner must not be
/// used further. The control is polled between constructs, once per
/// kPollBytes bytes scanned, counted across Feeds and counting every rescan
/// of held-back bytes; one construct is scanned without a poll.
class StreamTokenizer {
 public:
  static constexpr size_t kPollBytes = 4096;

  util::Status Feed(std::string_view chunk, TokenSink* sink,
                    const util::EvalControl* control = nullptr);
  util::Status Finish(TokenSink* sink,
                      const util::EvalControl* control = nullptr);
  util::Status Feed(std::string_view chunk, std::vector<Token>* out,
                    const util::EvalControl* control = nullptr);
  util::Status Finish(std::vector<Token>* out,
                      const util::EvalControl* control = nullptr);

  bool finished() const { return finished_; }

  /// Bytes currently held back waiting for more input: the prefix of a
  /// split construct plus any unflushed text run.
  size_t buffered_bytes() const { return held_.size() + text_.size(); }

 private:
  enum class Scan { kToken, kStray, kNeedMore };

  /// Reports every construct that completes inside `s` (with eof, nothing
  /// follows `s`). `*held` is the offset of the construct that waits for
  /// more bytes (s.size() if none); the text run before it moves to text_.
  util::Status ScanRegion(std::string_view s, bool eof, TokenSink* sink,
                          const util::EvalControl* control, size_t* held);
  /// Counts `bytes` scanned; checks `control` each kPollBytes of them.
  util::Status Charge(size_t bytes, const util::EvalControl* control);
  /// The construct at the '<' at s[i]; on kToken it is token_, and `*end`
  /// is the offset after it.
  Scan ScanMarkup(std::string_view s, size_t i, bool eof, size_t* end);
  /// Reports the text run text_ + `run` unless it is all whitespace.
  void FlushText(std::string_view run, TokenSink* sink);

  std::string held_;      ///< bytes of a construct split by the chunk edge
  std::string text_;      ///< text run that the chunk edge split, raw
  std::string tag_buf_;   ///< token_'s lower-cased names, decoded values
  std::string text_buf_;  ///< the decoded text run being reported
  std::vector<AttributeView> attrs_;  ///< token_'s attributes
  TokenView token_{Token::Type::kText, {}, {}, false};
  std::string_view raw_name_;  ///< "script"/"style" while inside one
  size_t poll_left_ = kPollBytes;  ///< bytes to scan before the next poll
  bool finished_ = false;
};

/// Tokenizes HTML in one call. Never fails on malformed markup.
std::vector<Token> Tokenize(std::string_view html);

/// Decodes the supported character entities in `text`.
std::string DecodeEntities(std::string_view text);

}  // namespace mdatalog::html

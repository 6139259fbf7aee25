#include "src/html/tokenizer.h"

#include <algorithm>
#include <utility>

namespace mdatalog::html {

namespace {

// ASCII classes: the C-locale <cctype> answers, without the locale lookup.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsUpper(char c) { return c >= 'A' && c <= 'Z'; }
bool IsAlpha(char c) { return IsUpper(c) || (c >= 'a' && c <= 'z'); }
bool IsNameChar(char c) {
  return IsAlpha(c) || (c >= '0' && c <= '9') || c == '-' || c == '_' ||
         c == ':';
}
char ToLowerAscii(char c) { return IsUpper(c) ? c - 'A' + 'a' : c; }

enum class Closer { kYes, kNo, kNeedMore };

/// Whether the '<' at b[i] opens the end tag of the raw-text element `name`:
/// "</" and the name in any case, then whitespace, '/', '>' or end of input.
/// kNeedMore (never with eof) when the bytes end before that is decided.
Closer MatchRawCloser(std::string_view b, size_t i, std::string_view name,
                      bool eof) {
  const Closer short_input = eof ? Closer::kNo : Closer::kNeedMore;
  if (i + 1 >= b.size()) return short_input;
  if (b[i + 1] != '/') return Closer::kNo;
  for (size_t k = 0; k < name.size(); ++k) {
    if (i + 2 + k >= b.size()) return short_input;
    if (ToLowerAscii(b[i + 2 + k]) != name[k]) return Closer::kNo;
  }
  const size_t q = i + 2 + name.size();
  if (q >= b.size()) return eof ? Closer::kYes : Closer::kNeedMore;
  return IsSpace(b[q]) || b[q] == '/' || b[q] == '>' ? Closer::kYes
                                                     : Closer::kNo;
}

/// Appends `text` to `out` with the supported entities decoded: never more
/// bytes than `text` has.
void AppendDecoded(std::string_view text, std::string* out) {
  static constexpr std::pair<std::string_view, char> kNamed[] = {
      {"amp", '&'},   {"lt", '<'},    {"gt", '>'},
      {"quot", '"'},  {"apos", '\''}, {"nbsp", ' '}};
  for (size_t i = 0; i < text.size();) {
    // An entity is '&', at most seven bytes and ';'.
    const size_t semi = text[i] == '&' ? text.substr(i, 9).find(';') : 0;
    const std::string_view entity =
        semi == 0 || semi == text.npos ? "" : text.substr(i + 1, semi - 1);
    int32_t code = 0;
    for (const auto& [name, c] : kNamed) {
      if (entity == name) code = c;
    }
    if (entity.size() > 1 && entity[0] == '#') {
      for (size_t k = 1; k < entity.size() && code <= 127; ++k) {
        const bool digit = entity[k] >= '0' && entity[k] <= '9';
        code = digit ? code * 10 + (entity[k] - '0') : 128;
      }
    }
    if (code <= 0 || code > 127) {
      *out += text[i++];
      continue;
    }
    *out += static_cast<char>(code);
    i += semi + 1;
  }
}

/// Views of `s`, lower-cased / entity-decoded into `buf` when needed. `buf`
/// must have room for them: neither transform grows a string.
std::string_view Lowered(std::string_view s, std::string* buf) {
  if (std::none_of(s.begin(), s.end(), IsUpper)) return s;
  const size_t at = buf->size();
  for (const char c : s) *buf += ToLowerAscii(c);
  return std::string_view(*buf).substr(at);
}
std::string_view Decoded(std::string_view s, std::string* buf) {
  if (s.find('&') == s.npos) return s;
  const size_t at = buf->size();
  AppendDecoded(s, buf);
  return std::string_view(*buf).substr(at);
}

/// The Token adapter: collects the scanner's events as owning Tokens.
class TokenCollector final : public TokenSink {
 public:
  explicit TokenCollector(std::vector<Token>* out) : out_(out) {}
  void Add(const TokenView& t) override {
    Token& token = out_->emplace_back(
        Token{t.type, std::string(t.data), {}, t.self_closing});
    for (const AttributeView& a : t.attrs) {
      token.attrs.push_back({std::string(a.name), std::string(a.value)});
    }
  }

 private:
  std::vector<Token>* out_;
};

}  // namespace

void StreamTokenizer::FlushText(std::string_view run, TokenSink* sink) {
  if (!text_.empty()) run = text_.append(run);
  if (!std::all_of(run.begin(), run.end(), IsSpace)) {
    text_buf_.clear();
    text_buf_.reserve(run.size());
    sink->Add({Token::Type::kText, Decoded(run, &text_buf_), {}, false});
  }
  text_.clear();
}

/// kStray means the '<' is literal text; kNeedMore (never with eof) means
/// the construct runs past the end of `b`, to be rescanned from its '<' when
/// more bytes arrive, which keeps every decision that of a scan over the
/// whole page. With eof, unterminated constructs close at the end of `b`.
StreamTokenizer::Scan StreamTokenizer::ScanMarkup(std::string_view b,
                                                  size_t i, bool eof,
                                                  size_t* end) {
  const size_t len = b.size();
  size_t p = i + 1;  // past '<'
  if (p >= len) return eof ? Scan::kStray : Scan::kNeedMore;
  if (b[p] == '!') {
    // A "<!" or "<!-" that could still grow into "<!--" has no '>' yet.
    const bool comment = b.substr(p, 3) == "!--";
    const size_t body = comment ? p + 3 : p + 1;
    const size_t close = comment ? b.find("-->", body) : b.find('>', p);
    if (close == b.npos && !eof) return Scan::kNeedMore;
    token_ = {comment ? Token::Type::kComment : Token::Type::kDoctype,
              b.substr(body, std::min(close, len) - body), {}, false};
    *end = close == b.npos ? len : close + (comment ? 3 : 1);
    return Scan::kToken;
  }
  const bool closing = b[p] == '/';
  if (closing) ++p;
  if (p >= len) return eof ? Scan::kStray : Scan::kNeedMore;
  if (!IsAlpha(b[p])) return Scan::kStray;
  const size_t name_start = p;
  while (p < len && IsNameChar(b[p])) ++p;
  const std::string_view name = b.substr(name_start, p - name_start);

  // Attributes. A scan that runs off the end before the closing '>' leaves
  // this loop with p == len: held back below unless eof.
  bool self_closing = false;
  attrs_.clear();
  while (p < len && b[p] != '>') {
    if (b[p] == '/' && p + 1 < len && b[p + 1] == '>') self_closing = true;
    if (!IsAlpha(b[p])) {
      ++p;  // whitespace, '/' or junk
      continue;
    }
    const size_t attr_start = p;
    while (p < len && IsNameChar(b[p])) ++p;
    AttributeView attr{b.substr(attr_start, p - attr_start), {}};
    while (p < len && IsSpace(b[p])) ++p;
    if (p < len && b[p] == '=') {
      ++p;
      while (p < len && IsSpace(b[p])) ++p;
      const bool quoted = p < len && (b[p] == '"' || b[p] == '\'');
      const size_t start = quoted ? p + 1 : p;
      if (quoted) {
        p = std::min(b.find(b[p], start), len);
      } else {
        while (p < len && b[p] != '>' && !IsSpace(b[p])) ++p;
      }
      attr.value = b.substr(start, p - start);
      if (quoted && p < len) ++p;  // closing quote
    }
    if (!closing) attrs_.push_back(attr);
  }
  if (p >= len && !eof) return Scan::kNeedMore;  // tag split by the edge
  *end = std::min(p + 1, len);                    // past '>'
  // The names and values are disjoint pieces of b[i, p), so this is room
  // for all of them transformed: no view into tag_buf_ moves.
  tag_buf_.clear();
  tag_buf_.reserve(p - i);
  for (AttributeView& a : attrs_) {
    a = {Lowered(a.name, &tag_buf_), Decoded(a.value, &tag_buf_)};
  }
  token_ = {closing ? Token::Type::kEndTag : Token::Type::kStartTag,
            Lowered(name, &tag_buf_), attrs_, self_closing};
  return Scan::kToken;
}

util::Status StreamTokenizer::ScanRegion(std::string_view s, bool eof,
                                         TokenSink* sink,
                                         const util::EvalControl* control,
                                         size_t* held) {
  size_t p = 0;        // where the search for the next '<' resumes
  size_t run = 0;      // start of the pending text run
  size_t charged = 0;  // bytes of s counted towards the next poll
  *held = s.size();
  for (size_t i = s.find('<'); i != s.npos; i = s.find('<', p)) {
    MD_RETURN_NOT_OK(Charge(i + 1 - charged, control));
    charged = i + 1;
    if (!raw_name_.empty()) {
      // Inside script/style: the content up to the closer is dropped.
      const Closer c = MatchRawCloser(s, i, raw_name_, eof);
      const size_t gt = c == Closer::kYes ? s.find('>', i) : s.npos;
      if (c == Closer::kNo) {
        p = i + 1;
      } else if (gt == s.npos && !eof) {
        *held = i;
        return Charge(s.size() - charged, control);
      } else {
        sink->Add({Token::Type::kEndTag, std::exchange(raw_name_, {}), {}});
        p = run = std::min(gt, s.size() - 1) + 1;
      }
      continue;
    }
    size_t end = 0;
    const Scan r = ScanMarkup(s, i, eof, &end);
    if (r == Scan::kStray) {
      p = i + 1;
      continue;
    }
    if (r == Scan::kNeedMore) {
      text_.append(s.substr(run, i - run));
      *held = i;
      return Charge(s.size() - charged, control);
    }
    FlushText(s.substr(run, i - run), sink);
    sink->Add(token_);
    if (token_.type == Token::Type::kStartTag &&
        (token_.data == "script" || token_.data == "style")) {
      // Raw-text elements swallow everything up to the matching end tag
      // (even when written self-closing).
      raw_name_ = token_.data == "script" ? "script" : "style";
    }
    p = run = end;
  }
  if (!raw_name_.empty()) {
    if (eof) raw_name_ = {};  // no closer: no end tag, content dropped
  } else if (eof) {
    FlushText(s.substr(run), sink);
  } else {
    text_.append(s.substr(run));
  }
  return Charge(s.size() - charged, control);
}

util::Status StreamTokenizer::Charge(size_t bytes,
                                     const util::EvalControl* control) {
  if (bytes < poll_left_) {
    poll_left_ -= bytes;
    return util::Status::OK();
  }
  poll_left_ = kPollBytes;
  return control != nullptr ? control->Check() : util::Status::OK();
}

util::Status StreamTokenizer::Feed(std::string_view chunk, TokenSink* sink,
                                   const util::EvalControl* control) {
  if (finished_) {
    return util::Status::FailedPrecondition(
        "StreamTokenizer::Feed after Finish");
  }
  size_t held = 0;
  // A held construct takes the chunk up to its first '>', which usually
  // completes it, and the rest of the chunk only if it does not.
  for (bool first = true; !held_.empty() && !chunk.empty(); first = false) {
    const size_t n = first ? std::min(chunk.find('>'), chunk.size() - 1) + 1
                           : chunk.size();
    held_.append(chunk.substr(0, n));
    chunk.remove_prefix(n);
    MD_RETURN_NOT_OK(ScanRegion(held_, /*eof=*/false, sink, control, &held));
    held_.erase(0, held);
  }
  if (!held_.empty()) return util::Status::OK();
  MD_RETURN_NOT_OK(ScanRegion(chunk, /*eof=*/false, sink, control, &held));
  held_.assign(chunk.substr(held));
  return util::Status::OK();
}

util::Status StreamTokenizer::Finish(TokenSink* sink,
                                     const util::EvalControl* control) {
  if (finished_) {
    return util::Status::FailedPrecondition(
        "StreamTokenizer::Finish called twice");
  }
  finished_ = true;
  size_t held = 0;
  MD_RETURN_NOT_OK(ScanRegion(held_, /*eof=*/true, sink, control, &held));
  held_.clear();
  return util::Status::OK();
}

util::Status StreamTokenizer::Feed(std::string_view chunk,
                                   std::vector<Token>* out,
                                   const util::EvalControl* control) {
  TokenCollector collector(out);
  return Feed(chunk, &collector, control);
}

util::Status StreamTokenizer::Finish(std::vector<Token>* out,
                                     const util::EvalControl* control) {
  TokenCollector collector(out);
  return Finish(&collector, control);
}

std::string DecodeEntities(std::string_view text) {
  std::string out;
  AppendDecoded(text, &out);
  return out;
}

std::vector<Token> Tokenize(std::string_view html) {
  StreamTokenizer tokenizer;
  std::vector<Token> out;
  // Without an EvalControl the scanner cannot fail.
  util::Status st = tokenizer.Feed(html, &out);
  if (st.ok()) st = tokenizer.Finish(&out);
  (void)st;
  return out;
}

}  // namespace mdatalog::html

#include "tests/support/reference_tokenizer.h"

#include <cctype>

namespace mdatalog::html {

namespace {

char ToLowerAscii(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

std::string LowerCase(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out += ToLowerAscii(c);
  return out;
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_' ||
         c == ':';
}

enum class Closer { kYes, kNo, kNeedMore };

/// Whether the '<' at b[i] opens the end tag of the raw-text element `name`:
/// "</" and the name in any case, then whitespace, '/', '>' or end of input.
/// kNeedMore (never with eof) when the buffer ends before that is decided.
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
  return std::isspace(static_cast<unsigned char>(b[q])) || b[q] == '/' ||
                 b[q] == '>'
             ? Closer::kYes
             : Closer::kNo;
}

/// Decodes the supported character entities in `text`.
std::string ReferenceDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size();) {
    if (text[i] != '&') {
      out += text[i++];
      continue;
    }
    size_t semi = text.find(';', i);
    if (semi == std::string_view::npos || semi - i > 8) {
      out += text[i++];
      continue;
    }
    std::string_view entity = text.substr(i + 1, semi - i - 1);
    if (entity == "amp") {
      out += '&';
    } else if (entity == "lt") {
      out += '<';
    } else if (entity == "gt") {
      out += '>';
    } else if (entity == "quot") {
      out += '"';
    } else if (entity == "apos") {
      out += '\'';
    } else if (entity == "nbsp") {
      out += ' ';
    } else if (!entity.empty() && entity[0] == '#') {
      int32_t code = 0;
      bool ok = entity.size() > 1;
      for (size_t k = 1; k < entity.size(); ++k) {
        if (!std::isdigit(static_cast<unsigned char>(entity[k]))) {
          ok = false;
          break;
        }
        code = code * 10 + (entity[k] - '0');
      }
      if (!ok || code <= 0 || code > 127) {
        out += text[i++];
        continue;
      }
      out += static_cast<char>(code);
    } else {
      out += text[i++];
      continue;
    }
    i = semi + 1;
  }
  return out;
}

}  // namespace

void ReferenceTokenizer::FlushText(std::vector<Token>* out) {
  // Whitespace-only runs between tags carry no content.
  bool all_space = true;
  for (char c : text_) {
    if (!std::isspace(static_cast<unsigned char>(c))) {
      all_space = false;
      break;
    }
  }
  if (!text_.empty() && !all_space) {
    out->push_back({Token::Type::kText, ReferenceDecode(text_), {}, false});
  }
  text_.clear();
}

/// Scans one markup construct starting at the '<' at buf_[i]. kToken means
/// `*token` is complete and `*end` is the first unconsumed index; kStray
/// means the '<' is literal text; kNeedMore (never with eof) means the
/// construct straddles the end of the buffer and must wait for more bytes —
/// the next Feed rescans it from scratch, which keeps every decision
/// identical to the batch scan over the full document. With eof the scan
/// applies exactly the historical end-of-input semantics (unterminated
/// constructs are closed at the end of the buffer).
ReferenceTokenizer::Scan ReferenceTokenizer::ScanMarkup(size_t i, bool eof,
                                                  util::EvalTicker* ticker,
                                                  Token* token, size_t* end) {
  const std::string& b = buf_;
  const size_t len = b.size();
  size_t p = i + 1;  // past '<'
  if (p >= len) return eof ? Scan::kStray : Scan::kNeedMore;
  if (b[p] == '!') {
    // "<!" or "<!-" at the buffer edge could still grow into "<!--".
    if (!eof && len - p < 3 && b.compare(p, len - p, "!--", len - p) == 0) {
      return Scan::kNeedMore;
    }
    if (b.compare(p, 3, "!--") == 0) {
      size_t close = b.find("-->", p + 3);
      if (close == std::string::npos && !eof) return Scan::kNeedMore;
      std::string body = b.substr(
          p + 3, close == std::string::npos ? std::string::npos
                                            : close - (p + 3));
      *end = close == std::string::npos ? len : close + 3;
      *token = {Token::Type::kComment, std::move(body), {}, false};
      return Scan::kToken;
    }
    // Doctype or other declaration.
    size_t close = b.find('>', p);
    if (close == std::string::npos && !eof) return Scan::kNeedMore;
    std::string body =
        b.substr(p + 1, close == std::string::npos ? std::string::npos
                                                   : close - p - 1);
    *end = close == std::string::npos ? len : close + 1;
    *token = {Token::Type::kDoctype, std::move(body), {}, false};
    return Scan::kToken;
  }
  bool closing = b[p] == '/';
  if (closing) ++p;
  if (p >= len) return eof ? Scan::kStray : Scan::kNeedMore;
  if (!std::isalpha(static_cast<unsigned char>(b[p]))) return Scan::kStray;
  size_t name_start = p;
  while (p < len && IsNameChar(b[p])) {
    ++p;
    if (scan_status_ = ticker->Tick(); !scan_status_.ok()) {
      return Scan::kAborted;
    }
  }
  std::string name =
      LowerCase(std::string_view(b).substr(name_start, p - name_start));

  Token t;
  t.type = closing ? Token::Type::kEndTag : Token::Type::kStartTag;
  t.data = name;

  // Attributes. Any scan that runs off the end of the buffer before the
  // closing '>' falls out of this loop with p == len, which is exactly the
  // batch end-of-input state — held back below unless eof.
  while (p < len && b[p] != '>') {
    if (scan_status_ = ticker->Tick(); !scan_status_.ok()) {
      return Scan::kAborted;
    }
    if (std::isspace(static_cast<unsigned char>(b[p]))) {
      ++p;
      continue;
    }
    if (b[p] == '/' && p + 1 < len && b[p + 1] == '>') {
      t.self_closing = true;
      ++p;
      continue;
    }
    if (!std::isalpha(static_cast<unsigned char>(b[p]))) {
      ++p;  // skip junk
      continue;
    }
    size_t attr_start = p;
    while (p < len && IsNameChar(b[p])) ++p;
    Attribute attr;
    attr.name =
        LowerCase(std::string_view(b).substr(attr_start, p - attr_start));
    while (p < len && std::isspace(static_cast<unsigned char>(b[p]))) {
      ++p;
    }
    if (p < len && b[p] == '=') {
      ++p;
      while (p < len && std::isspace(static_cast<unsigned char>(b[p]))) {
        ++p;
      }
      if (p < len && (b[p] == '"' || b[p] == '\'')) {
        char quote = b[p++];
        size_t vstart = p;
        while (p < len && b[p] != quote) {
          ++p;
          if (scan_status_ = ticker->Tick(); !scan_status_.ok()) {
            return Scan::kAborted;
          }
        }
        attr.value =
            ReferenceDecode(std::string_view(b).substr(vstart, p - vstart));
        if (p < len) ++p;  // closing quote
      } else {
        size_t vstart = p;
        while (p < len && b[p] != '>' &&
               !std::isspace(static_cast<unsigned char>(b[p]))) {
          ++p;
          if (scan_status_ = ticker->Tick(); !scan_status_.ok()) {
            return Scan::kAborted;
          }
        }
        attr.value =
            ReferenceDecode(std::string_view(b).substr(vstart, p - vstart));
      }
    }
    if (!closing) t.attrs.push_back(std::move(attr));
  }
  if (p >= len && !eof) return Scan::kNeedMore;  // tag split by the chunk edge
  if (p < len) ++p;  // consume '>'
  *end = p;
  *token = std::move(t);
  return Scan::kToken;
}

bool ReferenceTokenizer::DrainRawText(bool eof, std::vector<Token>* out) {
  size_t e = std::string::npos;
  size_t hold = std::string::npos;
  for (size_t i = buf_.find('<'); i != std::string::npos;
       i = buf_.find('<', i + 1)) {
    const Closer c = MatchRawCloser(buf_, i, raw_name_, eof);
    if (c == Closer::kYes) {
      e = i;
      break;
    }
    if (c == Closer::kNeedMore) {
      hold = i;
      break;
    }
  }
  if (e == std::string::npos) {
    if (!eof) {
      // Discard swallowed content; keep only a closer candidate that the
      // chunk edge cut short.
      buf_.erase(0, hold == std::string::npos ? buf_.size() : hold);
      return false;
    }
    // Closer never appears: content runs to end of input, no end tag.
    buf_.clear();
    raw_name_.clear();
    return true;
  }
  size_t gt = buf_.find('>', e);
  if (gt == std::string::npos && !eof) {
    buf_.erase(0, e);  // closer located; still waiting for its '>'
    return false;
  }
  buf_.erase(0, gt == std::string::npos ? buf_.size() : gt + 1);
  out->push_back({Token::Type::kEndTag, raw_name_, {}, false});
  raw_name_.clear();
  return true;
}

util::Status ReferenceTokenizer::Drain(bool eof, std::vector<Token>* out,
                                    const util::EvalControl* control) {
  util::EvalTicker ticker(control);
  for (;;) {
    if (!raw_name_.empty()) {
      MD_RETURN_NOT_OK(ticker.Tick());
      if (!DrainRawText(eof, out)) return util::Status::OK();
    }
    size_t i = 0;
    bool entered_raw = false;
    while (i < buf_.size()) {
      MD_RETURN_NOT_OK(ticker.Tick());
      if (buf_[i] != '<') {
        text_ += buf_[i++];
        continue;
      }
      Token token;
      size_t end = 0;
      Scan r = ScanMarkup(i, eof, &ticker, &token, &end);
      if (r == Scan::kAborted) {
        buf_.erase(0, i);
        return scan_status_;
      }
      if (r == Scan::kNeedMore) {
        buf_.erase(0, i);
        return util::Status::OK();
      }
      if (r == Scan::kStray) {
        // A stray '<' is literal text.
        text_ += '<';
        ++i;
        continue;
      }
      FlushText(out);
      bool raw = token.type == Token::Type::kStartTag &&
                 (token.data == "script" || token.data == "style");
      if (raw) {
        // Raw-text elements swallow everything up to the matching end tag
        // (even when written self-closing, matching the batch scanner).
        raw_name_ = token.data;
      }
      out->push_back(std::move(token));
      i = end;
      if (raw) {
        entered_raw = true;
        break;
      }
    }
    buf_.erase(0, i);
    if (!entered_raw) return util::Status::OK();
  }
}

util::Status ReferenceTokenizer::Feed(std::string_view chunk,
                                   std::vector<Token>* out,
                                   const util::EvalControl* control) {
  if (finished_) {
    return util::Status::FailedPrecondition(
        "ReferenceTokenizer::Feed after Finish");
  }
  buf_.append(chunk);
  return Drain(/*eof=*/false, out, control);
}

util::Status ReferenceTokenizer::Finish(std::vector<Token>* out,
                                     const util::EvalControl* control) {
  if (finished_) {
    return util::Status::FailedPrecondition(
        "ReferenceTokenizer::Finish called twice");
  }
  finished_ = true;
  MD_RETURN_NOT_OK(Drain(/*eof=*/true, out, control));
  FlushText(out);
  return util::Status::OK();
}

std::vector<Token> ReferenceTokenize(std::string_view html) {
  ReferenceTokenizer tokenizer;
  std::vector<Token> out;
  // Without an EvalControl the incremental scanner cannot fail.
  util::Status st = tokenizer.Feed(html, &out);
  if (st.ok()) st = tokenizer.Finish(&out);
  (void)st;
  return out;
}

std::string TokenSig(const std::vector<Token>& tokens) {
  std::string sig;
  for (const Token& t : tokens) {
    sig += std::to_string(static_cast<int>(t.type));
    sig += '|';
    sig += t.data;
    for (const Attribute& a : t.attrs) {
      sig += '[' + a.name + '=' + a.value + ']';
    }
    if (t.self_closing) sig += "/";
    sig += '\n';
  }
  return sig;
}

}  // namespace mdatalog::html

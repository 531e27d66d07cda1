#include "lexer.h"

#include <algorithm>
#include <cctype>

namespace tasfar::analyze {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

/// Multi-character punctuators, longest first so the greedy match below
/// picks "<<=" over "<<" over "<".
constexpr const char* kMultiPuncts[] = {
    "<<=", ">>=", "...", "->*", "::", "->", "++", "--", "<<", ">>",
    "<=",  ">=",  "==",  "!=",  "&&", "||", "+=", "-=", "*=", "/=",
    "%=",  "&=",  "|=",  "^=",  "##",
};

}  // namespace

std::vector<Token> Lex(const std::string& source) {
  std::vector<Token> toks;
  const size_t n = source.size();
  size_t i = 0;
  int line = 1;

  auto push = [&](TokKind kind, std::string text, size_t offset,
                  size_t length, int tok_line) {
    toks.push_back({kind, std::move(text), tok_line, offset, length});
  };
  auto count_lines = [&](size_t from, size_t to) {
    line += static_cast<int>(std::count(
        source.begin() + static_cast<std::ptrdiff_t>(from),
        source.begin() + static_cast<std::ptrdiff_t>(to), '\n'));
  };

  while (i < n) {
    const char c = source[i];
    // Whitespace.
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (c == '\n') ++line;
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      size_t end = source.find('\n', i);
      if (end == std::string::npos) end = n;
      push(TokKind::kComment, source.substr(i, end - i), i, end - i, line);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      size_t end = source.find("*/", i + 2);
      end = (end == std::string::npos) ? n : end + 2;
      push(TokKind::kComment, source.substr(i, end - i), i, end - i, line);
      count_lines(i, end);
      i = end;
      continue;
    }
    // Raw string literal: R"delim( ... )delim". Only the bare R prefix is
    // recognized; the repo style never uses encoding-prefixed raw strings.
    if (c == 'R' && i + 1 < n && source[i + 1] == '"' &&
        (i == 0 || !IsIdentChar(source[i - 1]))) {
      size_t open = source.find('(', i + 2);
      if (open != std::string::npos) {
        const std::string delim = source.substr(i + 2, open - (i + 2));
        size_t close = source.find(")" + delim + "\"", open + 1);
        size_t end = (close == std::string::npos)
                         ? n
                         : close + delim.size() + 2;
        const size_t content_begin = open + 1;
        const size_t content_end = (close == std::string::npos) ? n : close;
        push(TokKind::kString,
             source.substr(content_begin, content_end - content_begin), i,
             end - i, line);
        count_lines(i, end);
        i = end;
        continue;
      }
      // "R" with no parenthesis ahead: fall through as an identifier.
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      size_t j = i + 1;
      while (j < n && source[j] != c) {
        j += (source[j] == '\\') ? 2 : 1;
      }
      const size_t end = (j < n) ? j + 1 : n;
      const size_t content_end = (j < n) ? j : n;
      push(c == '"' ? TokKind::kString : TokKind::kChar,
           source.substr(i + 1, content_end - (i + 1)), i, end - i, line);
      count_lines(i, end);
      i = end;
      continue;
    }
    // Identifier.
    if (IsIdentStart(c)) {
      size_t j = i + 1;
      while (j < n && IsIdentChar(source[j])) ++j;
      push(TokKind::kIdent, source.substr(i, j - i), i, j - i, line);
      i = j;
      continue;
    }
    // pp-number: digit, or '.' followed by digit. Consumes alnum, '_',
    // '\'', '.', and a sign immediately after an exponent marker.
    if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(source[i + 1]))) {
      size_t j = i + 1;
      while (j < n) {
        const char d = source[j];
        if (IsIdentChar(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') &&
                   (source[j - 1] == 'e' || source[j - 1] == 'E' ||
                    source[j - 1] == 'p' || source[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      push(TokKind::kNumber, source.substr(i, j - i), i, j - i, line);
      i = j;
      continue;
    }
    // Punctuator: greedy multi-char first.
    {
      size_t len = 1;
      for (const char* mp : kMultiPuncts) {
        const size_t mlen = std::char_traits<char>::length(mp);
        if (source.compare(i, mlen, mp) == 0) {
          len = mlen;
          break;
        }
      }
      push(TokKind::kPunct, source.substr(i, len), i, len, line);
      i += len;
    }
  }
  return toks;
}

std::vector<Token> CodeTokens(const std::vector<Token>& tokens) {
  std::vector<Token> code;
  code.reserve(tokens.size());
  for (const Token& t : tokens) {
    if (t.kind != TokKind::kComment) code.push_back(t);
  }
  return code;
}

bool IsIdent(const Token& tok, const char* text) {
  return tok.kind == TokKind::kIdent && tok.text == text;
}

bool IsPunct(const Token& tok, const char* text) {
  return tok.kind == TokKind::kPunct && tok.text == text;
}

size_t MatchingClose(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    const std::string& p = toks[i].text;
    if (p == "(" || p == "[" || p == "{") ++depth;
    if (p == ")" || p == "]" || p == "}") {
      --depth;
      if (depth == 0) return i;
    }
  }
  return toks.size();
}

}  // namespace tasfar::analyze

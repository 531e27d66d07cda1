#ifndef TASFAR_TOOLS_ANALYZE_LEXER_H_
#define TASFAR_TOOLS_ANALYZE_LEXER_H_

#include <cstddef>
#include <string>
#include <vector>

namespace tasfar::analyze {

/// A single C++ lexeme. The lexer is deliberately lightweight — no
/// preprocessing, no keyword table, no template disambiguation — but it is
/// exact about the four things every analyzer rule needs: token
/// boundaries, token kinds, line numbers, and the raw extent of
/// comments/literals (so they can be searched separately from code).
enum class TokKind {
  kIdent,    ///< Identifier or keyword: [A-Za-z_][A-Za-z0-9_]*.
  kNumber,   ///< pp-number: 0x5c0ffeeULL, 1e-9, 0.5, 1'000'000.
  kString,   ///< "..." or R"delim(...)delim"; text() is the *contents*.
  kChar,     ///< '...' character literal; text() is the contents.
  kPunct,    ///< Operator/punctuator, multi-char greedy ("::", "+=", ...).
  kComment,  ///< // or /* */; text() includes the comment markers.
};

struct Token {
  TokKind kind;
  std::string text;  ///< See TokKind for what this holds per kind.
  int line;          ///< 1-based line of the token's first character.
  size_t offset;     ///< Byte offset of the token's first character.
  size_t length;     ///< Raw byte extent in the source (quotes included).
};

/// Tokenizes C++ source. Comments are kept as kComment tokens so callers
/// that need them (suppression comments, `// aliased:` acknowledgments)
/// can scan them; code-only consumers filter them out (see CodeTokens).
/// Never fails: unterminated literals/comments extend to end of input,
/// bytes that fit no token class are skipped.
std::vector<Token> Lex(const std::string& source);

/// The tokens of `tokens` with comments removed — the view every
/// code-matching rule works on.
std::vector<Token> CodeTokens(const std::vector<Token>& tokens);

/// True when `tok` is an identifier with exactly the given text.
bool IsIdent(const Token& tok, const char* text);

/// True when `tok` is a punctuator with exactly the given text.
bool IsPunct(const Token& tok, const char* text);

/// Index of the punctuator that closes the group opened at `open` (which
/// must index a "(", "[", or "{" token in `toks`), honoring nesting of all
/// three bracket kinds. Returns toks.size() when unbalanced.
size_t MatchingClose(const std::vector<Token>& toks, size_t open);

}  // namespace tasfar::analyze

#endif  // TASFAR_TOOLS_ANALYZE_LEXER_H_

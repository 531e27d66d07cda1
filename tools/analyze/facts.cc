#include "facts.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "lexer.h"
#include "rules.h"

namespace tasfar::analyze {

namespace {

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

/// Parses "TASFAR_ANALYZE_ALLOW(rule): reason" out of a comment token.
/// Returns false when the comment has no ALLOW marker.
bool ParseAllow(const Token& comment, Suppression* out) {
  static const std::string kMarker = "TASFAR_ANALYZE_ALLOW(";
  const size_t at = comment.text.find(kMarker);
  if (at == std::string::npos) return false;
  const size_t rule_begin = at + kMarker.size();
  const size_t rule_end = comment.text.find(')', rule_begin);
  if (rule_end == std::string::npos) return false;
  out->line = comment.line;
  out->rule = Trim(comment.text.substr(rule_begin, rule_end - rule_begin));
  out->reason.clear();
  const size_t colon = comment.text.find(':', rule_end);
  if (colon != std::string::npos) {
    out->reason = Trim(comment.text.substr(colon + 1));
  }
  return true;
}

/// True when the code token at `i` is a call head: an identifier named
/// `name` directly followed by "(". Skips over a preceding "::"/"." /"->"
/// qualification transparently (the head match is on the last name).
bool IsCallHead(const std::vector<Token>& code, size_t i, const char* name) {
  return i + 1 < code.size() && IsIdent(code[i], name) &&
         IsPunct(code[i + 1], "(");
}

/// First string literal among the call's top-level arguments, or nullptr.
const Token* FirstTopLevelString(const std::vector<Token>& code, size_t open,
                                 size_t close) {
  int depth = 0;
  for (size_t i = open; i <= close && i < code.size(); ++i) {
    if (code[i].kind == TokKind::kPunct) {
      const std::string& p = code[i].text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      if (p == ")" || p == "]" || p == "}") --depth;
      continue;
    }
    if (depth == 1 && code[i].kind == TokKind::kString) return &code[i];
  }
  return nullptr;
}

/// Enumerators of the enum body between code[open] ("{") and code[close]:
/// the identifier after "{" and after each top-level ",", kept when it
/// reads `kName`. The value is the integer after "=", -1 when there is
/// none. Comments are not code tokens, so a commented-out enumerator or a
/// brace inside a trailing comment never counts.
std::vector<Enumerator> ParseEnumerators(const std::vector<Token>& code,
                                         size_t open, size_t close) {
  std::vector<Enumerator> out;
  int depth = 0;
  bool expect_name = true;
  for (size_t k = open + 1; k < close; ++k) {
    const Token& t = code[k];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
      if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
      if (depth == 0 && t.text == ",") expect_name = true;
      continue;
    }
    if (depth != 0 || !expect_name || t.kind != TokKind::kIdent) continue;
    expect_name = false;
    if (t.text.size() < 2 || t.text[0] != 'k' ||
        std::isupper(static_cast<unsigned char>(t.text[1])) == 0) {
      continue;
    }
    Enumerator e;
    e.name = t.text;
    e.line = t.line;
    if (k + 2 < close && IsPunct(code[k + 1], "=") &&
        code[k + 2].kind == TokKind::kNumber) {
      e.value = static_cast<int>(
          std::strtol(code[k + 2].text.c_str(), nullptr, 10));
    }
    out.push_back(std::move(e));
  }
  return out;
}

/// Extracts metric/span/failpoint registrations from the code tokens.
void ExtractSymbols(const std::vector<Token>& code, FileFacts* facts) {
  for (size_t i = 0; i < code.size(); ++i) {
    // Metric registry: GetCounter/GetGauge/GetHistogram("exact.name", ...)
    // with a literal first argument registers an exact name. A computed
    // first argument (string concatenation) registers a dynamic prefix:
    // the first literal in the call that ends in '.' (e.g.
    // "tasfar.span." + name + ".ms" in src/obs/trace.h).
    const bool metric_head = IsCallHead(code, i, "GetCounter") ||
                             IsCallHead(code, i, "GetGauge") ||
                             IsCallHead(code, i, "GetHistogram");
    if (metric_head) {
      const size_t open = i + 1;
      const size_t close = MatchingClose(code, open);
      const bool exact_name =
          open + 2 < code.size() && open + 2 <= close &&
          code[open + 1].kind == TokKind::kString &&
          (open + 2 == close || IsPunct(code[open + 2], ","));
      if (exact_name) {
        facts->metrics.push_back({code[open + 1].text, code[open + 1].line});
      } else if (const Token* lit = FirstTopLevelString(code, open, close)) {
        if (!lit->text.empty() && lit->text.back() == '.') {
          facts->metric_prefixes.push_back(lit->text);
        }
      }
      continue;
    }
    // Tensor guards register "tasfar.guard.<site>" dynamically; the site
    // string at the call site is the stable name, so record the full
    // metric here to keep the docs cross-check exact.
    if (IsCallHead(code, i, "CheckFinite") ||
        IsCallHead(code, i, "CheckFiniteValue")) {
      const size_t open = i + 1;
      const size_t close = MatchingClose(code, open);
      if (const Token* lit = FirstTopLevelString(code, open, close)) {
        facts->metrics.push_back(
            {"tasfar.guard." + lit->text, lit->line});
      }
      continue;
    }
    if (IsCallHead(code, i, "TASFAR_TRACE_SPAN")) {
      const size_t open = i + 1;
      const size_t close = MatchingClose(code, open);
      if (const Token* lit = FirstTopLevelString(code, open, close)) {
        facts->spans.push_back({lit->text, lit->line});
      }
      continue;
    }
    if (IsCallHead(code, i, "TASFAR_FAILPOINT")) {
      const size_t open = i + 1;
      const size_t close = MatchingClose(code, open);
      if (const Token* lit = FirstTopLevelString(code, open, close)) {
        facts->failpoints.push_back({lit->text, lit->line});
      }
      continue;
    }
    // Enum definitions: the whole-program pass checks the FlightCode
    // enumerators against docs/OBSERVABILITY.md and the wire enums'
    // against docs/PROTOCOL.md.
    if (IsIdent(code[i], "enum") && i + 2 < code.size() &&
        IsIdent(code[i + 1], "class") &&
        code[i + 2].kind == TokKind::kIdent) {
      size_t open = i + 3;
      while (open < code.size() && !IsPunct(code[open], "{") &&
             !IsPunct(code[open], ";")) {
        ++open;
      }
      if (open >= code.size() || !IsPunct(code[open], "{")) continue;
      const size_t close = MatchingClose(code, open);
      for (Enumerator& e : ParseEnumerators(code, open, close)) {
        e.enum_name = code[i + 2].text;
        facts->enumerators.push_back(std::move(e));
      }
      i = close;
      continue;
    }
    // The F32Kernels dispatch table: the struct's members (function
    // pointers `(*name)(...)` and plain pointers `*name;`) ...
    if (IsIdent(code[i], "struct") && i + 2 < code.size() &&
        IsIdent(code[i + 1], "F32Kernels") && IsPunct(code[i + 2], "{")) {
      const size_t close = MatchingClose(code, i + 2);
      for (size_t k = i + 3; k + 1 < close; ++k) {
        if (code[k].kind != TokKind::kIdent || !IsPunct(code[k - 1], "*")) {
          continue;
        }
        if ((IsPunct(code[k - 2], "(") && IsPunct(code[k + 1], ")")) ||
            IsPunct(code[k + 1], ";")) {
          facts->kernel_fields.push_back(code[k].text);
        }
      }
      i = close;
      continue;
    }
    // ... and a backend's table, `static const F32Kernels kTable = {
    // .name = ..., .matmul = ..., };` (the first one in the file).
    if (IsIdent(code[i], "F32Kernels") && !facts->has_kernel_table) {
      size_t eq = i + 1;
      while (eq < code.size() &&
             (code[eq].kind == TokKind::kIdent || IsPunct(code[eq], "&"))) {
        ++eq;
      }
      if (eq >= code.size() || !IsPunct(code[eq], "=")) continue;
      size_t open = eq;
      while (open < code.size() && !IsPunct(code[open], "{")) ++open;
      const size_t close = MatchingClose(code, open);
      facts->has_kernel_table = true;
      for (size_t k = open + 1; k + 2 < close; ++k) {
        if (IsPunct(code[k], ".") && code[k + 1].kind == TokKind::kIdent &&
            IsPunct(code[k + 2], "=")) {
          facts->kernel_table_fields.push_back(code[k + 1].text);
        }
      }
      i = close;
      continue;
    }
  }
}

}  // namespace

FileFacts AnalyzeSource(const std::string& repo_rel_path,
                        const std::string& source) {
  FileFacts facts;
  facts.path = repo_rel_path;

  const std::vector<Token> tokens = Lex(source);
  for (const Token& t : tokens) {
    if (t.kind != TokKind::kComment) continue;
    Suppression sup;
    if (ParseAllow(t, &sup)) facts.suppressions.push_back(sup);
    if (t.text.find("aliased:") != std::string::npos) {
      facts.aliased_ack_lines.push_back(t.line);
    }
  }

  const std::vector<Token> code = CodeTokens(tokens);
  const std::string& path = repo_rel_path;
  std::vector<Finding>* out = &facts.findings;
  CheckRngDiscipline(path, code, out);
  CheckThreadDiscipline(path, code, out);
  CheckSimdDiscipline(path, code, out);
  const size_t n = path.size();
  if (n >= 2 && path.compare(n - 2, 2, ".h") == 0) {
    CheckHeaderGuard(path, code, out);
  }
  if (path.compare(0, 4, "src/") == 0) {
    ExtractSymbols(code, &facts);
    CheckNoIostream(path, code, out);
    CheckNoBareAssert(path, code, out);
    CheckTimingDiscipline(path, code, out);
    CheckMemoryDiscipline(path, code, out);
    CheckEstimatorDiscipline(path, code, out);
    CheckParallelCapture(path, code, out);
    CheckIntoAliasing(path, code, facts.aliased_ack_lines, out);
    CheckWorkspaceEscape(path, code, out);
    CheckSeedDiscipline(path, code, out);
  }
  std::stable_sort(out->begin(), out->end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return facts;
}

}  // namespace tasfar::analyze

#include "rules.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iterator>

namespace tasfar::analyze {

namespace {

Finding Make(const std::string& file, int line, const char* rule,
             std::string message) {
  Finding f;
  f.file = file;
  f.line = line;
  f.rule = rule;
  f.message = std::move(message);
  return f;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool IsAssignOp(const Token& t) {
  if (t.kind != TokKind::kPunct) return false;
  static const std::set<std::string> kOps = {
      "=",  "+=", "-=", "*=",  "/=",  "%=",
      "&=", "|=", "^=", "<<=", ">>=",
  };
  return kOps.count(t.text) != 0;
}

/// Renders the argument tokens [begin, end) as one comparison key. Tokens
/// are concatenated without separators, so `passes [ s ]` and `passes[s]`
/// agree regardless of original spacing.
std::string ArgKey(const std::vector<Token>& code, size_t begin, size_t end) {
  std::string key;
  for (size_t i = begin; i < end; ++i) key += code[i].text;
  return key;
}

/// Splits the top-level (depth-1) comma-separated arguments of the call
/// whose "(" is at `open` and ")" at `close`. Returns [begin, end) token
/// ranges.
std::vector<std::pair<size_t, size_t>> SplitArgs(
    const std::vector<Token>& code, size_t open, size_t close) {
  std::vector<std::pair<size_t, size_t>> args;
  if (close <= open + 1) return args;
  int depth = 0;
  size_t arg_begin = open + 1;
  for (size_t i = open; i <= close; ++i) {
    if (code[i].kind != TokKind::kPunct) continue;
    const std::string& p = code[i].text;
    if (p == "(" || p == "[" || p == "{") ++depth;
    if (p == ")" || p == "]" || p == "}") --depth;
    if ((depth == 1 && p == ",") || (depth == 0 && i == close)) {
      args.emplace_back(arg_begin, i);
      arg_begin = i + 1;
    }
  }
  return args;
}

/// True when code[i] is an identifier qualified as std::<name> (so the
/// finding anchors at the `std` token's line).
bool IsStdQualified(const std::vector<Token>& code, size_t i) {
  return i >= 2 && IsPunct(code[i - 1], "::") && IsIdent(code[i - 2], "std");
}

/// True when code[i] is preceded by a `::` qualifier of any kind.
bool IsQualified(const std::vector<Token>& code, size_t i) {
  return i >= 1 && IsPunct(code[i - 1], "::");
}

/// Matches the token sequence of an `#include <name>` directive starting
/// at the `#`: # include < name >.
bool IsIncludeOf(const std::vector<Token>& code, size_t i, const char* name) {
  return i + 4 < code.size() && IsPunct(code[i], "#") &&
         IsIdent(code[i + 1], "include") && IsPunct(code[i + 2], "<") &&
         IsIdent(code[i + 3], name) && IsPunct(code[i + 4], ">");
}

/// Whether the call argument list opening at code[open] (a "(") is empty
/// or a single null-ish token — a wall-clock `time()` / `time(NULL)` /
/// `time(nullptr)` / `time(0)` call used as a seed.
bool IsNullishArgList(const std::vector<Token>& code, size_t open) {
  const size_t close = MatchingClose(code, open);
  if (close >= code.size()) return false;
  if (close == open + 1) return true;
  if (close != open + 2) return false;
  const Token& arg = code[open + 1];
  return IsIdent(arg, "NULL") || IsIdent(arg, "nullptr") ||
         (arg.kind == TokKind::kNumber && arg.text == "0");
}

bool IsWallClockSeed(const std::vector<Token>& code, size_t i) {
  return code[i].text == "time" && i + 1 < code.size() &&
         IsPunct(code[i + 1], "(") && IsNullishArgList(code, i + 1);
}

/// --- parallel-capture ------------------------------------------------

struct Lambda {
  bool default_ref = false;
  std::set<std::string> ref_caps;
  std::set<std::string> val_caps;
  std::string loop_var;
  std::set<std::string> locals;
  size_t body_open = 0;
  size_t body_close = 0;
};

/// Parses the lambda whose capture-intro "[" is at `intro`. Returns false
/// when no body is found (not actually a lambda).
bool ParseLambda(const std::vector<Token>& code, size_t intro, Lambda* out) {
  const size_t cap_close = MatchingClose(code, intro);
  if (cap_close >= code.size()) return false;
  for (size_t k = intro + 1; k < cap_close;) {
    if (IsPunct(code[k], "&")) {
      if (k + 1 < cap_close && code[k + 1].kind == TokKind::kIdent) {
        out->ref_caps.insert(code[k + 1].text);
        k += 2;
      } else {
        out->default_ref = true;
        ++k;
      }
    } else if (code[k].kind == TokKind::kIdent) {
      out->val_caps.insert(code[k].text);
      ++k;
    } else {
      ++k;
    }
    // Skip an init-capture's expression up to the next top-level comma.
    if (k < cap_close && IsPunct(code[k], "=")) {
      int depth = 0;
      while (k < cap_close) {
        if (code[k].kind == TokKind::kPunct) {
          const std::string& p = code[k].text;
          if (p == "(" || p == "[" || p == "{") ++depth;
          if (p == ")" || p == "]" || p == "}") --depth;
          if (depth == 0 && p == ",") break;
        }
        ++k;
      }
    }
  }
  size_t p = cap_close + 1;
  if (p < code.size() && IsPunct(code[p], "(")) {
    const size_t params_close = MatchingClose(code, p);
    for (size_t q = p + 1; q < params_close && q < code.size(); ++q) {
      if (code[q].kind == TokKind::kIdent) {
        out->locals.insert(code[q].text);
        out->loop_var = code[q].text;
      }
    }
    p = params_close + 1;
  }
  while (p < code.size() && !IsPunct(code[p], "{")) ++p;
  if (p >= code.size()) return false;
  out->body_open = p;
  out->body_close = MatchingClose(code, p);
  // Body-local declarations: an identifier whose previous token reads as
  // the tail of a declarator (type name, ">", "*", "&", "&&"). Over-
  // collecting (e.g. `a & b`) only makes the rule more permissive.
  auto declares = [&](size_t k) {
    const Token& prev = code[k - 1];
    return code[k].kind == TokKind::kIdent &&
           (prev.kind == TokKind::kIdent || IsPunct(prev, ">") ||
            IsPunct(prev, "*") || IsPunct(prev, "&") || IsPunct(prev, "&&"));
  };
  for (size_t k = out->body_open + 1; k < out->body_close; ++k) {
    if (declares(k)) out->locals.insert(code[k].text);
  }
  // Later declarators of a declaration statement, `size_t b = 0, oc = 1;`:
  // a statement declares when its first declarator comes before any
  // assignment, so the comma expression `a = 1, b = 2;` stays a write.
  bool declaration = false;
  bool assigned = false;
  int depth = 0;
  for (size_t k = out->body_open + 1; k < out->body_close; ++k) {
    const Token& t = code[k];
    if (t.kind == TokKind::kPunct) {
      const std::string& text = t.text;
      if (depth == 0 && (text == ";" || text == "{" || text == "}")) {
        declaration = false;
        assigned = false;
        continue;
      }
      if (text == "(" || text == "[" || text == "{") ++depth;
      if (text == ")" || text == "]" || text == "}") --depth;
      if (depth == 0 && IsAssignOp(t)) assigned = true;
      if (depth == 0 && text == "," && declaration) {
        size_t name = k + 1;
        while (name < out->body_close &&
               (IsPunct(code[name], "*") || IsPunct(code[name], "&"))) {
          ++name;
        }
        if (name < out->body_close && code[name].kind == TokKind::kIdent) {
          out->locals.insert(code[name].text);
        }
      }
      continue;
    }
    if (depth == 0 && !assigned && declares(k)) declaration = true;
  }
  return true;
}

void CheckLambdaWrites(const std::string& path,
                       const std::vector<Token>& code, const Lambda& lam,
                       std::vector<Finding>* findings) {
  auto is_shared = [&](const std::string& name) {
    if (lam.locals.count(name) != 0) return false;
    if (lam.ref_caps.count(name) != 0) return true;
    return lam.default_ref && lam.val_caps.count(name) == 0;
  };
  for (size_t k = lam.body_open + 1; k < lam.body_close; ++k) {
    if (code[k].kind != TokKind::kIdent) continue;
    const Token& prev = code[k - 1];
    if (IsPunct(prev, ".") || IsPunct(prev, "->") || IsPunct(prev, "::")) {
      continue;  // member/qualified access of something else
    }
    const std::string& name = code[k].text;
    if (!is_shared(name)) continue;
    // Prefix increment/decrement.
    if (IsPunct(prev, "++") || IsPunct(prev, "--")) {
      findings->push_back(Make(
          path, code[k].line, "parallel-capture",
          "ParallelFor body mutates by-reference captured `" + name +
              "` (" + prev.text + "); shared writes must be per-index"));
      continue;
    }
    if (k + 1 >= lam.body_close) continue;
    // Chained subscripts: X[a][b]...
    size_t after = k + 1;
    bool subscripted = false;
    bool uses_loop_var = false;
    while (after < lam.body_close && IsPunct(code[after], "[")) {
      subscripted = true;
      const size_t sub_close = MatchingClose(code, after);
      for (size_t m = after + 1; m < sub_close; ++m) {
        if (code[m].kind == TokKind::kIdent &&
            code[m].text == lam.loop_var) {
          uses_loop_var = true;
        }
      }
      after = sub_close + 1;
    }
    if (after >= lam.body_close) continue;
    const Token& nxt = code[after];
    if (subscripted) {
      if (IsAssignOp(nxt) && !uses_loop_var && !lam.loop_var.empty()) {
        findings->push_back(Make(
            path, code[k].line, "parallel-capture",
            "ParallelFor body writes `" + name +
                "[...]` without the loop index `" + lam.loop_var +
                "` in the subscript; writes must be disjoint per index"));
      }
    } else if (IsAssignOp(nxt) || IsPunct(nxt, "++") || IsPunct(nxt, "--")) {
      findings->push_back(Make(
          path, code[k].line, "parallel-capture",
          "ParallelFor body mutates by-reference captured `" + name +
              "` (" + nxt.text + "); shared writes must be per-index"));
    }
  }
}

/// --- workspace-escape ------------------------------------------------

bool IsMemberName(const std::string& name) {
  return !name.empty() && name.back() == '_';
}

/// Walks back from the NewTensor/ZeroTensor head over its qualifier chain
/// (`ws.`, `Workspace::ThreadLocal().`). Returns the index of the first
/// token *before* the chain, or 0.
size_t ChainStart(const std::vector<Token>& code, size_t head) {
  size_t b = head;
  while (b > 0) {
    const Token& t = code[b - 1];
    if (t.kind == TokKind::kIdent && t.text != "return") {
      --b;
      continue;
    }
    if (IsPunct(t, ".") || IsPunct(t, "->") || IsPunct(t, "::")) {
      --b;
      continue;
    }
    // Empty call in the chain, e.g. ThreadLocal().
    if (IsPunct(t, ")") && b >= 2 && IsPunct(code[b - 2], "(")) {
      b -= 2;
      continue;
    }
    break;
  }
  return b;
}

bool StatementHasStatic(const std::vector<Token>& code, size_t at) {
  for (size_t b = at; b > 0; --b) {
    const Token& t = code[b - 1];
    if (IsPunct(t, ";") || IsPunct(t, "{") || IsPunct(t, "}")) break;
    if (IsIdent(t, "static")) return true;
  }
  return false;
}

/// --- seed-discipline -------------------------------------------------

bool IdentMentionsSeed(const std::string& text) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return lower.find("seed") != std::string::npos;
}

bool IsBinaryMixOp(const std::vector<Token>& code, size_t i) {
  if (code[i].kind != TokKind::kPunct) return false;
  static const std::set<std::string> kOps = {"+", "-",  "*", "^",
                                             "<<", ">>", "|"};
  if (kOps.count(code[i].text) == 0) return false;
  if (i == 0) return false;
  const Token& prev = code[i - 1];
  return prev.kind == TokKind::kIdent || prev.kind == TokKind::kNumber ||
         IsPunct(prev, ")") || IsPunct(prev, "]");
}

}  // namespace

void CheckRngDiscipline(const std::string& path,
                        const std::vector<Token>& code,
                        std::vector<Finding>* findings) {
  static const std::set<std::string> kQualified = {
      "rand",        "srand",       "random_device",
      "mt19937",     "minstd_rand", "default_random_engine",
  };
  // Unqualified engine names still in scope after a using-declaration.
  static const std::set<std::string> kUnqualified = {"random_device",
                                                     "mt19937"};
  const std::string why = "use an explicitly passed tasfar::Rng& instead";
  const std::string wall_clock =
      "wall-clock time() seeding is banned: pass a fixed seed through "
      "tasfar::Rng";
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokKind::kIdent) continue;
    const std::string& name = code[i].text;
    if (IsStdQualified(code, i) && kQualified.count(name) != 0) {
      findings->push_back(Make(path, code[i - 2].line, "rng-discipline",
                               "std::" + name + " is banned: " + why));
      continue;
    }
    if (IsQualified(code, i)) {
      // Qualified by something other than std:: (or already reported).
      if (IsWallClockSeed(code, i)) {
        findings->push_back(
            Make(path, code[i].line, "rng-discipline", wall_clock));
      }
      continue;
    }
    if (kUnqualified.count(name) != 0) {
      findings->push_back(Make(path, code[i].line, "rng-discipline",
                               name + " is banned: " + why));
      continue;
    }
    if ((name == "rand" || name == "srand") && i + 1 < code.size() &&
        IsPunct(code[i + 1], "(")) {
      findings->push_back(Make(path, code[i].line, "rng-discipline",
                               name + "() is banned: " + why));
      continue;
    }
    if (IsWallClockSeed(code, i)) {
      findings->push_back(
          Make(path, code[i].line, "rng-discipline", wall_clock));
    }
  }
}

void CheckThreadDiscipline(const std::string& path,
                           const std::vector<Token>& code,
                           std::vector<Finding>* findings) {
  if (path == "src/util/thread_pool.h" || path == "src/util/thread_pool.cc") {
    return;
  }
  static const std::set<std::string> kBanned = {"thread", "jthread", "async"};
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokKind::kIdent || kBanned.count(code[i].text) == 0 ||
        !IsStdQualified(code, i)) {
      continue;
    }
    findings->push_back(Make(path, code[i - 2].line, "thread-discipline",
                             "std::" + code[i].text +
                                 " is banned: use ThreadPool / ParallelFor "
                                 "from util/thread_pool.h instead"));
  }
}

void CheckSimdDiscipline(const std::string& path,
                         const std::vector<Token>& code,
                         std::vector<Finding>* findings) {
  if (StartsWith(path, "src/tensor/simd/")) return;
  static const std::set<std::string> kIntrinsicHeaders = {
      "immintrin", "emmintrin", "xmmintrin", "smmintrin", "tmmintrin",
      "pmmintrin", "nmmintrin", "wmmintrin", "ammintrin", "x86intrin",
      "x86gprintrin", "arm_neon", "arm_sve", "arm_acle",
  };
  const std::string why =
      ": raw SIMD intrinsics are banned outside src/tensor/simd/ — add a "
      "kernel to the F32Kernels dispatch table instead";
  auto is_intrinsic_ident = [](const std::string& name) {
    // x86: _mm_/_mm256_/_mm512_ functions and __m128/__m256/__m512 types.
    if (StartsWith(name, "_mm")) return true;
    if (name.size() >= 4 && StartsWith(name, "__m") &&
        std::isdigit(static_cast<unsigned char>(name[3])) != 0) {
      return true;
    }
    // NEON: float32x4_t-style vector types and v*q_f32-style intrinsics.
    if (StartsWith(name, "float32x") || StartsWith(name, "float64x")) {
      return true;
    }
    return name[0] == 'v' && (name.find("q_f32") != std::string::npos ||
                              name.find("q_f64") != std::string::npos);
  };
  for (size_t i = 0; i < code.size(); ++i) {
    // `#include <name.h>` reads as: # include < name . h >.
    if (IsPunct(code[i], "<") && i + 4 < code.size() &&
        code[i + 1].kind == TokKind::kIdent &&
        kIntrinsicHeaders.count(code[i + 1].text) != 0 &&
        IsPunct(code[i + 2], ".") && IsIdent(code[i + 3], "h") &&
        IsPunct(code[i + 4], ">")) {
      findings->push_back(Make(path, code[i].line, "simd-discipline",
                               "<" + code[i + 1].text + ".h>" + why));
      i += 4;
      continue;
    }
    if (code[i].kind == TokKind::kIdent && is_intrinsic_ident(code[i].text)) {
      findings->push_back(
          Make(path, code[i].line, "simd-discipline", code[i].text + why));
    }
  }
}

std::string ExpectedHeaderGuard(const std::string& repo_rel_path) {
  const std::string path = StartsWith(repo_rel_path, "src/")
                               ? repo_rel_path.substr(4)
                               : repo_rel_path;
  std::string guard = "TASFAR_";
  for (char c : path) {
    const auto u = static_cast<unsigned char>(c);
    guard += std::isalnum(u) != 0 ? static_cast<char>(std::toupper(u)) : '_';
  }
  return guard + '_';
}

void CheckHeaderGuard(const std::string& path, const std::vector<Token>& code,
                      std::vector<Finding>* findings) {
  const std::string expected = ExpectedHeaderGuard(path);
  // The first directive must be `#ifndef <guard>`, all on one line.
  size_t hash = 0;
  while (hash < code.size() && !IsPunct(code[hash], "#")) ++hash;
  const int line = hash < code.size() ? code[hash].line : 0;
  if (hash + 2 >= code.size() || !IsIdent(code[hash + 1], "ifndef") ||
      code[hash + 2].kind != TokKind::kIdent || code[hash + 2].line != line) {
    findings->push_back(Make(path, 1, "header-guard",
                             "missing include guard; expected #ifndef " +
                                 expected));
    return;
  }
  const std::string& guard = code[hash + 2].text;
  if (guard != expected) {
    findings->push_back(Make(path, line, "header-guard",
                             "include guard " + guard +
                                 " should be named " + expected));
    return;
  }
  for (size_t i = hash + 3; i + 2 < code.size(); ++i) {
    if (IsPunct(code[i], "#") && IsIdent(code[i + 1], "define") &&
        IsIdent(code[i + 2], expected.c_str())) {
      return;
    }
  }
  findings->push_back(Make(path, line, "header-guard",
                           "include guard " + expected +
                               " is never #defined"));
}

void CheckNoIostream(const std::string& path, const std::vector<Token>& code,
                     std::vector<Finding>* findings) {
  for (size_t i = 0; i < code.size(); ++i) {
    if (!IsIncludeOf(code, i, "iostream")) continue;
    findings->push_back(Make(path, code[i].line, "no-iostream",
                             "<iostream> is banned in src/: use "
                             "util/logging.h (TASFAR_LOG) instead"));
    i += 4;
  }
}

void CheckNoBareAssert(const std::string& path,
                       const std::vector<Token>& code,
                       std::vector<Finding>* findings) {
  for (size_t i = 0; i < code.size(); ++i) {
    // <cassert> / <assert.h> anywhere (they only ever appear in includes).
    if (IsPunct(code[i], "<") && i + 2 < code.size()) {
      if (IsIdent(code[i + 1], "cassert") && IsPunct(code[i + 2], ">")) {
        findings->push_back(Make(path, code[i].line, "check-not-assert",
                                 "<cassert> is banned in src/: use "
                                 "util/check.h (TASFAR_CHECK) instead"));
        i += 2;
        continue;
      }
      if (i + 4 < code.size() && IsIdent(code[i + 1], "assert") &&
          IsPunct(code[i + 2], ".") && IsIdent(code[i + 3], "h") &&
          IsPunct(code[i + 4], ">")) {
        findings->push_back(Make(path, code[i].line, "check-not-assert",
                                 "<assert.h> is banned in src/: use "
                                 "util/check.h (TASFAR_CHECK) instead"));
        i += 4;
        continue;
      }
    }
    if (IsIdent(code[i], "assert") && i + 1 < code.size() &&
        IsPunct(code[i + 1], "(")) {
      findings->push_back(Make(path, code[i].line, "check-not-assert",
                               "bare assert() is banned in src/: use "
                               "TASFAR_CHECK (active in all build modes) "
                               "instead"));
    }
  }
}

void CheckTimingDiscipline(const std::string& path,
                           const std::vector<Token>& code,
                           std::vector<Finding>* findings) {
  if (StartsWith(path, "src/obs/")) return;
  const std::string why =
      " is banned in src/ outside src/obs/: time through "
      "obs::MonotonicMicros / TASFAR_TRACE_SPAN instead";
  for (size_t i = 0; i < code.size(); ++i) {
    if (IsIncludeOf(code, i, "chrono")) {
      findings->push_back(
          Make(path, code[i].line, "timing-discipline", "<chrono>" + why));
      i += 4;
      continue;
    }
    if (!IsIdent(code[i], "chrono")) continue;
    // `<chrono>` outside an include directive still reads as < chrono >;
    // skip the token after any '<' so the include form is reported once.
    if (i >= 1 && IsPunct(code[i - 1], "<")) continue;
    findings->push_back(
        Make(path, code[i].line, "timing-discipline", "std::chrono" + why));
  }
}

void CheckMemoryDiscipline(const std::string& path,
                           const std::vector<Token>& code,
                           std::vector<Finding>* findings) {
  for (size_t i = 0; i + 2 < code.size(); ++i) {
    if (!IsIdent(code[i], "Tensor")) continue;
    // Parameter position: the previous token (skipping an optional
    // `const`) must be '(' or ','.
    size_t before = i;
    if (before >= 1 && IsIdent(code[before - 1], "const")) --before;
    if (before == 0 ||
        (!IsPunct(code[before - 1], "(") && !IsPunct(code[before - 1], ","))) {
      continue;
    }
    // By-value means the next token is the parameter name: an identifier,
    // followed by ',', ')' or '='.
    if (code[i + 1].kind != TokKind::kIdent) continue;
    if (!IsPunct(code[i + 2], ",") && !IsPunct(code[i + 2], ")") &&
        !IsPunct(code[i + 2], "=")) {
      continue;
    }
    findings->push_back(
        Make(path, code[i].line, "memory-discipline",
             "by-value Tensor parameter: take const Tensor& (read) or "
             "Tensor* (write) — a by-value copy detaches on first write"));
  }
  if (StartsWith(path, "src/tensor/")) return;
  for (size_t i = 0; i + 6 < code.size(); ++i) {
    if (!IsIdent(code[i], "std") || !IsPunct(code[i + 1], "::") ||
        !IsIdent(code[i + 2], "vector") || !IsPunct(code[i + 3], "<") ||
        !IsIdent(code[i + 4], "double") || !IsPunct(code[i + 5], ">") ||
        !IsPunct(code[i + 6], "(")) {
      continue;
    }
    const size_t open = i + 6;
    const size_t close = MatchingClose(code, open);
    bool copies_data = false;
    for (size_t j = open + 1; j + 2 < close; ++j) {
      if (IsPunct(code[j], ".") && IsIdent(code[j + 1], "data") &&
          IsPunct(code[j + 2], "(")) {
        copies_data = true;
        break;
      }
    }
    if (!copies_data) continue;
    findings->push_back(
        Make(path, code[i].line, "memory-discipline",
             "copying tensor storage into a std::vector<double>: share the "
             "Tensor (copy-on-write) or fill a Workspace tensor instead"));
  }
}

void CheckEstimatorDiscipline(const std::string& path,
                              const std::vector<Token>& code,
                              std::vector<Finding>* findings) {
  if (StartsWith(path, "src/uncertainty/")) return;
  static const std::set<std::string> kConcrete = {
      "McDropoutPredictor", "DeepEnsemble", "LastLayerLaplace"};
  for (const Token& tok : code) {
    if (tok.kind != TokKind::kIdent || kConcrete.count(tok.text) == 0) {
      continue;
    }
    findings->push_back(
        Make(path, tok.line, "estimator-discipline",
             tok.text + " is banned outside src/uncertainty/: construct "
                        "through MakeEstimator(model, EstimatorConfig) so "
                        "the uncertainty backend stays pluggable"));
  }
}

void CheckParallelCapture(const std::string& path,
                          const std::vector<Token>& code,
                          std::vector<Finding>* findings) {
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if (!IsIdent(code[i], "ParallelFor") || !IsPunct(code[i + 1], "(")) {
      continue;
    }
    const size_t call_open = i + 1;
    const size_t call_close = MatchingClose(code, call_open);
    for (size_t j = call_open + 1; j < call_close; ++j) {
      if (!IsPunct(code[j], "[")) continue;
      if (!IsPunct(code[j - 1], "(") && !IsPunct(code[j - 1], ",")) continue;
      Lambda lam;
      if (!ParseLambda(code, j, &lam)) continue;
      CheckLambdaWrites(path, code, lam, findings);
      j = lam.body_close;  // don't rescan inside the body
    }
  }
}

void CheckIntoAliasing(const std::string& path,
                       const std::vector<Token>& code,
                       const std::vector<int>& aliased_ack_lines,
                       std::vector<Finding>* findings) {
  auto acked = [&](int line) {
    return std::find(aliased_ack_lines.begin(), aliased_ack_lines.end(),
                     line) != aliased_ack_lines.end() ||
           std::find(aliased_ack_lines.begin(), aliased_ack_lines.end(),
                     line - 1) != aliased_ack_lines.end();
  };
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    const Token& head = code[i];
    if (head.kind != TokKind::kIdent || head.text.size() <= 4 ||
        !EndsWith(head.text, "Into") || !IsPunct(code[i + 1], "(")) {
      continue;
    }
    // A preceding identifier means this is a declaration/definition
    // (`void AddInto(...)`), not a call site.
    if (i > 0 && (code[i - 1].kind == TokKind::kIdent ||
                  IsPunct(code[i - 1], "*") || IsPunct(code[i - 1], "&"))) {
      continue;
    }
    const size_t open = i + 1;
    const size_t close = MatchingClose(code, open);
    const auto args = SplitArgs(code, open, close);
    if (args.size() < 2) continue;
    // Destination is the last argument, with address-of/deref stripped.
    size_t dest_begin = args.back().first;
    while (dest_begin < args.back().second &&
           (IsPunct(code[dest_begin], "&") || IsPunct(code[dest_begin], "*"))) {
      ++dest_begin;
    }
    const std::string dest = ArgKey(code, dest_begin, args.back().second);
    if (dest.empty()) continue;
    for (size_t a = 0; a + 1 < args.size(); ++a) {
      size_t in_begin = args[a].first;
      while (in_begin < args[a].second &&
             (IsPunct(code[in_begin], "&") || IsPunct(code[in_begin], "*"))) {
        ++in_begin;
      }
      if (ArgKey(code, in_begin, args[a].second) != dest) continue;
      if (!acked(head.line)) {
        findings->push_back(Make(
            path, head.line, "into-aliasing",
            "destination `" + dest + "` aliases an input of " + head.text +
                " without an `// aliased:` acknowledgment "
                "(docs/MEMORY.md, kernel aliasing rules)"));
      }
      break;
    }
  }
}

void CheckWorkspaceEscape(const std::string& path,
                          const std::vector<Token>& code,
                          std::vector<Finding>* findings) {
  // The workspace implementation itself delegates between NewTensor and
  // ZeroTensor; the rule is about *users* of the workspace.
  if (StartsWith(path, "src/tensor/workspace")) return;
  std::set<std::string> ws_locals;
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if ((!IsIdent(code[i], "NewTensor") && !IsIdent(code[i], "ZeroTensor")) ||
        !IsPunct(code[i + 1], "(")) {
      continue;
    }
    const size_t b = ChainStart(code, i);
    if (b == 0) continue;
    const Token& before = code[b - 1];
    if (IsIdent(before, "return")) {
      findings->push_back(Make(
          path, code[i].line, "workspace-escape",
          "returns the result of " + code[i].text +
              " directly; name the tensor, fill it, then hand it off "
              "(docs/MEMORY.md, workspace contract)"));
      continue;
    }
    if (IsPunct(before, "=") && b >= 2 &&
        code[b - 2].kind == TokKind::kIdent) {
      const std::string& target = code[b - 2].text;
      if (IsMemberName(target)) {
        findings->push_back(Make(
            path, code[i].line, "workspace-escape",
            "stores a workspace tensor into member `" + target +
                "`; members outlive the workspace scope and pin the "
                "per-thread pool (docs/MEMORY.md)"));
      } else if (StatementHasStatic(code, b - 2)) {
        findings->push_back(Make(
            path, code[i].line, "workspace-escape",
            "stores a workspace tensor into static `" + target +
                "`; statics outlive every workspace scope"));
      } else {
        ws_locals.insert(target);
      }
    }
  }
  // Indirect member store: `member_ = local;` where `local` came from the
  // workspace earlier in this file.
  for (size_t k = 0; k + 3 < code.size(); ++k) {
    if (code[k].kind == TokKind::kIdent && IsMemberName(code[k].text) &&
        IsPunct(code[k + 1], "=") && code[k + 2].kind == TokKind::kIdent &&
        ws_locals.count(code[k + 2].text) != 0 && IsPunct(code[k + 3], ";")) {
      findings->push_back(Make(
          path, code[k].line, "workspace-escape",
          "stores workspace tensor `" + code[k + 2].text +
              "` into member `" + code[k].text +
              "`; members outlive the workspace scope (docs/MEMORY.md)"));
    }
  }
}

void CheckSeedDiscipline(const std::string& path,
                         const std::vector<Token>& code,
                         std::vector<Finding>* findings) {
  if (StartsWith(path, "src/util/rng")) return;  // the derivation itself
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    const Token& head = code[i];
    if (head.kind != TokKind::kIdent) continue;
    const bool seed_head = head.text == "Rng" || head.text == "Fork" ||
                           head.text == "MixSeed" ||
                           head.text == "ReseedStochastic";
    if (!seed_head) continue;
    size_t open = 0;
    if (IsPunct(code[i + 1], "(")) {
      open = i + 1;
    } else if (head.text == "Rng" && i + 2 < code.size() &&
               code[i + 1].kind == TokKind::kIdent &&
               IsPunct(code[i + 2], "(")) {
      open = i + 2;  // declaration form: Rng rng(expr);
    } else {
      continue;
    }
    const size_t close = MatchingClose(code, open);
    for (const auto& arg : SplitArgs(code, open, close)) {
      bool has_op = false;
      bool has_seed = false;
      int depth = 0;
      for (size_t k = arg.first; k < arg.second; ++k) {
        if (code[k].kind == TokKind::kPunct) {
          const std::string& p = code[k].text;
          if (p == "(" || p == "[" || p == "{") ++depth;
          if (p == ")" || p == "]" || p == "}") --depth;
        }
        if (depth != 0) continue;
        if (IsBinaryMixOp(code, k)) has_op = true;
        if (code[k].kind == TokKind::kIdent && IdentMentionsSeed(code[k].text)) {
          has_seed = true;
        }
      }
      if (has_op && has_seed) {
        findings->push_back(Make(
            path, head.line, "seed-discipline",
            "ad-hoc seed arithmetic in " + head.text +
                "(...); derive child seeds with MixSeed(seed, stream) so "
                "streams stay disjoint (docs/TESTING.md, rng discipline)"));
        break;  // one finding per call
      }
    }
  }
}

namespace {

const char kProtocolDoc[] = "docs/PROTOCOL.md";

void ScanRegistryDoc(const std::string& doc_path, const std::string& content,
                     DocNames* out) {
  auto name_like = [](const std::string& tok) {
    if (tok.empty()) return false;
    bool has_dot = false;
    for (char c : tok) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '.' || c == '_';
      if (!ok) return false;
      if (c == '.') has_dot = true;
    }
    return has_dot;
  };
  bool in_sites = false;
  int ln = 0;
  size_t pos = 0;
  while (pos <= content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    ++ln;
    if (!line.empty() && line[0] == '#') {
      in_sites = line.find("Injection sites") != std::string::npos;
    }
    const size_t first_bar = line.find('|');
    const size_t second_bar =
        first_bar == std::string::npos ? std::string::npos
                                       : line.find('|', first_bar + 1);
    size_t at = 0;
    while (true) {
      const size_t b = line.find('`', at);
      if (b == std::string::npos) break;
      const size_t e = line.find('`', b + 1);
      if (e == std::string::npos) break;
      const std::string tok = line.substr(b + 1, e - b - 1);
      at = e + 1;
      if (!name_like(tok)) continue;
      out->tokens.emplace(tok, std::make_pair(doc_path, ln));
      if (in_sites && first_bar != std::string::npos &&
          second_bar != std::string::npos && b > first_bar && b < second_bar) {
        out->failpoint_sites.emplace(tok, std::make_pair(doc_path, ln));
      }
    }
    if (eol == content.size()) break;
  }
}

/// Table rows `| `kName` | N | ...` of docs/PROTOCOL.md: the first cell's
/// backticked k-name and the leading integer of the second cell. A later
/// row for the same name wins.
void ScanWireRows(const std::string& content, DocNames* out) {
  size_t pos = 0;
  while (pos < content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t p = line.find_first_not_of(' ');
    if (p == std::string::npos || line[p] != '|') continue;
    const size_t tick1 = line.find('`', p);
    if (tick1 == std::string::npos) continue;
    const size_t tick2 = line.find('`', tick1 + 1);
    if (tick2 == std::string::npos) continue;
    const std::string name = line.substr(tick1 + 1, tick2 - tick1 - 1);
    if (name.size() < 2 || name[0] != 'k' ||
        std::isupper(static_cast<unsigned char>(name[1])) == 0) {
      continue;
    }
    const size_t bar = line.find('|', tick2);
    if (bar == std::string::npos) continue;
    const size_t q = line.find_first_not_of(' ', bar + 1);
    if (q == std::string::npos ||
        std::isdigit(static_cast<unsigned char>(line[q])) == 0) {
      continue;
    }
    out->wire_rows[name] = std::atoi(line.c_str() + q);
  }
}

/// Documented name of a flight-recorder code:
/// `kAdaptFellBack` -> `serve.flight.adapt_fell_back`.
std::string FlightCodeName(const std::string& enumerator) {
  std::string snake;
  for (size_t c = 1; c < enumerator.size(); ++c) {
    const char ch = enumerator[c];
    if (ch >= 'A' && ch <= 'Z') {
      if (c > 1) snake += '_';
      snake += static_cast<char>(ch - 'A' + 'a');
    } else {
      snake += ch;
    }
  }
  return "serve.flight." + snake;
}

void CheckRegistryConsistency(const std::vector<FileFacts>& facts,
                              const DocNames& docs,
                              std::vector<Finding>* out) {
  std::vector<Finding>& findings = *out;
  // First registration site per name, for stable finding locations.
  std::map<std::string, std::pair<std::string, int>> metrics;
  std::map<std::string, std::pair<std::string, int>> spans;
  std::map<std::string, std::pair<std::string, int>> failpoints;
  std::map<std::string, std::pair<std::string, int>> flight_codes;
  std::set<std::string> prefixes;
  for (const FileFacts& f : facts) {
    for (const NameRef& m : f.metrics) {
      metrics.emplace(m.name, std::make_pair(f.path, m.line));
    }
    for (const NameRef& s : f.spans) {
      spans.emplace(s.name, std::make_pair(f.path, s.line));
    }
    for (const NameRef& p : f.failpoints) {
      failpoints.emplace(p.name, std::make_pair(f.path, p.line));
    }
    for (const Enumerator& e : f.enumerators) {
      if (e.enum_name != "FlightCode") continue;
      flight_codes.emplace(FlightCodeName(e.name),
                           std::make_pair(f.path, e.line));
    }
    for (const std::string& p : f.metric_prefixes) prefixes.insert(p);
  }

  for (const auto& [name, loc] : metrics) {
    if (docs.tokens.count(name) == 0) {
      findings.push_back(Make(loc.first, loc.second, "registry-consistency",
                              "metric `" + name +
                                  "` is registered in src but documented "
                                  "nowhere (docs/OBSERVABILITY.md)"));
    }
  }
  for (const auto& [name, loc] : spans) {
    const std::string doc_form = "tasfar.span." + name + ".ms";
    if (docs.tokens.count(doc_form) == 0) {
      findings.push_back(Make(loc.first, loc.second, "registry-consistency",
                              "trace span `" + name + "` has no `" +
                                  doc_form +
                                  "` entry in docs/OBSERVABILITY.md"));
    }
  }
  for (const auto& [name, loc] : failpoints) {
    if (docs.failpoint_sites.count(name) == 0) {
      findings.push_back(Make(loc.first, loc.second, "registry-consistency",
                              "failpoint site `" + name +
                                  "` is missing from the injection-sites "
                                  "table in docs/TESTING.md"));
    }
  }
  for (const auto& [name, loc] : flight_codes) {
    if (docs.tokens.count(name) == 0) {
      findings.push_back(Make(loc.first, loc.second, "registry-consistency",
                              "flight-recorder code `" + name +
                                  "` has no entry in the flight-recorder "
                                  "table in docs/OBSERVABILITY.md"));
    }
  }
  // Reverse direction for flight codes: they are not tasfar.-prefixed, so
  // the generic documented-name sweep below never sees them.
  for (const auto& [tok, loc] : docs.tokens) {
    if (!StartsWith(tok, "serve.flight.")) continue;
    if (flight_codes.count(tok) != 0) continue;
    findings.push_back(Make(loc.first, loc.second, "registry-consistency",
                            "documented flight-recorder code `" + tok +
                                "` matches no FlightCode enumerator"));
  }

  for (const auto& [tok, loc] : docs.tokens) {
    if (!StartsWith(tok, "tasfar.")) continue;
    if (metrics.count(tok) != 0) continue;
    // Failpoint site names may be dotted and tasfar.-prefixed (the
    // injection-sites table backticks them); they are registrations too.
    if (failpoints.count(tok) != 0) continue;
    // tasfar.span.<name>.ms entries must match a real span: span names are
    // statically known, so the dynamic "tasfar.span." registration prefix
    // does not cover them.
    static const std::string kSpanPrefix = "tasfar.span.";
    if (StartsWith(tok, kSpanPrefix) && EndsWith(tok, ".ms")) {
      const std::string span = tok.substr(
          kSpanPrefix.size(), tok.size() - kSpanPrefix.size() - 3);
      if (spans.count(span) != 0) continue;
      findings.push_back(Make(loc.first, loc.second, "registry-consistency",
                              "documented span metric `" + tok +
                                  "` matches no TASFAR_TRACE_SPAN in src"));
      continue;
    }
    bool covered = false;
    for (const std::string& p : prefixes) {
      if (p != kSpanPrefix && StartsWith(tok, p)) {
        covered = true;
        break;
      }
    }
    if (covered) continue;
    findings.push_back(Make(loc.first, loc.second, "registry-consistency",
                            "documented name `" + tok +
                                "` has no registration in src"));
  }
  for (const auto& [site, loc] : docs.failpoint_sites) {
    if (failpoints.count(site) != 0) continue;
    findings.push_back(Make(loc.first, loc.second, "registry-consistency",
                            "injection-sites table lists `" + site +
                                "` but no TASFAR_FAILPOINT registers it"));
  }
}

/// The facts of the file at `path`, or nullptr when it was not scanned.
const FileFacts* FactsOf(const std::vector<FileFacts>& facts,
                         const std::string& path) {
  for (const FileFacts& f : facts) {
    if (f.path == path) return &f;
  }
  return nullptr;
}

void SyncOneEnum(const std::string& enum_name, const std::string& header,
                 const std::map<std::string, int>& values,
                 const std::map<std::string, int>& doc,
                 std::set<std::string>* doc_names_seen,
                 std::vector<Finding>* findings) {
  for (const auto& [name, value] : values) {
    const std::string id = enum_name + "::" + name;
    if (value < 0) {
      findings->push_back(Make(header, 0, "protocol-doc-sync",
                               id + " has no explicit wire value"));
      continue;
    }
    const auto it = doc.find(name);
    if (it == doc.end()) {
      findings->push_back(Make(kProtocolDoc, 0, "protocol-doc-sync",
                               id + " (= " + std::to_string(value) +
                                   ") is missing from the doc tables"));
      continue;
    }
    doc_names_seen->insert(name);
    if (it->second != value) {
      findings->push_back(Make(kProtocolDoc, 0, "protocol-doc-sync",
                               id + " is " + std::to_string(value) +
                                   " in the header but " +
                                   std::to_string(it->second) +
                                   " in the doc"));
    }
  }
}

void CheckProtocolDocSync(const std::vector<FileFacts>& facts,
                          const DocNames& docs,
                          std::vector<Finding>* findings) {
  struct WireEnum {
    const char* name;
    const char* header;
  };
  static const WireEnum kWireEnums[] = {
      {"MessageType", "src/serve/protocol.h"},
      {"WireError", "src/serve/protocol.h"},
      {"UncertaintyBackend", "src/uncertainty/estimator.h"},
  };
  std::vector<std::map<std::string, int>> values(std::size(kWireEnums));
  bool all_found = true;
  for (size_t e = 0; e < std::size(kWireEnums); ++e) {
    if (const FileFacts* header = FactsOf(facts, kWireEnums[e].header)) {
      for (const Enumerator& en : header->enumerators) {
        if (en.enum_name == kWireEnums[e].name) values[e][en.name] = en.value;
      }
    }
    if (values[e].empty()) {
      findings->push_back(Make(kWireEnums[e].header, 0, "protocol-doc-sync",
                               std::string("enum class ") +
                                   kWireEnums[e].name + " not found"));
      all_found = false;
    }
  }
  if (!all_found) return;
  std::set<std::string> doc_names_seen;
  for (size_t e = 0; e < std::size(kWireEnums); ++e) {
    SyncOneEnum(kWireEnums[e].name, kWireEnums[e].header, values[e],
                docs.wire_rows, &doc_names_seen, findings);
  }
  for (const auto& [name, value] : docs.wire_rows) {
    if (doc_names_seen.count(name) != 0) continue;
    findings->push_back(Make(kProtocolDoc, 0, "protocol-doc-sync",
                             "doc table row `" + name + "` (= " +
                                 std::to_string(value) +
                                 ") matches no protocol.h / estimator.h "
                                 "enumerator"));
  }
}

void CheckKernelTableSync(const std::vector<FileFacts>& facts,
                          std::vector<Finding>* findings) {
  const std::string simd_dir = "src/tensor/simd/";
  std::vector<const FileFacts*> backends;
  for (const FileFacts& f : facts) {
    if (StartsWith(f.path, simd_dir + "kernels_") && EndsWith(f.path, ".cc") &&
        f.path.find('/', simd_dir.size()) == std::string::npos) {
      backends.push_back(&f);
    }
  }
  if (backends.empty()) {
    findings->push_back(Make("src/tensor/simd", 0, "simd-discipline",
                             "no kernels_*.cc backend translation units "
                             "found"));
    return;
  }
  const std::string header = simd_dir + "kernels.h";
  const FileFacts* decl = FactsOf(facts, header);
  if (decl == nullptr || decl->kernel_fields.empty()) {
    findings->push_back(Make(header, 0, "simd-discipline",
                             "struct F32Kernels not found (or has no "
                             "members)"));
    return;
  }
  const std::vector<std::string>& fields = decl->kernel_fields;
  const std::set<std::string> declared(fields.begin(), fields.end());
  for (const FileFacts* backend : backends) {
    if (!backend->has_kernel_table) {
      findings->push_back(
          Make(backend->path, 0, "simd-discipline",
               "backend registers no F32Kernels table (expected a "
               "designated initializer naming every kernels.h field)"));
      continue;
    }
    const std::vector<std::string>& set_fields = backend->kernel_table_fields;
    const std::set<std::string> set(set_fields.begin(), set_fields.end());
    for (const std::string& field : fields) {
      if (set.count(field) != 0) continue;
      findings->push_back(Make(backend->path, 0, "simd-discipline",
                               "F32Kernels field `" + field +
                                   "` is declared in kernels.h but never "
                                   "set in this backend's table"));
    }
    for (const std::string& field : set_fields) {
      if (declared.count(field) != 0) continue;
      findings->push_back(Make(backend->path, 0, "simd-discipline",
                               "designated initializer `." + field +
                                   "` matches no F32Kernels field in "
                                   "kernels.h"));
    }
  }
}

}  // namespace

const std::vector<std::string>& ScannedDocs() {
  static const std::vector<std::string> kDocs = {
      "docs/MEMORY.md",
      "docs/OBSERVABILITY.md",
      kProtocolDoc,
      "docs/TESTING.md",
  };
  return kDocs;
}

void ScanDoc(const std::string& doc_path, const std::string& content,
             DocNames* out) {
  if (doc_path == kProtocolDoc) {
    ScanWireRows(content, out);
  } else {
    ScanRegistryDoc(doc_path, content, out);
  }
}

std::vector<Finding> CheckWholeProgram(const std::vector<FileFacts>& facts,
                                       const DocNames& docs) {
  std::vector<Finding> findings;
  CheckRegistryConsistency(facts, docs, &findings);
  CheckProtocolDocSync(facts, docs, &findings);
  CheckKernelTableSync(facts, &findings);
  return findings;
}

const std::vector<std::string>& AnalyzerRuleIds() {
  static const std::vector<std::string> kIds = {
      "check-not-assert",     "estimator-discipline", "header-guard",
      "into-aliasing",        "memory-discipline",    "no-iostream",
      "parallel-capture",     "protocol-doc-sync",    "registry-consistency",
      "rng-discipline",       "seed-discipline",      "simd-discipline",
      "thread-discipline",    "timing-discipline",    "workspace-escape",
  };
  return kIds;
}

}  // namespace tasfar::analyze

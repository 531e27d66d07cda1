#include "rules.h"

#include <algorithm>
#include <cctype>

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

void ScanDocNames(const std::string& doc_path, const std::string& content,
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

std::vector<Finding> CheckRegistryConsistency(
    const std::vector<FileFacts>& facts, const DocNames& docs) {
  std::vector<Finding> findings;
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
    for (const NameRef& c : f.flight_codes) {
      flight_codes.emplace(c.name, std::make_pair(f.path, c.line));
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
  return findings;
}

const std::vector<std::string>& AnalyzerRuleIds() {
  static const std::vector<std::string> kIds = {
      "into-aliasing",    "parallel-capture", "registry-consistency",
      "seed-discipline",  "workspace-escape",
  };
  return kIds;
}

}  // namespace tasfar::analyze

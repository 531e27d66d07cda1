#ifndef TASFAR_TOOLS_ANALYZE_FACTS_H_
#define TASFAR_TOOLS_ANALYZE_FACTS_H_

#include <string>
#include <vector>

namespace tasfar::analyze {

/// One rule violation at a source location. `suppressed` is set by the
/// engine when a `// TASFAR_ANALYZE_ALLOW(rule): reason` comment covers
/// the finding's line (same line or the line above).
struct Finding {
  std::string file;  ///< Repo-relative path ("src/...", "docs/...", ...).
  int line = 0;      ///< 1-based; 0 for file-scoped findings.
  std::string rule;  ///< Stable rule id, e.g. "into-aliasing".
  std::string message;
  bool suppressed = false;
  std::string suppress_reason;

  bool operator==(const Finding& o) const {
    return file == o.file && line == o.line && rule == o.rule &&
           message == o.message && suppressed == o.suppressed &&
           suppress_reason == o.suppress_reason;
  }
};

/// A registered observable name (metric / trace span / failpoint site)
/// at its source line.
struct NameRef {
  std::string name;
  int line = 0;
};

/// One `kName` enumerator of an `enum class` definition.
struct Enumerator {
  std::string enum_name;
  std::string name;
  int value = -1;  ///< -1 when not spelled `= <integer>`.
  int line = 0;
};

/// One `// TASFAR_ANALYZE_ALLOW(rule): reason` comment.
struct Suppression {
  int line = 0;
  std::string rule;
  std::string reason;
};

/// Everything the whole-program pass needs from one file, plus the file's
/// own per-file findings. Symbols are extracted from src/ files only.
struct FileFacts {
  std::string path;  ///< Repo-relative.

  std::vector<NameRef> metrics;     ///< Exact metric names registered.
  std::vector<std::string> metric_prefixes;  ///< Dynamic ("tasfar.guard.").
  std::vector<NameRef> spans;       ///< TASFAR_TRACE_SPAN literals.
  std::vector<NameRef> failpoints;  ///< TASFAR_FAILPOINT literals.
  std::vector<Enumerator> enumerators;  ///< Of every `enum class`.
  /// Member names of a `struct F32Kernels` definition, in order.
  std::vector<std::string> kernel_fields;
  /// Whether the file defines an F32Kernels table (`F32Kernels k = {...}`),
  /// and the designated-initializer fields of the first one.
  bool has_kernel_table = false;
  std::vector<std::string> kernel_table_fields;
  std::vector<Suppression> suppressions;
  std::vector<int> aliased_ack_lines;  ///< Lines with `// aliased:` acks.
  std::vector<Finding> findings;       ///< Per-file rule findings.
};

/// Lexes `source` and extracts symbols, suppressions, and the findings of
/// every per-file rule that applies to `repo_rel_path`, sorted by line.
/// The whole-program pass runs later over the merged facts (see rules.h).
FileFacts AnalyzeSource(const std::string& repo_rel_path,
                        const std::string& source);

}  // namespace tasfar::analyze

#endif  // TASFAR_TOOLS_ANALYZE_FACTS_H_

#ifndef TASFAR_TOOLS_ANALYZE_ENGINE_H_
#define TASFAR_TOOLS_ANALYZE_ENGINE_H_

#include <string>
#include <vector>

#include "facts.h"

namespace tasfar::analyze {

struct AnalyzeOptions {
  /// Repo root; the source roots and `docs/` are resolved under it.
  std::string repo_root;
};

struct AnalyzeResult {
  /// All findings (suppressed ones included), sorted by file/line/rule.
  std::vector<Finding> findings;
  int files_scanned = 0;
  int unsuppressed = 0;
  int suppressed = 0;
  bool io_error = false;
  std::string error;
};

/// Runs the analysis: reads, lexes and checks every .h/.cc/.cpp file under
/// src/, tests/, bench/, examples/ and tools/ (skipping `build*` and dot
/// directories) in one serial pass; reads ScannedDocs(); runs the
/// whole-program pass over the facts and docs; applies
/// TASFAR_ANALYZE_ALLOW suppressions; and bumps the tasfar.analyze.*
/// metrics. A missing source root or doc is an I/O error.
AnalyzeResult AnalyzeRepo(const AnalyzeOptions& options);

}  // namespace tasfar::analyze

#endif  // TASFAR_TOOLS_ANALYZE_ENGINE_H_

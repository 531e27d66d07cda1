// tasfar_analyze — the repo's invariant analyzer.
//
// Lexes every .h/.cc/.cpp file under src/, tests/, bench/, examples/ and
// tools/ in one serial pass, runs the per-file rules on each, then one
// whole-program pass over the merged facts and the docs:
// registry-consistency, protocol-doc-sync and the F32Kernels table sync.
// docs/STATIC_ANALYSIS.md has the rule catalog.
//
// Usage: tasfar_analyze [repo_root] [--sarif=PATH | --no-sarif]
// Default SARIF path: <root>/bench_out/analyze.sarif. Exits 0 when clean,
// 1 on any unsuppressed finding, 2 on I/O errors (a missing source root or
// doc).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "engine.h"
#include "sarif.h"
#include "util/logging.h"

namespace {

bool ConsumeFlag(const std::string& arg, const std::string& prefix,
                 std::string* value) {
  if (arg.compare(0, prefix.size(), prefix) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::string repo_root = ".";
  std::string sarif_path;
  bool no_sarif = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--no-sarif") {
      no_sarif = true;
    } else if (ConsumeFlag(arg, "--sarif=", &value)) {
      sarif_path = value;
    } else if (!arg.empty() && arg[0] == '-') {
      TASFAR_LOG(kError) << "tasfar_analyze: unknown flag " << arg;
      return 2;
    } else {
      repo_root = arg;
    }
  }
  if (!no_sarif && sarif_path.empty()) {
    sarif_path =
        (fs::path(repo_root) / "bench_out" / "analyze.sarif").string();
  }

  tasfar::analyze::AnalyzeOptions options;
  options.repo_root = repo_root;
  const tasfar::analyze::AnalyzeResult result =
      tasfar::analyze::AnalyzeRepo(options);
  if (result.io_error) {
    TASFAR_LOG(kError) << "tasfar_analyze: " << result.error;
    return 2;
  }

  for (const tasfar::analyze::Finding& f : result.findings) {
    if (f.suppressed) continue;
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }

  if (!no_sarif && !sarif_path.empty()) {
    std::error_code ec;
    fs::create_directories(fs::path(sarif_path).parent_path(), ec);
    std::ofstream out(sarif_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      TASFAR_LOG(kError) << "tasfar_analyze: cannot write " << sarif_path;
      return 2;
    }
    out << tasfar::analyze::ToSarif(result.findings);
  }

  TASFAR_LOG(kInfo) << "tasfar_analyze: " << result.files_scanned
                    << " files, " << result.unsuppressed << " finding(s), "
                    << result.suppressed << " suppressed";
  return result.unsuppressed > 0 ? 1 : 0;
}

#include "engine.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "rules.h"

namespace tasfar::analyze {

namespace fs = std::filesystem;

namespace {

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Sorted repo-relative paths of every .h/.cc/.cpp file under the source
/// roots, skipping `build*` and dot directories. A missing root is an
/// error.
std::vector<std::string> DiscoverSources(const fs::path& root,
                                         std::string* error) {
  std::vector<std::string> rel;
  for (const char* dir : {"src", "tests", "bench", "examples", "tools"}) {
    if (!fs::is_directory(root / dir)) {
      *error = "source root is not a directory: " + (root / dir).string();
      return {};
    }
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root / dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      const std::string name = it->path().filename().string();
      if (it->is_directory()) {
        if (name.compare(0, 5, "build") == 0 || name[0] == '.') {
          it.disable_recursion_pending();
        }
        continue;
      }
      const std::string ext = it->path().extension().string();
      if (!it->is_regular_file() ||
          (ext != ".h" && ext != ".cc" && ext != ".cpp")) {
        continue;
      }
      rel.push_back(fs::relative(it->path(), root).generic_string());
    }
    if (ec) {
      *error = "cannot walk " + (root / dir).string() + ": " + ec.message();
      return {};
    }
  }
  std::sort(rel.begin(), rel.end());
  return rel;
}

/// Marks `f` suppressed when a TASFAR_ANALYZE_ALLOW of its rule sits on
/// the same line or the line above. Registry findings anchored in docs
/// cannot be suppressed — the docs are the fix.
void ApplySuppressions(const std::vector<Suppression>& sups, Finding* f) {
  for (const Suppression& s : sups) {
    if (s.rule == f->rule && (s.line == f->line || s.line == f->line - 1)) {
      f->suppressed = true;
      f->suppress_reason = s.reason;
      return;
    }
  }
}

}  // namespace

AnalyzeResult AnalyzeRepo(const AnalyzeOptions& options) {
  AnalyzeResult result;
  const fs::path root(options.repo_root);

  std::string error;
  const std::vector<std::string> sources = DiscoverSources(root, &error);
  if (!error.empty()) {
    result.io_error = true;
    result.error = error;
    return result;
  }

  std::vector<FileFacts> facts;
  facts.reserve(sources.size());
  for (const std::string& rel : sources) {
    std::string content;
    if (!ReadFile(root / rel, &content)) {
      result.io_error = true;
      result.error = "cannot read " + rel;
      return result;
    }
    facts.push_back(AnalyzeSource(rel, content));
  }
  result.files_scanned = static_cast<int>(sources.size());

  DocNames docs;
  for (const std::string& doc : ScannedDocs()) {
    std::string content;
    if (!ReadFile(root / doc, &content)) {
      result.io_error = true;
      result.error = "cannot read " + doc;
      return result;
    }
    ScanDoc(doc, content, &docs);
  }

  std::vector<Finding> whole_program = CheckWholeProgram(facts, docs);

  std::vector<Finding> all;
  for (FileFacts& ff : facts) {
    for (Finding& f : ff.findings) ApplySuppressions(ff.suppressions, &f);
    all.insert(all.end(), ff.findings.begin(), ff.findings.end());
  }
  // Whole-program findings anchored at a source line can be suppressed
  // there (a doc-anchored finding has no comment grammar to carry the
  // ALLOW, and a line-0 finding is file-scoped).
  for (Finding& f : whole_program) {
    for (const FileFacts& ff : facts) {
      if (ff.path != f.file) continue;
      ApplySuppressions(ff.suppressions, &f);
      break;
    }
  }
  all.insert(all.end(), whole_program.begin(), whole_program.end());

  std::sort(all.begin(), all.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  for (const Finding& f : all) {
    if (f.suppressed) {
      ++result.suppressed;
    } else {
      ++result.unsuppressed;
    }
  }
  result.findings = std::move(all);

  obs::Registry& reg = obs::Registry::Get();
  reg.GetCounter("tasfar.analyze.files")->Increment(
      static_cast<uint64_t>(result.files_scanned));
  reg.GetCounter("tasfar.analyze.findings")->Increment(
      static_cast<uint64_t>(result.unsuppressed));
  reg.GetCounter("tasfar.analyze.suppressed")->Increment(
      static_cast<uint64_t>(result.suppressed));
  return result;
}

}  // namespace tasfar::analyze

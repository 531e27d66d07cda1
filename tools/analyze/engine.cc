#include "engine.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "lexer.h"
#include "obs/metrics.h"
#include "rules.h"
#include "util/thread_pool.h"

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

/// Cache entry file for a repo-relative source path: slashes become '_'
/// so every entry lives flat in the cache directory.
fs::path CacheEntry(const std::string& cache_dir,
                    const std::string& rel_path) {
  std::string name = rel_path;
  std::replace(name.begin(), name.end(), '/', '_');
  return fs::path(cache_dir) / (name + ".facts");
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

/// Marks findings covered by a TASFAR_ANALYZE_ALLOW on the same line or
/// the line above. Registry findings anchored in docs cannot be
/// suppressed — the docs are the fix.
void ApplySuppressions(const std::vector<Suppression>& sups,
                       std::vector<Finding>* findings) {
  for (Finding& f : *findings) {
    for (const Suppression& s : sups) {
      if (s.rule != f.rule) continue;
      if (s.line == f.line || s.line == f.line - 1) {
        f.suppressed = true;
        f.suppress_reason = s.reason;
        break;
      }
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

  const bool use_cache = !options.cache_dir.empty();
  if (use_cache) {
    std::error_code ec;
    fs::create_directories(options.cache_dir, ec);
  }

  // Per-file scans run in parallel: each index touches only its own slot
  // and its own cache entry file.
  std::vector<FileFacts> facts(sources.size());
  std::vector<char> failed(sources.size(), 0);
  std::atomic<int> hits{0};
  std::atomic<int> misses{0};
  ParallelFor(0, sources.size(), 1, [&](size_t i) {
    std::string content;
    if (!ReadFile(root / sources[i], &content)) {
      failed[i] = 1;
      return;
    }
    const uint64_t hash = HashContent(content);
    if (use_cache) {
      std::string cached;
      FileFacts parsed;
      if (ReadFile(CacheEntry(options.cache_dir, sources[i]), &cached) &&
          ParseFacts(cached, &parsed) && parsed.content_hash == hash &&
          parsed.path == sources[i]) {
        facts[i] = std::move(parsed);
        hits.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    facts[i] = AnalyzeSource(sources[i], content);
    misses.fetch_add(1, std::memory_order_relaxed);
    if (use_cache) {
      std::ofstream out(CacheEntry(options.cache_dir, sources[i]),
                        std::ios::binary | std::ios::trunc);
      out << SerializeFacts(facts[i]);
    }
  });
  for (size_t i = 0; i < sources.size(); ++i) {
    if (failed[i] != 0) {
      result.io_error = true;
      result.error = "cannot read " + sources[i];
      return result;
    }
  }
  result.files_scanned = static_cast<int>(sources.size());
  result.cache_hits = hits.load();
  result.cache_misses = misses.load();
  if (use_cache) {
    // Entries of deleted or renamed files: lookups go by path, so nothing
    // would read them again; drop them so the cache holds what was scanned.
    std::set<std::string> live;
    for (const std::string& rel : sources) {
      live.insert(CacheEntry(options.cache_dir, rel).filename().string());
    }
    std::vector<fs::path> stale;
    std::error_code ec;
    for (fs::directory_iterator it(options.cache_dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      const fs::path& entry = it->path();
      if (entry.extension() == ".facts" &&
          live.count(entry.filename().string()) == 0) {
        stale.push_back(entry);
      }
    }
    for (const fs::path& entry : stale) fs::remove(entry, ec);
  }

  // Docs are read fresh every run: they are few, cheap to scan, and the
  // cross-checks must see edits immediately.
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
  for (FileFacts& f : facts) {
    std::vector<Finding> file_findings = f.findings;  // cache holds raw
    ApplySuppressions(f.suppressions, &file_findings);
    all.insert(all.end(), file_findings.begin(), file_findings.end());
  }
  // Whole-program findings anchored at a source line can be suppressed
  // there (a doc-anchored finding has no comment grammar to carry the
  // ALLOW, and a line-0 finding is file-scoped).
  for (Finding& f : whole_program) {
    for (const FileFacts& ff : facts) {
      if (ff.path != f.file) continue;
      std::vector<Finding> one = {f};
      ApplySuppressions(ff.suppressions, &one);
      f = one[0];
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
  result.facts = std::move(facts);

  obs::Registry& reg = obs::Registry::Get();
  reg.GetCounter("tasfar.analyze.files")->Increment(
      static_cast<uint64_t>(result.files_scanned));
  reg.GetCounter("tasfar.analyze.findings")->Increment(
      static_cast<uint64_t>(result.unsuppressed));
  reg.GetCounter("tasfar.analyze.suppressed")->Increment(
      static_cast<uint64_t>(result.suppressed));
  reg.GetCounter("tasfar.analyze.cache_hits")->Increment(
      static_cast<uint64_t>(result.cache_hits));
  reg.GetCounter("tasfar.analyze.cache_misses")->Increment(
      static_cast<uint64_t>(result.cache_misses));
  return result;
}

}  // namespace tasfar::analyze

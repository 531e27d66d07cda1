#ifndef TASFAR_TOOLS_ANALYZE_RULES_H_
#define TASFAR_TOOLS_ANALYZE_RULES_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "facts.h"
#include "lexer.h"

namespace tasfar::analyze {

/// The analyzer's rules (docs/STATIC_ANALYSIS.md has the catalog with
/// rationale; each check's comment here is the normative statement).
///
/// Per-file checks take the file's *code* tokens (comments removed, so a
/// banned name inside a comment or string literal never matches) and
/// append findings. AnalyzeSource (facts.h) scopes them: rng, thread and
/// simd discipline and header guards apply to every scanned file; the
/// rest apply under src/ only. Exemptions inside a scope live in the
/// check itself.

/// rng-discipline: everything stochastic draws from an explicitly passed
/// tasfar::Rng&, so runs are reproducible. std::rand / srand /
/// random_device / mt19937 / minstd_rand / default_random_engine, the
/// unqualified random_device / mt19937 / rand() / srand(), and wall-clock
/// `time()` / `time(NULL|nullptr|0)` seeding are banned.
void CheckRngDiscipline(const std::string& path,
                        const std::vector<Token>& code,
                        std::vector<Finding>* findings);

/// thread-discipline: all parallelism flows through the ThreadPool /
/// ParallelFor substrate, so the determinism contract of
/// docs/THREADING.md holds repo-wide. Raw std::thread / std::jthread /
/// std::async are banned outside src/util/thread_pool.*.
void CheckThreadDiscipline(const std::string& path,
                           const std::vector<Token>& code,
                           std::vector<Finding>* findings);

/// simd-discipline, per file: raw vector intrinsics (`_mm*` functions,
/// `__m<N>` types, `float32x*` / `float64x*` types, `v*q_f32` / `v*q_f64`
/// intrinsics) and intrinsic headers live only in src/tensor/simd/,
/// behind the F32Kernels dispatch tables (docs/MEMORY.md §"Float32
/// compute mode"). The whole-program half is the table sync below.
void CheckSimdDiscipline(const std::string& path,
                         const std::vector<Token>& code,
                         std::vector<Finding>* findings);

/// The include-guard macro required for a header at `repo_rel_path`:
/// TASFAR_<PATH>_H_ with the path uppercased and separators mapped to '_'.
/// Paths under src/ drop the src/ prefix (src/util/rng.h ->
/// TASFAR_UTIL_RNG_H_); all other roots keep it (bench/bench_common.h ->
/// TASFAR_BENCH_BENCH_COMMON_H_).
std::string ExpectedHeaderGuard(const std::string& repo_rel_path);

/// header-guard: a header's first directive is `#ifndef` of
/// ExpectedHeaderGuard(path), and that macro is `#define`d.
void CheckHeaderGuard(const std::string& path, const std::vector<Token>& code,
                      std::vector<Finding>* findings);

/// no-iostream: src/ logs through util/logging.h, never <iostream>.
void CheckNoIostream(const std::string& path, const std::vector<Token>& code,
                     std::vector<Finding>* findings);

/// check-not-assert: src/ states invariants with TASFAR_CHECK, which fires
/// in every build mode; bare assert(), <cassert> and <assert.h> are banned.
void CheckNoBareAssert(const std::string& path,
                       const std::vector<Token>& code,
                       std::vector<Finding>* findings);

/// timing-discipline: clock reads in src/ go through src/obs/
/// (obs::MonotonicMicros / TASFAR_TRACE_SPAN / the metrics registry), so
/// stage timings land in one observable place; <chrono> and std::chrono
/// are banned outside src/obs/.
void CheckTimingDiscipline(const std::string& path,
                           const std::vector<Token>& code,
                           std::vector<Finding>* findings);

/// memory-discipline (docs/MEMORY.md), two bans:
/// 1. By-value `Tensor` parameters. A by-value parameter detaches (copies
///    the whole buffer) on the callee's first write and hides that cost at
///    every call site; APIs take `const Tensor&` or `Tensor*`.
/// 2. `std::vector<double>(... .data() ...)`, copying a tensor's storage
///    into a fresh vector. src/tensor/ is exempt: the copy-on-write
///    detach itself is implemented this way.
void CheckMemoryDiscipline(const std::string& path,
                           const std::vector<Token>& code,
                           std::vector<Finding>* findings);

/// estimator-discipline (docs/UNCERTAINTY.md): outside src/uncertainty/,
/// src/ constructs estimators through MakeEstimator(model,
/// EstimatorConfig), so the backend stays a config value; naming
/// McDropoutPredictor / DeepEnsemble / LastLayerLaplace is banned.
void CheckEstimatorDiscipline(const std::string& path,
                              const std::vector<Token>& code,
                              std::vector<Finding>* findings);

/// parallel-capture: a lambda passed to ParallelFor may not write a
/// by-reference captured variable through a plain assignment, increment,
/// or a subscript that does not involve the loop index. Writes through
/// members/methods (e.g. atomic .fetch_add, counter->Increment) and to
/// body-local variables are out of scope. The static face of the
/// disjoint-write rule in docs/THREADING.md.
void CheckParallelCapture(const std::string& path,
                          const std::vector<Token>& code,
                          std::vector<Finding>* findings);

/// into-aliasing: at a `*Into(...)` out-parameter kernel call site, the
/// destination (last argument, '&'/'*' stripped) may not textually equal
/// any input argument unless the line (or the line above) carries an
/// `// aliased:` acknowledgment. In-place use is legal for elementwise
/// kernels (docs/MEMORY.md §Kernels) but must be visibly acknowledged,
/// because for MatMulInto/TransposedInto/GatherRowsInto it is UB.
void CheckIntoAliasing(const std::string& path,
                       const std::vector<Token>& code,
                       const std::vector<int>& aliased_ack_lines,
                       std::vector<Finding>* findings);

/// workspace-escape: a tensor acquired from Workspace NewTensor/ZeroTensor
/// may not be stored into a member (trailing-underscore identifier) or a
/// static, and may not be returned directly as the unassigned call result
/// (NewTensor contents are uninitialized). Returning a *named* workspace
/// tensor after filling it is the documented ownership handoff
/// (docs/MEMORY.md §Workspaces) and is allowed.
void CheckWorkspaceEscape(const std::string& path,
                          const std::vector<Token>& code,
                          std::vector<Finding>* findings);

/// seed-discipline: a seed expression handed to Rng construction, Fork,
/// MixSeed, or ReseedStochastic may not combine a seed-named value with
/// ad-hoc arithmetic (+ - * ^ << >> |) at the argument's top level —
/// derive child seeds through MixSeed streams instead. src/util/rng.* is
/// exempt (it *is* the derivation).
void CheckSeedDiscipline(const std::string& path,
                         const std::vector<Token>& code,
                         std::vector<Finding>* findings);

/// What the whole-program pass reads from the docs.
struct DocNames {
  /// Inline-backtick name tokens of the registry docs -> first (file,
  /// line) they appear on.
  std::map<std::string, std::pair<std::string, int>> tokens;
  /// failpoint site -> (file, line), from docs/TESTING.md's
  /// "Injection sites" table only.
  std::map<std::string, std::pair<std::string, int>> failpoint_sites;
  /// docs/PROTOCOL.md table rows whose first cell is a backticked
  /// `kName` and whose second cell is a number: enumerator -> value.
  std::map<std::string, int> wire_rows;
};

/// The docs the whole-program pass reads, relative to the repo root.
const std::vector<std::string>& ScannedDocs();

/// Harvests one of ScannedDocs() into `out`. docs/PROTOCOL.md yields
/// `wire_rows`. Every other doc is a registry doc: its `...`-quoted tokens
/// are kept when name-like (nonempty, chars in [a-z0-9._], at least one
/// '.'; '*' or '<' marks a template and is skipped), and the first-column
/// names of an "Injection sites" table are failpoint sites.
void ScanDoc(const std::string& doc_path, const std::string& content,
             DocNames* out);

/// The whole-program pass over every file's facts and the harvested docs.
/// It runs three cross-file checks and opens no file:
///
/// registry-consistency: every exact metric name, trace-span literal,
/// failpoint site and flight-recorder code in src/ appears in the registry
/// docs, and every documented `tasfar.*` name / failpoint-table site /
/// `serve.flight.*` code exists in src/. Dynamic registration prefixes
/// (e.g. "tasfar.failpoint.") cover doc tokens under them, except
/// "tasfar.span." — span names are statically known, so tasfar.span.*.ms
/// doc tokens must match a real span.
///
/// protocol-doc-sync: the `MessageType` and `WireError` enumerators of
/// src/serve/protocol.h and the `UncertaintyBackend` enumerators of
/// src/uncertainty/estimator.h (kCreateSession's backend byte) match the
/// docs/PROTOCOL.md tables both ways, name and value; every enumerator
/// carries an explicit `= value`.
///
/// simd-discipline, table sync: every backend translation unit
/// src/tensor/simd/kernels_<isa>.cc defines an F32Kernels table whose
/// designated initializers name exactly the fields that
/// src/tensor/simd/kernels.h declares.
std::vector<Finding> CheckWholeProgram(const std::vector<FileFacts>& facts,
                                       const DocNames& docs);

/// Every rule id, for the SARIF rule metadata.
const std::vector<std::string>& AnalyzerRuleIds();

}  // namespace tasfar::analyze

#endif  // TASFAR_TOOLS_ANALYZE_RULES_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "facts.h"
#include "rules.h"

namespace tasfar::analyze {
namespace {

namespace fs = std::filesystem;

/// The per-file findings for one file, sorted by line.
std::vector<Finding> FileFindings(const std::string& path,
                                  const std::string& source) {
  return AnalyzeSource(path, source).findings;
}

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

/// The whole-program findings of `rule` over the given (path, source)
/// files and docs.
std::vector<Finding> WholeProgramFindings(
    const std::vector<std::pair<std::string, std::string>>& files,
    const std::vector<std::pair<std::string, std::string>>& doc_files,
    const std::string& rule) {
  std::vector<FileFacts> facts;
  for (const auto& [path, source] : files) {
    facts.push_back(AnalyzeSource(path, source));
  }
  DocNames docs;
  for (const auto& [path, content] : doc_files) ScanDoc(path, content, &docs);
  std::vector<Finding> findings;
  for (const Finding& f : CheckWholeProgram(facts, docs)) {
    if (f.rule == rule) findings.push_back(f);
  }
  return findings;
}

/// Reads `rel` under the repo root, found by probing up from the test's
/// working directory (ctest runs it inside the build tree).
bool ReadRepoFile(const std::string& rel, std::string* out,
                  std::string* root = nullptr) {
  for (const char* probe : {".", "..", "../..", "../../.."}) {
    std::ifstream in(fs::path(probe) / rel, std::ios::binary);
    if (!in) continue;
    std::ostringstream buf;
    buf << in.rdbuf();
    *out = buf.str();
    if (root != nullptr) *root = probe;
    return true;
  }
  return false;
}

// --- rng-discipline ---------------------------------------------------------

TEST(RngDisciplineTest, FlagsStdRand) {
  const auto findings = FileFindings("src/foo.cc", "int x = std::rand();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "rng-discipline");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(RngDisciplineTest, FlagsBareRandCall) {
  const auto findings = FileFindings("tests/foo_test.cc", "int x = rand();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "rng-discipline");
}

TEST(RngDisciplineTest, FlagsMt19937AndRandomDevice) {
  const auto findings = FileFindings(
      "bench/foo.cc", "std::mt19937 gen(std::random_device{}());\n");
  EXPECT_EQ(findings.size(), 2u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "rng-discipline");
}

TEST(RngDisciplineTest, FlagsUnqualifiedMt19937) {
  const auto findings =
      FileFindings("src/foo.cc", "using std::mt19937;\nmt19937 gen;\n");
  EXPECT_EQ(findings.size(), 2u);
}

TEST(RngDisciplineTest, FlagsArglessTimeSeeding) {
  EXPECT_EQ(FileFindings("src/a.cc", "seed(time(NULL));\n").size(), 1u);
  EXPECT_EQ(FileFindings("src/a.cc", "seed(time(nullptr));\n").size(), 1u);
  EXPECT_EQ(FileFindings("src/a.cc", "seed(time( 0 ));\n").size(), 1u);
  EXPECT_EQ(FileFindings("src/a.cc", "seed(std::time(nullptr));\n").size(), 1u);
}

TEST(RngDisciplineTest, AllowsTimeWithRealArgument) {
  EXPECT_TRUE(FileFindings("src/a.cc", "time_t t; time(&t);\n").empty());
}

TEST(RngDisciplineTest, NoFalsePositiveOnSubstrings) {
  // "rand" inside identifiers, Rng usage, and elapsed-time helpers are fine.
  const std::string src =
      "int operand = 1;\n"
      "double r = rng.Uniform();\n"
      "double elapsed_time(int x);\n"
      "my_rand_helper();\n";
  EXPECT_TRUE(FileFindings("src/foo.cc", src).empty());
}

TEST(RngDisciplineTest, IgnoresCommentsAndStrings) {
  const std::string src =
      "// std::rand is banned\n"
      "const char* msg = \"std::mt19937\";\n";
  EXPECT_TRUE(FileFindings("src/foo.cc", src).empty());
}

TEST(RngDisciplineTest, AppliesOutsideSrcToo) {
  EXPECT_EQ(FileFindings("examples/demo.cpp", "std::rand();\n").size(), 1u);
  EXPECT_EQ(FileFindings("tools/gen.cc", "std::rand();\n").size(), 1u);
}

// --- thread-discipline ------------------------------------------------------

TEST(ThreadDisciplineTest, FlagsRawStdThread) {
  const auto findings =
      FileFindings("src/core/foo.cc", "std::thread t([]{});\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "thread-discipline");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(ThreadDisciplineTest, FlagsJthreadAndAsync) {
  const auto findings = FileFindings(
      "bench/foo.cc", "std::jthread t([]{});\nauto f = std::async([]{});\n");
  ASSERT_EQ(findings.size(), 2u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "thread-discipline");
  }
}

TEST(ThreadDisciplineTest, AppliesOutsideSrcToo) {
  EXPECT_EQ(FileFindings("tests/foo_test.cc", "std::thread t;\n").size(), 1u);
  EXPECT_EQ(FileFindings("examples/demo.cpp", "std::thread t;\n").size(), 1u);
}

TEST(ThreadDisciplineTest, AllowsThreadPoolImplementation) {
  EXPECT_TRUE(FileFindings("src/util/thread_pool.cc",
                           "workers_.emplace_back(std::thread([]{}));\n")
                  .empty());
  // The .h snippet still gets the header-guard rule; only the
  // thread-discipline exemption is under test here.
  for (const Finding& f :
       FileFindings("src/util/thread_pool.h",
                    "std::vector<std::thread> workers_;\n")) {
    EXPECT_NE(f.rule, "thread-discipline");
  }
}

TEST(ThreadDisciplineTest, AllowsThisThreadAndThreadPool) {
  // std::this_thread (sleep/yield) and our own ThreadPool are fine; so is
  // the word "thread" in identifiers.
  EXPECT_TRUE(FileFindings("src/core/foo.cc",
                           "std::this_thread::yield();\n"
                           "ThreadPool pool(4);\n"
                           "size_t num_threads = 2;\n")
                  .empty());
}

TEST(ThreadDisciplineTest, IgnoresCommentsAndStrings) {
  EXPECT_TRUE(FileFindings("src/core/foo.cc",
                           "// std::thread is banned here\n"
                           "const char* s = \"std::thread\";\n")
                  .empty());
}

// --- no-iostream ------------------------------------------------------------

TEST(NoIostreamTest, FlagsIostreamInSrc) {
  const auto findings =
      FileFindings("src/core/foo.cc", "#include <iostream>\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-iostream");
}

TEST(NoIostreamTest, AllowsIostreamOutsideSrc) {
  EXPECT_TRUE(
      FileFindings("examples/demo.cpp", "#include <iostream>\n").empty());
  EXPECT_TRUE(
      FileFindings("tests/foo_test.cc", "#include <iostream>\n").empty());
}

TEST(NoIostreamTest, AllowsOtherStreamHeadersInSrc) {
  EXPECT_TRUE(FileFindings("src/foo.cc",
                           "#include <sstream>\n#include <fstream>\n")
                  .empty());
}

// --- check-not-assert -------------------------------------------------------

TEST(CheckNotAssertTest, FlagsAssertCallAndHeaderInSrc) {
  const auto findings = FileFindings(
      "src/foo.cc", "#include <cassert>\nvoid f() { assert(1 == 1); }\n");
  EXPECT_EQ(Rules(findings),
            (std::vector<std::string>{"check-not-assert",
                                      "check-not-assert"}));
}

TEST(CheckNotAssertTest, AllowsTasfarCheckAndStaticAssert) {
  const std::string src =
      "TASFAR_CHECK(x > 0);\n"
      "static_assert(sizeof(int) == 4);\n";
  EXPECT_TRUE(FileFindings("src/foo.cc", src).empty());
}

TEST(CheckNotAssertTest, AllowsAssertOutsideSrc) {
  EXPECT_TRUE(FileFindings("tests/foo_test.cc", "assert(true);\n").empty());
}

// --- timing-discipline ------------------------------------------------------

TEST(TimingDisciplineTest, FlagsStdChronoInSrc) {
  const auto findings = FileFindings(
      "src/core/foo.cc",
      "auto t0 = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "timing-discipline");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(TimingDisciplineTest, FlagsChronoIncludeOnce) {
  const auto findings =
      FileFindings("src/util/foo.cc", "#include <chrono>\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "timing-discipline");
}

TEST(TimingDisciplineTest, AllowsChronoInObs) {
  EXPECT_TRUE(FileFindings("src/obs/clock.cc",
                           "#include <chrono>\n"
                           "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
}

TEST(TimingDisciplineTest, AllowsChronoOutsideSrc) {
  EXPECT_TRUE(FileFindings("bench/foo.cc",
                           "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
  EXPECT_TRUE(
      FileFindings("tests/foo_test.cc", "#include <chrono>\n").empty());
}

TEST(TimingDisciplineTest, NoFalsePositiveOnIdentifiers) {
  EXPECT_TRUE(FileFindings("src/core/foo.cc",
                           "int chronology = 1;\n"
                           "double my_chrono_like = 2.0;\n")
                  .empty());
}

TEST(TimingDisciplineTest, IgnoresCommentsAndStrings) {
  EXPECT_TRUE(FileFindings("src/core/foo.cc",
                           "// std::chrono would be banned here\n"
                           "const char* s = \"std::chrono\";\n")
                  .empty());
}

// --- memory-discipline ------------------------------------------------------

TEST(MemoryDisciplineTest, FlagsByValueTensorParam) {
  const auto findings =
      FileFindings("src/nn/foo.cc", "Tensor Forward(Tensor input);\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "memory-discipline");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(MemoryDisciplineTest, FlagsConstByValueAndSecondParam) {
  const auto findings = FileFindings(
      "src/nn/foo.cc", "void F(const Tensor t);\nvoid G(int n, Tensor t);\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].line, 2);
}

TEST(MemoryDisciplineTest, AllowsReferenceAndPointerParams) {
  EXPECT_TRUE(FileFindings("src/nn/foo.cc",
                           "Tensor F(const Tensor& a, Tensor* out);\n"
                           "void G(Tensor& inout, const Tensor* p);\n")
                  .empty());
}

TEST(MemoryDisciplineTest, AllowsLocalsReturnsAndTemplates) {
  EXPECT_TRUE(FileFindings("src/nn/foo.cc",
                           "Tensor F();\n"
                           "void G() {\n"
                           "  Tensor local = F();\n"
                           "  std::vector<Tensor> all;\n"
                           "  H(Tensor({2, 2}));\n"
                           "}\n")
                  .empty());
}

TEST(MemoryDisciplineTest, FlagsVectorCopyOfTensorData) {
  const auto findings = FileFindings(
      "src/nn/foo.cc",
      "std::vector<double> v(std::vector<double>(t.data(), t.data() + "
      "t.size()));\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "memory-discipline");
}

TEST(MemoryDisciplineTest, AllowsVectorWithoutTensorData) {
  EXPECT_TRUE(
      FileFindings("src/nn/foo.cc", "std::vector<double> v(n, 0.0);\n")
          .empty());
}

TEST(MemoryDisciplineTest, ExemptsTensorInternalsFromCopyBan) {
  EXPECT_TRUE(FileFindings("src/tensor/tensor.cc",
                           "auto v = std::vector<double>(src.data(), "
                           "src.data() + n);\n")
                  .empty());
}

TEST(MemoryDisciplineTest, NotAppliedOutsideSrc) {
  EXPECT_TRUE(
      FileFindings("tests/nn/foo_test.cc", "void F(Tensor by_value);\n")
          .empty());
}

// --- estimator-discipline ---------------------------------------------------

TEST(EstimatorDisciplineTest, FlagsConcreteEstimatorsInSrc) {
  const auto findings = FileFindings(
      "src/core/tasfar.cc",
      "McDropoutPredictor p(model, 20);\n"
      "auto e = DeepEnsemble::FromSource(model, 5, seed);\n"
      "LastLayerLaplace l(model);\n");
  ASSERT_EQ(findings.size(), 3u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "estimator-discipline");
    EXPECT_NE(f.message.find("MakeEstimator"), std::string::npos);
  }
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].line, 2);
  EXPECT_EQ(findings[2].line, 3);
}

TEST(EstimatorDisciplineTest, AllowsTheSeamItself) {
  EXPECT_TRUE(FileFindings("src/uncertainty/estimator.cc",
                           "return std::make_unique<McDropoutPredictor>(\n"
                           "    model, config.mc_samples);\n")
                  .empty());
}

TEST(EstimatorDisciplineTest, AllowsSeamTypesAndEnumerators) {
  // The abstract interface, the factory, and backend enumerators are how
  // the rest of src/ is *supposed* to talk about estimators.
  EXPECT_TRUE(FileFindings(
                  "src/serve/session.cc",
                  "std::unique_ptr<UncertaintyEstimator> e =\n"
                  "    MakeEstimator(model, config);\n"
                  "if (b == UncertaintyBackend::kDeepEnsemble) { Charge(); }\n")
                  .empty());
}

TEST(EstimatorDisciplineTest, NotAppliedOutsideSrc) {
  EXPECT_TRUE(
      FileFindings("tests/uncertainty/ensemble_test.cc",
                   "DeepEnsemble e = DeepEnsemble::FromSource(m, 5, 1);\n")
          .empty());
  EXPECT_TRUE(
      FileFindings("bench/bench_micro_core.cc", "LastLayerLaplace l(&model);\n")
          .empty());
}

TEST(EstimatorDisciplineTest, IgnoresCommentsAndStrings) {
  EXPECT_TRUE(FileFindings("src/core/foo.cc",
                           "// McDropoutPredictor would be banned here\n"
                           "const char* s = \"DeepEnsemble\";\n")
                  .empty());
}

// --- header-guard -----------------------------------------------------------

TEST(HeaderGuardTest, ExpectedGuardDropsSrcPrefix) {
  EXPECT_EQ(ExpectedHeaderGuard("src/util/rng.h"), "TASFAR_UTIL_RNG_H_");
  EXPECT_EQ(ExpectedHeaderGuard("src/core/partitioner.h"),
            "TASFAR_CORE_PARTITIONER_H_");
}

TEST(HeaderGuardTest, ExpectedGuardKeepsNonSrcRoots) {
  EXPECT_EQ(ExpectedHeaderGuard("bench/bench_common.h"),
            "TASFAR_BENCH_BENCH_COMMON_H_");
  EXPECT_EQ(ExpectedHeaderGuard("tools/analyze/rules.h"),
            "TASFAR_TOOLS_ANALYZE_RULES_H_");
}

TEST(HeaderGuardTest, AcceptsCorrectGuard) {
  const std::string src =
      "#ifndef TASFAR_UTIL_FOO_H_\n"
      "#define TASFAR_UTIL_FOO_H_\n"
      "#endif  // TASFAR_UTIL_FOO_H_\n";
  EXPECT_TRUE(FileFindings("src/util/foo.h", src).empty());
}

TEST(HeaderGuardTest, FlagsMissingGuard) {
  const auto findings = FileFindings("src/util/foo.h", "int x;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "header-guard");
}

TEST(HeaderGuardTest, FlagsWrongGuardName) {
  const std::string src =
      "#ifndef FOO_H\n#define FOO_H\n#endif\n";
  const auto findings = FileFindings("src/util/foo.h", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("TASFAR_UTIL_FOO_H_"),
            std::string::npos);
}

TEST(HeaderGuardTest, FlagsGuardNeverDefined) {
  const std::string src = "#ifndef TASFAR_UTIL_FOO_H_\nint x;\n#endif\n";
  const auto findings = FileFindings("src/util/foo.h", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("never #defined"), std::string::npos);
}

TEST(HeaderGuardTest, SkipsNonHeaderFiles) {
  EXPECT_TRUE(FileFindings("src/util/foo.cc", "int x;\n").empty());
}

// --- ordering ---------------------------------------------------------------

TEST(LintSourceTest, FindingsSortedByLine) {
  const std::string src =
      "int a = 1;\n"
      "std::mt19937 g;\n"
      "int b = std::rand();\n";
  const auto findings = FileFindings("src/foo.cc", src);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 3);
}

// --- protocol-doc-sync ------------------------------------------------------

namespace {

// Minimal header/doc pair that is in sync; tests below perturb one side.
const char kSyncedHeader[] =
    "enum class MessageType : std::uint16_t {\n"
    "  kCreateSession = 1,\n"
    "  kPing = 10,\n"
    "  kOkResponse = 128,\n"
    "};\n"
    "enum class WireError : std::uint16_t {\n"
    "  kBadRequest = 1,\n"
    "};\n";

// The estimator seam's backend enum rides the same doc-sync rule: its
// values are kCreateSession's backend byte.
const char kSyncedEstimatorHeader[] =
    "enum class UncertaintyBackend : uint8_t {\n"
    "  kMcDropout = 0,\n"
    "  kDeepEnsemble = 1,\n"
    "};\n";

const char kSyncedDoc[] =
    "| Message | Value |\n"
    "|---------|-------|\n"
    "| `kCreateSession` | 1 |\n"
    "| `kPing` | 10 |\n"
    "| `kOkResponse` | 128 |\n"
    "\n"
    "| Error | Value |\n"
    "| `kBadRequest` | 1 |\n"
    "\n"
    "| Backend | Value |\n"
    "| `kMcDropout` | 0 |\n"
    "| `kDeepEnsemble` | 1 |\n";

std::vector<Finding> ProtocolSync(const std::string& header,
                                  const std::string& estimator_header,
                                  const std::string& doc) {
  return WholeProgramFindings({{"src/serve/protocol.h", header},
                               {"src/uncertainty/estimator.h",
                                estimator_header}},
                              {{"docs/PROTOCOL.md", doc}},
                              "protocol-doc-sync");
}

}  // namespace

TEST(ProtocolDocSyncTest, CleanWhenInSync) {
  EXPECT_TRUE(
      ProtocolSync(kSyncedHeader, kSyncedEstimatorHeader, kSyncedDoc).empty());
}

TEST(ProtocolDocSyncTest, FlagsEnumeratorMissingFromDoc) {
  std::string doc(kSyncedDoc);
  doc.erase(doc.find("| `kPing` | 10 |\n"), sizeof("| `kPing` | 10 |\n") - 1);
  const auto findings =
      ProtocolSync(kSyncedHeader, kSyncedEstimatorHeader, doc);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "protocol-doc-sync");
  EXPECT_NE(findings[0].message.find("kPing"), std::string::npos);
}

TEST(ProtocolDocSyncTest, FlagsValueDisagreement) {
  std::string doc(kSyncedDoc);
  doc.replace(doc.find("| `kPing` | 10 |"), sizeof("| `kPing` | 10 |") - 1,
              "| `kPing` | 11 |");
  const auto findings =
      ProtocolSync(kSyncedHeader, kSyncedEstimatorHeader, doc);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("kPing"), std::string::npos);
  EXPECT_NE(findings[0].message.find("10"), std::string::npos);
  EXPECT_NE(findings[0].message.find("11"), std::string::npos);
}

TEST(ProtocolDocSyncTest, FlagsDocRowWithNoEnumerator) {
  std::string doc(kSyncedDoc);
  doc += "| `kGhostMessage` | 42 |\n";
  const auto findings =
      ProtocolSync(kSyncedHeader, kSyncedEstimatorHeader, doc);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("kGhostMessage"), std::string::npos);
}

TEST(ProtocolDocSyncTest, FlagsEnumeratorWithoutExplicitValue) {
  std::string header(kSyncedHeader);
  header.replace(header.find("kPing = 10,"), sizeof("kPing = 10,") - 1,
                 "kPing,");
  const auto findings =
      ProtocolSync(header, kSyncedEstimatorHeader, kSyncedDoc);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule, "protocol-doc-sync");
}

TEST(ProtocolDocSyncTest, FlagsMissingEnumBlock) {
  const auto findings =
      ProtocolSync("int x;\n", kSyncedEstimatorHeader, kSyncedDoc);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].message.find("MessageType"), std::string::npos);
}

TEST(ProtocolDocSyncTest, FlagsBackendEnumeratorMissingFromDoc) {
  std::string doc(kSyncedDoc);
  doc.erase(doc.find("| `kDeepEnsemble` | 1 |\n"),
            sizeof("| `kDeepEnsemble` | 1 |\n") - 1);
  const auto findings =
      ProtocolSync(kSyncedHeader, kSyncedEstimatorHeader, doc);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "protocol-doc-sync");
  EXPECT_NE(findings[0].message.find("UncertaintyBackend::kDeepEnsemble"),
            std::string::npos);
}

TEST(ProtocolDocSyncTest, FlagsBackendValueDisagreement) {
  std::string doc(kSyncedDoc);
  doc.replace(doc.find("| `kDeepEnsemble` | 1 |"),
              sizeof("| `kDeepEnsemble` | 1 |") - 1,
              "| `kDeepEnsemble` | 2 |");
  const auto findings =
      ProtocolSync(kSyncedHeader, kSyncedEstimatorHeader, doc);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("kDeepEnsemble"), std::string::npos);
}

TEST(ProtocolDocSyncTest, FlagsMissingBackendEnumBlock) {
  const auto findings =
      ProtocolSync(kSyncedHeader, "int x;\n", kSyncedDoc);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].message.find("UncertaintyBackend"),
            std::string::npos);
  EXPECT_EQ(findings[0].file, "src/uncertainty/estimator.h");
}

// Enumerators are read from code tokens, so comments inside an enum body
// never add, hide or end enumerators.

TEST(ProtocolDocSyncTest, FlagsDocRowOfCommentedOutEnumerator) {
  std::string header(kSyncedHeader);
  header.replace(header.find("kPing = 10,"), sizeof("kPing = 10,") - 1,
                 "/* kPing = 10, retired */");
  const auto findings =
      ProtocolSync(header, kSyncedEstimatorHeader, kSyncedDoc);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "docs/PROTOCOL.md");
  EXPECT_EQ(findings[0].message,
            "doc table row `kPing` (= 10) matches no protocol.h / "
            "estimator.h enumerator");
}

TEST(ProtocolDocSyncTest, BraceInTrailingCommentDoesNotEndEnum) {
  std::string header(kSyncedHeader);
  header.replace(header.find("kPing = 10,"), sizeof("kPing = 10,") - 1,
                 "kPing = 10,  // replies {kOkResponse}");
  EXPECT_TRUE(
      ProtocolSync(header, kSyncedEstimatorHeader, kSyncedDoc).empty());
}

TEST(ProtocolDocSyncTest, CommentedOutEnumeratorNeedsNoDocRow) {
  std::string header(kSyncedHeader);
  header.replace(header.find("  kOkResponse"), 0,
                 "  /* kRetiredProbe = 12, kept for the record */\n");
  EXPECT_TRUE(
      ProtocolSync(header, kSyncedEstimatorHeader, kSyncedDoc).empty());
}

TEST(ProtocolDocSyncTest, RealRepoFilesAreInSync) {
  // Guards the checked-in headers and spec against drifting apart.
  std::string header;
  std::string estimator_header;
  std::string doc;
  if (!ReadRepoFile("docs/PROTOCOL.md", &doc)) {
    GTEST_SKIP() << "repo root not found from test cwd";
  }
  ASSERT_TRUE(ReadRepoFile("src/serve/protocol.h", &header));
  ASSERT_TRUE(ReadRepoFile("src/uncertainty/estimator.h", &estimator_header));
  for (const Finding& f : ProtocolSync(header, estimator_header, doc)) {
    ADD_FAILURE() << f.file << ": " << f.message;
  }
}

// --- simd-discipline --------------------------------------------------------

TEST(SimdDisciplineTest, FlagsIntrinsicHeaderOutsideSimdDir) {
  const auto findings =
      FileFindings("src/nn/dense.cc", "#include <immintrin.h>\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "simd-discipline");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("immintrin"), std::string::npos);
}

TEST(SimdDisciplineTest, FlagsNeonHeaderOutsideSimdDir) {
  const auto findings =
      FileFindings("tests/tensor/foo_test.cc", "#include <arm_neon.h>\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "simd-discipline");
}

TEST(SimdDisciplineTest, FlagsX86IntrinsicIdentifiers) {
  const auto findings = FileFindings(
      "src/nn/dense.cc",
      "__m256 v = _mm256_loadu_ps(p);\n_mm256_storeu_ps(q, v);\n");
  ASSERT_EQ(findings.size(), 3u);  // __m256 + two _mm256_* calls.
  for (const auto& f : findings) EXPECT_EQ(f.rule, "simd-discipline");
}

TEST(SimdDisciplineTest, FlagsNeonIntrinsicIdentifiers) {
  const auto findings = FileFindings(
      "src/uncertainty/mc_dropout.cc",
      "float32x4_t v = vld1q_f32(p);\nvst1q_f32(q, vfmaq_f32(v, v, v));\n");
  ASSERT_EQ(findings.size(), 4u);
  for (const auto& f : findings) EXPECT_EQ(f.rule, "simd-discipline");
}

TEST(SimdDisciplineTest, AllowsIntrinsicsInsideSimdDir) {
  const auto findings = FileFindings(
      "src/tensor/simd/kernels_avx2.cc",
      "#include <immintrin.h>\n__m256 v = _mm256_setzero_ps();\n");
  EXPECT_TRUE(findings.empty());
}

TEST(SimdDisciplineTest, AllowsF32SuffixedVariablesAndMentionsInComments) {
  // weight_f32_ / a_f32 do not match the NEON v*q_f32 pattern, and banned
  // names inside comments or strings are never findings.
  const auto findings = FileFindings(
      "src/nn/dense.cc",
      "int weight_f32_ = 0;  // _mm256_loadu_ps in a comment is fine\n"
      "const char* s = \"float32x4_t\";\nint a_f32 = weight_f32_;\n");
  EXPECT_TRUE(findings.empty());
}

namespace {

// Minimal kernels.h/backend pair that is in sync; tests perturb one side.
const char kSyncedKernelsHeader[] =
    "struct F32Kernels {\n"
    "  const char* name;\n"
    "  void (*matmul)(const float* a, const float* b, float* c, size_t m,\n"
    "                 size_t k, size_t n);\n"
    "  void (*relu)(const float* in, float* out, size_t n);\n"
    "};\n";

const char kSyncedBackend[] =
    "const F32Kernels& ScalarKernels() {\n"
    "  static const F32Kernels kTable = {\n"
    "      .name = \"scalar\",\n"
    "      .matmul = ScalarMatMul,\n"
    "      .relu = ScalarRelu,\n"
    "  };\n"
    "  return kTable;\n"
    "}\n";

std::vector<Finding> KernelTableSync(
    const std::string& header,
    std::vector<std::pair<std::string, std::string>> backends) {
  backends.emplace_back("src/tensor/simd/kernels.h", header);
  return WholeProgramFindings(backends, {}, "simd-discipline");
}

}  // namespace

TEST(SimdKernelTableSyncTest, CleanWhenInSync) {
  EXPECT_TRUE(KernelTableSync(
                  kSyncedKernelsHeader,
                  {{"src/tensor/simd/kernels_scalar.cc", kSyncedBackend}})
                  .empty());
}

TEST(SimdKernelTableSyncTest, FlagsFieldMissingFromBackendTable) {
  std::string backend(kSyncedBackend);
  backend.erase(backend.find("      .relu = ScalarRelu,\n"),
                sizeof("      .relu = ScalarRelu,\n") - 1);
  const auto findings = KernelTableSync(
      kSyncedKernelsHeader, {{"src/tensor/simd/kernels_scalar.cc", backend}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "simd-discipline");
  EXPECT_NE(findings[0].message.find("relu"), std::string::npos);
}

TEST(SimdKernelTableSyncTest, FlagsInitializerWithNoDeclaredField) {
  std::string backend(kSyncedBackend);
  backend.replace(backend.find(".relu = ScalarRelu"),
                  sizeof(".relu = ScalarRelu") - 1, ".gelu = ScalarGelu");
  const auto findings = KernelTableSync(
      kSyncedKernelsHeader, {{"src/tensor/simd/kernels_scalar.cc", backend}});
  ASSERT_EQ(findings.size(), 2u);  // relu never set + gelu undeclared.
  EXPECT_NE(findings[0].message.find("relu"), std::string::npos);
  EXPECT_NE(findings[1].message.find("gelu"), std::string::npos);
}

TEST(SimdKernelTableSyncTest, FlagsBackendWithNoTable) {
  const auto findings = KernelTableSync(
      kSyncedKernelsHeader,
      {{"src/tensor/simd/kernels_neon.cc", "void NeonMatMul();\n"}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("no F32Kernels table"),
            std::string::npos);
}

TEST(SimdKernelTableSyncTest, FlagsMissingStruct) {
  const auto findings = KernelTableSync(
      "int x;\n", {{"src/tensor/simd/kernels_scalar.cc", kSyncedBackend}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("F32Kernels"), std::string::npos);
}

TEST(SimdKernelTableSyncTest, RealRepoTablesAreInSync) {
  const std::string simd_dir = "src/tensor/simd/";
  std::string header;
  std::string root;
  if (!ReadRepoFile(simd_dir + "kernels.h", &header, &root)) {
    GTEST_SKIP() << "repo root not found from test cwd";
  }
  std::vector<std::pair<std::string, std::string>> backends;
  for (const auto& entry : fs::directory_iterator(fs::path(root) / simd_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.compare(0, 8, "kernels_") != 0 ||
        entry.path().extension() != ".cc") {
      continue;
    }
    std::string source;
    ASSERT_TRUE(ReadRepoFile(simd_dir + name, &source));
    backends.emplace_back(simd_dir + name, source);
  }
  ASSERT_FALSE(backends.empty());
  for (const Finding& f : KernelTableSync(header, backends)) {
    ADD_FAILURE() << f.file << ": " << f.message;
  }
}

}  // namespace
}  // namespace tasfar::analyze

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "engine.h"
#include "facts.h"
#include "lexer.h"
#include "rules.h"
#include "sarif.h"

namespace tasfar::analyze {
namespace {

namespace fs = std::filesystem;

int CountRule(const FileFacts& facts, const std::string& rule) {
  int n = 0;
  for (const Finding& f : facts.findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

// --- lexer ------------------------------------------------------------------

TEST(LexerTest, KindsAndLines) {
  const auto toks = Lex("int x = 42;\nfoo(\"s\", 'c');  // note\n");
  ASSERT_GE(toks.size(), 11u);
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[3].kind, TokKind::kNumber);
  EXPECT_EQ(toks[3].text, "42");
  const auto code = CodeTokens(toks);
  for (const Token& t : code) EXPECT_NE(t.kind, TokKind::kComment);
  bool saw_string = false;
  bool saw_char = false;
  for (const Token& t : code) {
    if (t.kind == TokKind::kString) {
      saw_string = true;
      EXPECT_EQ(t.text, "s");
      EXPECT_EQ(t.line, 2);
    }
    if (t.kind == TokKind::kChar) {
      saw_char = true;
      EXPECT_EQ(t.text, "c");
    }
  }
  EXPECT_TRUE(saw_string);
  EXPECT_TRUE(saw_char);
}

TEST(LexerTest, MultiCharPunctuatorsAreGreedy) {
  const auto toks = Lex("a <<= b; p->q; x::y; i++;");
  std::vector<std::string> puncts;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kPunct) puncts.push_back(t.text);
  }
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "<<="), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "->"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "::"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "++"), puncts.end());
}

TEST(LexerTest, RawStringContentsAndLineCounting) {
  const auto toks = Lex("auto s = R\"x(line1\nline2)x\";\nint after;");
  bool saw_raw = false;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kString) {
      saw_raw = true;
      EXPECT_EQ(t.text, "line1\nline2");
    }
    if (t.kind == TokKind::kIdent && t.text == "after") {
      EXPECT_EQ(t.line, 3);
    }
  }
  EXPECT_TRUE(saw_raw);
}

TEST(LexerTest, MatchingCloseHonorsNesting) {
  const auto toks = Lex("f(a, g(b, h[c]), {d})");
  ASSERT_TRUE(IsPunct(toks[1], "("));
  const size_t close = MatchingClose(toks, 1);
  EXPECT_EQ(close, toks.size() - 1);
}

// --- parallel-capture -------------------------------------------------------

struct RuleCase {
  const char* name;
  const char* source;
  int expected;
};

// Cases print as their name, so the test ids ctest derives from the
// printed parameter stay the same from build to build (the default
// printer dumps the struct's bytes, pointer values included).
void PrintTo(const RuleCase& c, std::ostream* os) { *os << c.name; }

class ParallelCaptureTest : public ::testing::TestWithParam<RuleCase> {};

TEST_P(ParallelCaptureTest, Detects) {
  const RuleCase& c = GetParam();
  const FileFacts facts = AnalyzeSource("src/core/fixture.cc", c.source);
  EXPECT_EQ(CountRule(facts, "parallel-capture"), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParallelCaptureTest,
    ::testing::Values(
        RuleCase{"compound_assign_to_shared",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1, [&](size_t i) { total += x[i]; });\n"
                 "}\n",
                 1},
        RuleCase{"plain_assign_to_explicit_ref_capture",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1, [&acc](size_t i) { acc = G(i); });\n"
                 "}\n",
                 1},
        RuleCase{"subscript_without_loop_index",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1, [&](size_t i) { out[0] = G(i); });\n"
                 "}\n",
                 1},
        RuleCase{"increment_of_shared",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1, [&](size_t i) { hits++; use(i); });\n"
                 "}\n",
                 1},
        RuleCase{"disjoint_subscript_write_is_fine",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1, [&](size_t i) { out[i] = G(i); });\n"
                 "}\n",
                 0},
        RuleCase{"body_local_accumulator_is_fine",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1, [&](size_t i) {\n"
                 "    double acc = 0.0;\n"
                 "    acc += 1.0;\n"
                 "    out[i] = acc;\n"
                 "  });\n"
                 "}\n",
                 0},
        RuleCase{"member_call_on_shared_is_out_of_scope",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1,\n"
                 "              [&](size_t i) { counter.fetch_add(i); });\n"
                 "}\n",
                 0},
        RuleCase{"value_capture_is_fine",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1, [&out, n](size_t i) {\n"
                 "    out[i] = n;\n"
                 "  });\n"
                 "}\n",
                 0},
        RuleCase{"comma_declarators_are_locals",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1, [&](size_t s) {\n"
                 "    const size_t b = s / m, oc = s % m, *p = &b;\n"
                 "    b = 1;\n"
                 "    oc += b;\n"
                 "    p = nullptr;\n"
                 "  });\n"
                 "}\n",
                 0},
        RuleCase{"comma_expression_still_writes_captures",
                 "void F() {\n"
                 "  ParallelFor(0, n, 1, [&](size_t s) {\n"
                 "    double x = 0.0;\n"
                 "    a = 1, b = 2;\n"
                 "    out[s] = a + b + x;\n"
                 "  });\n"
                 "}\n",
                 2}));

// --- into-aliasing ----------------------------------------------------------

class IntoAliasingTest : public ::testing::TestWithParam<RuleCase> {};

TEST_P(IntoAliasingTest, Detects) {
  const RuleCase& c = GetParam();
  const FileFacts facts = AnalyzeSource("src/nn/fixture.cc", c.source);
  EXPECT_EQ(CountRule(facts, "into-aliasing"), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, IntoAliasingTest,
    ::testing::Values(
        RuleCase{"dest_aliases_first_input",
                 "void F() { AddInto(sum, t, &sum); }\n", 1},
        RuleCase{"dest_aliases_via_deref",
                 "void F(Tensor* a) { MulInto(*a, b, a); }\n", 1},
        RuleCase{"dest_aliases_subscripted_input",
                 "void F() { ScaleRowsInto(rows[k], s, &rows[k]); }\n", 1},
        RuleCase{"distinct_dest_is_fine",
                 "void F() { AddInto(a, b, &out); }\n", 0},
        RuleCase{"same_line_ack_is_fine",
                 "void F() {\n"
                 "  AddInto(sum, t, &sum);  // aliased: elementwise in-place\n"
                 "}\n",
                 0},
        RuleCase{"line_above_ack_is_fine",
                 "void F() {\n"
                 "  // aliased: elementwise in-place accumulate\n"
                 "  AddInto(sum, t, &sum);\n"
                 "}\n",
                 0},
        RuleCase{"declaration_is_not_a_call_site",
                 "void AddInto(const Tensor& a, const Tensor& b,\n"
                 "             Tensor* out);\n",
                 0}));

// --- workspace-escape -------------------------------------------------------

struct PathRuleCase {
  const char* name;
  const char* path;
  const char* source;
  int expected;
};

void PrintTo(const PathRuleCase& c, std::ostream* os) { *os << c.name; }

class WorkspaceEscapeTest : public ::testing::TestWithParam<PathRuleCase> {};

TEST_P(WorkspaceEscapeTest, Detects) {
  const PathRuleCase& c = GetParam();
  const FileFacts facts = AnalyzeSource(c.path, c.source);
  EXPECT_EQ(CountRule(facts, "workspace-escape"), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, WorkspaceEscapeTest,
    ::testing::Values(
        PathRuleCase{"member_store_direct", "src/nn/fixture.cc",
                     "void C::F(Workspace& ws) {\n"
                     "  cached_ = ws.NewTensor({2, 2});\n"
                     "}\n",
                     1},
        PathRuleCase{"direct_return_of_uninitialized", "src/nn/fixture.cc",
                     "Tensor F() {\n"
                     "  return Workspace::ThreadLocal().NewTensor({2});\n"
                     "}\n",
                     1},
        PathRuleCase{"member_store_via_local", "src/nn/fixture.cc",
                     "void C::F(Workspace& ws) {\n"
                     "  Tensor t = ws.NewTensor({2});\n"
                     "  Fill(&t);\n"
                     "  cached_ = t;\n"
                     "}\n",
                     1},
        PathRuleCase{"static_store", "src/nn/fixture.cc",
                     "void F(Workspace& ws) {\n"
                     "  static Tensor scratch = ws.ZeroTensor({2});\n"
                     "}\n",
                     1},
        PathRuleCase{"named_handoff_is_fine", "src/nn/fixture.cc",
                     "Tensor F(Workspace& ws) {\n"
                     "  Tensor out = ws.NewTensor({2});\n"
                     "  Fill(&out);\n"
                     "  return out;\n"
                     "}\n",
                     0},
        PathRuleCase{"workspace_impl_is_exempt", "src/tensor/workspace.cc",
                     "Tensor Workspace::ZeroTensor(const Shape& s) {\n"
                     "  return NewTensor(s);\n"
                     "}\n",
                     0}));

// --- seed-discipline --------------------------------------------------------

class SeedDisciplineTest : public ::testing::TestWithParam<PathRuleCase> {};

TEST_P(SeedDisciplineTest, Detects) {
  const PathRuleCase& c = GetParam();
  const FileFacts facts = AnalyzeSource(c.path, c.source);
  EXPECT_EQ(CountRule(facts, "seed-discipline"), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SeedDisciplineTest,
    ::testing::Values(
        PathRuleCase{"xor_in_rng_declaration", "src/eval/fixture.cc",
                     "void F() { Rng rng(config.seed ^ 0x51u); }\n", 1},
        PathRuleCase{"plus_in_rng_temporary", "src/eval/fixture.cc",
                     "void F() { auto r = Rng(seed + 1); }\n", 1},
        PathRuleCase{"shift_in_fork", "src/eval/fixture.cc",
                     "void F() { auto r = rng.Fork(base_seed << 2); }\n", 1},
        PathRuleCase{"arithmetic_inside_mixseed", "src/eval/fixture.cc",
                     "void F() { auto s = MixSeed(seed * 31, stream); }\n", 1},
        PathRuleCase{"mixseed_derivation_is_fine", "src/eval/fixture.cc",
                     "void F() { Rng rng(MixSeed(config.seed, 7)); }\n", 0},
        PathRuleCase{"fork_without_seed_ident_is_fine", "src/eval/fixture.cc",
                     "void F() { auto r = rng.Fork(k + 1); }\n", 0},
        PathRuleCase{"rng_impl_is_exempt", "src/util/rng.cc",
                     "Rng MakeChild(uint64_t seed) { return Rng(seed ^ 1); }\n",
                     0}));

// --- registry-consistency ---------------------------------------------------

std::vector<Finding> RegistryFindings(const std::string& src,
                                      const std::string& obs_doc,
                                      const std::string& testing_doc) {
  std::vector<FileFacts> facts;
  facts.push_back(AnalyzeSource("src/core/fixture.cc", src));
  DocNames docs;
  ScanDoc("docs/OBSERVABILITY.md", obs_doc, &docs);
  ScanDoc("docs/TESTING.md", testing_doc, &docs);
  std::vector<Finding> findings;
  for (const Finding& f : CheckWholeProgram(facts, docs)) {
    if (f.rule == "registry-consistency") findings.push_back(f);
  }
  return findings;
}

TEST(RegistryConsistencyTest, UndocumentedMetricIsFlagged) {
  const auto findings = RegistryFindings(
      "void F() { obs::Registry::Get().GetCounter(\"tasfar.foo.count\"); }\n",
      "no mention here\n", "");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "registry-consistency");
  EXPECT_EQ(findings[0].file, "src/core/fixture.cc");
  EXPECT_NE(findings[0].message.find("tasfar.foo.count"), std::string::npos);
}

TEST(RegistryConsistencyTest, OrphanedDocNameIsFlagged) {
  const auto findings =
      RegistryFindings("void F() {}\n", "see `tasfar.ghost.metric`\n", "");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "docs/OBSERVABILITY.md");
  EXPECT_NE(findings[0].message.find("tasfar.ghost.metric"),
            std::string::npos);
}

TEST(RegistryConsistencyTest, SpanRequiresDocumentedHistogramName) {
  const std::string src = "void F() { TASFAR_TRACE_SPAN(\"stage\"); }\n";
  EXPECT_EQ(RegistryFindings(src, "nothing\n", "").size(), 1u);
  EXPECT_TRUE(
      RegistryFindings(src, "the `tasfar.span.stage.ms` histogram\n", "")
          .empty());
}

TEST(RegistryConsistencyTest, FailpointMustBeInInjectionTable) {
  const std::string src = "void F() { TASFAR_FAILPOINT(\"stage.poison\"); }\n";
  const std::string table =
      "### Injection sites\n"
      "| site | effect |\n"
      "| `stage.poison` | poisons the stage |\n";
  EXPECT_EQ(RegistryFindings(src, "", "").size(), 1u);
  EXPECT_TRUE(RegistryFindings(src, "", table).empty());
  // Orphaned table rows are flagged in the other direction.
  const auto orphans = RegistryFindings("void F() {}\n", "", table);
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0].file, "docs/TESTING.md");
}

TEST(RegistryConsistencyTest, DynamicPrefixCoversDocumentedNames) {
  const auto findings = RegistryFindings(
      "void F(const std::string& n) {\n"
      "  obs::Registry::Get().GetCounter(\"tasfar.dyn.\" + n);\n"
      "}\n",
      "counters like `tasfar.dyn.anything` appear per site\n", "");
  EXPECT_TRUE(findings.empty());
}

TEST(RegistryConsistencyTest, DottedFailpointSiteNameIsNotADocOrphan) {
  // Failpoint site names can be tasfar.-prefixed and dotted; backticking
  // one in prose (outside the injection table) must not read as an
  // undocumented-metric orphan.
  const std::string src = "void F() { TASFAR_FAILPOINT(\"tasfar.sf\"); }\n";
  const std::string table =
      "### Injection sites\n"
      "| site | effect |\n"
      "| `tasfar.sf` | stage fault |\n";
  const auto findings =
      RegistryFindings(src, "fires the `tasfar.sf` failpoint\n", table);
  EXPECT_TRUE(findings.empty());
}

TEST(RegistryConsistencyTest, SpanPrefixDoesNotCoverDocOrphans) {
  // tasfar.span.*.ms names are statically known: a documented span metric
  // with no matching TASFAR_TRACE_SPAN is an orphan even though the span
  // histogram registration is dynamic.
  const auto findings = RegistryFindings(
      "void F() {}\n", "the `tasfar.span.ghost.ms` histogram\n", "");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("tasfar.span.ghost.ms"),
            std::string::npos);
}

TEST(RegistryConsistencyTest, FlightCodeRequiresDocRow) {
  const std::string src =
      "enum class FlightCode : uint8_t {\n"
      "  kSessionCreated = 0,\n"
      "  kAdaptFellBack = 5,\n"
      "};\n";
  const auto findings = RegistryFindings(src, "nothing here\n", "");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[0].message.find("serve.flight."), std::string::npos);
  const std::string doc =
      "| `serve.flight.session_created` | created |\n"
      "| `serve.flight.adapt_fell_back` | fell back |\n";
  EXPECT_TRUE(RegistryFindings(src, doc, "").empty());
}

TEST(RegistryConsistencyTest, OrphanedFlightCodeDocRowIsFlagged) {
  // serve.flight.* tokens are not tasfar.-prefixed, so they need their own
  // reverse sweep: a documented code with no enumerator is an orphan.
  const auto findings = RegistryFindings(
      "void F() {}\n", "the `serve.flight.ghost_event` code\n", "");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "docs/OBSERVABILITY.md");
  EXPECT_NE(findings[0].message.find("serve.flight.ghost_event"),
            std::string::npos);
}

TEST(FactsTest, ExtractsFlightCodesAsSnakeCaseNames) {
  const FileFacts facts = AnalyzeSource(
      "src/serve/telemetry.h",
      "enum class FlightCode : uint8_t {\n"
      "  kSessionCreated = 0,\n"
      "  kAdaptQueued = 2,\n"
      "  kBudgetRejected = 9,\n"
      "};\n"
      "// Usage elsewhere must not double-count:\n"
      "inline void F() { auto c = FlightCode::kAdaptQueued; (void)c; }\n");
  ASSERT_EQ(facts.enumerators.size(), 3u);
  EXPECT_EQ(facts.enumerators[0].enum_name, "FlightCode");
  EXPECT_EQ(facts.enumerators[0].name, "kSessionCreated");
  EXPECT_EQ(facts.enumerators[0].line, 2);
  EXPECT_EQ(facts.enumerators[2].name, "kBudgetRejected");
  // Each is documented under its snake-case name.
  DocNames docs;
  ScanDoc("docs/OBSERVABILITY.md",
          "`serve.flight.session_created` `serve.flight.adapt_queued`\n"
          "`serve.flight.budget_rejected`\n",
          &docs);
  for (const Finding& f : CheckWholeProgram({facts}, docs)) {
    EXPECT_NE(f.rule, "registry-consistency") << f.message;
  }
}

// --- suppressions & facts extraction ----------------------------------------

TEST(FactsTest, ParsesAllowCommentsAndAliasAcks) {
  const FileFacts facts = AnalyzeSource(
      "src/core/fixture.cc",
      "// TASFAR_ANALYZE_ALLOW(seed-discipline): pinned eval stream\n"
      "void F() { Rng rng(seed ^ 3); }\n"
      "void G() { AddInto(s, t, &s); }  // aliased: in-place\n");
  ASSERT_EQ(facts.suppressions.size(), 1u);
  EXPECT_EQ(facts.suppressions[0].rule, "seed-discipline");
  EXPECT_EQ(facts.suppressions[0].reason, "pinned eval stream");
  EXPECT_EQ(facts.suppressions[0].line, 1);
  ASSERT_EQ(facts.aliased_ack_lines.size(), 1u);
  EXPECT_EQ(facts.aliased_ack_lines[0], 3);
  // The seed finding is still recorded raw; the engine marks it
  // suppressed. The acked aliasing call produces no finding at all.
  EXPECT_EQ(CountRule(facts, "seed-discipline"), 1);
  EXPECT_EQ(CountRule(facts, "into-aliasing"), 0);
}

TEST(FactsTest, ExtractsSymbols) {
  const FileFacts facts = AnalyzeSource(
      "src/core/fixture.cc",
      "void F() {\n"
      "  obs::Registry::Get().GetCounter(\"tasfar.a.count\");\n"
      "  obs::Registry::Get().GetHistogram(\"tasfar.b.ms\", 64);\n"
      "  obs::Registry::Get().GetCounter(\"tasfar.dyn.\" + n);\n"
      "  guard::CheckFinite(t, \"stage_nonfinite\");\n"
      "  TASFAR_TRACE_SPAN(\"stage\");\n"
      "  TASFAR_FAILPOINT(\"stage.poison\");\n"
      "}\n");
  ASSERT_EQ(facts.metrics.size(), 3u);
  EXPECT_EQ(facts.metrics[0].name, "tasfar.a.count");
  EXPECT_EQ(facts.metrics[1].name, "tasfar.b.ms");
  EXPECT_EQ(facts.metrics[2].name, "tasfar.guard.stage_nonfinite");
  ASSERT_EQ(facts.metric_prefixes.size(), 1u);
  EXPECT_EQ(facts.metric_prefixes[0], "tasfar.dyn.");
  ASSERT_EQ(facts.spans.size(), 1u);
  EXPECT_EQ(facts.spans[0].name, "stage");
  ASSERT_EQ(facts.failpoints.size(), 1u);
  EXPECT_EQ(facts.failpoints[0].name, "stage.poison");
}

TEST(FactsTest, ExtractsEnumeratorsAndKernelTable) {
  const FileFacts facts = AnalyzeSource(
      "src/tensor/simd/kernels_fixture.cc",
      "enum class WireError : uint16_t { kBadRequest = 1, kImplicit };\n"
      "struct F32Kernels { const char* name; void (*relu)(float* x); };\n"
      "const F32Kernels kTable = {.name = \"x\", .relu = Relu};\n");
  ASSERT_EQ(facts.enumerators.size(), 2u);
  EXPECT_EQ(facts.enumerators[0].enum_name, "WireError");
  EXPECT_EQ(facts.enumerators[0].name, "kBadRequest");
  EXPECT_EQ(facts.enumerators[0].value, 1);
  EXPECT_EQ(facts.enumerators[1].value, -1);
  EXPECT_EQ(facts.kernel_fields, (std::vector<std::string>{"name", "relu"}));
  EXPECT_TRUE(facts.has_kernel_table);
  EXPECT_EQ(facts.kernel_table_fields,
            (std::vector<std::string>{"name", "relu"}));
}

// --- engine -----------------------------------------------------------------

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("analyze_engine_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(root_);
    for (const char* dir : {"src/core", "src/serve", "src/uncertainty",
                            "src/tensor/simd", "tests", "bench", "examples",
                            "tools", "docs"}) {
      fs::create_directories(root_ / dir);
    }
    WriteFile("docs/MEMORY.md", "# Memory\n");
    WriteFile("docs/OBSERVABILITY.md",
              "# Observability\n`tasfar.sample.count`\n");
    WriteFile("docs/TESTING.md", "# Testing\n### Injection sites\n");
    // The smallest sources the protocol and kernel-table syncs accept.
    WriteFile("docs/PROTOCOL.md",
              "| `kPing` | 10 |\n"
              "| `kBadRequest` | 1 |\n"
              "| `kMcDropout` | 0 |\n");
    WriteFile("src/serve/protocol.h",
              "#ifndef TASFAR_SERVE_PROTOCOL_H_\n"
              "#define TASFAR_SERVE_PROTOCOL_H_\n"
              "enum class MessageType : uint16_t { kPing = 10 };\n"
              "enum class WireError : uint16_t { kBadRequest = 1 };\n"
              "#endif\n");
    WriteFile("src/uncertainty/estimator.h",
              "#ifndef TASFAR_UNCERTAINTY_ESTIMATOR_H_\n"
              "#define TASFAR_UNCERTAINTY_ESTIMATOR_H_\n"
              "enum class UncertaintyBackend : uint8_t { kMcDropout = 0 };\n"
              "#endif\n");
    WriteFile("src/tensor/simd/kernels.h",
              "#ifndef TASFAR_TENSOR_SIMD_KERNELS_H_\n"
              "#define TASFAR_TENSOR_SIMD_KERNELS_H_\n"
              "struct F32Kernels { const char* name; };\n"
              "#endif\n");
    WriteFile("src/tensor/simd/kernels_scalar.cc",
              "const F32Kernels kScalar = {.name = \"scalar\"};\n");
    WriteFile("src/core/sample.cc", Sample());
  }
  /// Source files SetUp writes.
  static constexpr int kFixtureFiles = 5;

  void TearDown() override { fs::remove_all(root_); }

  static std::string Sample() {
    return "void F() {\n"
           "  obs::Registry::Get().GetCounter(\"tasfar.sample.count\");\n"
           "  // TASFAR_ANALYZE_ALLOW(into-aliasing): fixture in-place\n"
           "  AddInto(sum, t, &sum);\n"
           "}\n";
  }

  void WriteFile(const std::string& rel, const std::string& content) {
    fs::create_directories((root_ / rel).parent_path());
    std::ofstream out(root_ / rel, std::ios::binary | std::ios::trunc);
    out << content;
  }

  AnalyzeResult Run() {
    AnalyzeOptions options;
    options.repo_root = root_.string();
    return AnalyzeRepo(options);
  }

  fs::path root_;
};

TEST_F(EngineTest, SuppressionsApplyAndCountsSplit) {
  const AnalyzeResult result = Run();
  ASSERT_FALSE(result.io_error) << result.error;
  EXPECT_EQ(result.files_scanned, kFixtureFiles);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_TRUE(result.findings[0].suppressed);
  EXPECT_EQ(result.findings[0].rule, "into-aliasing");
  EXPECT_EQ(result.findings[0].suppress_reason, "fixture in-place");
  EXPECT_EQ(result.unsuppressed, 0);
  EXPECT_EQ(result.suppressed, 1);
}

TEST_F(EngineTest, UnsuppressedFindingIsCounted) {
  WriteFile("src/core/sample.cc",
            "void F() {\n"
            "  obs::Registry::Get().GetCounter(\"tasfar.sample.count\");\n"
            "  AddInto(sum, t, &sum);\n"
            "}\n");
  const AnalyzeResult result = Run();
  EXPECT_EQ(result.unsuppressed, 1);
  EXPECT_EQ(result.suppressed, 0);
}

TEST_F(EngineTest, MergedWalkKeepsEveryRuleScope) {
  // One body that breaks every per-file rule and registers an
  // undocumented metric: under src/ each rule fires, under tests/ only
  // the repo-wide rng-discipline does.
  const std::string body =
      "#include <iostream>\n"
      "#include <chrono>\n"
      "void F(Tensor by_value) {\n"
      "  assert(by_value.size() > 0);\n"
      "  McDropoutPredictor p(model, 20);\n"
      "  ParallelFor(0, n, 1, [&](size_t i) { total += i; });\n"
      "  AddInto(sum, t, &sum);\n"
      "  cached_ = ws.NewTensor({2});\n"
      "  Rng rng(seed ^ 1);\n"
      "  obs::Registry::Get().GetCounter(\"tasfar.x.y\");\n"
      "  int r = std::rand();\n"
      "}\n";
  WriteFile("src/core/scope.cc", body);
  WriteFile("tests/core/scope_test.cc", body);
  WriteFile("bench/bench_scope.h", "std::thread t;\n");
  WriteFile("examples/scope_demo.cpp", "__m256 v = _mm256_setzero_ps();\n");
  // Build trees, dot directories and non-source files are not scanned.
  WriteFile("src/build_cache/bad.cc", "int r = std::rand();\n");
  WriteFile("tests/.hidden/bad.cc", "int r = std::rand();\n");
  WriteFile("bench/build/bad.h", "int r = std::rand();\n");
  WriteFile("examples/notes.txt", "int r = std::rand();\n");

  const AnalyzeResult result = Run();
  ASSERT_FALSE(result.io_error) << result.error;
  EXPECT_EQ(result.files_scanned, kFixtureFiles + 4);
  std::map<std::string, std::set<std::string>> rules_by_file;
  for (const Finding& f : result.findings) {
    if (!f.suppressed) rules_by_file[f.file].insert(f.rule);
  }
  const std::set<std::string> src_rules = {
      "check-not-assert",  "estimator-discipline", "into-aliasing",
      "memory-discipline", "no-iostream",          "parallel-capture",
      "registry-consistency", "rng-discipline",    "seed-discipline",
      "timing-discipline", "workspace-escape"};
  EXPECT_EQ(rules_by_file["src/core/scope.cc"], src_rules);
  EXPECT_EQ(rules_by_file["tests/core/scope_test.cc"],
            std::set<std::string>{"rng-discipline"});
  EXPECT_EQ(rules_by_file["bench/bench_scope.h"],
            (std::set<std::string>{"header-guard", "thread-discipline"}));
  EXPECT_EQ(rules_by_file["examples/scope_demo.cpp"],
            std::set<std::string>{"simd-discipline"});
  EXPECT_EQ(rules_by_file.size(), 4u);
}

TEST_F(EngineTest, MissingRootIsAnIoError) {
  fs::remove_all(root_ / "examples");
  const AnalyzeResult result = Run();
  EXPECT_TRUE(result.io_error);
  EXPECT_NE(result.error.find("examples"), std::string::npos);
}

// --- SARIF ------------------------------------------------------------------

TEST(SarifTest, EmitsResultsAndSuppressions) {
  Finding open;
  open.file = "src/a.cc";
  open.line = 3;
  open.rule = "into-aliasing";
  open.message = "dest aliases \"input\"";
  Finding closed = open;
  closed.line = 9;
  closed.suppressed = true;
  closed.suppress_reason = "documented in-place";
  const std::string sarif = ToSarif({open, closed});
  EXPECT_NE(sarif.find("\"tasfar-analyze\""), std::string::npos);
  EXPECT_NE(sarif.find("\"into-aliasing\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
  EXPECT_NE(sarif.find("dest aliases \\\"input\\\""), std::string::npos);
  EXPECT_NE(sarif.find("\"suppressions\""), std::string::npos);
  EXPECT_NE(sarif.find("documented in-place"), std::string::npos);
  // Exactly one result is suppressed.
  size_t count = 0;
  for (size_t at = sarif.find("\"suppressions\""); at != std::string::npos;
       at = sarif.find("\"suppressions\"", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(SarifTest, EmptyFindingsStillValidShape) {
  const std::string sarif = ToSarif({});
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
}

}  // namespace
}  // namespace tasfar::analyze

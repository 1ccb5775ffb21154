// Fixture-driven tests for peerscope-lint (tools/lint/lint.hpp).
//
// Each fixture directory under tests/lint/fixtures/ is a miniature
// repository root; the suite runs one rule per fixture and asserts
// the exact hit / miss / suppression behaviour. The fixtures are
// excluded from the real-tree walk, so their deliberate violations
// never fail the `lint.tree_clean` check.
//
// This file's assertions quote expected diagnostics, some of which
// contain schema-shaped literals; they are examples, not uses.
// peerscope-lint: allow-file(schema-version-consistency)

#include "lint/lint.hpp"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

namespace peerscope::lint {
namespace {

using ::testing::AllOf;
using ::testing::Contains;
using ::testing::HasSubstr;
using ::testing::IsEmpty;
using ::testing::Not;

std::filesystem::path fixture_root(const std::string& name) {
  return std::filesystem::path{PEERSCOPE_LINT_FIXTURES} / name;
}

/// Runs exactly one rule over a fixture root and stringifies the
/// findings ("file:line: [rule] message").
std::vector<std::string> lint_fixture(const std::string& fixture,
                                      std::string_view rule) {
  Options options;
  options.root = fixture_root(fixture);
  options.rules.insert(std::string{rule});
  options.check_tracked = false;
  const LintResult result = run(options);
  EXPECT_THAT(result.errors, IsEmpty()) << "fixture: " << fixture;
  std::vector<std::string> out;
  out.reserve(result.findings.size());
  for (const auto& finding : result.findings) {
    out.push_back(to_string(finding));
  }
  return out;
}

// --- no-raw-artifact-io ----------------------------------------------

TEST(RawIoRule, FlagsEveryBannedPrimitiveWithFileAndLine) {
  const auto findings = lint_fixture("raw_io", kRuleRawIo);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("bad_writer.cpp:7"),
                             HasSubstr("std::ofstream"))));
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("bad_writer.cpp:12"),
                             HasSubstr("std::fstream"))));
  EXPECT_THAT(findings, Contains(AllOf(HasSubstr("bad_writer.cpp:16"),
                                       HasSubstr("fopen()"))));
  EXPECT_THAT(findings, Contains(AllOf(HasSubstr("bad_writer.cpp:21"),
                                       HasSubstr("open(2)"))));
}

TEST(RawIoRule, AtomicFileAndFaultShimAreAllowlisted) {
  const auto findings = lint_fixture("raw_io", kRuleRawIo);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("atomic_file.cpp"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("io_faults.cpp"))));
}

TEST(RawIoRule, CommentAndStringMentionsDoNotFire) {
  const auto findings = lint_fixture("raw_io", kRuleRawIo);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("clean_reader.cpp"))));
}

TEST(RawIoRule, UnshimmedReadInsideSrcIsAFinding) {
  const auto findings = lint_fixture("raw_io", kRuleRawIo);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("bad_reader.cpp:7"),
                             HasSubstr("std::ifstream"),
                             HasSubstr("util::io::read_file"))));
  // The suppressed reader in the same file stays quiet.
  EXPECT_THAT(findings, Not(Contains(HasSubstr("bad_reader.cpp:15"))));
}

TEST(RawIoRule, ReadsOutsideSrcDoNotFire) {
  const auto findings = lint_fixture("raw_io", kRuleRawIo);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("tool_reader.cpp"))));
}

TEST(RawIoRule, TrailingAndOwnLineAllowsSuppress) {
  const auto findings = lint_fixture("raw_io", kRuleRawIo);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("suppressed.cpp:5"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("suppressed.cpp:10"))));
}

TEST(RawIoRule, AllowNamingADifferentRuleDoesNotSuppress) {
  const auto findings = lint_fixture("raw_io", kRuleRawIo);
  EXPECT_THAT(findings, Contains(HasSubstr("suppressed.cpp:14")));
}

TEST(RawIoRule, FindingCountIsExact) {
  EXPECT_EQ(lint_fixture("raw_io", kRuleRawIo).size(), 6u);
}

// --- metric-name-registry --------------------------------------------

TEST(MetricNameRule, RegisteredUsesAreClean) {
  const auto findings = lint_fixture("metrics", kRuleMetricNames);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("good.cpp"))));
}

TEST(MetricNameRule, UnregisteredNameIsAFinding) {
  const auto findings = lint_fixture("metrics", kRuleMetricNames);
  EXPECT_THAT(findings, Contains(AllOf(HasSubstr("bad.cpp:3"),
                                       HasSubstr("rogue.counter"))));
  EXPECT_THAT(findings, Contains(AllOf(HasSubstr("bad.cpp:5"),
                                       HasSubstr("rogue_span"))));
}

TEST(MetricNameRule, KindMismatchIsAFinding) {
  const auto findings = lint_fixture("metrics", kRuleMetricNames);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("bad.cpp:4"),
                             HasSubstr("used as histogram"),
                             HasSubstr("registered as counter"))));
}

TEST(MetricNameRule, RegisteredButUnusedEntryIsAFinding) {
  const auto findings = lint_fixture("metrics", kRuleMetricNames);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("metric_names.def:8"),
                             HasSubstr("unused.counter"),
                             HasSubstr("never used"))));
}

TEST(MetricNameRule, DynamicPrefixEntrySatisfiedByConcatenation) {
  // good.cpp builds "run." + app; the `run.<app>` entry must count as
  // used (no unused-entry finding) and the literal must not be rogue.
  const auto findings = lint_fixture("metrics", kRuleMetricNames);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("run."))));
}

TEST(MetricNameRule, SuppressedRogueNameIsQuiet) {
  const auto findings = lint_fixture("metrics", kRuleMetricNames);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("synthetic.name"))));
  EXPECT_EQ(findings.size(), 4u);
}

// --- metric-name-registry: the trace-name half -----------------------

TEST(TraceNameRule, RegisteredUsesAreClean) {
  const auto findings = lint_fixture("trace", kRuleMetricNames);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("good.cpp"))));
}

TEST(TraceNameRule, UnregisteredNamesAreFindings) {
  const auto findings = lint_fixture("trace", kRuleMetricNames);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("bad.cpp:3"),
                             HasSubstr("rogue.instant"),
                             HasSubstr("trace_names.def"))));
  EXPECT_THAT(findings, Contains(AllOf(HasSubstr("bad.cpp:5"),
                                       HasSubstr("rogue.sample"))));
}

TEST(TraceNameRule, KindMismatchIsAFinding) {
  const auto findings = lint_fixture("trace", kRuleMetricNames);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("bad.cpp:4"),
                             HasSubstr("used as counter"),
                             HasSubstr("registered as instant"))));
}

TEST(TraceNameRule, RegisteredButUnusedEntryIsAFinding) {
  const auto findings = lint_fixture("trace", kRuleMetricNames);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("trace_names.def:5"),
                             HasSubstr("unused.instant"),
                             HasSubstr("never used"))));
}

TEST(TraceNameRule, SuppressedRogueNameIsQuiet) {
  const auto findings = lint_fixture("trace", kRuleMetricNames);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("synthetic.instant"))));
  EXPECT_EQ(findings.size(), 4u);
}

// --- schema-version-consistency --------------------------------------

TEST(SchemaRule, RegisteredLiteralIsClean) {
  const auto findings = lint_fixture("schema", kRuleSchemaVersions);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("good.cpp"))));
}

TEST(SchemaRule, UnregisteredVersionBumpIsAFinding) {
  const auto findings = lint_fixture("schema", kRuleSchemaVersions);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("bad.cpp:2"),
                             HasSubstr("peerscope.metrics/2"))));
}

TEST(SchemaRule, SuppressedLiteralIsQuiet) {
  const auto findings = lint_fixture("schema", kRuleSchemaVersions);
  EXPECT_THAT(findings,
              Not(Contains(HasSubstr("peerscope.metrics/9"))));
}

TEST(SchemaRule, OrphanRegistryEntryIsAFinding) {
  // Mentions in comments do not count as uses, so the orphan entry
  // (named only in a good.cpp comment) must still be flagged.
  const auto findings = lint_fixture("schema", kRuleSchemaVersions);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("schema_versions.def:4"),
                             HasSubstr("peerscope.orphan/3"))));
  EXPECT_EQ(findings.size(), 2u);
}

// --- exit-code-uniqueness --------------------------------------------

TEST(ExitCodeRule, DuplicateValueIsAFinding) {
  const auto findings = lint_fixture("exit_codes", kRuleExitCodes);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("cli.cpp:4"),
                             HasSubstr("kExitDuplicate"),
                             HasSubstr("kExitUnknownApp"))));
}

TEST(ExitCodeRule, UndocumentedValueIsAFinding) {
  const auto findings = lint_fixture("exit_codes", kRuleExitCodes);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("cli.cpp:5"),
                             HasSubstr("kExitSecret"),
                             HasSubstr("not documented"))));
}

TEST(ExitCodeRule, DocumentedUniqueConstantsAreClean) {
  const auto findings = lint_fixture("exit_codes", kRuleExitCodes);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("kExitUsage"))));
  EXPECT_EQ(findings.size(), 2u);
}

// The registry sub-check only arms when tools/exit_codes.def exists —
// the `exit_codes` fixture above has none and must keep its original
// two findings; the `discovery` fixture exercises all three registry
// diagnostics.

TEST(ExitCodeRule, UnregisteredConstantIsAFinding) {
  const auto findings = lint_fixture("discovery", kRuleExitCodes);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("cli.cpp:5"),
                             HasSubstr("kExitRogue"),
                             HasSubstr("not registered"))));
}

TEST(ExitCodeRule, RegistryValueDisagreementIsAFinding) {
  const auto findings = lint_fixture("discovery", kRuleExitCodes);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("cli.cpp:6"),
                             HasSubstr("kExitDrifted"),
                             HasSubstr("disagrees"))));
}

TEST(ExitCodeRule, StaleRegistryEntryIsAFinding) {
  const auto findings = lint_fixture("discovery", kRuleExitCodes);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("exit_codes.def:5"),
                             HasSubstr("kExitRetired"),
                             HasSubstr("no tools/ constant"))));
}

TEST(ExitCodeRule, RegisteredConstantsAreClean) {
  const auto findings = lint_fixture("discovery", kRuleExitCodes);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("kExitDegraded"))));
  EXPECT_EQ(findings.size(), 3u);
}

// --- header-hygiene ---------------------------------------------------

TEST(HeaderRule, MissingPragmaOnceIsAFinding) {
  const auto findings = lint_fixture("headers", kRuleHeaderHygiene);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("missing.hpp"),
                             HasSubstr("#pragma once"))));
}

TEST(HeaderRule, UsingNamespaceIsAFinding) {
  const auto findings = lint_fixture("headers", kRuleHeaderHygiene);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("using_ns.hpp:6"),
                             HasSubstr("using-namespace"))));
}

TEST(HeaderRule, CleanAndSuppressedHeadersAreQuiet) {
  const auto findings = lint_fixture("headers", kRuleHeaderHygiene);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("clean.hpp"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("suppressed.hpp"))));
  EXPECT_EQ(findings.size(), 2u);
}

// --- engine-hot-path --------------------------------------------------

TEST(EngineHotPathRule, PriorityQueueInSimIsAFinding) {
  const auto findings = lint_fixture("engine", kRuleEngineHotPath);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("src/sim/hot.cpp:5"),
                             HasSubstr("std::priority_queue"),
                             HasSubstr("sim::CalendarQueue"))));
}

TEST(EngineHotPathRule, PlainNewIsAFindingPlacementNewIsNot) {
  const auto findings = lint_fixture("engine", kRuleEngineHotPath);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("src/sim/hot.cpp:10"),
                             HasSubstr("heap allocation (new)"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("hot.cpp:15"))));
}

TEST(EngineHotPathRule, SmartPointerFactoriesInP2pAreFindings) {
  const auto findings = lint_fixture("engine", kRuleEngineHotPath);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("src/p2p/hot.cpp:5"),
                             HasSubstr("std::make_unique"))));
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("src/p2p/hot.cpp:6"),
                             HasSubstr("std::make_shared"))));
}

TEST(EngineHotPathRule, AllowAnnotationsSuppress) {
  const auto findings = lint_fixture("engine", kRuleEngineHotPath);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("hot.cpp:14"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("hot.cpp:15"))));
}

TEST(EngineHotPathRule, OutOfScopeDirsAndCommentsAreClean) {
  const auto findings = lint_fixture("engine", kRuleEngineHotPath);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("cold.cpp"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("hot.cpp:21"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("hot.cpp:22"))));
  EXPECT_EQ(findings.size(), 4u);
}

// --- no-committed-build-artifacts (path-list core) --------------------

TEST(BuildArtifactRule, FlagsBuildTreesAndObjectFiles) {
  const auto findings = check_tracked_paths(
      {"build/tools/peerscope", "build-tsan/x.txt", "lib/archive.a",
       "obj/thing.o", "compile_commands.json", "core"});
  EXPECT_EQ(findings.size(), 6u);
  for (const auto& finding : findings) {
    EXPECT_EQ(finding.rule, kRuleBuildArtifacts);
  }
}

TEST(BuildArtifactRule, SourcePathsAreClean) {
  EXPECT_THAT(
      check_tracked_paths({"src/sim/engine.cpp", "docs/core.md",
                           "tests/lint/fixtures/clean/src/main.cpp",
                           "builders/notes.txt", "build.md"}),
      IsEmpty());
}

// --- whole-tree behaviour --------------------------------------------

TEST(LintRun, CleanFixtureIsCleanUnderEveryRule) {
  Options options;
  options.root = fixture_root("clean");
  options.check_tracked = false;
  const LintResult result = run(options);
  EXPECT_THAT(result.errors, IsEmpty());
  EXPECT_THAT(result.findings, IsEmpty());
}

TEST(LintRun, FindingsAreSortedByFileThenLine) {
  Options options;
  options.root = fixture_root("raw_io");
  options.rules.insert(std::string{kRuleRawIo});
  options.check_tracked = false;
  const LintResult result = run(options);
  ASSERT_EQ(result.findings.size(), 6u);
  EXPECT_TRUE(std::is_sorted(
      result.findings.begin(), result.findings.end(),
      [](const Finding& a, const Finding& b) {
        return std::tie(a.file, a.line) < std::tie(b.file, b.line);
      }));
}

TEST(LintRun, UnknownRuleIsAConfigError) {
  Options options;
  options.root = fixture_root("clean");
  options.rules.insert("no-such-rule");
  options.check_tracked = false;
  const LintResult result = run(options);
  EXPECT_THAT(result.errors, Contains(HasSubstr("no-such-rule")));
}

TEST(LintRun, MissingRegistryIsAConfigError) {
  Options options;
  options.root = fixture_root("headers");  // has no src/obs/*.def
  options.rules.insert(std::string{kRuleMetricNames});
  options.check_tracked = false;
  const LintResult result = run(options);
  EXPECT_THAT(result.errors,
              Contains(HasSubstr("metric_names.def")));
  EXPECT_THAT(result.errors,
              Contains(HasSubstr("trace_names.def")));
}

// --- view helpers -----------------------------------------------------

TEST(CodeView, BlanksCommentsAndStringsButKeepsLineStructure) {
  const std::string source =
      "int a; // std::ofstream\n"
      "const char* s = \"std::ofstream\";\n"
      "/* std::ofstream */ int b;\n";
  const std::string view = code_view(source);
  EXPECT_THAT(view, Not(HasSubstr("ofstream")));
  EXPECT_THAT(view, HasSubstr("int a;"));
  EXPECT_THAT(view, HasSubstr("int b;"));
  EXPECT_EQ(std::count(view.begin(), view.end(), '\n'), 3);
}

TEST(CodeView, HandlesRawStringsAndEscapes) {
  const std::string source =
      "auto r = R\"(std::ofstream)\";\n"
      "auto e = \"quote \\\" std::ofstream\";\n";
  EXPECT_THAT(code_view(source), Not(HasSubstr("ofstream")));
}

TEST(CodeView, DigitSeparatorsDoNotOpenCharLiterals) {
  const std::string source =
      "long n = 1'000'000; auto h = 0xff'ff;\n"
      "char c = 'q'; auto u = u8'z';\n"
      "std::ofstream out;\n";
  const std::string view = code_view(source);
  EXPECT_THAT(view, HasSubstr("1'000'000"));
  EXPECT_THAT(view, HasSubstr("0xff'ff"));
  EXPECT_THAT(view, Not(HasSubstr("q")));
  EXPECT_THAT(view, Not(HasSubstr("z")));
  EXPECT_THAT(view, HasSubstr("std::ofstream out;"));
}

TEST(NoCommentView, KeepsStringsDropsComments) {
  const std::string source =
      "const char* s = \"kept.literal/1\";  // dropped.comment/2\n";
  const std::string view = no_comment_view(source);
  EXPECT_THAT(view, HasSubstr("kept.literal/1"));
  EXPECT_THAT(view, Not(HasSubstr("dropped.comment/2")));
}

TEST(FindingToString, FormatsFileLineRuleMessage) {
  const Finding finding{"src/a.cpp", 12, "some-rule", "message"};
  EXPECT_EQ(to_string(finding), "src/a.cpp:12: [some-rule] message");
}

TEST(FindingToString, OmitsLineZero) {
  const Finding finding{"build/x.o", 0, "some-rule", "committed"};
  EXPECT_EQ(to_string(finding), "build/x.o: [some-rule] committed");
}

// --- nondeterministic-iteration --------------------------------------

TEST(IterationRule, BareRangeForOverUnorderedMemberIsAFinding) {
  const auto findings = lint_fixture("iteration", kRuleIteration);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("loops.cpp:5"),
                             HasSubstr("`table_`"),
                             HasSubstr("allow(nondeterministic-iteration)"))));
}

TEST(IterationRule, AccessorReturningUnorderedIsAFinding) {
  const auto findings = lint_fixture("iteration", kRuleIteration);
  EXPECT_THAT(findings, Contains(AllOf(HasSubstr("loops.cpp:7"),
                                       HasSubstr("`members`"))));
}

TEST(IterationRule, OrderedContainersAreClean) {
  const auto findings = lint_fixture("iteration", kRuleIteration);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("loops.cpp:6"))));
}

TEST(IterationRule, TrailingAndOwnLineOrderedMarkersSuppress) {
  const auto findings = lint_fixture("iteration", kRuleIteration);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("loops.cpp:8"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("loops.cpp:10"))));
}

TEST(IterationRule, CommentsAndNonSrcDirsAreOutOfScope) {
  const auto findings = lint_fixture("iteration", kRuleIteration);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("loops.cpp:11"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("tools/"))));
  EXPECT_EQ(findings.size(), 2u);
}

// --- rng-discipline ---------------------------------------------------

TEST(RngRule, AmbientEntropyAndWallClockSeedingAreFindings) {
  const auto findings = lint_fixture("rng", kRuleRng);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("bad_rng.cpp:5"),
                             HasSubstr("std::random_device"))));
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("bad_rng.cpp:6"),
                             HasSubstr("default-constructed"))));
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("bad_rng.cpp:8"),
                             HasSubstr("wall-clock"))));
  EXPECT_THAT(findings, Contains(AllOf(HasSubstr("bad_rng.cpp:9"),
                                       HasSubstr("rand()"))));
}

TEST(RngRule, SeededEngineAndSuppressedLineAreClean) {
  const auto findings = lint_fixture("rng", kRuleRng);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("bad_rng.cpp:7"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("bad_rng.cpp:11"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("bad_rng.cpp:12"))));
}

TEST(RngRule, SrcUtilIsExemptButTestsAreNot) {
  const auto findings = lint_fixture("rng", kRuleRng);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("util/rng.cpp"))));
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("tests/seeded.cpp:6"),
                             HasSubstr("std::random_device"))));
  // bad_rng.cpp: device, unseeded engine, srand + time (one line,
  // two findings), rand — plus the tests/ device.
  EXPECT_EQ(findings.size(), 6u);
}

// --- lock-annotation --------------------------------------------------

TEST(LockRule, RawStdLockTypesInSrcAreFindings) {
  const auto findings = lint_fixture("locks", kRuleLocks);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("guarded.cpp:4"),
                             HasSubstr("std::mutex"),
                             HasSubstr("util::Mutex"))));
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("guarded.cpp:5"),
                             HasSubstr("std::condition_variable"))));
  EXPECT_THAT(findings, Contains(AllOf(HasSubstr("guarded.cpp:8"),
                                       HasSubstr("std::lock_guard"))));
}

TEST(LockRule, ToolsAreInScopeTestsAreNot) {
  const auto findings = lint_fixture("locks", kRuleLocks);
  EXPECT_THAT(findings, Contains(HasSubstr("tools/locker.cpp:3")));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("scenario.cpp"))));
}

TEST(LockRule, WrapperDefinitionSiteAndSuppressionsAreClean) {
  const auto findings = lint_fixture("locks", kRuleLocks);
  // The message itself names util/mutex.hpp, so match the file:line
  // prefix a finding from the wrapper would carry.
  EXPECT_THAT(findings, Not(Contains(HasSubstr("src/util/mutex.hpp:"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("guarded.cpp:9"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("guarded.cpp:13"))));
  // guarded.cpp: mutex, condition_variable, lock_guard + its <mutex>
  // argument; locker.cpp: one.
  EXPECT_EQ(findings.size(), 5u);
}

// --- module-layering --------------------------------------------------

TEST(LayeringRule, UndeclaredDependencyIsAFinding) {
  const auto findings = lint_fixture("layers", kRuleLayering);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("route.cpp:3"),
                             HasSubstr("\"sim/...\""),
                             HasSubstr("layers.def"))));
}

TEST(LayeringRule, DeclaredEdgesSuppressionsAndForeignIncludesAreClean) {
  const auto findings = lint_fixture("layers", kRuleLayering);
  EXPECT_THAT(findings, Not(Contains(HasSubstr("route.cpp:4"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("route.cpp:5"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("route.cpp:6"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("engine.hpp"))));
  EXPECT_EQ(findings.size(), 1u);
}

TEST(LayeringRule, SrcDirMissingFromLayersDefIsAConfigError) {
  Options options;
  options.root = fixture_root("layers_unknown");
  options.rules.insert(std::string{kRuleLayering});
  options.check_tracked = false;
  const LintResult result = run(options);
  EXPECT_THAT(result.errors,
              Contains(AllOf(HasSubstr("src/rogue"),
                             HasSubstr("layers.def"))));
}

TEST(LayeringRule, AbsentLayersDefSkipsTheRuleSilently) {
  Options options;
  options.root = fixture_root("headers");  // no tools/layers.def
  options.rules.insert(std::string{kRuleLayering});
  options.check_tracked = false;
  const LintResult result = run(options);
  EXPECT_THAT(result.errors, IsEmpty());
  EXPECT_THAT(result.findings, IsEmpty());
}

// --- test-scratch-dir -------------------------------------------------

TEST(ScratchDirRule, HandBuiltTempPathsInTestsAreFindings) {
  const auto findings = lint_fixture("scratch_dir", kRuleScratchDir);
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("tests/paths.cpp:4"),
                             HasSubstr("temp_directory_path"),
                             HasSubstr("tests/support/scratch_dir.hpp"))));
  EXPECT_THAT(findings,
              Contains(AllOf(HasSubstr("tests/paths.cpp:8"),
                             HasSubstr("testing::TempDir"))));
}

TEST(ScratchDirRule, SupportHelperSrcCommentsAndAllowsAreClean) {
  const auto findings = lint_fixture("scratch_dir", kRuleScratchDir);
  // The message itself names tests/support/, so match the helper file.
  EXPECT_THAT(findings, Not(Contains(HasSubstr("support/scratch.hpp"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("scratch_dir/src/"))));
  EXPECT_THAT(findings, Not(Contains(HasSubstr("paths.cpp:12"))));
  EXPECT_EQ(findings.size(), 2u);
}

}  // namespace
}  // namespace peerscope::lint

// peerscope-lint: the project-invariant static analysis pass.
//
// The tree keeps contracts the compiler cannot see: artifact writes go
// through util::write_file_atomic, metric, span and trace-event names
// match the src/obs/*.def registries (both directions),
// `peerscope.<thing>/<n>` schema strings match
// src/obs/schema_versions.def, CLI exit codes stay unique and
// documented, fixed seeds replay byte for byte, and headers follow the
// house hygiene rules. This library walks the tree and enforces each
// contract as a named, suppressible rule (DESIGN.md §11);
// `tools/peerscope_lint.cpp` is the CLI, `tests/lint/` the fixture
// suite, and the `lint` ctest label runs both over the real tree.
//
// Suppression syntax, the only one, checked per rule name:
//   // peerscope-lint: allow(<rule>[, <rule>...])       one line
//   // peerscope-lint: allow-file(<rule>[, <rule>...])  whole file
// An `allow` on a line with no code applies to the next line instead.
#pragma once

#include <cstddef>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace peerscope::lint {

// Rule identifiers (the names accepted by allow(...) and --rule).
inline constexpr std::string_view kRuleRawIo = "no-raw-artifact-io";
inline constexpr std::string_view kRuleMetricNames = "metric-name-registry";
inline constexpr std::string_view kRuleSchemaVersions =
    "schema-version-consistency";
inline constexpr std::string_view kRuleExitCodes = "exit-code-uniqueness";
inline constexpr std::string_view kRuleHeaderHygiene = "header-hygiene";
inline constexpr std::string_view kRuleBuildArtifacts =
    "no-committed-build-artifacts";
inline constexpr std::string_view kRuleEngineHotPath = "engine-hot-path";
inline constexpr std::string_view kRuleIteration =
    "nondeterministic-iteration";
inline constexpr std::string_view kRuleRng = "rng-discipline";
inline constexpr std::string_view kRuleLocks = "lock-annotation";
inline constexpr std::string_view kRuleLayering = "module-layering";
inline constexpr std::string_view kRuleScratchDir = "test-scratch-dir";

/// All rule names, in reporting order.
[[nodiscard]] std::vector<std::string_view> rule_names();

/// One-line summary of what a rule enforces (for --list-rules).
/// Unknown names get an empty view.
[[nodiscard]] std::string_view rule_description(std::string_view rule);

/// One diagnostic. `line` is 1-based; 0 means the finding is about the
/// file (or tree) as a whole rather than a specific line.
struct Finding {
  std::filesystem::path file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// "file:line: [rule] message" — the format CI greps and humans click.
[[nodiscard]] std::string to_string(const Finding& finding);

struct Options {
  /// Repository root; registries and README.md are resolved under it.
  std::filesystem::path root;
  /// Rules to run; empty means all. Unknown names are config errors.
  std::set<std::string, std::less<>> rules;
  /// Gates the git-backed no-committed-build-artifacts rule (tests
  /// drive check_tracked_paths directly instead).
  bool check_tracked = true;
};

struct LintResult {
  std::vector<Finding> findings;
  /// Configuration problems (missing registry, unknown rule): the tree
  /// was not fully checked and the caller should exit 2, not 1.
  std::vector<std::string> errors;
};

/// Walks src/, tools/, bench/, tests/, examples/ under options.root
/// (skipping tests/lint/fixtures/, which violate rules on purpose) and
/// returns every unsuppressed finding, sorted by file then line.
[[nodiscard]] LintResult run(const Options& options);

// --- building blocks, exposed for the fixture tests ---

/// `source` with comment and string/char-literal *contents* blanked to
/// spaces (newlines kept, so line numbers survive). Token scans run on
/// this view, which is why a banned token inside a string or comment —
/// including this linter's own ban table — never fires.
[[nodiscard]] std::string code_view(std::string_view source);

/// Like code_view but keeps string literals: the view the metric-name
/// and schema scanners use, so names in comments don't count as uses.
[[nodiscard]] std::string no_comment_view(std::string_view source);

/// The no-committed-build-artifacts core: flags tracked paths under
/// build*/ plus object/archive/ccdb droppings. `tracked` is one
/// repo-relative path per entry (what `git ls-files` prints).
[[nodiscard]] std::vector<Finding> check_tracked_paths(
    const std::vector<std::string>& tracked);

}  // namespace peerscope::lint

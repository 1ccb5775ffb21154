// peerscope_lint — command-line front end for the project-invariant
// static analysis pass (tools/lint/lint.hpp, DESIGN.md §11, §16).
//
//   peerscope_lint [--root DIR] [--rule NAME]... [--list-rules]
//                  [--no-git] [--sarif FILE] [--fingerprints]
//                  [--baseline FILE | --no-baseline] [--help]
//
// Walks src/, tools/, bench/, tests/ and examples/ under the root and
// prints one `file:line: [rule] message` diagnostic per violation.
// --rule restricts the run to the named rule(s); --no-git skips the
// git-backed committed-build-artifact check (for tarball checkouts).
// --sarif additionally writes the findings as SARIF 2.1.0 (the format
// CI uploads so code hosts can annotate diffs); --fingerprints prints
// each finding's baseline fingerprint in front of it. The baseline
// defaults to <root>/tools/lint_baseline.txt when that file exists;
// --baseline points elsewhere and --no-baseline disables it.
//
// Exit codes are deliberately plain literals, not kExit* constants:
// this binary's codes (0 clean, 1 findings, 2 usage/config error) are
// a different namespace from the `peerscope` CLI table that the
// exit-code-uniqueness rule audits.

#include <cstring>
#include <filesystem>
#include <fstream>  // peerscope-lint: allow-file(no-raw-artifact-io)
#include <iostream>
#include <string>

#include "lint/lint.hpp"

namespace {

constexpr const char* kUsage =
    "usage: peerscope_lint [--root DIR] [--rule NAME]... [--list-rules] "
    "[--no-git] [--sarif FILE] [--fingerprints] "
    "[--baseline FILE | --no-baseline] [--help]\n";

}  // namespace

int main(int argc, char** argv) {
  peerscope::lint::Options options;
  options.root = ".";
  std::string sarif_path;
  std::string baseline_path;
  bool no_baseline = false;
  bool fingerprints = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--root") {
      const char* dir = value();
      if (dir == nullptr) {
        std::cerr << "--root needs a value\n";
        return 2;
      }
      options.root = dir;
    } else if (flag == "--rule") {
      const char* rule = value();
      if (rule == nullptr) {
        std::cerr << "--rule needs a value\n";
        return 2;
      }
      options.rules.insert(rule);
    } else if (flag == "--sarif") {
      const char* path = value();
      if (path == nullptr) {
        std::cerr << "--sarif needs a value\n";
        return 2;
      }
      sarif_path = path;
    } else if (flag == "--baseline") {
      const char* path = value();
      if (path == nullptr) {
        std::cerr << "--baseline needs a value\n";
        return 2;
      }
      baseline_path = path;
    } else if (flag == "--no-baseline") {
      no_baseline = true;
    } else if (flag == "--fingerprints") {
      fingerprints = true;
    } else if (flag == "--no-git") {
      options.check_tracked = false;
    } else if (flag == "--list-rules") {
      for (const auto rule : peerscope::lint::rule_names()) {
        std::cout << rule << "\n    "
                  << peerscope::lint::rule_description(rule) << '\n';
      }
      return 0;
    } else if (flag == "--help") {
      std::cout << kUsage;
      return 0;
    } else {
      std::cerr << "unknown flag: " << flag << '\n' << kUsage;
      return 2;
    }
  }
  if (!baseline_path.empty() && no_baseline) {
    std::cerr << "--baseline and --no-baseline are mutually exclusive\n";
    return 2;
  }
  if (!baseline_path.empty()) {
    options.baseline = baseline_path;
  } else if (!no_baseline) {
    // The checked-in accepted-debt ledger, honoured by default so the
    // CLI, the `lint` ctest, and CI all agree on what "clean" means.
    const std::filesystem::path tracked =
        options.root / "tools" / "lint_baseline.txt";
    if (std::filesystem::exists(tracked)) options.baseline = tracked;
  }

  const peerscope::lint::LintResult result = peerscope::lint::run(options);
  for (const auto& error : result.errors) {
    std::cerr << "peerscope_lint: " << error << '\n';
  }
  for (const auto& finding : result.findings) {
    if (fingerprints) std::cout << finding.fingerprint << ' ';
    std::cout << peerscope::lint::to_string(finding) << '\n';
  }
  if (!sarif_path.empty()) {
    // The linter's own report is not a run artifact; plain ofstream
    // keeps the lint library dependency-free.
    std::ofstream out{sarif_path, std::ios::binary | std::ios::trunc};
    out << peerscope::lint::to_sarif(result, options.root);
    if (!out.flush()) {
      std::cerr << "peerscope_lint: cannot write " << sarif_path << '\n';
      return 2;
    }
  }
  if (result.baseline_suppressed != 0) {
    std::cerr << result.baseline_suppressed
              << " finding(s) suppressed by baseline "
              << options.baseline.generic_string() << '\n';
  }
  if (!result.errors.empty()) return 2;
  if (!result.findings.empty()) {
    std::cerr << result.findings.size() << " lint finding(s)\n";
    return 1;
  }
  std::cerr << "peerscope_lint: clean\n";
  return 0;
}

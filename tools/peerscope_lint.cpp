// peerscope_lint — command-line front end for the project-invariant
// static analysis pass (tools/lint/lint.hpp, DESIGN.md §11, §16).
//
//   peerscope_lint [--root DIR] [--rule NAME]... [--list-rules]
//                  [--no-git] [--help]
//
// Walks src/, tools/, bench/, tests/ and examples/ under the root and
// prints one `file:line: [rule] message` diagnostic per violation.
// --rule restricts the run to the named rule(s); --no-git skips the
// git-backed committed-build-artifact check (for tarball checkouts).
//
// Exit codes are deliberately plain literals, not kExit* constants:
// this binary's codes (0 clean, 1 findings, 2 usage/config error) are
// a different namespace from the `peerscope` CLI table that the
// exit-code-uniqueness rule audits.

#include <iostream>
#include <string>

#include "lint/lint.hpp"

namespace {

constexpr const char* kUsage =
    "usage: peerscope_lint [--root DIR] [--rule NAME]... [--list-rules] "
    "[--no-git] [--help]\n";

}  // namespace

int main(int argc, char** argv) {
  peerscope::lint::Options options;
  options.root = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--root" || flag == "--rule") {
      if (i + 1 == argc) {
        std::cerr << flag << " needs a value\n";
        return 2;
      }
      const char* value = argv[++i];
      if (flag == "--root") {
        options.root = value;
      } else {
        options.rules.insert(value);
      }
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

  const peerscope::lint::LintResult result = peerscope::lint::run(options);
  for (const auto& error : result.errors) {
    std::cerr << "peerscope_lint: " << error << '\n';
  }
  for (const auto& finding : result.findings) {
    std::cout << peerscope::lint::to_string(finding) << '\n';
  }
  if (!result.errors.empty()) return 2;
  if (!result.findings.empty()) {
    std::cerr << result.findings.size() << " lint finding(s)\n";
    return 1;
  }
  std::cerr << "peerscope_lint: clean\n";
  return 0;
}

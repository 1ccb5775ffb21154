// Shared bench-harness plumbing: the seed knob bench_micro_engine reads
// (BenchConfig) and the paper's Table II-IV values (aware/paper.hpp)
// under the `bench::` names perfbench/ reads.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "aware/paper.hpp"

namespace peerscope::bench {

namespace detail {

/// Strict positive-integer parse for environment knobs: the whole
/// token must be a base-10 number in [1, max]. atoll-style silent
/// acceptance of garbage ("30x" -> 30, "banana" -> 0, "-5" wrapping
/// through strtoull) turned typos into surprising runs.
inline std::uint64_t env_u64_or_die(const char* var, const char* text,
                                    std::uint64_t max) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  const bool negative = [text] {
    for (const char* p = text; *p != '\0'; ++p) {
      if (*p == '-') return true;
      if (*p != ' ' && *p != '\t') return false;
    }
    return false;
  }();
  if (end == text || *end != '\0' || negative || errno == ERANGE ||
      v == 0 || v > max) {
    std::cerr << "invalid " << var << "=\"" << text << "\"\n"
              << "usage: " << var
              << " must be a positive base-10 integer <= " << max << '\n';
    std::exit(2);
  }
  return v;
}

}  // namespace detail

/// The default seed, 42, overridable via PEERSCOPE_BENCH_SEED. A
/// malformed value aborts with a usage message (exit 2) instead of
/// running with a silently-mangled seed.
struct BenchConfig {
  std::uint64_t seed = 42;

  static BenchConfig from_env() {
    BenchConfig cfg;
    if (const char* s = std::getenv("PEERSCOPE_BENCH_SEED")) {
      cfg.seed = detail::env_u64_or_die(
          "PEERSCOPE_BENCH_SEED", s,
          std::numeric_limits<std::uint64_t>::max());
    }
    return cfg;
  }
};

// The paper's published tables under the names perfbench/ reads.
using aware::kPaperTable2;
using aware::kPaperTable3;
using aware::kPaperTable4;

}  // namespace peerscope::bench

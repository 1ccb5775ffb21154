#include "bench_gate.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace peerscope::tools {
namespace {

/// Minimal field scanner for the one-object documents
/// bench::BenchJsonSession writes: keys are known, values are numbers
/// or plain strings (span paths and bench names never contain quotes
/// or escapes), and the only nesting is the flat `phases` array. Not a
/// general JSON parser on purpose — a foreign document should fail
/// loudly, not half-parse.
class FieldScanner {
 public:
  explicit FieldScanner(std::string_view text) : text_(text) {}

  [[nodiscard]] std::string string_field(std::string_view key) const {
    const std::size_t at = value_offset(key);
    if (at == npos || at >= text_.size() || text_[at] != '"') {
      throw std::runtime_error("bench snapshot: missing string field \"" +
                               std::string{key} + "\"");
    }
    const std::size_t end = text_.find('"', at + 1);
    if (end == npos) {
      throw std::runtime_error("bench snapshot: unterminated string for \"" +
                               std::string{key} + "\"");
    }
    return std::string{text_.substr(at + 1, end - at - 1)};
  }

  [[nodiscard]] double number_field(std::string_view key) const {
    const std::size_t at = value_offset(key);
    if (at == npos) {
      throw std::runtime_error("bench snapshot: missing number field \"" +
                               std::string{key} + "\"");
    }
    const std::string token{text_.substr(at, 32)};
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str()) {
      throw std::runtime_error("bench snapshot: bad number for \"" +
                               std::string{key} + "\"");
    }
    return v;
  }

  /// Offset just past `"key":`, or npos.
  [[nodiscard]] std::size_t value_offset(std::string_view key) const {
    // Appends, not "literal" + std::string: GCC 12 at -O3 reports a
    // false -Werror=restrict on the operator+ form.
    std::string needle{"\""};
    needle.append(key).append("\":");
    const std::size_t at = text_.find(needle);
    return at == npos ? npos : at + needle.size();
  }

  [[nodiscard]] std::string_view text() const { return text_; }

  static constexpr std::size_t npos = std::string_view::npos;

 private:
  std::string_view text_;
};

std::vector<BenchPhase> parse_phases(std::string_view text) {
  std::vector<BenchPhase> out;
  const std::string needle = "\"phases\":[";
  std::size_t at = text.find(needle);
  if (at == std::string_view::npos) return out;  // a /1 document
  at += needle.size();
  const std::size_t end = text.find(']', at);
  if (end == std::string_view::npos) {
    throw std::runtime_error("bench snapshot: unterminated phases array");
  }
  std::size_t cursor = at;
  while (true) {
    const std::size_t open = text.find('{', cursor);
    if (open == std::string_view::npos || open > end) break;
    const std::size_t close = text.find('}', open);
    if (close == std::string_view::npos || close > end) {
      throw std::runtime_error("bench snapshot: torn phase object");
    }
    const FieldScanner row{text.substr(open, close - open + 1)};
    BenchPhase phase;
    phase.path = row.string_field("path");
    phase.count = static_cast<std::uint64_t>(row.number_field("count"));
    phase.total_ns =
        static_cast<std::uint64_t>(row.number_field("total_ns"));
    phase.self_ns = static_cast<std::uint64_t>(row.number_field("self_ns"));
    out.push_back(std::move(phase));
    cursor = close + 1;
  }
  return out;
}

std::string pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", v);
  return buf;
}

std::string seconds(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3fs", ns / 1e9);
  return buf;
}

std::string human_rate(double per_s) {
  char buf[32];
  if (per_s >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fM", per_s / 1e6);
  } else if (per_s >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fk", per_s / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f", per_s);
  }
  return buf;
}

}  // namespace

BenchSnapshot parse_bench_snapshot(const std::string& text) {
  const FieldScanner doc{text};
  BenchSnapshot out;
  out.schema = doc.string_field("schema");
  if (out.schema.rfind("peerscope.bench/", 0) != 0) {
    throw std::runtime_error("bench snapshot: foreign schema \"" +
                             out.schema + "\"");
  }
  out.bench = doc.string_field("bench");
  out.wall_s = doc.number_field("wall_s");
  out.events_executed =
      static_cast<std::uint64_t>(doc.number_field("events_executed"));
  out.events_per_s = doc.number_field("events_per_s");
  out.peak_rss_kb =
      static_cast<std::uint64_t>(doc.number_field("peak_rss_kb"));
  out.phases = parse_phases(doc.text());
  return out;
}

BenchSnapshot read_bench_snapshot(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error("cannot read bench snapshot " + path.string());
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse_bench_snapshot(std::move(buf).str());
  } catch (const std::exception& error) {
    throw std::runtime_error(path.string() + ": " + error.what());
  }
}

BenchDelta diff_snapshots(const BenchSnapshot& baseline,
                          const BenchSnapshot& fresh) {
  BenchDelta out;
  if (baseline.wall_s > 0) {
    out.wall_pct = (fresh.wall_s - baseline.wall_s) / baseline.wall_s * 100.0;
  }
  if (baseline.events_per_s > 0) {
    out.events_pct = (fresh.events_per_s - baseline.events_per_s) /
                     baseline.events_per_s * 100.0;
  }
  return out;
}

std::string render_bench_diff(const BenchSnapshot& baseline,
                              const BenchSnapshot& fresh,
                              double budget_pct) {
  const BenchDelta delta = diff_snapshots(baseline, fresh);
  std::ostringstream out;
  char line[160];
  out << "bench-diff: " << fresh.bench << " vs committed snapshot (budget "
      << budget_pct << "%)\n";
  std::snprintf(line, sizeof line, "  %-16s %12s %12s %9s\n", "metric",
                "committed", "fresh", "delta");
  out << line;
  std::snprintf(line, sizeof line, "  %-16s %12.3f %12.3f %9s\n", "wall_s",
                baseline.wall_s, fresh.wall_s, pct(delta.wall_pct).c_str());
  out << line;
  std::snprintf(line, sizeof line, "  %-16s %12s %12s %9s\n", "events/s",
                human_rate(baseline.events_per_s).c_str(),
                human_rate(fresh.events_per_s).c_str(),
                pct(delta.events_pct).c_str());
  out << line;
  std::snprintf(line, sizeof line, "  %-16s %12llu %12llu\n", "peak_rss_kb",
                static_cast<unsigned long long>(baseline.peak_rss_kb),
                static_cast<unsigned long long>(fresh.peak_rss_kb));
  out << line;
  // Phase attribution localizes a wall-time slope to a subsystem; the
  // rows are informational (timing noise on shared CI runners is far
  // above per-phase resolution), the verdict only reads the headline.
  bool phase_header = false;
  for (const BenchPhase& base_phase : baseline.phases) {
    for (const BenchPhase& fresh_phase : fresh.phases) {
      if (fresh_phase.path != base_phase.path) continue;
      if (!phase_header) {
        out << "  phase self-time (committed -> fresh):\n";
        phase_header = true;
      }
      const double phase_pct =
          base_phase.self_ns > 0
              ? (static_cast<double>(fresh_phase.self_ns) -
                 static_cast<double>(base_phase.self_ns)) /
                    static_cast<double>(base_phase.self_ns) * 100.0
              : 0.0;
      std::snprintf(line, sizeof line, "    %-24s %10s -> %10s %9s\n",
                    base_phase.path.c_str(),
                    seconds(static_cast<double>(base_phase.self_ns)).c_str(),
                    seconds(static_cast<double>(fresh_phase.self_ns)).c_str(),
                    pct(phase_pct).c_str());
      out << line;
    }
  }
  if (delta.regressed(budget_pct)) {
    out << "verdict: REGRESSION past the " << budget_pct
        << "% budget; apply the perf-regression-ok label only with an "
           "explanation in the PR\n";
  } else {
    out << "verdict: within budget\n";
  }
  return std::move(out).str();
}

std::string render_trajectory_markdown(
    const std::vector<BenchSnapshot>& rows) {
  std::ostringstream out;
  out << "### bench trajectory\n\n"
      << "| bench | wall_s | events | events/s | peak RSS (MB) | hottest "
         "phase (self) |\n"
      << "|---|---:|---:|---:|---:|---|\n";
  for (const BenchSnapshot& row : rows) {
    const BenchPhase* hottest = nullptr;
    for (const BenchPhase& phase : row.phases) {
      if (hottest == nullptr || phase.self_ns > hottest->self_ns) {
        hottest = &phase;
      }
    }
    char cell[64];
    out << "| " << row.bench << " | ";
    std::snprintf(cell, sizeof cell, "%.3f", row.wall_s);
    out << cell << " | " << row.events_executed << " | "
        << human_rate(row.events_per_s) << " | ";
    std::snprintf(cell, sizeof cell, "%.1f",
                  static_cast<double>(row.peak_rss_kb) / 1024.0);
    out << cell << " | ";
    if (hottest != nullptr) {
      out << hottest->path << " ("
          << seconds(static_cast<double>(hottest->self_ns)) << ")";
    } else {
      out << "-";
    }
    out << " |\n";
  }
  return std::move(out).str();
}

}  // namespace peerscope::tools

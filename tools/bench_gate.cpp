#include "bench_gate.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace peerscope::tools {
namespace {

namespace json = util::json;

std::string require_string(std::string_view text, std::string_view key) {
  auto value = json::string_field(text, key);
  if (!value) {
    throw std::runtime_error("bench snapshot: missing string field \"" +
                             std::string{key} + "\"");
  }
  return std::move(*value);
}

double require_number(std::string_view text, std::string_view key) {
  const auto value = json::number_field(text, key);
  if (!value) {
    throw std::runtime_error("bench snapshot: missing number field \"" +
                             std::string{key} + "\"");
  }
  return *value;
}

std::vector<BenchPhase> parse_phases(std::string_view text) {
  std::vector<BenchPhase> out;
  // A peerscope.bench/1 document has no phases array.
  if (text.find("\"phases\":") == std::string_view::npos) return out;
  const auto rows = json::object_elements(text, "phases");
  if (!rows) throw std::runtime_error("bench snapshot: torn phases array");
  for (const std::string_view row : *rows) {
    BenchPhase phase;
    phase.path = require_string(row, "path");
    phase.count = static_cast<std::uint64_t>(require_number(row, "count"));
    phase.total_ns =
        static_cast<std::uint64_t>(require_number(row, "total_ns"));
    phase.self_ns = static_cast<std::uint64_t>(require_number(row, "self_ns"));
    out.push_back(std::move(phase));
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
  BenchSnapshot out;
  out.schema = require_string(text, "schema");
  if (out.schema.rfind("peerscope.bench/", 0) != 0) {
    throw std::runtime_error("bench snapshot: foreign schema \"" +
                             out.schema + "\"");
  }
  out.bench = require_string(text, "bench");
  out.wall_s = require_number(text, "wall_s");
  out.events_executed =
      static_cast<std::uint64_t>(require_number(text, "events_executed"));
  out.events_per_s = require_number(text, "events_per_s");
  out.peak_rss_kb =
      static_cast<std::uint64_t>(require_number(text, "peak_rss_kb"));
  out.phases = parse_phases(text);
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

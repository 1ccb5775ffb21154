#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <sstream>
#include <tuple>
#include <utility>

namespace peerscope::lint {
namespace {

namespace fs = std::filesystem;

// Directories walked under the root, and the source extensions that
// count. tests/lint/fixtures/ is excluded: its files violate rules on
// purpose so the fixture suite can assert the diagnostics.
constexpr std::array<std::string_view, 5> kWalkDirs = {
    "src", "tools", "bench", "tests", "examples"};
constexpr std::array<std::string_view, 4> kSourceExts = {".cpp", ".hpp",
                                                         ".h", ".cc"};
constexpr std::string_view kFixtureDir = "tests/lint/fixtures";

// Optional exit-code registry (`<value> <name>` per line): when the
// file exists, every kExit* constant in tools/ must be pinned there
// and every entry must name a live constant. Absent file = sub-check
// skipped, so miniature fixture roots without one keep the original
// uniqueness + README semantics.
constexpr std::string_view kExitCodeRegistryPath = "tools/exit_codes.def";
// Optional layer DAG (`<layer>: <dep> <dep>...` per line): when the
// file exists, every `#include "<layer>/..."` in src/ must point at a
// declared dependency of the including file's own layer. Absent file
// = rule silently skipped (same contract as exit_codes.def), so
// fixture roots opt in by checking one in.
constexpr std::string_view kLayersPath = "tools/layers.def";

// The files allowed raw file I/O: the implementation of
// util::write_file_atomic and the fault-injection shim whose hooks
// (util::io::write_some/read_file/...) everything else routes through.
constexpr std::array<std::string_view, 2> kRawIoAllowlist = {
    "src/util/atomic_file.cpp", "src/util/io_faults.cpp"};

struct RuleInfo {
  std::string_view name;
  std::string_view description;
};

constexpr std::array<RuleInfo, 12> kRules = {{
    {kRuleRawIo,
     "artifact writes route through util::write_file_atomic and src/ "
     "reads through the util::io fault shim"},
    {kRuleMetricNames,
     "metric and trace-event name literals match src/obs/"
     "metric_names.def / trace_names.def, both directions"},
    {kRuleSchemaVersions,
     "peerscope.<thing>/<n> schema strings match "
     "src/obs/schema_versions.def exactly"},
    {kRuleExitCodes,
     "kExit* constants in tools/ stay unique, README-documented, and "
     "pinned in tools/exit_codes.def"},
    {kRuleHeaderHygiene,
     "headers carry #pragma once and never using-namespace"},
    {kRuleBuildArtifacts,
     "build trees, objects, and generated databases are never "
     "committed"},
    {kRuleEngineHotPath,
     "no std::priority_queue or per-event heap allocation in src/sim "
     "and src/p2p (DESIGN.md section 14)"},
    {kRuleIteration,
     "range-for over an unordered container in src/ needs an "
     "allow(nondeterministic-iteration) order-independence annotation"},
    {kRuleRng,
     "no rand()/std::random_device/wall-clock seeding or "
     "default-constructed engines outside src/util"},
    {kRuleLocks,
     "raw std lock types bypass the annotated util::Mutex wrapper that "
     "clang thread-safety analysis checks"},
    {kRuleLayering,
     "src/ #include edges stay inside the layer DAG pinned in "
     "tools/layers.def"},
    {kRuleScratchDir,
     "tests take scratch directories from tests/support/scratch_dir.hpp, "
     "never from a hand-built temp path"},
}};

[[nodiscard]] bool is_source_file(const fs::path& path) {
  const std::string ext = path.extension().string();
  return std::find(kSourceExts.begin(), kSourceExts.end(), ext) !=
         kSourceExts.end();
}

[[nodiscard]] bool is_header(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".hpp" || ext == ".h";
}

[[nodiscard]] std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// Reads a `.def` file: drops `#` comments and blank lines and hands
/// each remaining line to `row` with its 1-based number. False when
/// the file cannot be read.
bool read_def(const fs::path& path,
              const std::function<void(const std::string&, std::size_t)>&
                  row) {
  const auto content = read_file(path);
  if (!content) return false;
  std::istringstream in{*content};
  std::size_t line_no = 0;
  for (std::string line; std::getline(in, line);) {
    ++line_no;
    line.resize(std::min(line.find('#'), line.size()));
    if (line.find_first_not_of(" \t\r\n\v\f") != std::string::npos) {
      row(line, line_no);
    }
  }
  return true;
}

/// Byte offset -> 1-based line number lookup.
class LineIndex {
 public:
  explicit LineIndex(std::string_view text) {
    starts_.push_back(0);
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '\n') starts_.push_back(i + 1);
    }
  }
  [[nodiscard]] std::size_t line_of(std::size_t offset) const {
    const auto it =
        std::upper_bound(starts_.begin(), starts_.end(), offset);
    return static_cast<std::size_t>(it - starts_.begin());
  }

 private:
  std::vector<std::size_t> starts_;
};

/// True when the quote at `i` separates digits (`1'000'000`, `0xff'ff`)
/// rather than opening a character literal: the token it sits in
/// starts with a digit.
bool digit_separator(std::string_view text, std::size_t i) {
  std::size_t start = i;
  while (start > 0 &&
         (std::isalnum(static_cast<unsigned char>(text[start - 1])) != 0 ||
          text[start - 1] == '_' || text[start - 1] == '\'')) {
    --start;
  }
  return start < i &&
         std::isdigit(static_cast<unsigned char>(text[start])) != 0;
}

/// Shared lexer for code_view / no_comment_view: walks the source once
/// and blanks comment contents, plus string/char contents when
/// `keep_strings` is false. Delimiters (//, /*, quotes) are blanked
/// too so a half-kept token can never straddle a region boundary.
std::string make_view(std::string_view source, bool keep_strings) {
  std::string out{source};
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_delim;  // )delim" terminator for raw strings
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"') {
          std::size_t j = i + 2;
          while (j < out.size() && out[j] != '(') ++j;
          raw_delim = ")";
          raw_delim.append(out, i + 2, j - (i + 2));
          raw_delim += '"';
          state = State::kRawString;
          if (!keep_strings) {
            for (std::size_t k = i; k <= j && k < out.size(); ++k) {
              if (out[k] != '\n') out[k] = ' ';
            }
          }
          i = j;
        } else if (c == '"') {
          state = State::kString;
          if (!keep_strings) out[i] = ' ';
        } else if (c == '\'' && !digit_separator(out, i)) {
          state = State::kChar;
          if (!keep_strings) out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          state = State::kCode;
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          if (!keep_strings) {
            out[i] = ' ';
            if (next != '\n') out[i + 1] = ' ';
          }
          ++i;
        } else if (c == quote) {
          if (!keep_strings) out[i] = ' ';
          state = State::kCode;
        } else if (!keep_strings && c != '\n') {
          out[i] = ' ';
        }
        break;
      }
      case State::kRawString:
        if (out.compare(i, raw_delim.size(), raw_delim) == 0) {
          if (!keep_strings) {
            for (std::size_t k = i; k < i + raw_delim.size(); ++k) {
              out[k] = ' ';
            }
          }
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (!keep_strings && c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

// --- suppressions -----------------------------------------------------

struct Suppressions {
  /// rule -> lines on which it is allowed.
  std::map<std::string, std::set<std::size_t>, std::less<>> lines;
  /// rules allowed for the whole file.
  std::set<std::string, std::less<>> whole_file;

  [[nodiscard]] bool covers(std::string_view rule,
                            std::size_t line) const {
    if (whole_file.count(std::string{rule}) != 0) return true;
    const auto it = lines.find(rule);
    return it != lines.end() && it->second.count(line) != 0;
  }
};

/// Parses `// peerscope-lint: allow(r1, r2)` / `allow-file(...)`
/// markers from the raw source. A line-level allow on a line whose
/// code part is blank applies to the next line.
Suppressions parse_suppressions(std::string_view source) {
  static const std::regex marker{
      R"(peerscope-lint:\s*(allow|allow-file)\(([^)]*)\))"};
  Suppressions out;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    ++line_no;
    std::size_t eol = source.find('\n', pos);
    if (eol == std::string_view::npos) eol = source.size();
    const std::string line{source.substr(pos, eol - pos)};
    std::smatch match;
    if (std::regex_search(line, match, marker)) {
      const bool file_wide = match[1] == "allow-file";
      // Everything before the comment marker decides whether this is
      // an own-line annotation (applies to the next line) or trails
      // code (applies to this line).
      const std::size_t comment = line.find("//");
      const bool own_line =
          comment != std::string::npos &&
          line.find_first_not_of(" \t") == comment;
      std::string rules = match[2];
      std::replace(rules.begin(), rules.end(), ',', ' ');
      std::istringstream split{rules};
      std::string rule;
      while (split >> rule) {
        if (file_wide) {
          out.whole_file.insert(rule);
        } else {
          out.lines[rule].insert(own_line ? line_no + 1 : line_no);
        }
      }
    }
    pos = eol + 1;
  }
  return out;
}

// --- the ban table ----------------------------------------------------

/// Where a ban applies: the root-relative path, and whether the file
/// is a header.
using Scope = bool (*)(std::string_view rel, bool header);
/// Rejects a match that only looks like the banned token, given the
/// code view and the match's [begin, end).
using LookAlike = bool (*)(std::string_view code, std::size_t begin,
                           std::size_t end);

/// One banned token: each match of `pattern` in the code view of a
/// file in `scope` is a `rule` finding unless `look_alike` rejects
/// it. `$&` in the message stands for the matched text.
struct Ban {
  std::string_view rule;
  std::regex pattern;
  const char* message;
  Scope scope;
  LookAlike look_alike = nullptr;
};

bool outside_io_shim(std::string_view rel, bool /*header*/) {
  return std::find(kRawIoAllowlist.begin(), kRawIoAllowlist.end(), rel) ==
         kRawIoAllowlist.end();
}

// Read-side tokens are src/-only: tools and tests may slurp however
// they like, but library code must stay fault-injectable.
bool src_outside_io_shim(std::string_view rel, bool header) {
  return rel.starts_with("src/") && outside_io_shim(rel, header);
}

bool header_file(std::string_view /*rel*/, bool header) { return header; }

bool engine_hot_path(std::string_view rel, bool /*header*/) {
  return rel.starts_with("src/sim/") || rel.starts_with("src/p2p/");
}

// src/util/ implements the seed-derived stream splitter everything
// else must use.
bool outside_rng_impl(std::string_view rel, bool /*header*/) {
  return !rel.starts_with("src/util/");
}

// Tests are exempt (they drive scenarios, not guarded state);
// src/util/mutex.hpp is the one allowed definition site.
bool production_code(std::string_view rel, bool /*header*/) {
  return (rel.starts_with("src/") || rel.starts_with("tools/") ||
          rel.starts_with("bench/")) &&
         rel != "src/util/mutex.hpp";
}

bool tests_outside_support(std::string_view rel, bool /*header*/) {
  return rel.starts_with("tests/") && !rel.starts_with("tests/support/");
}

// `foo::open(`, `p->open(` and `f.open(` are member or namespace
// calls, not the syscall.
bool member_open(std::string_view code, std::size_t begin,
                 std::size_t /*end*/) {
  if (begin == 0) return false;
  const char prev = code[begin - 1];
  return std::isalnum(static_cast<unsigned char>(prev)) != 0 ||
         prev == '_' || prev == ':' || prev == '>' || prev == '.';
}

// `#include <new>` names the header, and `::new (ptr) T` is placement
// construction into storage the pool already owns — the pattern the
// pool itself relies on.
bool not_an_allocation(std::string_view code, std::size_t begin,
                       std::size_t end) {
  const auto space = [&](std::size_t i) {
    return std::isspace(static_cast<unsigned char>(code[i])) != 0;
  };
  while (begin > 0 && space(begin - 1)) --begin;
  const char prev = begin > 0 ? code[begin - 1] : '\0';
  if (prev == '<') return true;
  while (end < code.size() && space(end)) ++end;
  return prev == ':' && end < code.size() && code[end] == '(';
}

/// Every token rule, one row per banned token. Within a rule the rows
/// keep a fixed order, so findings on one line come out in that order.
const std::vector<Ban>& bans() {
  static const std::vector<Ban> table = {
      // no-raw-artifact-io: write-capable opens everywhere, and in src/
      // reads too, so the storage fault-injection layer sees all I/O.
      {kRuleRawIo, std::regex{R"(std::ofstream\b)"},
       "std::ofstream bypasses util::write_file_atomic; route artifact "
       "writes through it (or suppress in tests)",
       outside_io_shim},
      {kRuleRawIo, std::regex{R"(std::fstream\b)"},
       "std::fstream bypasses util::write_file_atomic; route artifact "
       "writes through it (or suppress in tests)",
       outside_io_shim},
      {kRuleRawIo, std::regex{R"(\bfopen\s*\()"},
       "fopen() bypasses util::write_file_atomic; route artifact writes "
       "through it (or suppress in tests)",
       outside_io_shim},
      {kRuleRawIo, std::regex{R"(::open\s*\()"},
       "open(2) bypasses util::write_file_atomic; route artifact writes "
       "through it (or suppress in tests)",
       outside_io_shim, member_open},
      {kRuleRawIo, std::regex{R"(::creat\s*\()"},
       "creat(2) bypasses util::write_file_atomic; route artifact writes "
       "through it (or suppress in tests)",
       outside_io_shim},
      {kRuleRawIo, std::regex{R"(std::ifstream\b)"},
       "std::ifstream bypasses the util::io fault shim; route src/ reads "
       "through util::io::read_file (or suppress with an allow "
       "annotation)",
       src_outside_io_shim},
      {kRuleHeaderHygiene, std::regex{R"(\busing\s+namespace\b)"},
       "using-namespace in a header leaks into every includer",
       header_file},
      // engine-hot-path: src/sim and src/p2p are the per-event loop the
      // calendar queue and slab event pool exist for (DESIGN.md §14).
      {kRuleEngineHotPath, std::regex{R"(std::priority_queue\b)"},
       "std::priority_queue in an engine hot path; schedule through "
       "sim::CalendarQueue (DESIGN.md section 14)",
       engine_hot_path},
      {kRuleEngineHotPath, std::regex{R"(std::make_unique\b)"},
       "per-event heap allocation (std::make_unique) in an engine hot "
       "path; use the slab event pool, or annotate a one-time "
       "construction site with allow(engine-hot-path)",
       engine_hot_path},
      {kRuleEngineHotPath, std::regex{R"(std::make_shared\b)"},
       "per-event heap allocation (std::make_shared) in an engine hot "
       "path; use the slab event pool, or annotate a one-time "
       "construction site with allow(engine-hot-path)",
       engine_hot_path},
      {kRuleEngineHotPath, std::regex{R"(\bnew\b)"},
       "per-event heap allocation (new) in an engine hot path; use the "
       "slab event pool, write placement news as `::new (ptr)`, or "
       "annotate a one-time construction site with "
       "allow(engine-hot-path)",
       engine_hot_path, not_an_allocation},
      // rng-discipline: ambient entropy and wall-clock seeding make
      // fixed-seed replay impossible.
      {kRuleRng, std::regex{R"(\b(?:std::)?s?rand\s*\()"},
       "C rand()/srand() is a hidden global stream; derive a util::rng "
       "stream from the run seed instead",
       outside_rng_impl},
      {kRuleRng, std::regex{R"(\bstd::random_device\b)"},
       "std::random_device is ambient entropy and unreplayable; derive "
       "streams from the run seed (util::rng)",
       outside_rng_impl},
      {kRuleRng,
       std::regex{R"(\b(?:std::)?time\s*\(\s*(?:nullptr|NULL|0)\s*\))"},
       "wall-clock seeding breaks fixed-seed replay; derive streams from "
       "the run seed (util::rng)",
       outside_rng_impl},
      {kRuleRng,
       std::regex{
           R"(\bstd::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|)"
           R"(ranlux24(?:_base)?|ranlux48(?:_base)?|knuth_b)\s+)"
           R"([A-Za-z_]\w*\s*(?:;|\{\s*\}|\(\s*\)))"},
       "default-constructed random engine hides its seed; seed "
       "explicitly from the run seed (util::rng)",
       outside_rng_impl},
      // lock-annotation: raw std lock types are invisible to clang's
      // -Wthread-safety analysis.
      {kRuleLocks,
       std::regex{R"(\bstd::(?:mutex|recursive_mutex|timed_mutex|)"
                  R"(recursive_timed_mutex|shared_mutex|shared_timed_mutex|)"
                  R"(lock_guard|unique_lock|scoped_lock|)"
                  R"(condition_variable(?:_any)?)\b)"},
       "$& is invisible to clang thread-safety analysis; use util::Mutex "
       "/ util::MutexLock / util::CondVar (util/mutex.hpp), or annotate "
       "unavoidable std interop with allow(lock-annotation)",
       production_code},
      // test-scratch-dir: a hand-built temp path collides across
      // parallel test processes and outlives a failed test.
      {kRuleScratchDir,
       std::regex{R"(\b(?:temp_directory_path|testing::TempDir)\b)"},
       "$& builds a scratch path by hand; use test::ScratchDir "
       "(tests/support/scratch_dir.hpp), unique per test and removed "
       "afterwards",
       tests_outside_support},
  };
  return table;
}

// --- registries -------------------------------------------------------

/// The name registries, indexed by RegistryId: root-relative path, the
/// rule that checks it, what an entry names, and its accepted kinds
/// (space-delimited, with a space at each end).
struct RegistrySpec {
  std::string_view path;
  std::string_view rule;
  std::string_view what;
  std::string_view kinds;
};

enum RegistryId : std::size_t { kMetricReg, kTraceReg, kSchemaReg };

constexpr std::array<RegistrySpec, 3> kRegistries = {{
    {"src/obs/metric_names.def", kRuleMetricNames, "metric",
     " counter gauge histogram span "},
    {"src/obs/trace_names.def", kRuleMetricNames, "trace event",
     " instant counter "},
    {"src/obs/schema_versions.def", kRuleSchemaVersions, "schema",
     " schema "},
}};

/// One metric or trace API hook: capture 1 of `pattern`, matched on
/// the no-comment view, is a `kind` name that `registry` must hold.
struct Api {
  std::regex pattern;
  std::string_view kind;
  RegistryId registry;
};

/// Span begin/end trace events carry the span paths metric_names.def
/// already pins, so only the instant and counter hooks name trace
/// events (DESIGN.md §12).
const std::vector<Api>& apis() {
  static const std::vector<Api> table = {
      {std::regex{R"rx(obs::counter\s*\(\s*"([^"]*)")rx"}, "counter",
       kMetricReg},
      {std::regex{R"rx(PEERSCOPE_METRIC_(?:ADD|INC)\s*\(\s*"([^"]*)")rx"},
       "counter", kMetricReg},
      {std::regex{R"rx(obs::histogram\s*\(\s*"([^"]*)")rx"}, "histogram",
       kMetricReg},
      {std::regex{R"rx(obs::set_gauge\s*\(\s*"([^"]*)")rx"}, "gauge",
       kMetricReg},
      {std::regex{R"rx(PEERSCOPE_SPAN\s*\(\s*"([^"]*)")rx"}, "span",
       kMetricReg},
      {std::regex{R"rx(\bSpan\s+(?:[A-Za-z_]\w*\s*)?\{\s*"([^"]*)")rx"},
       "span", kMetricReg},
      {std::regex{R"rx(obs::trace_instant\s*\(\s*"([^"]*)")rx"},
       "instant", kTraceReg},
      {std::regex{R"rx(PEERSCOPE_TRACE_INSTANT\s*\(\s*"([^"]*)")rx"},
       "instant", kTraceReg},
      {std::regex{R"rx(obs::trace_counter\s*\(\s*"([^"]*)")rx"},
       "counter", kTraceReg},
      {std::regex{R"rx(PEERSCOPE_TRACE_COUNTER\s*\(\s*"([^"]*)")rx"},
       "counter", kTraceReg},
  };
  return table;
}

struct RegistryEntry {
  std::string kind;
  std::string name;
  std::size_t line = 0;
  /// Static prefix before the first `<placeholder>`; empty when the
  /// entry is exact.
  std::string dynamic_prefix;
  bool used = false;
};

struct Registry {
  const RegistrySpec* spec = nullptr;
  fs::path file;
  std::vector<RegistryEntry> entries;

  [[nodiscard]] RegistryEntry* find_exact(std::string_view name) {
    for (auto& entry : entries) {
      if (entry.dynamic_prefix.empty() && entry.name == name) {
        return &entry;
      }
    }
    return nullptr;
  }
};

/// Parses a `<kind> <name>` registry file; unknown kinds are config
/// errors (a typo there would silently un-check names).
std::optional<Registry> load_registry(const fs::path& root,
                                      const RegistrySpec& spec,
                                      std::vector<std::string>& errors) {
  Registry out{&spec, root / spec.path, {}};
  const bool read = read_def(out.file, [&](const std::string& line,
                                           std::size_t line_no) {
    std::istringstream fields{line};
    std::string kind;
    std::string name;
    if (!(fields >> kind >> name) ||
        spec.kinds.find(" " + kind + " ") == std::string_view::npos) {
      errors.push_back(out.file.string() + ":" + std::to_string(line_no) +
                       ": malformed registry line");
      return;
    }
    const std::size_t angle = name.find('<');
    std::string prefix =
        angle == std::string::npos ? std::string{} : name.substr(0, angle);
    out.entries.push_back(
        {std::move(kind), std::move(name), line_no, std::move(prefix)});
  });
  if (!read) {
    errors.push_back("cannot read registry " + out.file.string());
    return std::nullopt;
  }
  return out;
}

// --- per-file context -------------------------------------------------

struct FileContext {
  fs::path path;          // absolute (or as walked)
  std::string rel;        // root-relative, '/'-separated
  bool header;
  std::string code;       // code_view
  std::string no_comment; // no_comment_view
  LineIndex lines;
  Suppressions suppressions;

  FileContext(fs::path p, std::string rel_path, const std::string& source)
      : path(std::move(p)),
        rel(std::move(rel_path)),
        header(is_header(path)),
        code(code_view(source)),
        no_comment(no_comment_view(source)),
        lines(source),
        suppressions(parse_suppressions(source)) {}
};

class Linter {
 public:
  explicit Linter(const Options& options) : options_(options) {}

  LintResult run() {
    if (!init_rules()) return std::move(result_);
    for (std::size_t i = 0; i < kRegistries.size(); ++i) {
      if (enabled(kRegistries[i].rule)) {
        registries_[i] =
            load_registry(options_.root, kRegistries[i], result_.errors);
      }
    }
    load_layers();
    collect_files();
    collect_unordered_names();
    for (const auto& file : files_) scan_file(*file);
    flag_unused_entries();
    check_exit_codes();
    if (enabled(kRuleBuildArtifacts) && options_.check_tracked) {
      for (auto& finding : check_tracked_paths(tracked_files())) {
        result_.findings.push_back(std::move(finding));
      }
    }
    std::stable_sort(result_.findings.begin(), result_.findings.end(),
                     [](const Finding& a, const Finding& b) {
                       return std::tie(a.file, a.line, a.rule) <
                              std::tie(b.file, b.line, b.rule);
                     });
    return std::move(result_);
  }

 private:
  /// tools/layers.def: layer -> allowed dependency layers.
  using Layers =
      std::map<std::string, std::set<std::string, std::less<>>, std::less<>>;

  [[nodiscard]] bool enabled(std::string_view rule) const {
    return options_.rules.empty() ||
           options_.rules.count(rule) != 0;
  }

  bool init_rules() {
    for (const auto& rule : options_.rules) {
      if (rule_description(rule).empty()) {
        result_.errors.push_back("unknown rule: " + rule);
      }
    }
    return result_.errors.empty();
  }

  void collect_files() {
    for (const auto dir : kWalkDirs) {
      const fs::path base = options_.root / dir;
      if (!fs::is_directory(base)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(base)) {
        if (!entry.is_regular_file() || !is_source_file(entry.path())) {
          continue;
        }
        const std::string rel =
            fs::relative(entry.path(), options_.root).generic_string();
        if (rel.rfind(kFixtureDir, 0) == 0) continue;
        auto content = read_file(entry.path());
        if (!content) {
          result_.errors.push_back("cannot read " + rel);
          continue;
        }
        files_.push_back(
            std::make_unique<FileContext>(entry.path(), rel, *content));
      }
    }
    std::sort(files_.begin(), files_.end(),
              [](const auto& a, const auto& b) { return a->rel < b->rel; });
  }

  void report(const FileContext& file, std::size_t offset,
              std::string_view rule, std::string message) {
    const std::size_t line = file.lines.line_of(offset);
    if (file.suppressions.covers(rule, line)) return;
    result_.findings.push_back(
        {file.path, line, std::string{rule}, std::move(message)});
  }

  void scan_file(const FileContext& file) {
    static const std::regex pragma_once{R"(#\s*pragma\s+once)"};
    if (enabled(kRuleHeaderHygiene) && file.header &&
        !std::regex_search(file.code, pragma_once)) {
      report(file, 0, kRuleHeaderHygiene, "header is missing #pragma once");
    }
    const std::string& text = file.code;
    for (const Ban& ban : bans()) {
      if (!enabled(ban.rule) || !ban.scope(file.rel, file.header)) continue;
      for (auto it = std::cregex_iterator{text.data(),
                                          text.data() + text.size(),
                                          ban.pattern};
           it != std::cregex_iterator{}; ++it) {
        const auto begin = static_cast<std::size_t>(it->position(0));
        const auto end = begin + static_cast<std::size_t>(it->length(0));
        if (ban.look_alike != nullptr && ban.look_alike(text, begin, end)) {
          continue;
        }
        report(file, begin, ban.rule, it->format(ban.message));
      }
    }
    check_names(file);
    if (registries_[kSchemaReg]) check_schemas(file);
    if (enabled(kRuleIteration)) check_iteration(file);
    if (layers_) check_layering(file);
  }

  // metric-name-registry: every literal handed to an API hook must be
  // registered with the right kind, and (checked in
  // flag_unused_entries) every registered name must be used.
  void check_names(const FileContext& file) {
    const std::string& text = file.no_comment;
    for (const Api& api : apis()) {
      std::optional<Registry>& registry = registries_[api.registry];
      if (!registry) continue;
      for (auto it = std::cregex_iterator{text.data(),
                                          text.data() + text.size(),
                                          api.pattern};
           it != std::cregex_iterator{}; ++it) {
        const auto offset = static_cast<std::size_t>(it->position(0));
        // A literal followed by `+` is the static prefix of a
        // runtime-built name and must match a dynamic registry entry.
        std::size_t after = offset + static_cast<std::size_t>(it->length(0));
        while (after < text.size() &&
               (std::isspace(static_cast<unsigned char>(text[after])) !=
                0)) {
          ++after;
        }
        const bool concatenated = after < text.size() && text[after] == '+';
        resolve_name(*registry, file, offset, (*it)[1].str(), api.kind,
                     concatenated);
      }
    }
  }

  void resolve_name(Registry& reg, const FileContext& file,
                    std::size_t offset, const std::string& name,
                    std::string_view kind, bool concatenated) {
    const std::string registry_path{reg.spec->path};
    if (RegistryEntry* exact = reg.find_exact(name)) {
      if (exact->kind != kind) {
        report(file, offset, kRuleMetricNames,
               "\"" + name + "\" used as " + std::string{kind} +
                   " but registered as " + exact->kind + " in " +
                   registry_path);
        return;
      }
      exact->used = true;
      return;
    }
    for (auto& entry : reg.entries) {
      if (entry.dynamic_prefix.empty() || entry.kind != kind) continue;
      const bool prefix_match =
          concatenated ? name == entry.dynamic_prefix
                       : name.rfind(entry.dynamic_prefix, 0) == 0;
      if (prefix_match) {
        entry.used = true;
        return;
      }
    }
    report(file, offset, kRuleMetricNames,
           std::string{kind} + " \"" + name + "\" is not in " +
               registry_path + "; register it (or suppress in tests)");
  }

  // schema-version-consistency: any peerscope.<thing>/<n> literal must
  // match the schema registry exactly — a bumped writer with an
  // un-bumped reader (or vice versa) fails here.
  void check_schemas(const FileContext& file) {
    static const std::regex re{
        R"(peerscope\.[A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)*/[0-9]+)"};
    Registry& registry = *registries_[kSchemaReg];
    const std::string& text = file.no_comment;
    for (auto it = std::cregex_iterator{text.data(),
                                        text.data() + text.size(), re};
         it != std::cregex_iterator{}; ++it) {
      const std::string literal = it->str();
      if (RegistryEntry* entry = registry.find_exact(literal)) {
        entry->used = true;
        continue;
      }
      report(file, static_cast<std::size_t>(it->position(0)),
             kRuleSchemaVersions,
             "schema string \"" + literal + "\" is not in " +
                 std::string{registry.spec->path} +
                 "; bump the registry in the same commit");
    }
  }

  // nondeterministic-iteration, src/ only: a range-for whose range
  // expression mentions an identifier declared anywhere in src/ with
  // an unordered container type. Hash iteration order varies across
  // libstdc++ versions and (for pointer keys) across runs, so any such
  // loop whose effects are order-sensitive breaks the §5.6 determinism
  // contract. Loops that are genuinely order-independent (or sort
  // before consuming) carry allow(nondeterministic-iteration).
  void collect_unordered_names() {
    if (!enabled(kRuleIteration)) return;
    static const std::regex decl{
        R"(std::unordered_(?:map|set|multimap|multiset)\s*<)"};
    for (const auto& file : files_) {
      if (file->rel.rfind("src/", 0) != 0) continue;
      const std::string& text = file->code;
      for (auto it = std::cregex_iterator{text.data(),
                                          text.data() + text.size(), decl};
           it != std::cregex_iterator{}; ++it) {
        // Balance the template argument list, then take the declared
        // (or accessor) identifier after it.
        std::size_t j = static_cast<std::size_t>(it->position(0)) +
                        static_cast<std::size_t>(it->length(0));
        int depth = 1;
        while (j < text.size() && depth > 0) {
          if (text[j] == '<') ++depth;
          if (text[j] == '>') --depth;
          ++j;
        }
        while (j < text.size() &&
               ((std::isspace(static_cast<unsigned char>(text[j])) != 0) ||
                text[j] == '&' || text[j] == '*')) {
          ++j;
        }
        std::size_t end = j;
        while (end < text.size() &&
               ((std::isalnum(static_cast<unsigned char>(text[end])) !=
                 0) ||
                text[end] == '_')) {
          ++end;
        }
        if (end > j &&
            (std::isdigit(static_cast<unsigned char>(text[j])) == 0)) {
          unordered_names_.insert(text.substr(j, end - j));
        }
      }
    }
  }

  void check_iteration(const FileContext& file) {
    if (file.rel.rfind("src/", 0) != 0 || unordered_names_.empty()) {
      return;
    }
    static const std::regex for_head{R"(\bfor\s*\()"};
    static const std::regex ident{R"([A-Za-z_]\w*)"};
    const std::string& text = file.code;
    for (auto it = std::cregex_iterator{text.data(),
                                        text.data() + text.size(),
                                        for_head};
         it != std::cregex_iterator{}; ++it) {
      const auto offset = static_cast<std::size_t>(it->position(0));
      std::size_t open = offset + static_cast<std::size_t>(it->length(0));
      // Find the matching close paren and the top-level range `:`
      // (skipping `::`), if any.
      int depth = 1;
      std::size_t colon = std::string::npos;
      std::size_t close = open;
      for (std::size_t j = open; j < text.size() && depth > 0; ++j) {
        const char c = text[j];
        if (c == '(') ++depth;
        if (c == ')') --depth;
        if (depth == 0) {
          close = j;
          break;
        }
        if (c == ':' && depth == 1 && colon == std::string::npos) {
          const char prev = j > 0 ? text[j - 1] : '\0';
          const char next = j + 1 < text.size() ? text[j + 1] : '\0';
          if (prev != ':' && next != ':') colon = j;
        }
      }
      if (colon == std::string::npos || close <= colon) continue;
      const std::string range{text.substr(colon + 1, close - colon - 1)};
      for (auto id = std::sregex_iterator{range.begin(), range.end(),
                                          ident};
           id != std::sregex_iterator{}; ++id) {
        const std::string name = id->str();
        if (unordered_names_.count(name) == 0) continue;
        report(file, offset, kRuleIteration,
               "range-for over unordered container `" + name +
                   "` has no deterministic order; iterate a sorted "
                   "copy, or annotate allow(nondeterministic-iteration) "
                   "when the loop's effects are order-independent");
        break;
      }
    }
  }

  // module-layering, src/ only: `#include "<layer>/..."` edges must
  // stay inside the DAG pinned in tools/layers.def, so a convenience
  // include can never quietly invert a layer boundary.
  void load_layers() {
    if (!enabled(kRuleLayering)) return;
    const fs::path path = options_.root / kLayersPath;
    Layers layers;
    const bool read = read_def(path, [&](const std::string& line,
                                         std::size_t line_no) {
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) {
        result_.errors.push_back(
            path.generic_string() + ":" + std::to_string(line_no) +
            ": malformed layer line (want `<layer>: <dep>...`)");
        return;
      }
      std::istringstream name_in{line.substr(0, colon)};
      std::string name;
      name_in >> name;
      std::istringstream deps{line.substr(colon + 1)};
      auto& into = layers[name];
      for (std::string dep; deps >> dep;) into.insert(dep);
    });
    if (read) layers_ = std::move(layers);  // absent file = rule skipped
  }

  void check_layering(const FileContext& file) {
    if (file.rel.rfind("src/", 0) != 0) return;
    const std::size_t slash = file.rel.find('/', 4);
    if (slash == std::string::npos) return;  // file directly in src/
    const std::string layer = file.rel.substr(4, slash - 4);
    const auto self = layers_->find(layer);
    if (self == layers_->end()) {
      if (layers_missing_.insert(layer).second) {
        result_.errors.push_back(
            "src/" + layer + "/ is not declared in " +
            std::string{kLayersPath} + "; add the layer and its "
            "dependencies");
      }
      return;
    }
    static const std::regex include{
        R"re(#\s*include\s*"([A-Za-z0-9_]+)/[^"]*")re"};
    const std::string& text = file.no_comment;
    for (auto it = std::cregex_iterator{text.data(),
                                        text.data() + text.size(),
                                        include};
         it != std::cregex_iterator{}; ++it) {
      const std::string target = (*it)[1].str();
      if (target == layer || layers_->count(target) == 0) continue;
      if (self->second.count(target) != 0) continue;
      report(file, static_cast<std::size_t>(it->position(0)),
             kRuleLayering,
             "include of \"" + target + "/...\" from layer `" + layer +
                 "` violates " + std::string{kLayersPath} +
                 "; declare the dependency there or invert the edge");
    }
  }

  // Registry entries nothing referenced: dead metrics/schemas drift
  // out of docs silently, so they are findings too.
  void flag_unused_entries() {
    for (const auto& registry : registries_) {
      if (!registry) continue;
      for (const auto& entry : registry->entries) {
        if (entry.used) continue;
        result_.findings.push_back(
            {registry->file, entry.line, std::string{registry->spec->rule},
             std::string{registry->spec->what} + " \"" + entry.name +
                 "\" is registered but never used; delete the entry "
                 "or wire the instrumentation"});
      }
    }
  }

  // exit-code-uniqueness: kExit* constants in tools/ must be pairwise
  // distinct and every value must appear (backticked) in the README
  // exit-code documentation.
  void check_exit_codes() {
    if (!enabled(kRuleExitCodes)) return;
    struct ExitCode {
      const FileContext* file;
      std::size_t offset;
      std::string name;
      int value;
    };
    static const std::regex re{
        R"(constexpr\s+int\s+(kExit\w*)\s*=\s*([0-9]+)\s*;)"};
    std::vector<ExitCode> codes;
    for (const auto& file : files_) {
      if (file->rel.rfind("tools/", 0) != 0) continue;
      const std::string& text = file->no_comment;
      for (auto it = std::cregex_iterator{text.data(),
                                          text.data() + text.size(), re};
           it != std::cregex_iterator{}; ++it) {
        codes.push_back({file.get(),
                         static_cast<std::size_t>(it->position(0)),
                         (*it)[1].str(), std::stoi((*it)[2].str())});
      }
    }
    for (std::size_t i = 0; i < codes.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (codes[i].value == codes[j].value &&
            codes[i].name != codes[j].name) {
          report(*codes[i].file, codes[i].offset, kRuleExitCodes,
                 codes[i].name + " reuses exit code " +
                     std::to_string(codes[i].value) + " already taken "
                     "by " + codes[j].name);
        }
      }
    }
    const auto readme = read_file(options_.root / "README.md");
    std::set<int> documented;
    if (readme) {
      static const std::regex doc{R"(`([0-9]{1,3})`)"};
      for (auto it = std::sregex_iterator{readme->begin(),
                                          readme->end(), doc};
           it != std::sregex_iterator{}; ++it) {
        documented.insert(std::stoi((*it)[1].str()));
      }
    }
    for (const auto& code : codes) {
      if (documented.count(code.value) != 0) continue;
      report(*code.file, code.offset, kRuleExitCodes,
             code.name + " = " + std::to_string(code.value) +
                 " is not documented in the README exit-code table");
    }

    // Registry sub-check (tools/exit_codes.def, optional): names and
    // values are pinned both ways, so adding a code — the discovery
    // "degraded" status being the motivating case — forces the
    // registry (and through it the docs review) in the same commit.
    struct RegistryCode {
      std::size_t line;
      std::string name;
      int value;
      bool used = false;
    };
    std::vector<RegistryCode> registered;
    const fs::path registry_path = options_.root / kExitCodeRegistryPath;
    const bool read = read_def(registry_path, [&](const std::string& line,
                                                  std::size_t line_no) {
      std::istringstream fields{line};
      int value = 0;
      std::string name;
      if (fields >> value >> name) registered.push_back({line_no, name, value});
    });
    if (!read) return;
    for (const auto& code : codes) {
      bool found = false;
      for (auto& entry : registered) {
        if (entry.name != code.name) continue;
        entry.used = true;
        found = true;
        if (entry.value != code.value) {
          report(*code.file, code.offset, kRuleExitCodes,
                 code.name + " = " + std::to_string(code.value) +
                     " disagrees with " +
                     std::string{kExitCodeRegistryPath} + " (" +
                     std::to_string(entry.value) + ")");
        }
      }
      if (!found) {
        report(*code.file, code.offset, kRuleExitCodes,
               code.name + " is not registered in " +
                   std::string{kExitCodeRegistryPath} +
                   "; add it in the same commit");
      }
    }
    for (const auto& entry : registered) {
      if (entry.used) continue;
      result_.findings.push_back(
          {registry_path, entry.line, std::string{kRuleExitCodes},
           "exit code \"" + entry.name +
               "\" is registered but no tools/ constant defines it; "
               "delete the entry or restore the constant"});
    }
  }

  // no-committed-build-artifacts: what `git ls-files` says is tracked,
  // filtered by check_tracked_paths. Best effort — outside a git
  // checkout the rule is silently skipped.
  [[nodiscard]] std::vector<std::string> tracked_files() const {
    const std::string cmd = "git -C \"" + options_.root.string() +
                            "\" ls-files 2>/dev/null";
    const std::unique_ptr<std::FILE, int (*)(std::FILE*)> pipe{
        ::popen(cmd.c_str(), "r"), ::pclose};
    std::vector<std::string> out;
    if (!pipe) return out;
    std::string line;
    int c = 0;
    while ((c = std::fgetc(pipe.get())) != EOF) {
      if (c == '\n') {
        if (!line.empty()) out.push_back(std::move(line));
        line.clear();
      } else {
        line.push_back(static_cast<char>(c));
      }
    }
    if (!line.empty()) out.push_back(std::move(line));
    return out;
  }

  Options options_;
  LintResult result_;
  std::vector<std::unique_ptr<FileContext>> files_;
  /// Indexed by RegistryId; nullopt when the owning rule is off or the
  /// file could not be read.
  std::array<std::optional<Registry>, kRegistries.size()> registries_;
  /// Identifiers declared anywhere in src/ with an unordered container
  /// type (members, locals, params, accessor names).
  std::set<std::string, std::less<>> unordered_names_;
  /// nullopt = rule off or no layers.def, rule skipped.
  std::optional<Layers> layers_;
  std::set<std::string, std::less<>> layers_missing_;
};

}  // namespace

std::vector<std::string_view> rule_names() {
  std::vector<std::string_view> out;
  for (const auto& rule : kRules) out.push_back(rule.name);
  return out;
}

std::string_view rule_description(std::string_view rule) {
  for (const auto& info : kRules) {
    if (info.name == rule) return info.description;
  }
  return {};
}

std::string to_string(const Finding& finding) {
  std::string out = finding.file.generic_string();
  if (finding.line != 0) {
    out += ":" + std::to_string(finding.line);
  }
  out += ": [" + finding.rule + "] " + finding.message;
  return out;
}

std::string code_view(std::string_view source) {
  return make_view(source, /*keep_strings=*/false);
}

std::string no_comment_view(std::string_view source) {
  return make_view(source, /*keep_strings=*/true);
}

std::vector<Finding> check_tracked_paths(
    const std::vector<std::string>& tracked) {
  std::vector<Finding> out;
  // build/ and build-<variant>/ only — a directory that merely starts
  // with "build" (builders/) is not a build tree.
  static const std::regex build_dir{R"(^build(-[^/]*)?/)"};
  for (const auto& path : tracked) {
    std::string why;
    const std::size_t slash = path.rfind('/');
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    if (std::regex_search(path, build_dir)) {
      why = "build tree is committed; add it to .gitignore and "
            "git rm -r --cached it";
    } else if (path.size() >= 2 &&
               (path.compare(path.size() - 2, 2, ".o") == 0 ||
                path.compare(path.size() - 2, 2, ".a") == 0)) {
      why = "compiled object/archive is committed";
    } else if (base == "compile_commands.json") {
      why = "generated compile database is committed";
    } else if (base == "core") {
      why = "core dump is committed";
    }
    if (!why.empty()) {
      out.push_back(
          {path, 0, std::string{kRuleBuildArtifacts}, std::move(why)});
    }
  }
  return out;
}

LintResult run(const Options& options) { return Linter{options}.run(); }

}  // namespace peerscope::lint

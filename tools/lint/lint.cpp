#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <system_error>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <sstream>
#include <tuple>
#include <utility>

#include "util/json.hpp"

namespace peerscope::lint {
namespace {

namespace fs = std::filesystem;
namespace json = util::json;

// Directories walked under the root, and the source extensions that
// count. tests/lint/fixtures/ is excluded: its files violate rules on
// purpose so the fixture suite can assert the diagnostics.
constexpr std::array<std::string_view, 5> kWalkDirs = {
    "src", "tools", "bench", "tests", "examples"};
constexpr std::array<std::string_view, 4> kSourceExts = {".cpp", ".hpp",
                                                         ".h", ".cc"};
constexpr std::string_view kFixtureDir = "tests/lint/fixtures";

constexpr std::string_view kMetricRegistryPath = "src/obs/metric_names.def";
constexpr std::string_view kTraceRegistryPath = "src/obs/trace_names.def";
constexpr std::string_view kSchemaRegistryPath =
    "src/obs/schema_versions.def";
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

/// The trimmed text of the 1-based `line` in `source` (empty when out
/// of range) — the line-content half of a finding fingerprint.
[[nodiscard]] std::string_view line_text(std::string_view source,
                                         std::size_t line) {
  std::size_t pos = 0;
  for (std::size_t n = 1; n < line; ++n) {
    pos = source.find('\n', pos);
    if (pos == std::string_view::npos) return {};
    ++pos;
  }
  std::size_t eol = source.find('\n', pos);
  if (eol == std::string_view::npos) eol = source.size();
  std::string_view text = source.substr(pos, eol - pos);
  while (!text.empty() &&
         (std::isspace(static_cast<unsigned char>(text.front())) != 0)) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         (std::isspace(static_cast<unsigned char>(text.back())) != 0)) {
    text.remove_suffix(1);
  }
  return text;
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
        } else if (c == '\'') {
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

/// Lines covered by a `// lint: ordered` marker (the
/// nondeterministic-iteration opt-out: "this loop's effects are
/// order-independent, or the consumer sorts"). Same placement rule as
/// allow(): trailing a statement covers that line, on a line of its
/// own covers the next.
std::set<std::size_t> parse_ordered_lines(std::string_view source) {
  static const std::regex marker{R"(//\s*lint:\s*ordered\b)"};
  std::set<std::size_t> out;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    ++line_no;
    std::size_t eol = source.find('\n', pos);
    if (eol == std::string_view::npos) eol = source.size();
    const std::string line{source.substr(pos, eol - pos)};
    std::smatch match;
    if (std::regex_search(line, match, marker)) {
      const bool own_line =
          line.find_first_not_of(" \t") ==
          static_cast<std::size_t>(match.position(0));
      out.insert(own_line ? line_no + 1 : line_no);
    }
    pos = eol + 1;
  }
  return out;
}

// --- registries -------------------------------------------------------

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
std::optional<Registry> load_registry(
    const fs::path& path, const std::set<std::string>& kinds,
    std::vector<std::string>& errors) {
  const auto content = read_file(path);
  if (!content) {
    errors.push_back("cannot read registry " + path.string());
    return std::nullopt;
  }
  Registry out;
  out.file = path;
  std::istringstream in{*content};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields{line};
    std::string kind;
    std::string name;
    if (!(fields >> kind)) continue;  // blank line
    if (!(fields >> name) || kinds.count(kind) == 0) {
      errors.push_back(path.string() + ":" + std::to_string(line_no) +
                       ": malformed registry line");
      continue;
    }
    RegistryEntry entry;
    entry.kind = kind;
    entry.name = name;
    entry.line = line_no;
    const std::size_t angle = name.find('<');
    if (angle != std::string::npos) {
      entry.dynamic_prefix = name.substr(0, angle);
    }
    out.entries.push_back(std::move(entry));
  }
  return out;
}

// --- per-file context -------------------------------------------------

struct FileContext {
  fs::path path;          // absolute (or as walked)
  std::string rel;        // root-relative, '/'-separated
  std::string source;     // raw bytes
  std::string code;       // code_view
  std::string no_comment; // no_comment_view
  LineIndex lines;
  Suppressions suppressions;

  FileContext(fs::path p, std::string rel_path, std::string src)
      : path(std::move(p)),
        rel(std::move(rel_path)),
        source(std::move(src)),
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
    load_registries();
    load_layers();
    collect_files();
    collect_unordered_names();
    for (const auto& file : files_) scan_file(*file);
    finish_registries();
    check_exit_codes();
    if (enabled(kRuleBuildArtifacts) && options_.check_tracked) {
      append(check_tracked_paths(tracked_files()));
    }
    apply_baseline();
    std::sort(result_.findings.begin(), result_.findings.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.file, a.line, a.rule) <
                       std::tie(b.file, b.line, b.rule);
              });
    return std::move(result_);
  }

 private:
  [[nodiscard]] bool enabled(std::string_view rule) const {
    return options_.rules.empty() ||
           options_.rules.count(rule) != 0;
  }

  bool init_rules() {
    const auto known = rule_names();
    for (const auto& rule : options_.rules) {
      if (std::find(known.begin(), known.end(), rule) == known.end()) {
        result_.errors.push_back("unknown rule: " + rule);
      }
    }
    return result_.errors.empty();
  }

  void load_registries() {
    if (enabled(kRuleMetricNames)) {
      metric_registry_ =
          load_registry(options_.root / kMetricRegistryPath,
                        {"counter", "gauge", "histogram", "span"},
                        result_.errors);
      trace_registry_ = load_registry(options_.root / kTraceRegistryPath,
                                      {"instant", "counter"},
                                      result_.errors);
    }
    if (enabled(kRuleSchemaVersions)) {
      schema_registry_ = load_registry(
          options_.root / kSchemaRegistryPath, {"schema"}, result_.errors);
    }
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
        files_.push_back(std::make_unique<FileContext>(
            entry.path(), rel, std::move(*content)));
      }
    }
    std::sort(files_.begin(), files_.end(),
              [](const auto& a, const auto& b) { return a->rel < b->rel; });
  }

  [[nodiscard]] std::string rel_of(const fs::path& path) const {
    std::error_code ec;
    const fs::path rel = fs::relative(path, options_.root, ec);
    if (ec || rel.empty()) return path.generic_string();
    return rel.generic_string();
  }

  void report(const FileContext& file, std::size_t offset,
              std::string_view rule, std::string message) {
    const std::size_t line = file.lines.line_of(offset);
    if (file.suppressions.covers(rule, line)) return;
    const std::string_view key =
        line != 0 ? line_text(file.source, line)
                  : std::string_view{message};
    std::string print = fingerprint(rule, file.rel, key);
    result_.findings.push_back({file.path, line, std::string{rule},
                                std::move(message), std::move(print)});
  }

  void append(std::vector<Finding> extra) {
    for (auto& finding : extra) {
      if (finding.fingerprint.empty()) {
        finding.fingerprint = fingerprint(
            finding.rule, finding.file.generic_string(), finding.message);
      }
      result_.findings.push_back(std::move(finding));
    }
  }

  void scan_file(const FileContext& file) {
    if (enabled(kRuleRawIo)) check_raw_io(file);
    if (enabled(kRuleMetricNames) && metric_registry_) {
      check_metric_names(file);
    }
    if (enabled(kRuleMetricNames) && trace_registry_) {
      check_trace_names(file);
    }
    if (enabled(kRuleSchemaVersions) && schema_registry_) {
      check_schemas(file);
    }
    if (enabled(kRuleHeaderHygiene) && is_header(file.path)) {
      check_header_hygiene(file);
    }
    if (enabled(kRuleEngineHotPath)) check_engine_hot_path(file);
    if (enabled(kRuleIteration)) check_iteration(file);
    if (enabled(kRuleRng)) check_rng(file);
    if (enabled(kRuleLocks)) check_locks(file);
    if (enabled(kRuleLayering) && layers_) check_layering(file);
  }

  // (1) no-raw-artifact-io: every write-capable file-open primitive in
  // the code view, outside the util::write_file_atomic implementation
  // and the util::io fault shim. Within src/ the rule also covers the
  // read side: every reader must route through util::io::read_file so
  // the storage fault-injection layer sees all file I/O.
  void check_raw_io(const FileContext& file) {
    if (std::find(kRawIoAllowlist.begin(), kRawIoAllowlist.end(),
                  file.rel) != kRawIoAllowlist.end()) {
      return;
    }
    struct Token {
      const char* pattern;
      const char* what;
    };
    static const std::array<Token, 5> kTokens = {{
        {R"(std::ofstream\b)", "std::ofstream"},
        {R"(std::fstream\b)", "std::fstream"},
        {R"(\bfopen\s*\()", "fopen()"},
        {R"(::open\s*\()", "open(2)"},
        {R"(::creat\s*\()", "creat(2)"},
    }};
    for (const auto& token : kTokens) {
      const std::regex re{token.pattern};
      for (auto it = std::cregex_iterator{file.code.data(),
                                          file.code.data() +
                                              file.code.size(),
                                          re};
           it != std::cregex_iterator{}; ++it) {
        const auto offset = static_cast<std::size_t>(it->position(0));
        // `foo::open(` is a member/namespace call, not the syscall.
        if (token.what == std::string_view{"open(2)"} && offset > 0) {
          const char prev = file.code[offset - 1];
          if ((std::isalnum(static_cast<unsigned char>(prev)) != 0) ||
              prev == '_' || prev == ':' || prev == '>' || prev == '.') {
            continue;
          }
        }
        report(file, offset, kRuleRawIo,
               std::string{token.what} +
                   " bypasses util::write_file_atomic; route artifact "
                   "writes through it (or suppress in tests)");
      }
    }
    // Read-side tokens, src/-only: tools and tests may slurp however
    // they like, but library code must stay fault-injectable.
    if (file.rel.rfind("src/", 0) != 0) return;
    static const std::regex kReadRe{R"(std::ifstream\b)"};
    for (auto it = std::cregex_iterator{file.code.data(),
                                        file.code.data() +
                                            file.code.size(),
                                        kReadRe};
         it != std::cregex_iterator{}; ++it) {
      report(file, static_cast<std::size_t>(it->position(0)), kRuleRawIo,
             "std::ifstream bypasses the util::io fault shim; route "
             "src/ reads through util::io::read_file (or suppress with "
             "an allow annotation)");
    }
  }

  // (2) metric-name-registry: every literal handed to the obs API must
  // be registered with the right kind, and (checked in
  // finish_registries) every registered name must be used.
  void check_metric_names(const FileContext& file) {
    struct Api {
      const char* pattern;
      const char* kind;
    };
    static const std::array<Api, 6> kApis = {{
        {R"rx(obs::counter\s*\(\s*"([^"]*)")rx", "counter"},
        {R"rx(PEERSCOPE_METRIC_(?:ADD|INC)\s*\(\s*"([^"]*)")rx",
         "counter"},
        {R"rx(obs::histogram\s*\(\s*"([^"]*)")rx", "histogram"},
        {R"rx(obs::set_gauge\s*\(\s*"([^"]*)")rx", "gauge"},
        {R"rx(PEERSCOPE_SPAN\s*\(\s*"([^"]*)")rx", "span"},
        {R"rx(\bSpan\s+(?:[A-Za-z_]\w*\s*)?\{\s*"([^"]*)")rx", "span"},
    }};
    const std::string& text = file.no_comment;
    for (const auto& api : kApis) {
      const std::regex re{api.pattern};
      for (auto it = std::cregex_iterator{text.data(),
                                          text.data() + text.size(), re};
           it != std::cregex_iterator{}; ++it) {
        const auto offset = static_cast<std::size_t>(it->position(0));
        const std::string name = (*it)[1].str();
        // A literal followed by `+` is the static prefix of a
        // runtime-built name and must match a dynamic registry entry.
        std::size_t after = static_cast<std::size_t>(it->position(0)) +
                            static_cast<std::size_t>(it->length(0));
        while (after < text.size() &&
               (std::isspace(static_cast<unsigned char>(text[after])) !=
                0)) {
          ++after;
        }
        const bool concatenated = after < text.size() && text[after] == '+';
        resolve_metric(file, offset, name, api.kind, concatenated);
      }
    }
  }

  // Trace event names go through the same rule with their own
  // registry: the timeline's vocabulary is as much a public schema as
  // the metrics keys (DESIGN.md §12). Span begin/end names are the
  // span paths already pinned by metric_names.def, so only the
  // instant/counter hooks are scanned here.
  void check_trace_names(const FileContext& file) {
    struct Api {
      const char* pattern;
      const char* kind;
    };
    static const std::array<Api, 4> kApis = {{
        {R"rx(obs::trace_instant\s*\(\s*"([^"]*)")rx", "instant"},
        {R"rx(PEERSCOPE_TRACE_INSTANT\s*\(\s*"([^"]*)")rx", "instant"},
        {R"rx(obs::trace_counter\s*\(\s*"([^"]*)")rx", "counter"},
        {R"rx(PEERSCOPE_TRACE_COUNTER\s*\(\s*"([^"]*)")rx", "counter"},
    }};
    const std::string& text = file.no_comment;
    for (const auto& api : kApis) {
      const std::regex re{api.pattern};
      for (auto it = std::cregex_iterator{text.data(),
                                          text.data() + text.size(), re};
           it != std::cregex_iterator{}; ++it) {
        const auto offset = static_cast<std::size_t>(it->position(0));
        const std::string name = (*it)[1].str();
        std::size_t after = static_cast<std::size_t>(it->position(0)) +
                            static_cast<std::size_t>(it->length(0));
        while (after < text.size() &&
               (std::isspace(static_cast<unsigned char>(text[after])) !=
                0)) {
          ++after;
        }
        const bool concatenated = after < text.size() && text[after] == '+';
        resolve_name(*trace_registry_, kTraceRegistryPath, file, offset,
                     name, api.kind, concatenated);
      }
    }
  }

  void resolve_metric(const FileContext& file, std::size_t offset,
                      const std::string& name, std::string_view kind,
                      bool concatenated) {
    resolve_name(*metric_registry_, kMetricRegistryPath, file, offset, name,
                 kind, concatenated);
  }

  void resolve_name(Registry& reg, std::string_view registry_path,
                    const FileContext& file, std::size_t offset,
                    const std::string& name, std::string_view kind,
                    bool concatenated) {
    if (RegistryEntry* exact = reg.find_exact(name)) {
      if (exact->kind != kind) {
        report(file, offset, kRuleMetricNames,
               "\"" + name + "\" used as " + std::string{kind} +
                   " but registered as " + exact->kind + " in " +
                   std::string{registry_path});
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
               std::string{registry_path} +
               "; register it (or suppress in tests)");
  }

  // (3) schema-version-consistency: any peerscope.<thing>/<n> literal
  // must match the schema registry exactly — a bumped writer with an
  // un-bumped reader (or vice versa) fails here.
  void check_schemas(const FileContext& file) {
    static const std::regex re{
        R"(peerscope\.[A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)*/[0-9]+)"};
    const std::string& text = file.no_comment;
    for (auto it = std::cregex_iterator{text.data(),
                                        text.data() + text.size(), re};
         it != std::cregex_iterator{}; ++it) {
      const auto offset = static_cast<std::size_t>(it->position(0));
      const std::string literal = it->str();
      if (RegistryEntry* entry = schema_registry_->find_exact(literal)) {
        entry->used = true;
        continue;
      }
      report(file, offset, kRuleSchemaVersions,
             "schema string \"" + literal + "\" is not in " +
                 std::string{kSchemaRegistryPath} +
                 "; bump the registry in the same commit");
    }
  }

  // (5) header hygiene: #pragma once present, no using-namespace.
  void check_header_hygiene(const FileContext& file) {
    static const std::regex pragma{R"(#\s*pragma\s+once)"};
    static const std::regex using_ns{R"(\busing\s+namespace\b)"};
    if (!std::regex_search(file.code, pragma)) {
      report(file, 0, kRuleHeaderHygiene,
             "header is missing #pragma once");
    }
    for (auto it = std::cregex_iterator{file.code.data(),
                                        file.code.data() +
                                            file.code.size(),
                                        using_ns};
         it != std::cregex_iterator{}; ++it) {
      report(file, static_cast<std::size_t>(it->position(0)),
             kRuleHeaderHygiene,
             "using-namespace in a header leaks into every includer");
    }
  }

  // (7) engine-hot-path: src/sim and src/p2p are the per-event hot
  // loop; the calendar queue + slab event pool (DESIGN.md §14) exist
  // so nothing there schedules through std::priority_queue or
  // allocates per event. The compiler happily accepts both, so the
  // regression is only visible as a bench slope — this rule catches it
  // at review time instead. Legit one-time construction sites carry an
  // allow(engine-hot-path) annotation; placement news must use the
  // qualified `::new (ptr)` form, which is recognised and skipped.
  void check_engine_hot_path(const FileContext& file) {
    if (file.rel.rfind("src/sim/", 0) != 0 &&
        file.rel.rfind("src/p2p/", 0) != 0) {
      return;
    }
    struct Token {
      const char* pattern;
      const char* message;
    };
    static const std::array<Token, 4> kTokens = {{
        {R"(std::priority_queue\b)",
         "std::priority_queue in an engine hot path; schedule through "
         "sim::CalendarQueue (DESIGN.md section 14)"},
        {R"(std::make_unique\b)",
         "per-event heap allocation (std::make_unique) in an engine hot "
         "path; use the slab event pool, or annotate a one-time "
         "construction site with allow(engine-hot-path)"},
        {R"(std::make_shared\b)",
         "per-event heap allocation (std::make_shared) in an engine hot "
         "path; use the slab event pool, or annotate a one-time "
         "construction site with allow(engine-hot-path)"},
        {R"(\bnew\b)",
         "per-event heap allocation (new) in an engine hot path; use "
         "the slab event pool, write placement news as `::new (ptr)`, "
         "or annotate a one-time construction site with "
         "allow(engine-hot-path)"},
    }};
    const std::string& text = file.code;
    for (const auto& token : kTokens) {
      const std::regex re{token.pattern};
      for (auto it = std::cregex_iterator{text.data(),
                                          text.data() + text.size(), re};
           it != std::cregex_iterator{}; ++it) {
        const auto offset = static_cast<std::size_t>(it->position(0));
        if (token.pattern == std::string_view{R"(\bnew\b)"}) {
          std::size_t before = offset;
          while (before > 0 &&
                 (std::isspace(static_cast<unsigned char>(
                      text[before - 1])) != 0)) {
            --before;
          }
          const char prev = before > 0 ? text[before - 1] : '\0';
          // `#include <new>` names the header, not an allocation.
          if (prev == '<') continue;
          std::size_t after =
              offset + static_cast<std::size_t>(it->length(0));
          while (after < text.size() &&
                 (std::isspace(static_cast<unsigned char>(text[after])) !=
                  0)) {
            ++after;
          }
          // `::new (ptr) T` is placement construction into storage the
          // pool already owns — the pattern the pool itself relies on.
          if (prev == ':' && after < text.size() && text[after] == '(') {
            continue;
          }
        }
        report(file, offset, kRuleEngineHotPath, token.message);
      }
    }
  }

  // (8) nondeterministic-iteration, src/ only: a range-for whose range
  // expression mentions an identifier declared anywhere in src/ with
  // an unordered container type. Hash iteration order varies across
  // libstdc++ versions and (for pointer keys) across runs, so any such
  // loop whose effects are order-sensitive breaks the §5.6 determinism
  // contract. Loops that are genuinely order-independent (or sort
  // before consuming) carry `// lint: ordered` on or above the `for`.
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
    const std::set<std::size_t> ordered = parse_ordered_lines(file.source);
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
        if (ordered.count(file.lines.line_of(offset)) != 0) break;
        report(file, offset, kRuleIteration,
               "range-for over unordered container `" + name +
                   "` has no deterministic order; iterate a sorted "
                   "copy, or annotate `// lint: ordered` when the "
                   "loop's effects are order-independent");
        break;
      }
    }
  }

  // (9) rng-discipline, everywhere except src/util/ (which implements
  // the seed-derived stream splitter everything else must use):
  // ambient entropy and wall-clock seeding make replay impossible.
  void check_rng(const FileContext& file) {
    if (file.rel.rfind("src/util/", 0) == 0) return;
    struct Token {
      const char* pattern;
      const char* message;
    };
    static const std::array<Token, 4> kTokens = {{
        {R"(\b(?:std::)?s?rand\s*\()",
         "C rand()/srand() is a hidden global stream; derive a "
         "util::rng stream from the run seed instead"},
        {R"(\bstd::random_device\b)",
         "std::random_device is ambient entropy and unreplayable; "
         "derive streams from the run seed (util::rng)"},
        {R"(\b(?:std::)?time\s*\(\s*(?:nullptr|NULL|0)\s*\))",
         "wall-clock seeding breaks fixed-seed replay; derive streams "
         "from the run seed (util::rng)"},
        {R"(\bstd::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|)"
         R"(ranlux24(?:_base)?|ranlux48(?:_base)?|knuth_b)\s+)"
         R"([A-Za-z_]\w*\s*(?:;|\{\s*\}|\(\s*\)))",
         "default-constructed random engine hides its seed; seed "
         "explicitly from the run seed (util::rng)"},
    }};
    const std::string& text = file.code;
    for (const auto& token : kTokens) {
      const std::regex re{token.pattern};
      for (auto it = std::cregex_iterator{text.data(),
                                          text.data() + text.size(), re};
           it != std::cregex_iterator{}; ++it) {
        report(file, static_cast<std::size_t>(it->position(0)), kRuleRng,
               token.message);
      }
    }
  }

  // (10) lock-annotation, src/ + tools/ + bench/: raw std lock types
  // are invisible to clang's -Wthread-safety analysis, so all
  // production locking goes through the annotated util::Mutex wrapper.
  // Tests are exempt (they drive scenarios, not guarded state);
  // src/util/mutex.hpp is the one allowed definition site.
  void check_locks(const FileContext& file) {
    const bool in_scope = file.rel.rfind("src/", 0) == 0 ||
                          file.rel.rfind("tools/", 0) == 0 ||
                          file.rel.rfind("bench/", 0) == 0;
    if (!in_scope || file.rel == "src/util/mutex.hpp") return;
    static const std::regex re{
        R"(\bstd::(?:mutex|recursive_mutex|timed_mutex|)"
        R"(recursive_timed_mutex|shared_mutex|shared_timed_mutex|)"
        R"(lock_guard|unique_lock|scoped_lock|)"
        R"(condition_variable(?:_any)?)\b)"};
    const std::string& text = file.code;
    for (auto it = std::cregex_iterator{text.data(),
                                        text.data() + text.size(), re};
         it != std::cregex_iterator{}; ++it) {
      report(file, static_cast<std::size_t>(it->position(0)), kRuleLocks,
             it->str() + " is invisible to clang thread-safety "
                         "analysis; use util::Mutex / util::MutexLock / "
                         "util::CondVar (util/mutex.hpp), or annotate "
                         "unavoidable std interop with "
                         "allow(lock-annotation)");
    }
  }

  // (11) module-layering, src/ only: `#include "<layer>/..."` edges
  // must stay inside the DAG pinned in tools/layers.def, so a
  // convenience include can never quietly invert a layer boundary.
  void load_layers() {
    if (!enabled(kRuleLayering)) return;
    const fs::path path = options_.root / kLayersPath;
    const auto content = read_file(path);
    if (!content) return;  // opt-in file; absent = rule skipped
    std::map<std::string, std::set<std::string, std::less<>>,
             std::less<>>
        layers;
    std::istringstream in{*content};
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      if (line.find_first_not_of(" \t") == std::string::npos) continue;
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) {
        result_.errors.push_back(
            path.generic_string() + ":" + std::to_string(line_no) +
            ": malformed layer line (want `<layer>: <dep>...`)");
        continue;
      }
      std::istringstream name_in{line.substr(0, colon)};
      std::string name;
      name_in >> name;
      std::istringstream deps{line.substr(colon + 1)};
      auto& into = layers[name];
      std::string dep;
      while (deps >> dep) into.insert(dep);
    }
    layers_ = std::move(layers);
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

  // --- baseline -------------------------------------------------------

  // Accepted-debt ledger: findings whose fingerprint is listed are
  // suppressed (counted, not printed); entries that match nothing are
  // stale and become findings themselves, so the ledger ratchets
  // toward empty instead of fossilising.
  void apply_baseline() {
    if (options_.baseline.empty()) return;
    const auto content = read_file(options_.baseline);
    if (!content) {
      result_.errors.push_back("cannot read baseline " +
                               options_.baseline.generic_string());
      return;
    }
    struct Entry {
      std::size_t line = 0;
      std::string print;
      std::string rule;
      std::string path;
      bool used = false;
    };
    std::vector<Entry> entries;
    std::istringstream in{*content};
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream fields{line};
      Entry entry;
      entry.line = line_no;
      if (!(fields >> entry.print)) continue;  // blank line
      if (!(fields >> entry.rule >> entry.path) ||
          entry.print.size() != 16 ||
          entry.print.find_first_not_of("0123456789abcdef") !=
              std::string::npos) {
        result_.errors.push_back(
            options_.baseline.generic_string() + ":" +
            std::to_string(line_no) +
            ": malformed baseline line (want `<fingerprint16> <rule> "
            "<path>`)");
        continue;
      }
      entries.push_back(std::move(entry));
    }
    std::vector<Finding> kept;
    kept.reserve(result_.findings.size());
    for (auto& finding : result_.findings) {
      bool suppressed = false;
      for (auto& entry : entries) {
        if (entry.print == finding.fingerprint) {
          entry.used = true;
          suppressed = true;
        }
      }
      if (suppressed) {
        ++result_.baseline_suppressed;
      } else {
        kept.push_back(std::move(finding));
      }
    }
    result_.findings = std::move(kept);
    const std::string rel = rel_of(options_.baseline);
    for (const auto& entry : entries) {
      if (entry.used) continue;
      result_.findings.push_back(
          {options_.baseline, entry.line, entry.rule,
           "baseline entry " + entry.print + " (" + entry.path +
               ") no longer matches any finding; delete the stale line",
           fingerprint(entry.rule, rel, "stale:" + entry.print)});
    }
  }

  // Registry entries nothing referenced: dead metrics/schemas drift
  // out of docs silently, so they are findings too.
  void finish_registries() {
    const auto flag_unused = [&](std::optional<Registry>& registry,
                                 std::string_view rule,
                                 std::string_view what) {
      if (!registry) return;
      for (const auto& entry : registry->entries) {
        if (entry.used) continue;
        result_.findings.push_back(
            {registry->file, entry.line, std::string{rule},
             std::string{what} + " \"" + entry.name +
                 "\" is registered but never used; delete the entry "
                 "or wire the instrumentation",
             fingerprint(rule, rel_of(registry->file),
                         entry.kind + " " + entry.name)});
      }
    };
    if (enabled(kRuleMetricNames)) {
      flag_unused(metric_registry_, kRuleMetricNames, "metric");
      flag_unused(trace_registry_, kRuleMetricNames, "trace event");
    }
    if (enabled(kRuleSchemaVersions)) {
      flag_unused(schema_registry_, kRuleSchemaVersions, "schema");
    }
  }

  // (4) exit-code-uniqueness: kExit* constants in tools/ must be
  // pairwise distinct and every value must appear (backticked) in the
  // README exit-code documentation.
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
    const fs::path registry_path = options_.root / kExitCodeRegistryPath;
    const auto registry_text = read_file(registry_path);
    if (!registry_text) return;
    struct RegistryCode {
      std::size_t line;
      std::string name;
      int value;
      bool used = false;
    };
    std::vector<RegistryCode> registered;
    std::size_t line_no = 0;
    std::istringstream lines{*registry_text};
    for (std::string line; std::getline(lines, line);) {
      ++line_no;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream fields{line};
      int value = 0;
      std::string name;
      if (!(fields >> value >> name)) continue;
      registered.push_back({line_no, name, value});
    }
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
               "delete the entry or restore the constant",
           fingerprint(kRuleExitCodes, rel_of(registry_path),
                       entry.name)});
    }
  }

  // (6) committed build artifacts: what `git ls-files` says is
  // tracked, filtered by check_tracked_paths. Best effort — outside a
  // git checkout the rule is silently skipped.
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
  std::optional<Registry> metric_registry_;
  std::optional<Registry> trace_registry_;
  std::optional<Registry> schema_registry_;
  /// Identifiers declared anywhere in src/ with an unordered container
  /// type (members, locals, params, accessor names).
  std::set<std::string, std::less<>> unordered_names_;
  /// tools/layers.def: layer -> allowed dependency layers. nullopt =
  /// no file, rule skipped.
  std::optional<std::map<std::string, std::set<std::string, std::less<>>,
                         std::less<>>>
      layers_;
  std::set<std::string, std::less<>> layers_missing_;
};

}  // namespace

std::vector<std::string_view> rule_names() {
  return {kRuleRawIo,         kRuleMetricNames,   kRuleSchemaVersions,
          kRuleExitCodes,     kRuleHeaderHygiene, kRuleBuildArtifacts,
          kRuleEngineHotPath, kRuleIteration,     kRuleRng,
          kRuleLocks,         kRuleLayering};
}

std::string_view rule_description(std::string_view rule) {
  if (rule == kRuleRawIo) {
    return "artifact writes route through util::write_file_atomic and "
           "src/ reads through the util::io fault shim";
  }
  if (rule == kRuleMetricNames) {
    return "metric and trace-event name literals match src/obs/"
           "metric_names.def / trace_names.def, both directions";
  }
  if (rule == kRuleSchemaVersions) {
    return "peerscope.<thing>/<n> schema strings match "
           "src/obs/schema_versions.def exactly";
  }
  if (rule == kRuleExitCodes) {
    return "kExit* constants in tools/ stay unique, README-documented, "
           "and pinned in tools/exit_codes.def";
  }
  if (rule == kRuleHeaderHygiene) {
    return "headers carry #pragma once and never using-namespace";
  }
  if (rule == kRuleBuildArtifacts) {
    return "build trees, objects, and generated databases are never "
           "committed";
  }
  if (rule == kRuleEngineHotPath) {
    return "no std::priority_queue or per-event heap allocation in "
           "src/sim and src/p2p (DESIGN.md section 14)";
  }
  if (rule == kRuleIteration) {
    return "range-for over an unordered container in src/ needs a "
           "`// lint: ordered` order-independence annotation";
  }
  if (rule == kRuleRng) {
    return "no rand()/std::random_device/wall-clock seeding or "
           "default-constructed engines outside src/util";
  }
  if (rule == kRuleLocks) {
    return "raw std lock types bypass the annotated util::Mutex "
           "wrapper that clang thread-safety analysis checks";
  }
  if (rule == kRuleLayering) {
    return "src/ #include edges stay inside the layer DAG pinned in "
           "tools/layers.def";
  }
  return {};
}

std::string fingerprint(std::string_view rule, std::string_view rel_path,
                        std::string_view key) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&hash](std::string_view text) {
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;  // FNV prime
    }
    hash *= 1099511628211ull;  // NUL separator (xor with 0 is a no-op)
  };
  mix(rule);
  mix(rel_path);
  mix(key);
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0;) {
    out[i] = "0123456789abcdef"[hash & 0xF];
    hash >>= 4;
  }
  return out;
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
      std::string print = fingerprint(kRuleBuildArtifacts, path, why);
      out.push_back({path, 0, std::string{kRuleBuildArtifacts},
                     std::move(why), std::move(print)});
    }
  }
  return out;
}

LintResult run(const Options& options) { return Linter{options}.run(); }

std::string to_sarif(const LintResult& result,
                     const std::filesystem::path& root) {
  std::string out;
  out +=
      "{\n"
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"peerscope-lint\",\n"
      "          \"rules\": [\n";
  const auto rules = rule_names();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out += "            {\"id\": ";
    json::append_string(out, rules[i]);
    out += ", \"shortDescription\": {\"text\": ";
    json::append_string(out, rule_description(rules[i]));
    out += "}}";
    out += i + 1 < rules.size() ? ",\n" : "\n";
  }
  out +=
      "          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [\n";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& finding = result.findings[i];
    std::error_code ec;
    std::filesystem::path rel =
        std::filesystem::relative(finding.file, root, ec);
    if (ec || rel.empty()) rel = finding.file;
    out += "        {\n          \"ruleId\": ";
    json::append_string(out, finding.rule);
    out += ",\n          \"level\": \"error\",\n";
    out += "          \"message\": {\"text\": ";
    json::append_string(out, finding.message);
    out += "},\n          \"partialFingerprints\": {\"peerscopeLint/v1\": ";
    json::append_string(out, finding.fingerprint);
    out += "},\n          \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": ";
    json::append_string(out, rel.generic_string());
    out += '}';
    if (finding.line != 0) {
      out += ", \"region\": {\"startLine\": ";
      json::append_number(out, finding.line);
      out += '}';
    }
    out += "}}]\n";
    out += i + 1 < result.findings.size() ? "        },\n"
                                          : "        }\n";
  }
  out +=
      "      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace peerscope::lint

// util::json, the one dialect of every PeerScope JSON artifact
// (DESIGN.md §9): the escaper and the flat reader agree on every byte,
// and a torn artifact reads as nullopt or as the exact value, never as
// a wrong one.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "exp/journal.hpp"
#include "obs/trace.hpp"
#include "obs/trace_summary.hpp"
#include "support/scratch_dir.hpp"
#include "util/io_faults.hpp"

namespace peerscope::util::json {
namespace {

std::filesystem::path temp_path(const std::string& name) {
  static const test::ScratchDir dir{"peerscope_json_test"};
  return dir / name;
}

std::string read_all(const std::filesystem::path& path) {
  auto bytes = io::read_file(path);
  std::filesystem::remove(path);
  return bytes.value_or("");
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in{text};
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// `read(doc, key)` has a value, and `read` of every proper prefix of
/// `doc` is nullopt or that same value.
template <typename Reader>
void expect_prefixes_never_lie(std::string_view doc, std::string_view key,
                               Reader read) {
  const auto whole = read(doc, key);
  ASSERT_TRUE(whole.has_value()) << key << " in " << doc;
  for (std::size_t n = 0; n < doc.size(); ++n) {
    const auto cut = read(doc.substr(0, n), key);
    if (cut) {
      EXPECT_EQ(*cut, *whole) << key << " in " << doc.substr(0, n);
    }
  }
}

TEST(Json, EveryByteRoundTripsThroughWriterAndReader) {
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
  for (std::size_t i = 0; i <= all.size(); ++i) {
    // Each byte alone, then all 256 together.
    const std::string value = i < all.size() ? all.substr(i, 1) : all;
    std::string doc = "{\"k\":";
    append_string(doc, value);
    doc += '}';
    for (const char c : doc) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
    }
    EXPECT_EQ(string_field(doc, "k"), value) << "byte " << i;
  }
}

TEST(Json, NumberFieldReadsOnlyJsonNumbers) {
  EXPECT_EQ(number_field(R"({"n": -1.5e3,"m":2})", "n"), -1500.0);
  EXPECT_EQ(number_field(R"({"n": -1.5e3,"m":2})", "m"), 2.0);
  for (const char* doc : {R"({"n":inf,})", R"({"n":nan,})", R"({"n":+1,})",
                          R"({"n":"1",})", R"({"n":12x})", R"({"n":-,})"}) {
    EXPECT_FALSE(number_field(doc, "n").has_value()) << doc;
  }
}

TEST(Json, EveryPrefixOfAJournalLineReadsNulloptOrExact) {
  const auto path = temp_path("experiment.journal");
  exp::journal_begin(path);
  exp::journal_append(path, {"TVAnts#seed=1", "failed", 12,
                             "bad \"quote\", back\\slash\nand\ttab", ""});
  exp::journal_append(path, {"PPLive#seed=42", "ok", 1, "", "a.result"});
  const std::vector<std::string> lines = lines_of(read_all(path));
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : {lines[1], lines[2]}) {
    expect_prefixes_never_lie(line, "spec", string_field);
    expect_prefixes_never_lie(line, "state", string_field);
    expect_prefixes_never_lie(line, "attempts", number_field);
  }
  expect_prefixes_never_lie(lines[1], "error", string_field);
  expect_prefixes_never_lie(lines[2], "artifact", string_field);
}

TEST(Json, EveryPrefixOfATraceLineReadsNulloptOrExact) {
  obs::TraceSnapshot snap;
  snap.dropped = 12;
  snap.events.push_back(
      {"run.App/q\"uo\\te", obs::TraceEventType::kBegin, 7, 999, 0});
  snap.events.push_back(
      {"ctl\x01name", obs::TraceEventType::kInstant, 3, 1'234'567, 0});
  snap.events.push_back(
      {"chunks", obs::TraceEventType::kCounter, 3, 12'345'678'901, -170});
  std::size_t event_lines = 0;
  for (const std::string& line : lines_of(obs::trace_json(snap))) {
    if (line.rfind("\"dropped\"", 0) == 0) {
      expect_prefixes_never_lie(line, "dropped", number_field);
    }
    if (line.rfind("{\"name\"", 0) != 0) continue;
    ++event_lines;
    expect_prefixes_never_lie(line, "name", string_field);
    expect_prefixes_never_lie(line, "ph", string_field);
    expect_prefixes_never_lie(line, "tid", number_field);
    expect_prefixes_never_lie(line, "ts", number_field);
    if (line.find("\"args\"") != std::string::npos) {
      expect_prefixes_never_lie(line, "value", number_field);
    }
  }
  EXPECT_EQ(event_lines, snap.events.size());
}

TEST(Json, TabInATraceEventNameReadsBackUnchanged) {
  obs::TraceSnapshot snap;
  snap.events.push_back(
      {"tab\there", obs::TraceEventType::kInstant, 0, 1'000, 0});
  const auto path = temp_path("trace.json");
  obs::write_trace_json(path, snap);
  const obs::TraceFile file = obs::read_trace_file(path);
  std::filesystem::remove(path);
  ASSERT_EQ(file.events.size(), 1u);
  EXPECT_EQ(file.events[0].name, "tab\there");
}

}  // namespace
}  // namespace peerscope::util::json

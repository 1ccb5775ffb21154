#include "obs/trace_summary.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/io_faults.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace peerscope::obs {

namespace {

namespace json = util::json;

constexpr std::string_view kTraceSchema = "peerscope.trace/1";

std::optional<TraceEventType> type_from_phase(const std::string& ph) {
  if (ph == "B") return TraceEventType::kBegin;
  if (ph == "E") return TraceEventType::kEnd;
  if (ph == "i") return TraceEventType::kInstant;
  if (ph == "C") return TraceEventType::kCounter;
  return std::nullopt;
}

}  // namespace

TraceFile read_trace_file(const std::filesystem::path& path) {
  const auto buf = util::io::read_file(path);
  if (!buf) {
    throw std::runtime_error("trace: cannot open " + path.string());
  }
  std::istringstream in{*buf};
  TraceFile file;
  std::string line;
  bool header_seen = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!header_seen && line.rfind("{\"schema\"", 0) == 0) {
      header_seen = true;
      file.schema = json::string_field(line, "schema").value_or("");
      if (!file.schema.empty() && file.schema != kTraceSchema) {
        throw std::runtime_error("trace: " + path.string() +
                                 " has schema \"" + file.schema +
                                 "\", expected \"" +
                                 std::string{kTraceSchema} + "\"");
      }
      continue;
    }
    if (line.rfind("\"dropped\"", 0) == 0) {
      if (const auto dropped = json::number_field(line, "dropped")) {
        file.dropped = static_cast<std::uint64_t>(*dropped);
      }
      continue;
    }
    if (line[0] != '{') continue;  // structural lines ("traceEvents", "]}")
    const auto name = json::string_field(line, "name");
    const auto ph = json::string_field(line, "ph");
    const auto tid = json::number_field(line, "tid");
    const auto ts = json::number_field(line, "ts");
    const auto type = ph ? type_from_phase(*ph) : std::nullopt;
    const auto value = type == TraceEventType::kCounter
                           ? json::number_field(line, "value")
                           : std::optional<double>{0.0};
    if (!name || !type || !tid || !ts || !value) {
      ++file.skipped_lines;  // torn or foreign event line: salvage on
      continue;
    }
    TraceEvent event;
    event.name = *name;
    event.type = *type;
    event.tid = static_cast<std::uint32_t>(*tid);
    event.ts_ns = std::llround(*ts * 1000.0);
    event.value = static_cast<std::int64_t>(*value);
    file.events.push_back(std::move(event));
  }
  return file;
}

std::vector<SpanAttribution> attribute_spans(
    const std::vector<TraceEvent>& events) {
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(events.size());
  for (const TraceEvent& event : events) {
    if (event.type == TraceEventType::kBegin ||
        event.type == TraceEventType::kEnd) {
      ordered.push_back(&event);
    }
  }
  // Events of one thread must replay chronologically; stable so equal
  // timestamps keep file order (outer B before nested B).
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     if (a->tid != b->tid) return a->tid < b->tid;
                     return a->ts_ns < b->ts_ns;
                   });

  struct Frame {
    const std::string* path;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Agg> by_path;
  std::vector<Frame> stack;
  std::uint32_t current_tid = 0;
  for (const TraceEvent* event : ordered) {
    if (!stack.empty() && event->tid != current_tid) stack.clear();
    current_tid = event->tid;
    if (event->type == TraceEventType::kBegin) {
      stack.push_back(Frame{&event->name, event->ts_ns, 0});
      continue;
    }
    // kEnd: match the nearest open frame with this path; frames above
    // it lost their E to a ring wrap or a dead run — discard them
    // unattributed instead of corrupting later pairs.
    std::size_t depth = stack.size();
    while (depth > 0 && *stack[depth - 1].path != event->name) --depth;
    if (depth == 0) continue;  // unmatched end
    stack.resize(depth);
    const Frame frame = stack.back();
    stack.pop_back();
    const std::int64_t duration = event->ts_ns - frame.start_ns;
    if (duration < 0) continue;
    Agg& agg = by_path[*frame.path];
    ++agg.count;
    agg.total_ns += duration;
    agg.self_ns += std::max<std::int64_t>(0, duration - frame.child_ns);
    if (!stack.empty()) stack.back().child_ns += duration;
  }

  std::vector<SpanAttribution> rows;
  rows.reserve(by_path.size());
  for (const auto& [path, agg] : by_path) {
    SpanAttribution row;
    row.path = path;
    row.app = path.substr(0, path.find('/'));
    row.count = agg.count;
    row.total_ns = agg.total_ns;
    row.self_ns = agg.self_ns;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string render_trace_summary(const std::vector<SpanAttribution>& rows,
                                 std::size_t top_n) {
  std::vector<const SpanAttribution*> sorted;
  sorted.reserve(rows.size());
  std::int64_t self_sum = 0;
  for (const SpanAttribution& row : rows) {
    sorted.push_back(&row);
    self_sum += row.self_ns;
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const SpanAttribution* a, const SpanAttribution* b) {
              if (a->self_ns != b->self_ns) return a->self_ns > b->self_ns;
              return a->path < b->path;
            });
  if (sorted.size() > top_n) sorted.resize(top_n);

  util::TextTable table{
      {"app", "span", "count", "total ms", "self ms", "self %"}};
  for (const SpanAttribution* row : sorted) {
    const double self_pct =
        self_sum > 0 ? 100.0 * static_cast<double>(row->self_ns) /
                           static_cast<double>(self_sum)
                     : 0.0;
    table.add_row({row->app, row->path, util::TextTable::count(row->count),
                   util::TextTable::num(
                       static_cast<double>(row->total_ns) / 1e6, 3),
                   util::TextTable::num(
                       static_cast<double>(row->self_ns) / 1e6, 3),
                   util::TextTable::num(self_pct, 1)});
  }
  return table.render();
}

std::vector<CounterAttribution> attribute_counters(
    const std::vector<TraceEvent>& events) {
  struct Agg {
    std::uint64_t samples = 0;
    std::int64_t last = 0;
    std::int64_t last_ts = 0;
    std::int64_t peak = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const TraceEvent& event : events) {
    if (event.type != TraceEventType::kCounter) continue;
    Agg& agg = by_name[event.name];
    ++agg.samples;
    // >= : equal timestamps resolve to the later file line, the
    // writer's emission order.
    if (agg.samples == 1 || event.ts_ns >= agg.last_ts) {
      agg.last = event.value;
      agg.last_ts = event.ts_ns;
    }
    agg.peak = std::max(agg.peak, event.value);
  }
  std::vector<CounterAttribution> rows;
  rows.reserve(by_name.size());
  for (const auto& [name, agg] : by_name) {
    rows.push_back(CounterAttribution{name, agg.samples, agg.last, agg.peak});
  }
  return rows;
}

std::string render_counter_summary(const std::vector<CounterAttribution>& rows,
                                   std::size_t top_n) {
  if (rows.empty()) return {};
  std::vector<const CounterAttribution*> sorted;
  sorted.reserve(rows.size());
  for (const CounterAttribution& row : rows) sorted.push_back(&row);
  std::sort(sorted.begin(), sorted.end(),
            [](const CounterAttribution* a, const CounterAttribution* b) {
              if (a->samples != b->samples) return a->samples > b->samples;
              return a->name < b->name;
            });
  if (sorted.size() > top_n) sorted.resize(top_n);
  util::TextTable table{{"counter", "samples", "last", "peak"}};
  for (const CounterAttribution* row : sorted) {
    table.add_row({row->name, util::TextTable::count(row->samples),
                   util::TextTable::count(
                       static_cast<std::uint64_t>(std::max<std::int64_t>(
                           0, row->last))),
                   util::TextTable::count(
                       static_cast<std::uint64_t>(std::max<std::int64_t>(
                           0, row->peak)))});
  }
  return table.render();
}

std::string deterministic_rendering(const TraceFile& file) {
  TraceSnapshot snapshot;
  snapshot.events = file.events;
  snapshot.dropped = file.dropped;
  return deterministic_trace(snapshot);
}

}  // namespace peerscope::obs

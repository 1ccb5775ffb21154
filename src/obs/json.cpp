#include "obs/json.hpp"

#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace peerscope::obs {

namespace {

using util::json::append_number;
using util::json::append_string;

template <typename Map, typename Fn>
void append_object(std::string& out, const char* key, const Map& map,
                   Fn&& value_fn) {
  out += "  ";
  append_string(out, key);
  out += ": {";
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) out += ',';
    first = false;
    out += "\n    ";
    append_string(out, name);
    out += ": ";
    value_fn(out, value);
  }
  if (!first) out += "\n  ";
  out += '}';
}

template <typename T>
void append_array(std::string& out, const std::vector<T>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    append_number(out, values[i]);
  }
  out += ']';
}

std::string render(const MetricsSnapshot& snapshot, bool deterministic) {
  std::string out;
  out += "{\n  \"schema\": \"peerscope.metrics/1\",\n";
  append_object(out, "counters", snapshot.counters,
                [](std::string& o, std::uint64_t v) { append_number(o, v); });
  out += ",\n";
  if (!deterministic) {
    append_object(out, "gauges", snapshot.gauges,
                  [](std::string& o, double v) { append_number(o, v); });
    out += ",\n";
  }
  append_object(
      out, "histograms", snapshot.histograms,
      [deterministic](std::string& o, const HistogramSnapshot& h) {
        if (deterministic && h.timing) {
          // Wall-clock samples: the key documents the histogram ran,
          // the contents would not be reproducible.
          o += "{\"timing\": true}";
          return;
        }
        o += "{\"bounds\": ";
        append_array(o, h.bounds);
        o += ", \"buckets\": ";
        append_array(o, h.buckets);
        o += ", \"count\": ";
        append_number(o, h.count);
        o += ", \"sum\": ";
        append_number(o, h.sum);
        if (h.timing) o += ", \"timing\": true";
        o += '}';
      });
  out += ",\n";
  append_object(out, "spans", snapshot.spans,
                [deterministic](std::string& o, const SpanStats& s) {
                  o += "{\"count\": ";
                  append_number(o, s.count);
                  if (!deterministic) {
                    o += ", \"total_ns\": ";
                    append_number(o, s.total_ns);
                    o += ", \"min_ns\": ";
                    append_number(o, s.min_ns);
                    o += ", \"max_ns\": ";
                    append_number(o, s.max_ns);
                  }
                  o += '}';
                });
  out += "\n}\n";
  return out;
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot) {
  return render(snapshot, false);
}

std::string deterministic_json(const MetricsSnapshot& snapshot) {
  return render(snapshot, true);
}

void write_metrics_json(const std::filesystem::path& path,
                        const MetricsSnapshot& snapshot, bool deterministic) {
  const std::string text =
      deterministic ? deterministic_json(snapshot) : to_json(snapshot);
  // Atomic rename so a sidecar scraped mid-run (or left by a killed
  // process) is always a complete JSON document.
  util::write_file_atomic(path, text);
}

}  // namespace peerscope::obs

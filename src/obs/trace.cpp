#include "obs/trace.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <map>
#include <thread>

#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace peerscope::obs {

// One ring per recording thread. slots/written/name_cache are touched
// only by the owning thread on the hot path; flush and the flight-
// recorder tail run under the recorder mutex but are always invoked
// *by the owning thread*, so there is never a cross-thread access to
// a ring — the mutex only protects the shared structures (buffer
// registry, name table, central store). The rings are deliberately
// NOT PS_GUARDED_BY the mutex: they are thread-hostile by design, and
// the `owner` check below (free under NDEBUG) enforces the owner-only
// contract the annotations cannot express.
struct TraceRecorder::ThreadBuffer {
  struct Slot {
    std::uint32_t name_id = 0;
    TraceEventType type = TraceEventType::kInstant;
    std::int64_t ts_ns = 0;
    std::int64_t value = 0;
  };

  ThreadBuffer(std::size_t capacity, std::uint32_t thread_index)
      : slots(capacity), tid(thread_index) {}

  std::vector<Slot> slots;
  /// Events written since the last flush; the ring holds the newest
  /// min(written, capacity) of them.
  std::uint64_t written = 0;
  std::uint32_t tid;
  /// The only thread allowed to touch this ring (debug-checked).
  std::thread::id owner = std::this_thread::get_id();
  /// Owner-thread cache of the recorder-wide name table, so the hot
  /// path interns without taking the mutex.
  std::map<std::string, std::uint32_t, std::less<>> name_cache;
};

struct TraceRecorder::Impl {
  TraceConfig config;                         // set once in the ctor
  std::chrono::steady_clock::time_point epoch;  // likewise
  util::Mutex mutex;
  // deque: stable addresses
  std::deque<ThreadBuffer> buffers PS_GUARDED_BY(mutex);
  std::map<std::thread::id, ThreadBuffer*> by_thread PS_GUARDED_BY(mutex);
  std::vector<std::string> names PS_GUARDED_BY(mutex);
  std::map<std::string, std::uint32_t, std::less<>> name_ids
      PS_GUARDED_BY(mutex);
  std::vector<TraceEvent> drained PS_GUARDED_BY(mutex);
  std::uint64_t drained_dropped PS_GUARDED_BY(mutex) = 0;

  std::uint64_t flush_locked(ThreadBuffer& buffer) PS_REQUIRES(mutex);
};

namespace {

std::atomic<TraceRecorder*> g_tracer{nullptr};

// Bumped on every install/uninstall so a cached ring pointer can
// never outlive the install it was resolved under — a fresh recorder
// reusing a freed recorder's address invalidates stale caches too.
std::atomic<std::uint64_t> g_generation{0};

struct TlsCache {
  std::uint64_t generation = 0;
  void* buffer = nullptr;  // TraceRecorder::ThreadBuffer (private type)
};
thread_local TlsCache t_cache;

}  // namespace

void install_tracer(TraceRecorder* recorder) noexcept {
  g_generation.fetch_add(1, std::memory_order_relaxed);
  g_tracer.store(recorder, std::memory_order_release);
}

TraceRecorder* tracer() noexcept {
  return g_tracer.load(std::memory_order_acquire);
}

TraceRecorder::TraceRecorder(TraceConfig config) : impl_(new Impl) {
  impl_->config = config;
  if (impl_->config.ring_capacity == 0) impl_->config.ring_capacity = 1;
  impl_->epoch = std::chrono::steady_clock::now();
}

TraceRecorder::~TraceRecorder() { delete impl_; }

TraceRecorder::ThreadBuffer* TraceRecorder::cached_buffer() noexcept {
  return t_cache.generation == g_generation.load(std::memory_order_relaxed)
             ? static_cast<ThreadBuffer*>(t_cache.buffer)
             : nullptr;
}

TraceRecorder::ThreadBuffer& TraceRecorder::buffer_for_this_thread() {
  util::MutexLock lock{impl_->mutex};
  const std::thread::id id = std::this_thread::get_id();
  ThreadBuffer* buffer;
  const auto it = impl_->by_thread.find(id);
  if (it != impl_->by_thread.end()) {
    buffer = it->second;
  } else {
    buffer = &impl_->buffers.emplace_back(
        impl_->config.ring_capacity,
        static_cast<std::uint32_t>(impl_->buffers.size()));
    impl_->by_thread.emplace(id, buffer);
  }
  // Only the installed recorder may own the thread-local cache; a
  // Span closing against an already-uninstalled recorder stays on
  // this slow path.
  if (g_tracer.load(std::memory_order_relaxed) == this) {
    t_cache.generation = g_generation.load(std::memory_order_relaxed);
    t_cache.buffer = buffer;
  }
  return *buffer;
}

std::uint32_t TraceRecorder::intern(std::string_view name) {
  util::MutexLock lock{impl_->mutex};
  const auto it = impl_->name_ids.find(name);
  if (it != impl_->name_ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(impl_->names.size());
  impl_->names.emplace_back(name);
  impl_->name_ids.emplace(std::string{name}, id);
  return id;
}

void TraceRecorder::record(TraceEventType type, std::string_view name,
                           std::int64_t value) {
  ThreadBuffer* buffer = cached_buffer();
  if (buffer == nullptr) buffer = &buffer_for_this_thread();
  assert(buffer->owner == std::this_thread::get_id());
  std::uint32_t name_id;
  const auto cached = buffer->name_cache.find(name);
  if (cached != buffer->name_cache.end()) {
    name_id = cached->second;
  } else {
    name_id = intern(name);
    buffer->name_cache.emplace(std::string{name}, name_id);
  }
  ThreadBuffer::Slot& slot =
      buffer->slots[buffer->written % buffer->slots.size()];
  slot.name_id = name_id;
  slot.type = type;
  slot.ts_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - impl_->epoch)
                   .count();
  slot.value = value;
  ++buffer->written;
}

void TraceRecorder::begin(std::string_view path) {
  record(TraceEventType::kBegin, path, 0);
}

void TraceRecorder::end(std::string_view path) {
  record(TraceEventType::kEnd, path, 0);
}

void TraceRecorder::instant(std::string_view name) {
  record(TraceEventType::kInstant, name, 0);
}

void TraceRecorder::counter(std::string_view name, std::int64_t value) {
  record(TraceEventType::kCounter, name, value);
}

std::uint64_t TraceRecorder::Impl::flush_locked(ThreadBuffer& buffer) {
  assert(buffer.owner == std::this_thread::get_id());
  const std::uint64_t capacity = buffer.slots.size();
  const std::uint64_t dropped =
      buffer.written > capacity ? buffer.written - capacity : 0;
  for (std::uint64_t i = dropped; i < buffer.written; ++i) {
    const ThreadBuffer::Slot& slot = buffer.slots[i % capacity];
    drained.push_back(TraceEvent{names[slot.name_id], slot.type,
                                 buffer.tid, slot.ts_ns, slot.value});
  }
  drained_dropped += dropped;
  buffer.written = 0;
  return dropped;
}

void TraceRecorder::flush_current_thread() {
  std::uint64_t dropped = 0;
  {
    util::MutexLock lock{impl_->mutex};
    const auto it = impl_->by_thread.find(std::this_thread::get_id());
    if (it == impl_->by_thread.end()) return;
    dropped = impl_->flush_locked(*it->second);
  }
  // Mirrored into metrics only when something was actually lost, so a
  // traced run with zero drops leaves metrics.json byte-identical to
  // an untraced one.
  if (dropped > 0) {
    PEERSCOPE_METRIC_ADD("obs.trace_events_dropped", dropped);
  }
}

std::vector<TraceEvent> TraceRecorder::recent_events(std::size_t max_events) {
  std::vector<TraceEvent> tail;
  util::MutexLock lock{impl_->mutex};
  const auto it = impl_->by_thread.find(std::this_thread::get_id());
  if (it == impl_->by_thread.end()) return tail;
  const ThreadBuffer& buffer = *it->second;
  const std::uint64_t capacity = buffer.slots.size();
  const std::uint64_t retained = std::min(buffer.written, capacity);
  const std::uint64_t take =
      std::min(retained, static_cast<std::uint64_t>(max_events));
  tail.reserve(take);
  for (std::uint64_t i = buffer.written - take; i < buffer.written; ++i) {
    const ThreadBuffer::Slot& slot = buffer.slots[i % capacity];
    tail.push_back(TraceEvent{impl_->names[slot.name_id], slot.type,
                              buffer.tid, slot.ts_ns, slot.value});
  }
  return tail;
}

TraceSnapshot TraceRecorder::snapshot() {
  flush_current_thread();
  TraceSnapshot snap;
  util::MutexLock lock{impl_->mutex};
  snap.events = impl_->drained;
  snap.dropped = impl_->drained_dropped;
  return snap;
}

void trace_instant(std::string_view name) {
  if (TraceRecorder* recorder = tracer()) recorder->instant(name);
}

void trace_counter(std::string_view name, std::int64_t value) {
  if (TraceRecorder* recorder = tracer()) recorder->counter(name, value);
}

void trace_flush() {
  if (TraceRecorder* recorder = tracer()) recorder->flush_current_thread();
}

namespace {

using util::json::append_number;

// Microseconds with nanosecond precision, rendered with integer math
// so the text is locale-independent and exact.
void append_ts_us(std::string& out, std::int64_t ts_ns) {
  append_number(out, ts_ns / 1000);
  char buf[8];
  std::snprintf(buf, sizeof buf, ".%03" PRId64, ts_ns % 1000);
  out += buf;
}

const char* phase_letter(TraceEventType type) {
  switch (type) {
    case TraceEventType::kBegin:
      return "B";
    case TraceEventType::kEnd:
      return "E";
    case TraceEventType::kInstant:
      return "i";
    case TraceEventType::kCounter:
      return "C";
  }
  return "i";
}

}  // namespace

std::string trace_json(const TraceSnapshot& snapshot) {
  std::string out;
  out.reserve(64 + snapshot.events.size() * 96);
  out += "{\"schema\": \"peerscope.trace/1\",\n";
  out += "\"displayTimeUnit\": \"ms\",\n";
  out += "\"dropped\": ";
  append_number(out, snapshot.dropped);
  out += ",\n\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& event : snapshot.events) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\": ";
    util::json::append_string(out, event.name);
    out += ", \"ph\": \"";
    out += phase_letter(event.type);
    out += "\", \"pid\": 1, \"tid\": ";
    append_number(out, event.tid);
    out += ", \"ts\": ";
    append_ts_us(out, event.ts_ns);
    if (event.type == TraceEventType::kInstant) {
      out += ", \"s\": \"t\"";
    } else if (event.type == TraceEventType::kCounter) {
      out += ", \"args\": {\"value\": ";
      append_number(out, event.value);
      out += '}';
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

std::string deterministic_trace(const TraceSnapshot& snapshot) {
  struct SpanCounts {
    std::uint64_t begins = 0;
    std::uint64_t ends = 0;
  };
  struct CounterCounts {
    std::uint64_t count = 0;
    std::int64_t sum = 0;
  };
  std::map<std::string, SpanCounts> spans;
  std::map<std::string, std::uint64_t> instants;
  std::map<std::string, CounterCounts> counters;
  for (const TraceEvent& event : snapshot.events) {
    switch (event.type) {
      case TraceEventType::kBegin:
        ++spans[event.name].begins;
        break;
      case TraceEventType::kEnd:
        ++spans[event.name].ends;
        break;
      case TraceEventType::kInstant:
        ++instants[event.name];
        break;
      case TraceEventType::kCounter: {
        CounterCounts& c = counters[event.name];
        ++c.count;
        c.sum += event.value;
        break;
      }
    }
  }
  std::string out;
  out += "peerscope.trace/1 deterministic\n";
  out += "dropped ";
  append_number(out, snapshot.dropped);
  out += '\n';
  for (const auto& [name, c] : spans) {
    out += "span " + name + " begin ";
    append_number(out, c.begins);
    out += " end ";
    append_number(out, c.ends);
    out += '\n';
  }
  for (const auto& [name, count] : instants) {
    out += "instant " + name + " count ";
    append_number(out, count);
    out += '\n';
  }
  for (const auto& [name, c] : counters) {
    out += "counter " + name + " count ";
    append_number(out, c.count);
    out += " sum ";
    append_number(out, c.sum);
    out += '\n';
  }
  return out;
}

void write_trace_json(const std::filesystem::path& path,
                      const TraceSnapshot& snapshot) {
  util::write_file_atomic(path, trace_json(snapshot));
}

}  // namespace peerscope::obs

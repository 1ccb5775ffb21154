#include "util/io_faults.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

// The one sanctioned edge below util in the layer DAG: the fault shim
// reports injections through the obs hooks (relaxed load + branch
// when no registry is installed), which is cheaper than an spmc
// callback indirection and keeps injection counts in the same export
// as everything else. tools/layers.def deliberately omits it so any
// new util -> obs include still fails the module-layering rule.
#include "obs/metrics.hpp"  // peerscope-lint: allow(module-layering)
#include "obs/trace.hpp"    // peerscope-lint: allow(module-layering)
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace peerscope::util::io {

namespace {

// Operation classes a fault kind can attach to. A fault is matched
// only against calls of its class, so `enospc:journal` never bleeds
// into a read and `short-read` never delays a rename.
enum class Op : std::uint8_t { kWrite, kFsync, kRename, kRead };

[[nodiscard]] constexpr Op op_of(FaultKind kind) {
  switch (kind) {
    case FaultKind::kShortWrite:
    case FaultKind::kEnospc:
    case FaultKind::kBitFlip:
      return Op::kWrite;
    case FaultKind::kFsyncFail:
      return Op::kFsync;
    case FaultKind::kRenameFail:
      return Op::kRename;
    case FaultKind::kShortRead:
      return Op::kRead;
    case FaultKind::kEintr:
      // EINTR storms hit both directions; handled specially in match.
      return Op::kWrite;
  }
  return Op::kWrite;
}

struct ArmedFault {
  FaultSpec spec;
  std::uint32_t remaining = 1;  // fires when a match drives this to 0
  bool spent = false;
};

// A path condemned by an injected ENOSPC: writes landing past `limit`
// fail for the rest of the process. A full disk does not un-fill
// because the caller retried, and write_file_atomic's retry loop
// would otherwise defeat a one-shot failure.
struct CondemnedPath {
  std::string path;
  std::uint64_t limit = 0;
};

struct State {
  Mutex mu;
  std::vector<ArmedFault> armed PS_GUARDED_BY(mu);
  std::vector<CondemnedPath> condemned PS_GUARDED_BY(mu);
  std::uint64_t rng PS_GUARDED_BY(mu) = 0;
  // storm consumed by subsequent calls
  std::uint32_t eintr_pending PS_GUARDED_BY(mu) = 0;
  FaultCounters counters PS_GUARDED_BY(mu);
};

State& state() {
  static State s;
  return s;
}

std::atomic<bool> g_enabled{false};

// splitmix64 — tiny, seedable, and plenty for picking corruption
// sites; statistical quality is irrelevant here.
std::uint64_t next_rand(State& s) PS_REQUIRES(s.mu) {
  std::uint64_t z = (s.rng += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool path_matches(const FaultSpec& spec, const std::filesystem::path& path) {
  return spec.path_substr.empty() ||
         path.native().find(spec.path_substr) != std::string::npos;
}

// Finds the first unspent fault of `kind` eligible for this call,
// honouring each candidate's #nth countdown. Returns nullptr when
// nothing fires.
ArmedFault* match(State& s, FaultKind kind,
                  const std::filesystem::path& path) PS_REQUIRES(s.mu) {
  for (ArmedFault& f : s.armed) {
    if (f.spent || f.spec.kind != kind || !path_matches(f.spec, path)) {
      continue;
    }
    if (--f.remaining > 0) {
      continue;
    }
    f.spent = true;
    return &f;
  }
  return nullptr;
}

void note_injection(State& s, const FaultSpec& spec) PS_REQUIRES(s.mu) {
  ++s.counters.injected;
  PEERSCOPE_METRIC_ADD("io.faults_injected", 1);
  PEERSCOPE_TRACE_INSTANT("io.fault_injected");
  (void)spec;
}

[[nodiscard]] std::uint64_t parse_uint(std::string_view text,
                                       std::string_view clause) {
  if (text.empty()) {
    throw std::invalid_argument("io-faults: empty number in clause '" +
                                std::string(clause) + "'");
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("io-faults: bad number '" +
                                  std::string(text) + "' in clause '" +
                                  std::string(clause) + "'");
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

[[nodiscard]] FaultKind parse_kind(std::string_view token,
                                   std::string_view clause) {
  if (token == "short-read") return FaultKind::kShortRead;
  if (token == "short-write") return FaultKind::kShortWrite;
  if (token == "eintr") return FaultKind::kEintr;
  if (token == "enospc") return FaultKind::kEnospc;
  if (token == "fsync-fail") return FaultKind::kFsyncFail;
  if (token == "rename-fail") return FaultKind::kRenameFail;
  if (token == "bitflip") return FaultKind::kBitFlip;
  throw std::invalid_argument("io-faults: unknown fault kind in clause '" +
                              std::string(clause) + "'");
}

[[nodiscard]] FaultSpec parse_clause(std::string_view clause) {
  FaultSpec spec;
  const std::size_t kind_end = clause.find_first_of("@#:");
  spec.kind = parse_kind(clause.substr(0, kind_end), clause);
  std::string_view rest =
      kind_end == std::string_view::npos ? std::string_view{}
                                         : clause.substr(kind_end);
  while (!rest.empty()) {
    const char tag = rest.front();
    rest.remove_prefix(1);
    if (tag == ':') {
      // Path substring is always last: it may contain any character.
      if (rest.empty()) {
        throw std::invalid_argument(
            "io-faults: empty path filter in clause '" + std::string(clause) +
            "'");
      }
      spec.path_substr = std::string(rest);
      break;
    }
    const std::size_t end = rest.find_first_of("@#:");
    const std::string_view number = rest.substr(0, end);
    rest = end == std::string_view::npos ? std::string_view{}
                                         : rest.substr(end);
    if (tag == '@') {
      spec.offset = parse_uint(number, clause);
    } else {  // '#'
      const std::uint64_t nth = parse_uint(number, clause);
      if (nth == 0 || nth > std::numeric_limits<std::uint32_t>::max()) {
        throw std::invalid_argument("io-faults: #nth out of range in clause '" +
                                    std::string(clause) + "'");
      }
      spec.nth = static_cast<std::uint32_t>(nth);
    }
  }
  return spec;
}

ssize_t raw_write(int fd, const char* data, std::size_t n) {
  return ::write(fd, data, n);
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view spec, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    std::string_view clause = spec.substr(
        pos, comma == std::string_view::npos ? spec.size() - pos : comma - pos);
    // Trim surrounding whitespace so "a, b" parses like "a,b".
    while (!clause.empty() && clause.front() == ' ') clause.remove_prefix(1);
    while (!clause.empty() && clause.back() == ' ') clause.remove_suffix(1);
    if (!clause.empty()) {
      plan.faults.push_back(parse_clause(clause));
    }
    if (comma == std::string_view::npos) {
      break;
    }
    pos = comma + 1;
  }
  if (plan.faults.empty()) {
    throw std::invalid_argument("io-faults: empty fault schedule");
  }
  return plan;
}

void install_faults(FaultPlan plan) {
  State& s = state();
  MutexLock lock{s.mu};
  s.armed.clear();
  for (FaultSpec& spec : plan.faults) {
    ArmedFault armed;
    armed.remaining = spec.nth;
    armed.spec = std::move(spec);
    s.armed.push_back(std::move(armed));
  }
  s.condemned.clear();
  s.rng = plan.seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull;
  s.eintr_pending = 0;
  s.counters = FaultCounters{};
  g_enabled.store(!s.armed.empty(), std::memory_order_relaxed);
}

void clear_faults() {
  State& s = state();
  MutexLock lock{s.mu};
  s.armed.clear();
  s.condemned.clear();
  s.eintr_pending = 0;
  g_enabled.store(false, std::memory_order_relaxed);
}

bool faults_enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

FaultCounters fault_counters() {
  State& s = state();
  MutexLock lock{s.mu};
  return s.counters;
}

ssize_t write_some(int fd, const char* data, std::size_t n,
                   std::uint64_t file_offset,
                   const std::filesystem::path& path) {
  if (!faults_enabled()) {
    return raw_write(fd, data, n);
  }
  State& s = state();
  MutexLock lock{s.mu};

  // A pending EINTR storm swallows calls before any new fault can arm.
  if (s.eintr_pending > 0) {
    --s.eintr_pending;
    ++s.counters.eintr_retries;
    PEERSCOPE_METRIC_ADD("io.eintr_retries", 1);
    errno = EINTR;
    return -1;
  }

  // Sticky disk-full: once a path is condemned at byte L, writes
  // reaching L fail forever and writes crossing it land short.
  for (const CondemnedPath& c : s.condemned) {
    if (path.native() != c.path) {
      continue;
    }
    if (file_offset >= c.limit) {
      ++s.counters.enospc_failures;
      PEERSCOPE_METRIC_ADD("io.enospc_failures", 1);
      errno = ENOSPC;
      return -1;
    }
    if (file_offset + n > c.limit) {
      return raw_write(fd, data, static_cast<std::size_t>(c.limit - file_offset));
    }
  }

  if (ArmedFault* f = match(s, FaultKind::kEintr, path)) {
    note_injection(s, f->spec);
    // @offset doubles as the storm length; this call consumes one.
    const std::uint64_t storm = std::max<std::uint64_t>(1, f->spec.offset.value_or(3));
    s.eintr_pending = static_cast<std::uint32_t>(storm - 1);
    ++s.counters.eintr_retries;
    PEERSCOPE_METRIC_ADD("io.eintr_retries", 1);
    errno = EINTR;
    return -1;
  }

  if (ArmedFault* f = match(s, FaultKind::kEnospc, path)) {
    note_injection(s, f->spec);
    ++s.counters.enospc_failures;
    PEERSCOPE_METRIC_ADD("io.enospc_failures", 1);
    const std::uint64_t limit =
        f->spec.offset.value_or(file_offset + next_rand(s) % (n + 1));
    s.condemned.push_back({path.native(), limit});
    if (file_offset >= limit) {
      errno = ENOSPC;
      return -1;
    }
    const std::uint64_t room = limit - file_offset;
    return raw_write(fd, data, static_cast<std::size_t>(std::min<std::uint64_t>(room, n)));
  }

  if (ArmedFault* f = match(s, FaultKind::kShortWrite, path)) {
    note_injection(s, f->spec);
    ++s.counters.short_writes;
    PEERSCOPE_METRIC_ADD("io.short_writes", 1);
    const std::size_t keep = std::max<std::size_t>(
        1, f->spec.offset ? static_cast<std::size_t>(std::min<std::uint64_t>(
                                *f->spec.offset, n))
                          : n / 2);
    return raw_write(fd, data, keep);
  }

  // Bit flips stay armed until the write covering the target byte
  // arrives; an unset offset resolves to a seeded bit of this write.
  for (ArmedFault& f : s.armed) {
    if (f.spent || f.spec.kind != FaultKind::kBitFlip ||
        !path_matches(f.spec, path)) {
      continue;
    }
    if (!f.spec.offset) {
      f.spec.offset = file_offset * 8 + next_rand(s) % (n * 8);
    }
    const std::uint64_t byte = *f.spec.offset / 8;
    if (byte < file_offset || byte >= file_offset + n) {
      continue;
    }
    if (--f.remaining > 0) {
      continue;
    }
    f.spent = true;
    note_injection(s, f.spec);
    ++s.counters.bitflips;
    PEERSCOPE_METRIC_ADD("io.bitflips", 1);
    std::string corrupted(data, n);
    corrupted[static_cast<std::size_t>(byte - file_offset)] ^=
        static_cast<char>(1u << (*f.spec.offset % 8));
    return raw_write(fd, corrupted.data(), n);
  }

  return raw_write(fd, data, n);
}

int fsync_file(int fd, const std::filesystem::path& path) {
  if (faults_enabled()) {
    State& s = state();
    MutexLock lock{s.mu};
    if (ArmedFault* f = match(s, FaultKind::kFsyncFail, path)) {
      note_injection(s, f->spec);
      ++s.counters.fsync_failures;
      PEERSCOPE_METRIC_ADD("io.fsync_failures", 1);
      errno = EIO;
      return -1;
    }
  }
  return ::fsync(fd);
}

int rename_file(const std::filesystem::path& from,
                const std::filesystem::path& to) {
  if (faults_enabled()) {
    State& s = state();
    MutexLock lock{s.mu};
    // Match on the destination — that is the name schedules know.
    if (ArmedFault* f = match(s, FaultKind::kRenameFail, to)) {
      note_injection(s, f->spec);
      ++s.counters.rename_failures;
      PEERSCOPE_METRIC_ADD("io.rename_failures", 1);
      errno = EIO;
      return -1;
    }
  }
  return ::rename(from.c_str(), to.c_str());
}

std::optional<std::string> read_file(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return std::nullopt;
  }
  // Sized from fstat, a regular file lands in one allocation; a file
  // that is not regular or that grows while it is read still appends.
  std::string buf;
  struct stat st{};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    buf.reserve(static_cast<std::size_t>(st.st_size));
  }
  char chunk[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      return std::nullopt;
    }
    if (got == 0) {
      break;
    }
    buf.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);

  if (faults_enabled()) {
    State& s = state();
    MutexLock lock{s.mu};
    // An armed EINTR storm also covers reads: model the interrupted
    // retries the slurp loop above would have absorbed.
    if (ArmedFault* f = match(s, FaultKind::kEintr, path)) {
      note_injection(s, f->spec);
      const std::uint64_t storm = std::max<std::uint64_t>(1, f->spec.offset.value_or(3));
      s.counters.eintr_retries += storm;
      PEERSCOPE_METRIC_ADD("io.eintr_retries", storm);
    }
    if (ArmedFault* f = match(s, FaultKind::kShortRead, path)) {
      note_injection(s, f->spec);
      ++s.counters.short_reads;
      PEERSCOPE_METRIC_ADD("io.short_reads", 1);
      const std::uint64_t keep = f->spec.offset.value_or(buf.size() / 2);
      if (keep < buf.size()) {
        buf.resize(static_cast<std::size_t>(keep));
      }
    }
  }
  return buf;
}

}  // namespace peerscope::util::io

#include "exp/status.hpp"

#include <iostream>
#include <stdexcept>
#include <utility>

#include "exp/supervisor.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace peerscope::exp {

namespace {

namespace json = util::json;

const char* state_label(int state) {
  switch (state) {
    case LiveRun::kPending:
      return "pending";
    case LiveRun::kRunning:
      return "running";
    default:
      return to_string(static_cast<RunState>(state));
  }
}

}  // namespace

StatusReporter::StatusReporter(std::filesystem::path path,
                               std::chrono::milliseconds poll)
    : path_(std::move(path)), poll_(poll) {
  if (poll_.count() < 1) poll_ = std::chrono::milliseconds{1};
}

StatusReporter::~StatusReporter() { stop(); }

LiveRun& StatusReporter::add_run(std::string spec_id,
                                 double run_duration_s) {
  if (started_) {
    throw std::logic_error("StatusReporter: add_run after start");
  }
  return runs_.emplace_back(std::move(spec_id), run_duration_s);
}

void StatusReporter::start() {
  if (started_) return;
  started_ = true;
  baselines_.assign(runs_.size(), Baseline{});
  try {
    util::write_file_atomic(path_, render("running"), /*durable=*/false);
  } catch (const std::exception& error) {
    // Status is advisory: a broken status path must not kill the batch.
    std::cerr << "status: cannot write " << path_.string() << ": "
              << error.what() << '\n';
  }
  thread_ = std::thread([this] { run(); });
}

void StatusReporter::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  started_ = false;
  try {
    util::write_file_atomic(path_, render("done"), /*durable=*/false);
  } catch (const std::exception& error) {
    std::cerr << "status: cannot write " << path_.string() << ": "
              << error.what() << '\n';
  }
}

void StatusReporter::run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(poll_);
    if (stop_.load(std::memory_order_relaxed)) break;
    try {
      util::write_file_atomic(path_, render("running"), /*durable=*/false);
    } catch (const std::exception&) {
      // Transient (io_faults, full disk): the next tick retries.
    }
  }
}

std::string StatusReporter::render(std::string_view phase) {
  const auto now = std::chrono::steady_clock::now();
  std::string out = "{\"schema\":";
  json::append_string(out, kStatusSchema);
  out += ",\"phase\":";
  json::append_string(out, phase);
  out += ",\"runs\":[";
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    LiveRun& live = runs_[i];
    Baseline& base = baselines_[i];
    const int state = live.state.load(std::memory_order_acquire);
    const std::uint64_t events =
        live.progress.events.load(std::memory_order_relaxed);
    const std::int64_t sim_ns =
        live.progress.sim_time_ns.load(std::memory_order_relaxed);
    // Rates come from deltas between renders; an attempt restart
    // (progress reset) shows up as a backwards step and re-primes.
    if (base.primed && events >= base.events && sim_ns >= base.sim_ns) {
      const double dt = std::chrono::duration<double>(now - base.at).count();
      if (dt > 0) {
        base.events_per_s =
            static_cast<double>(events - base.events) / dt;
        base.sim_rate =
            static_cast<double>(sim_ns - base.sim_ns) / 1e9 / dt;
      }
    } else {
      base.events_per_s = 0;
      base.sim_rate = 0;
    }
    base.events = events;
    base.sim_ns = sim_ns;
    base.at = now;
    base.primed = true;

    double eta_s = -1;
    if (state == LiveRun::kRunning && base.sim_rate > 0 &&
        live.duration_s > 0) {
      const double remaining =
          live.duration_s - static_cast<double>(sim_ns) / 1e9;
      eta_s = remaining > 0 ? remaining / base.sim_rate : 0;
    }

    if (i > 0) out += ',';
    out += "{\"spec\":";
    json::append_string(out, live.spec);
    out += ",\"state\":";
    json::append_string(out, state_label(state));
    out += ",\"attempts\":";
    json::append_number(out, live.attempts.load(std::memory_order_relaxed));
    out += ",\"events\":";
    json::append_number(out, events);
    out += ",\"sim_time_s\":";
    json::append_fixed(out, static_cast<double>(sim_ns) / 1e9, 3);
    out += ",\"events_per_s\":";
    json::append_fixed(out, base.events_per_s, 3);
    out += ",\"eta_s\":";
    json::append_fixed(out, eta_s, 3);
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::optional<StatusView> parse_status(std::string_view doc) {
  if (json::string_field(doc, "schema") != kStatusSchema) return std::nullopt;
  StatusView view;
  const auto phase = json::string_field(doc, "phase");
  const auto runs = json::object_elements(doc, "runs");
  if (!phase || !runs) return std::nullopt;
  view.phase = *phase;
  for (const std::string_view entry : *runs) {
    const auto spec = json::string_field(entry, "spec");
    const auto state = json::string_field(entry, "state");
    const auto attempts = json::number_field(entry, "attempts");
    const auto events = json::number_field(entry, "events");
    const auto sim_time_s = json::number_field(entry, "sim_time_s");
    const auto events_per_s = json::number_field(entry, "events_per_s");
    const auto eta_s = json::number_field(entry, "eta_s");
    if (!spec || !state || !attempts || !events || !sim_time_s ||
        !events_per_s || !eta_s) {
      return std::nullopt;
    }
    StatusRunView run;
    run.spec = *spec;
    run.state = *state;
    run.attempts = static_cast<int>(*attempts);
    run.events = static_cast<std::uint64_t>(*events);
    run.sim_time_s = *sim_time_s;
    run.events_per_s = *events_per_s;
    run.eta_s = *eta_s;
    view.runs.push_back(std::move(run));
  }
  return view;
}

}  // namespace peerscope::exp

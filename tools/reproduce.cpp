#include "tools/reproduce.hpp"

#include <iostream>
#include <string>
#include <vector>

#include "aware/claims.hpp"
#include "aware/render.hpp"
#include "exp/supervisor.hpp"
#include "net/topology.hpp"
#include "util/atomic_file.hpp"
#include "util/thread_pool.hpp"

namespace peerscope::tools {

namespace {

/// One stderr line for the claims table, plus one line for each claim
/// whose verdict is not the expected one.
void print_claims(const std::vector<aware::Claim>& claims) {
  std::size_t expected = 0, holding = 0, deviations = 0, still_failing = 0;
  for (const auto& claim : claims) {
    if (claim.deviation.empty()) {
      ++expected;
      if (claim.holds) ++holding;
    } else {
      ++deviations;
      if (!claim.holds) ++still_failing;
    }
  }
  std::cerr << "reproduce: claims: " << holding << " of " << expected
            << " hold; " << still_failing << " of " << deviations
            << " known deviations still fail\n";
  for (const auto& claim : claims) {
    if (claim.as_expected()) continue;
    std::cerr << "reproduce: claim " << claim.id
              << (claim.holds ? " holds, expected to fail: " : " fails: ")
              << claim.statement << " [" << claim.value << "]\n";
  }
}

}  // namespace

int reproduce(const ReproduceOptions& options) {
  const net::AsTopology topo = net::make_reference_topology();

  // Specs [0..2] are the paper's three applications (report row order),
  // [3] the PPLive-Popular panel for Figure 2.
  const std::vector<exp::RunSpec> specs = exp::reproduction_specs(
      options.seed, util::SimTime::seconds(options.seconds));

  exp::SupervisorConfig supervision;
  supervision.retries = options.retries;
  supervision.deadline_s = options.deadline_s;
  supervision.resume = options.resume;
  supervision.journal =
      options.output.parent_path() / "experiment.journal";

  std::cerr << "reproduce: running PPLive, SopCast, TVAnts, "
               "PPLive-Popular ("
            << options.seconds << " s each, seed " << options.seed
            << (options.resume ? ", resuming" : "") << ")...\n";
  util::ThreadPool pool;
  const auto outcome = supervise_runs(topo, specs, pool, supervision);
  for (std::size_t i = 0; i < outcome.runs.size(); ++i) {
    const auto& run = outcome.runs[i];
    std::cerr << "reproduce: " << specs[i].profile.name << ": "
              << exp::to_string(run.state);
    if (run.attempts > 1) std::cerr << " (" << run.attempts << " attempts)";
    if (!run.error.empty()) std::cerr << " — " << run.error;
    std::cerr << '\n';
  }
  if (outcome.succeeded() == 0) {
    std::cerr << "reproduce: no run produced results; no report written\n";
    return 1;
  }

  // The three applications' reports and the PPLive-Popular matrix;
  // nullopt for a run that produced no data.
  aware::Reproduction batch;
  batch.seconds = options.seconds;
  batch.seed = options.seed;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& run = outcome.runs[i];
    if (run.ok()) batch.apps[i] = aware::app_report(run.result->observations);
  }
  const auto& popular_run = outcome.runs[3];
  if (popular_run.ok()) {
    batch.popular =
        aware::as_traffic_matrix(popular_run.result->observations);
  }
  for (const auto& run : outcome.runs) {
    if (run.ok()) continue;
    batch.missing.push_back(
        run.spec + " " + exp::to_string(run.state) +
        (run.error.empty() ? std::string{} : " (" + run.error + ")"));
  }

  try {
    util::write_file_atomic(options.output,
                            aware::render_reproduction(batch));
  } catch (const std::exception& error) {
    std::cerr << "reproduce: cannot write " << options.output << ": "
              << error.what() << '\n';
    return 1;
  }
  std::cerr << "reproduce: wrote " << options.output << '\n';
  // The claims need every run, so only a complete batch is checked.
  const auto& [pplive, sopcast, tvants] = batch.apps;
  if (batch.missing.empty()) {
    print_claims(
        aware::evaluate_claims(*pplive, *sopcast, *tvants, *batch.popular));
  }
  return outcome.complete() ? 0 : kExitPartialSuccess;
}

}  // namespace peerscope::tools

// The evidence beyond the paper's tables, as claims. Each sweep runs
// its simulations at seed 42 and returns aware::Claim rows
// (aware/claims.hpp) named `ext.<sweep>.*`: the black-box pipeline
// recovers planted selection biases, its conclusions survive loss,
// churn and tracker outages and hold across seeds, and the paper's
// recommended locality-aware client pays off. Every row is expected to
// hold; tests/exp/extensions_test.cpp checks them in tier-1.
#pragma once

#include <vector>

#include "aware/claims.hpp"
#include "exp/runner.hpp"
#include "util/thread_pool.hpp"

namespace peerscope::exp {

/// Planted-bias ablation on TVAnts (120 s, 520 background peers, 27
/// runs): the same-AS scheduling weight over three seeds per weight,
/// the bandwidth weight and the discovery AS bias, against the
/// preferences the pipeline recovers.
[[nodiscard]] std::vector<aware::Claim> ablation_claims(
    const net::AsTopology& topo, util::ThreadPool& pool);

/// TVAnts' AS byte preference against SopCast's over seeds 42-46
/// (150 s).
[[nodiscard]] std::vector<aware::Claim> sensitivity_claims(
    const net::AsTopology& topo, util::ThreadPool& pool);

/// PPLive, SopCast and TVAnts (300 s) clean and under three impairment
/// levels, up to 5% bursty loss with churn and outages; impaired
/// levels analyse with the robust BW estimator (ipg_discard 2).
[[nodiscard]] std::vector<aware::Claim> degradation_claims(
    const net::AsTopology& topo, util::ThreadPool& pool);

/// PPLive, SopCast and TVAnts (300 s) under four discovery scenarios:
/// the extracted tracker, a mid-run tracker outage with DHT failover,
/// the outage with gossip failover and NAT traversal, and the outage
/// with a flash crowd. A scenario whose runs miss the 30 s re-join SLO
/// fails `ext.discovery.rejoined` with the run's error as its value.
[[nodiscard]] std::vector<aware::Claim> discovery_claims(
    const net::AsTopology& topo, util::ThreadPool& pool);

/// The location-blind SopCast baseline against the NAPA-WINE prototype
/// (150 s), plus `ext.bw_threshold_plateau`: the BW row's insensitivity
/// to the 1 ms IPG threshold, on the same SopCast run.
[[nodiscard]] std::vector<aware::Claim> nextgen_claims(
    const net::AsTopology& topo, util::ThreadPool& pool);

}  // namespace peerscope::exp

// Network impairment model: the faults a real Internet path injects
// into a packet train that the paper's clean-room simulator previously
// ignored.
//
// Four orthogonal effects, all disabled by default so the lossless
// reproduction path is bit-identical to the un-impaired simulator:
//
//   - bursty loss: a two-state Gilbert–Elliott channel (loss_rate is
//     the stationary drop probability, loss_burst the mean number of
//     consecutive drops). loss_burst == 1 degenerates to independent
//     Bernoulli drops.
//   - capture reordering: the sniffer stamps a packet late, landing it
//     between later arrivals; once the trace is time-sorted this
//     fabricates an abnormally small inter-packet gap.
//   - capture duplication: the sniffer records a packet twice a few
//     microseconds apart (a classic dirty-pcap artifact), fabricating
//     a near-zero gap that a naive min-IPG classifier reads as a
//     >10 Mb/s path.
//   - transient link outages: deterministic hash-scheduled windows
//     during which every packet on the link is dropped (modem resyncs,
//     wifi fades, ARP storms). Hash-keyed, so enabling outages never
//     perturbs the shared RNG stream.
#pragma once

#include <cstdint>

#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace peerscope::sim {

struct ImpairmentSpec {
  /// Stationary per-packet drop probability along the path.
  double loss_rate = 0.0;
  /// Mean length of a loss burst (Gilbert–Elliott bad-state sojourn);
  /// <= 1 means independent drops (the legacy flat model).
  double loss_burst = 1.0;
  /// Probability a packet's capture timestamp is delayed past later
  /// packets (sniffer-side reordering).
  double reorder_rate = 0.0;
  /// Peak of the reordering displacement (uniform in (0, max]).
  util::SimTime reorder_delay = util::SimTime::millis(2);
  /// Probability a packet is recorded twice (capture duplication).
  double duplicate_rate = 0.0;
  /// Mean transient link outages per second (0 disables).
  double outage_per_s = 0.0;
  /// Length of each outage window.
  util::SimTime outage_duration = util::SimTime::millis(200);

  [[nodiscard]] bool has_loss() const { return loss_rate > 0.0; }
  [[nodiscard]] bool has_outage() const { return outage_per_s > 0.0; }
  [[nodiscard]] bool enabled() const {
    return loss_rate > 0.0 || reorder_rate > 0.0 || duplicate_rate > 0.0 ||
           outage_per_s > 0.0;
  }
};

/// Per-directed-channel Gilbert–Elliott loss state. One instance per
/// (sender, receiver) pair carries burst correlation across trains;
/// with loss_burst <= 1 the state is never consulted and drops reduce
/// to the exact legacy Bernoulli draw.
class GilbertElliott {
 public:
  /// Advances the channel one packet and reports whether it was lost.
  /// Consumes exactly one RNG draw per call when loss is enabled and
  /// none when loss_rate == 0.
  [[nodiscard]] bool lose(const ImpairmentSpec& spec, util::Rng& rng);

  [[nodiscard]] bool in_bad_state() const { return bad_; }

 private:
  bool bad_ = false;
};

/// Whether the link identified by `link_key` is inside an outage
/// window at time `at`. Deterministic: derived by hashing
/// (link_key, epoch), never from the simulation RNG stream, so outage
/// schedules are stable under replay and independent of other
/// impairments. Each epoch of length 1/outage_per_s contains one
/// outage window at a hash-chosen offset.
[[nodiscard]] bool in_outage(const ImpairmentSpec& spec,
                             std::uint64_t link_key, util::SimTime at);

}  // namespace peerscope::sim

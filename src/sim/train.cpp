#include "sim/train.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace peerscope::sim {

TrainMetrics TrainMetrics::resolve() {
  return {obs::counter("sim.trains_expanded"),
          obs::counter("sim.packets_generated"),
          obs::counter("sim.packets_lost"),
          obs::counter("sim.packets_dropped_outage"),
          obs::counter("sim.packets_reordered"),
          obs::counter("sim.packets_duplicated"),
          obs::histogram("sim.train_expand_ns", obs::timing_bounds(), true)};
}

TrainResult transmit_train(const TrainSpec& spec,
                           const net::AccessLink& sender,
                           LinkCursor& sender_up,
                           const net::AccessLink& receiver,
                           LinkCursor& receiver_down,
                           const net::PathInfo& path, util::Rng& rng,
                           GilbertElliott* channel,
                           const TrainMetrics& metrics) {
  if (spec.packet_count <= 0 || spec.packet_bytes <= 0) {
    throw std::invalid_argument("transmit_train: empty train");
  }

  // Local tallies, published once per train: the per-packet loop stays
  // free of shared writes even with metrics on.
  const bool timed = static_cast<bool>(metrics);
  const auto wall_start = timed ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
  std::uint64_t lost = 0, outage_dropped = 0, reordered = 0, duplicated = 0;

  const util::SimTime up_ser = sender.up_tx_time(spec.packet_bytes);
  const util::SimTime down_ser = receiver.down_tx_time(spec.packet_bytes);
  const ImpairmentSpec& imp = spec.impairment;
  GilbertElliott local_channel;
  GilbertElliott& ge = channel ? *channel : local_channel;

  TrainResult result;
  result.arrivals.reserve(static_cast<std::size_t>(spec.packet_count));
  result.departures.reserve(static_cast<std::size_t>(spec.packet_count));
  // Capture artifacts (reordered/duplicated records) land out of
  // arrival order; collected here and merge-sorted at the end.
  std::vector<util::SimTime> artifacts;

  // Uplink: the whole chunk is written to the socket at once, so its
  // packets occupy the link contiguously — concurrent chunks queue
  // *behind* the train, they do not interleave into it. This is what
  // keeps the in-train inter-packet gap equal to the uplink
  // serialisation time even on a busy sender (the packet-pair signal).
  const util::SimTime train_start = sender_up.reserve(
      spec.start, up_ser * static_cast<std::int64_t>(spec.packet_count));

  util::SimTime release = train_start;
  util::SimTime last_arrival{0};
  for (int i = 0; i < spec.packet_count; ++i) {
    const util::SimTime departed = release + up_ser;
    release = departed;  // next packet right behind
    result.departures.push_back(departed);

    if (imp.has_loss() && ge.lose(imp, rng)) {
      ++lost;
      continue;  // dropped in flight: no arrival, no receiver work
    }

    // Path: fixed one-way delay plus small positive jitter.
    const util::SimTime jitter = util::SimTime::nanos(static_cast<std::int64_t>(
        rng.uniform01() * static_cast<double>(spec.jitter_max.ns())));
    const util::SimTime reached = departed + path.one_way_delay + jitter;

    // Transient outage: the receiver link is down, the packet is gone.
    if (imp.has_outage() && in_outage(imp, spec.link_key, reached)) {
      ++outage_dropped;
      continue;
    }

    // Downlink: serialised through the receiver's access link; FIFO
    // order is preserved even if jitter reordered the wire arrival.
    const util::SimTime earliest = reached > last_arrival ? reached : last_arrival;
    const util::SimTime rx_start = receiver_down.reserve(earliest, down_ser);
    const util::SimTime arrival = rx_start + down_ser;
    last_arrival = arrival;

    if (imp.reorder_rate > 0.0 && rng.chance(imp.reorder_rate)) {
      // Capture-side reordering: the sniffer stamps this packet late,
      // landing it among later arrivals. Link occupancy is unchanged —
      // only the recorded timestamp moves.
      ++reordered;
      artifacts.push_back(arrival +
                          util::SimTime::nanos(static_cast<std::int64_t>(
                              rng.uniform01() *
                              static_cast<double>(imp.reorder_delay.ns()))));
    } else {
      result.arrivals.push_back(arrival);
    }
    if (imp.duplicate_rate > 0.0 && rng.chance(imp.duplicate_rate)) {
      // Capture duplication: the same packet recorded twice a few
      // microseconds apart — fabricates a near-zero inter-packet gap.
      ++duplicated;
      artifacts.push_back(arrival +
                          util::SimTime::nanos(1'000 + static_cast<std::int64_t>(
                                                           rng.uniform01() *
                                                           14'000.0)));
    }
  }
  if (!artifacts.empty()) {
    result.arrivals.insert(result.arrivals.end(), artifacts.begin(),
                           artifacts.end());
    std::sort(result.arrivals.begin(), result.arrivals.end());
  }
  result.sender_done = release;
  if (timed) {
    metrics.expand_ns.observe(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
    metrics.trains_expanded.add();
    metrics.packets_generated.add(
        static_cast<std::uint64_t>(spec.packet_count));
    metrics.packets_lost.add(lost);
    metrics.packets_dropped_outage.add(outage_dropped);
    metrics.packets_reordered.add(reordered);
    metrics.packets_duplicated.add(duplicated);
  }
  return result;
}

}  // namespace peerscope::sim

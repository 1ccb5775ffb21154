#include "aware/observation.hpp"

#include "net/prefix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/packet.hpp"

namespace peerscope::aware {

std::vector<PairObservation> extract_observations(
    const trace::FlowTable& flows, const net::NetRegistry& registry,
    const std::unordered_set<net::Ipv4Addr>& napa_set) {
  std::vector<PairObservation> out;
  out.reserve(flows.flow_count());

  const net::Ipv4Addr probe = flows.probe();
  const net::AsId probe_as = registry.as_of(probe);
  const net::CountryCode probe_cc = registry.country_of(probe);

  // Observation order is the flow table's hash order; every consumer
  // (report tallies, JSON export) keys by address or sorts first.
  // peerscope-lint: allow(nondeterministic-iteration)
  for (const auto& [remote, f] : flows.flows()) {
    PairObservation obs;
    obs.probe = probe;
    obs.remote = remote;
    obs.probe_as = probe_as;
    obs.probe_cc = probe_cc;
    obs.remote_as = registry.as_of(remote);
    obs.remote_cc = registry.country_of(remote);
    obs.same_subnet = net::same_subnet24(probe, remote);
    obs.remote_is_napa = napa_set.contains(remote);

    obs.rx_pkts = f.rx_pkts;
    obs.rx_bytes = f.rx_bytes;
    obs.tx_pkts = f.tx_pkts;
    obs.tx_bytes = f.tx_bytes;
    obs.rx_video_pkts = f.rx_video_pkts;
    obs.rx_video_bytes = f.rx_video_bytes;
    obs.tx_video_pkts = f.tx_video_pkts;
    obs.tx_video_bytes = f.tx_video_bytes;
    obs.min_rx_video_ipg_ns = f.min_rx_video_ipg_ns;
    obs.smallest_rx_ipgs = f.smallest_rx_ipgs;
    obs.rx_ipg_samples = f.rx_ipg_samples;
    if (f.saw_rx) {
      // TTL mode, not last-seen: a corrupt TTL byte on the final packet
      // of a flow must not move the hop estimate.
      obs.rx_hops = sim::kInitialTtl - static_cast<int>(f.rx_ttl_mode());
    }
    out.push_back(obs);
  }
  if (obs::enabled()) {
    std::uint64_t ipg_samples = 0;
    for (const auto& o : out) ipg_samples += o.rx_ipg_samples;
    obs::counter("aware.flow_tables_joined").add();
    obs::counter("aware.observations_extracted").add(out.size());
    obs::counter("aware.ipg_samples").add(ipg_samples);
  }
  PEERSCOPE_TRACE_COUNTER("aware.observations_extracted",
                          static_cast<std::int64_t>(out.size()));
  return out;
}

}  // namespace peerscope::aware

#include "net/topology.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "net/prefix.hpp"
#include "util/rng.hpp"

namespace peerscope::net {

namespace {
/// dist_ entry for an AS pair with no path between them.
constexpr int kUnreachable = std::numeric_limits<int>::max() / 4;
}  // namespace

std::string to_string(Region region) {
  switch (region) {
    case Region::kEurope:
      return "EU";
    case Region::kAsia:
      return "AS";
    case Region::kNorthAmerica:
      return "NA";
    case Region::kOther:
      return "OT";
  }
  return "?";
}

void AsTopology::add_as(AsId as, CountryCode country, Region region,
                        int transit_hops, int border_hops) {
  if (finalized_) {
    throw std::logic_error("AsTopology: add_as after finalize");
  }
  if (index_.contains(as)) {
    throw std::invalid_argument("AsTopology: duplicate AS " + as.to_string());
  }
  if (transit_hops < 1 || border_hops < 0) {
    throw std::invalid_argument("AsTopology: invalid hop parameters");
  }
  index_.emplace(as, nodes_.size());
  nodes_.push_back({as, country, region, transit_hops, border_hops, {}});
}

void AsTopology::connect(AsId a, AsId b) {
  if (finalized_) {
    throw std::logic_error("AsTopology: connect after finalize");
  }
  if (a == b) {
    throw std::invalid_argument("AsTopology: self-loop on " + a.to_string());
  }
  const std::size_t ia = index_of(a);
  const std::size_t ib = index_of(b);
  auto& na = nodes_[ia].neighbors;
  if (std::find(na.begin(), na.end(), ib) != na.end()) return;  // idempotent
  na.push_back(ib);
  nodes_[ib].neighbors.push_back(ia);
}

std::size_t AsTopology::index_of(AsId as) const {
  const auto it = index_.find(as);
  if (it == index_.end()) {
    throw std::out_of_range("AsTopology: unknown " + as.to_string());
  }
  return it->second;
}

void AsTopology::finalize() {
  const std::size_t n = nodes_.size();
  dist_.assign(n * n, kUnreachable);

  // Dijkstra from every source. Traversing an inter-AS link costs 1
  // (the border router pair counts as one decrementing hop on entry)
  // plus the transit cost of the AS being entered — except that the
  // final AS contributes no transit cost (the path ends at its border).
  // To get that, we compute distances as "cost to reach the border of
  // AS j", where entering j costs 1, and add transit costs only for
  // intermediate ASes: cost(edge i->j) = 1 + transit(i if i is not the
  // source... ).
  //
  // Simpler equivalent formulation: define d(i, j) over edges with
  // weight w(u -> v) = 1 + transit(v), then subtract transit(j) at the
  // end so the destination AS is not transited.
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<int> d(n, kUnreachable);
    using Item = std::pair<int, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    d[src] = 0;
    heap.emplace(0, src);
    while (!heap.empty()) {
      const auto [du, u] = heap.top();
      heap.pop();
      if (du != d[u]) continue;
      for (const std::size_t v : nodes_[u].neighbors) {
        const int w = 1 + nodes_[v].transit_hops;
        if (du + w < d[v]) {
          d[v] = du + w;
          heap.emplace(d[v], v);
        }
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (j == src) {
        dist_[src * n + j] = 0;
      } else if (d[j] < kUnreachable) {
        dist_[src * n + j] = d[j] - nodes_[j].transit_hops;
      }
    }
  }
  finalized_ = true;
}

std::vector<AsId> AsTopology::as_ids() const {
  std::vector<AsId> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n.as);
  return out;
}

CountryCode AsTopology::country_of_as(AsId as) const {
  return nodes_[index_of(as)].country;
}

Region AsTopology::region_of_as(AsId as) const {
  return nodes_[index_of(as)].region;
}

int AsTopology::as_path_hops(AsId a, AsId b) const {
  if (!finalized_) {
    throw std::logic_error("AsTopology: path query before finalize");
  }
  const std::size_t ia = index_of(a);
  const std::size_t ib = index_of(b);
  const int d = dist_[ia * nodes_.size() + ib];
  if (d >= kUnreachable) {
    throw std::runtime_error("AsTopology: " + a.to_string() + " and " +
                             b.to_string() + " are disconnected");
  }
  return d;
}

util::SimTime AsTopology::base_delay(Region a, Region b, bool same_country) {
  using util::SimTime;
  if (a == b) {
    switch (a) {
      case Region::kEurope:
        return same_country ? SimTime::millis(8) : SimTime::millis(15);
      case Region::kAsia:
        return same_country ? SimTime::millis(12) : SimTime::millis(30);
      case Region::kNorthAmerica:
        return same_country ? SimTime::millis(15) : SimTime::millis(25);
      case Region::kOther:
        return SimTime::millis(40);
    }
  }
  const auto pair = [&](Region x, Region y) {
    return (a == x && b == y) || (a == y && b == x);
  };
  if (pair(Region::kEurope, Region::kAsia)) return SimTime::millis(140);
  if (pair(Region::kEurope, Region::kNorthAmerica)) return SimTime::millis(50);
  if (pair(Region::kAsia, Region::kNorthAmerica)) return SimTime::millis(90);
  return SimTime::millis(100);  // anything involving kOther
}

PathInfo AsTopology::path(const Endpoint& src, const Endpoint& dst) const {
  if (src.addr == dst.addr) {
    return {0, util::SimTime::micros(50)};  // loopback-ish
  }
  if (same_subnet24(src.addr, dst.addr)) {
    // Same LAN: no router in between; only switching latency.
    return {0, util::SimTime::micros(200)};
  }

  // One index lookup per endpoint; dist_ is read directly.
  const std::size_t ia = index_of(src.as);
  const std::size_t ib = index_of(dst.as);
  const auto& sa = nodes_[ia];
  const auto& da = nodes_[ib];

  int hops;
  if (ia == ib) {
    // Intra-AS: through the IGP core, no border crossing.
    hops = src.router_depth + sa.transit_hops + dst.router_depth;
  } else {
    int as_hops =
        finalized_ ? dist_[ia * nodes_.size() + ib] : kUnreachable;
    if (as_hops >= kUnreachable) {
      as_hops = as_path_hops(src.as, dst.as);  // throws the reason
    }
    hops = src.router_depth + sa.border_hops + as_hops + da.border_hops +
           dst.router_depth;
    // Deterministic forward/reverse asymmetry: hot-potato routing makes
    // one direction up to 2 hops longer. Derived from the ordered
    // address pair so hop(e,p) != hop(p,e) in general but both are
    // stable across the experiment.
    util::SplitMix64 mix{(std::uint64_t{src.addr.bits()} << 32) |
                         dst.addr.bits()};
    hops += static_cast<int>(mix.next() % 3);
  }

  const bool same_country = src.country == dst.country;
  util::SimTime delay = base_delay(src.region, dst.region, same_country);
  if (ia == ib) {
    delay = util::SimTime::millis(2);  // IGP paths are short
  }
  delay += util::SimTime::micros(100) * static_cast<std::int64_t>(hops);
  return {hops, delay};
}

AsTopology make_reference_topology() {
  AsTopology topo;
  using namespace refas;

  // --- Institution ASes (Table I). NRENs have shallow, fast cores.
  topo.add_as(kAs1, kHungary, Region::kEurope, /*transit=*/2, /*border=*/1);
  topo.add_as(kAs2, kItaly, Region::kEurope, 2, 1);
  topo.add_as(kAs3, kHungary, Region::kEurope, 2, 1);
  topo.add_as(kAs4, kFrance, Region::kEurope, 2, 1);
  topo.add_as(kAs5, kFrance, Region::kEurope, 2, 1);
  topo.add_as(kAs6, kPoland, Region::kEurope, 2, 1);

  // --- Home ISPs for the 7 home probes ("ASx" rows of Table I): one
  // per home host, countries matching the host's site country.
  const CountryCode home_cc[kHomeIspCount] = {
      kHungary,  // BME home DSL
      kItaly,    // PoliTO home DSL 4/0.384
      kItaly,    // PoliTO home DSL 8/0.384 (hosts 11-12)
      kFrance,   // ENST home DSL 22/1.8
      kItaly,    // UniTN home DSL 2.5/0.384
      kPoland,   // WUT home CATV 6/0.512
      kItaly,    // spare eyeball AS (keeps AS numbering dense)
  };
  for (std::uint32_t i = 0; i < kHomeIspCount; ++i) {
    topo.add_as(AsId{kHomeIspFirst.value() + i}, home_cc[i], Region::kEurope,
                /*transit=*/3, /*border=*/2);
  }

  // --- European transit carriers.
  topo.add_as(kEuTransit1, CountryCode{'D', 'E'}, Region::kEurope, 3, 1);
  topo.add_as(kEuTransit2, CountryCode{'G', 'B'}, Region::kEurope, 3, 1);

  // --- Intercontinental transit and Chinese carriers/eyeballs.
  topo.add_as(kIcTransit, CountryCode{'U', 'S'}, Region::kNorthAmerica, 4, 1);
  topo.add_as(kCnTransit, kChina, Region::kAsia, 4, 1);
  for (std::uint32_t i = 0; i < kCnIspCount; ++i) {
    // Chinese eyeballs: dense metro aggregation keeps the border close;
    // host depth (2-6) carries most of the intra-AS variation.
    topo.add_as(AsId{kCnIspFirst.value() + i}, kChina, Region::kAsia,
                /*transit=*/3, /*border=*/1);
  }

  // --- Rest-of-world eyeballs (US/KR/JP-ish mix labelled "*" in Fig 1).
  const CountryCode row_cc[kRowIspCount] = {
      CountryCode{'U', 'S'}, CountryCode{'K', 'R'}, CountryCode{'J', 'P'},
      CountryCode{'U', 'S'}, CountryCode{'T', 'W'}, CountryCode{'C', 'A'},
  };
  const Region row_region[kRowIspCount] = {
      Region::kNorthAmerica, Region::kAsia,         Region::kAsia,
      Region::kNorthAmerica, Region::kAsia,         Region::kNorthAmerica,
  };
  for (std::uint32_t i = 0; i < kRowIspCount; ++i) {
    topo.add_as(AsId{kRowIspFirst.value() + i}, row_cc[i], row_region[i], 3,
                2);
  }

  // --- Extra European eyeball ISPs (background European viewers).
  // Deliberately skewed away from the testbed countries: the paper
  // finds CC preference is fully explained by AS preference, i.e. the
  // same-country-different-AS viewer pool was thin.
  const CountryCode eu_cc[kEuIspCount] = {
      CountryCode{'D', 'E'}, CountryCode{'E', 'S'}, CountryCode{'N', 'L'},
      CountryCode{'G', 'B'}, CountryCode{'S', 'E'}, kItaly,
  };
  for (std::uint32_t i = 0; i < kEuIspCount; ++i) {
    topo.add_as(AsId{kEuIspFirst.value() + i}, eu_cc[i], Region::kEurope, 3,
                2);
  }

  // --- Edges. European institutions and eyeballs hang off the two EU
  // transits; China hangs off its national carrier, which reaches
  // Europe via the intercontinental transit (and a direct EU link,
  // giving route diversity / asymmetry room).
  for (AsId as : {kAs1, kAs2, kAs3, kAs6}) topo.connect(as, kEuTransit1);
  for (AsId as : {kAs2, kAs4, kAs5}) topo.connect(as, kEuTransit2);
  topo.connect(kEuTransit1, kEuTransit2);
  for (std::uint32_t i = 0; i < kHomeIspCount; ++i) {
    topo.connect(AsId{kHomeIspFirst.value() + i},
                 i % 2 ? kEuTransit1 : kEuTransit2);
  }
  for (std::uint32_t i = 0; i < kEuIspCount; ++i) {
    topo.connect(AsId{kEuIspFirst.value() + i},
                 i % 2 ? kEuTransit2 : kEuTransit1);
  }
  topo.connect(kEuTransit1, kIcTransit);
  topo.connect(kEuTransit2, kIcTransit);
  topo.connect(kIcTransit, kCnTransit);
  topo.connect(kEuTransit1, kCnTransit);  // direct EU-CN trunk
  for (std::uint32_t i = 0; i < kCnIspCount; ++i) {
    topo.connect(AsId{kCnIspFirst.value() + i}, kCnTransit);
  }
  for (std::uint32_t i = 0; i < kRowIspCount; ++i) {
    topo.connect(AsId{kRowIspFirst.value() + i},
                 i % 2 ? kIcTransit : kCnTransit);
  }

  topo.finalize();
  return topo;
}

}  // namespace peerscope::net

#include "net/registry.hpp"

#include <algorithm>

namespace peerscope::net {

void NetRegistry::announce(const Ipv4Prefix& prefix, AsId as,
                           CountryCode country) {
  map_.insert(prefix, Entry{as, country});
  by_as_[as].push_back(prefix);
}

AsId NetRegistry::as_of(Ipv4Addr addr) const {
  if (auto e = map_.lookup(addr)) return e->as;
  return AsId{};
}

CountryCode NetRegistry::country_of(Ipv4Addr addr) const {
  if (auto e = map_.lookup(addr)) return e->country;
  return CountryCode{};
}

std::optional<NetRegistry::Entry> NetRegistry::lookup(Ipv4Addr addr) const {
  return map_.lookup(addr);
}

const std::vector<Ipv4Prefix>& NetRegistry::prefixes_of(AsId as) const {
  if (auto it = by_as_.find(as); it != by_as_.end()) return it->second;
  return empty_;
}

std::vector<NetRegistry::Announcement> NetRegistry::dump() const {
  std::vector<Announcement> out;
  out.reserve(map_.size());
  // Collected in hash order, then sorted by prefix base below.
  // peerscope-lint: allow(nondeterministic-iteration)
  for (const auto& [as, prefixes] : by_as_) {
    for (const auto& prefix : prefixes) {
      const auto entry = map_.exact(prefix);
      if (entry) out.push_back({prefix, entry->as, entry->country});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Announcement& a, const Announcement& b) {
              if (a.prefix.base() != b.prefix.base()) {
                return a.prefix.base() < b.prefix.base();
              }
              return a.prefix.length() < b.prefix.length();
            });
  return out;
}

}  // namespace peerscope::net

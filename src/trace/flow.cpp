#include "trace/flow.hpp"

#include <algorithm>

namespace peerscope::trace {

std::int64_t robust_min_ipg(std::span<const std::int64_t> smallest,
                            std::uint64_t samples, int discard) {
  if (samples == 0 || smallest.empty()) {
    return std::numeric_limits<std::int64_t>::max();
  }
  if (discard < 0) discard = 0;
  // Never discard the whole sample: with few gaps, fall back to the
  // largest one we have rather than declaring the flow unmeasurable.
  const auto last_valid = static_cast<std::size_t>(
      std::min<std::uint64_t>(samples, smallest.size()) - 1);
  const std::size_t idx =
      std::min(static_cast<std::size_t>(discard), last_valid);
  return smallest[idx];
}

std::uint8_t FlowStats::rx_ttl_mode() const {
  std::uint8_t best = rx_ttl;
  std::int32_t best_count = 0;
  for (std::size_t i = 0; i < ttl_candidates.size(); ++i) {
    if (ttl_counts[i] > best_count) {
      best_count = ttl_counts[i];
      best = ttl_candidates[i];
    }
  }
  return best;
}

namespace {

/// Misra–Gries update with `n` copies of `ttl`, equal to `n` single
/// updates. A live slot holding `ttl` takes all of them. Otherwise each
/// copy that finds no free slot decrements every slot, so the slots
/// give up min(smallest count, n) together; a decrement can free a
/// slot mid-run, and the copies left over land in the first free slot.
void add_ttl(FlowStats& f, std::uint8_t ttl, std::int32_t n) {
  auto& counts = f.ttl_counts;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0 && f.ttl_candidates[i] == ttl) {
      counts[i] += n;
      return;
    }
  }
  const std::int32_t spent =
      std::min(*std::min_element(counts.begin(), counts.end()), n);
  for (auto& count : counts) count -= spent;
  if (spent == n) return;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      f.ttl_candidates[i] = ttl;
      counts[i] = n - spent;
      return;
    }
  }
}

/// One RX video inter-packet gap: the minimum and the sorted
/// k-smallest array.
void add_ipg(FlowStats& f, std::int64_t gap) {
  if (gap < f.min_rx_video_ipg_ns) f.min_rx_video_ipg_ns = gap;
  ++f.rx_ipg_samples;
  auto& smallest = f.smallest_rx_ipgs;
  if (gap < smallest.back()) {
    smallest.back() = gap;
    for (std::size_t i = smallest.size() - 1;
         i > 0 && smallest[i] < smallest[i - 1]; --i) {
      std::swap(smallest[i], smallest[i - 1]);
    }
  }
}

}  // namespace

FlowStats& FlowTable::flow(net::Ipv4Addr remote) {
  auto [it, inserted] = flows_.try_emplace(remote);
  if (inserted) it->second.remote = remote;
  return it->second;
}

void FlowTable::count(FlowStats& f, Direction dir, bool video,
                      std::int32_t bytes_per_packet, std::uint8_t ttl,
                      std::uint64_t n, util::SimTime lo, util::SimTime hi) {
  f.first_ts = std::min(f.first_ts, lo);
  f.last_ts = std::max(f.last_ts, hi);
  const std::uint64_t bytes = n * static_cast<std::uint64_t>(bytes_per_packet);
  if (dir == Direction::kTx) {
    f.tx_pkts += n;
    f.tx_bytes += bytes;
    total_tx_pkts_ += n;
    total_tx_bytes_ += bytes;
    if (video) {
      f.tx_video_pkts += n;
      f.tx_video_bytes += bytes;
    }
    return;
  }

  f.rx_pkts += n;
  f.rx_bytes += bytes;
  total_rx_pkts_ += n;
  total_rx_bytes_ += bytes;
  f.rx_ttl = ttl;
  f.saw_rx = true;
  add_ttl(f, ttl, static_cast<std::int32_t>(n));
  if (video) {
    f.rx_video_pkts += n;
    f.rx_video_bytes += bytes;
  }
}

void FlowTable::add_run(FlowStats& f, Direction dir, sim::PacketKind kind,
                        std::int32_t bytes_per_packet, std::uint8_t ttl,
                        std::span<const util::SimTime> ts) {
  if (ts.empty()) return;
  const auto [lo, hi] = std::minmax_element(ts.begin(), ts.end());
  const auto n = static_cast<std::uint64_t>(ts.size());
  const bool video = kind == sim::PacketKind::kVideo;
  count(f, dir, video, bytes_per_packet, ttl, n, *lo, *hi);
  if (dir == Direction::kTx || !video) return;

  // Every RX video packet but the flow's first closes one gap. A gap
  // that steps back in time (a reordered capture record) is no sample,
  // but it still moves the left edge.
  std::size_t i = 0;
  if (f.rx_video_pkts == n) f.last_rx_video_ts = ts[i++];  // the first run
  for (; i < ts.size(); ++i) {
    const std::int64_t gap = ts[i].ns() - f.last_rx_video_ts.ns();
    f.last_rx_video_ts = ts[i];
    if (gap >= 0) add_ipg(f, gap);
  }
}

void FlowTable::add_counted(FlowStats& f, Direction dir,
                            std::int32_t bytes_per_packet, std::uint8_t ttl,
                            std::uint64_t n, util::SimTime lo,
                            util::SimTime hi) {
  if (n == 0) return;
  count(f, dir, /*video=*/false, bytes_per_packet, ttl, n, lo, hi);
}

FlowTable FlowTable::from_records(net::Ipv4Addr probe,
                                  std::span<const PacketRecord> records) {
  std::vector<PacketRecord> sorted;
  if (!std::is_sorted(records.begin(), records.end(), record_before)) {
    sorted.assign(records.begin(), records.end());
    std::sort(sorted.begin(), sorted.end(), record_before);
    records = sorted;
  }
  FlowTable table{probe};
  FlowStats* last = nullptr;  // the previous record's flow
  for (const PacketRecord& r : records) {
    if (last == nullptr || last->remote != r.remote) {
      last = &table.flow(r.remote);
    }
    table.add_run(*last, r.dir, r.kind, r.bytes, r.ttl, {&r.ts, 1});
  }
  return table;
}

const FlowStats* FlowTable::find(net::Ipv4Addr remote) const {
  const auto it = flows_.find(remote);
  return it == flows_.end() ? nullptr : &it->second;
}

}  // namespace peerscope::trace

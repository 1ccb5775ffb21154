// Microbenchmarks for the trace substrate: capture-record ingestion,
// binary and pcap serialisation, and the offline rebuild path — the
// costs that bound how big a stored experiment can get.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <unistd.h>

#include "trace/binary_format.hpp"
#include "trace/flow.hpp"
#include "trace/pcap.hpp"
#include "util/rng.hpp"

using namespace peerscope;

namespace {

std::vector<trace::PacketRecord> synth(std::size_t n) {
  util::Rng rng{42};
  std::vector<trace::PacketRecord> records;
  records.reserve(n);
  std::int64_t ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ts += static_cast<std::int64_t>(rng.below(200'000)) + 1;
    trace::PacketRecord r;
    r.ts = util::SimTime::nanos(ts);
    r.remote =
        net::Ipv4Addr{static_cast<std::uint32_t>(0x14000000u + rng.below(800))};
    r.bytes = rng.chance(0.8) ? 1250 : 120;
    r.kind = r.bytes == 1250 ? sim::PacketKind::kVideo
                             : sim::PacketKind::kSignaling;
    r.dir = rng.chance(0.6) ? trace::Direction::kRx : trace::Direction::kTx;
    r.ttl = static_cast<std::uint8_t>(100 + rng.below(25));
    records.push_back(r);
  }
  return records;
}

std::filesystem::path scratch_file(const char* name) {
  return std::filesystem::temp_directory_path() /
         (std::string{"peerscope_bench_"} + std::to_string(::getpid()) +
          name);
}

// One FlowTable update per record: the per-packet online path, which
// the swarm's sinks take for every signaling packet.
void BM_FlowIngest(benchmark::State& state) {
  const auto records = synth(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    trace::FlowTable table{net::Ipv4Addr{10, 0, 0, 1}};
    for (const auto& r : records) table.add(r);
    benchmark::DoNotOptimize(table.flow_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FlowIngest)->Arg(100'000);

void BM_TraceWrite(benchmark::State& state) {
  const auto records = synth(static_cast<std::size_t>(state.range(0)));
  const auto path = scratch_file("w.psct");
  for (auto _ : state) {
    trace::write_trace_binary(path, net::Ipv4Addr{10, 0, 0, 1}, records);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(std::filesystem::file_size(path)));
  std::filesystem::remove(path);
}
BENCHMARK(BM_TraceWrite)->Arg(100'000);

void BM_TraceReadAndRebuild(benchmark::State& state) {
  const auto records = synth(static_cast<std::size_t>(state.range(0)));
  const auto path = scratch_file("r.psct");
  trace::write_trace_binary(path, net::Ipv4Addr{10, 0, 0, 1}, records);
  for (auto _ : state) {
    const auto file = trace::read_trace_binary(path);
    const auto table =
        trace::FlowTable::from_records(file.probe, file.records);
    benchmark::DoNotOptimize(table.total_rx_bytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  std::filesystem::remove(path);
}
BENCHMARK(BM_TraceReadAndRebuild)->Arg(100'000);

void BM_PcapWrite(benchmark::State& state) {
  const auto records = synth(static_cast<std::size_t>(state.range(0)));
  const auto path = scratch_file("w.pcap");
  for (auto _ : state) {
    trace::write_pcap(path, net::Ipv4Addr{10, 0, 0, 1}, records);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  std::filesystem::remove(path);
}
BENCHMARK(BM_PcapWrite)->Arg(100'000);

}  // namespace

BENCHMARK_MAIN();

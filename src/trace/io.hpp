// Trace files in memory, and the CSV exporter for eyeballing traces
// with standard tooling. The on-disk format is PSBT
// (binary_format.hpp); pcap (pcap.hpp) is the interop format.
#pragma once

#include <filesystem>
#include <vector>

#include "net/ipv4.hpp"
#include "trace/record.hpp"

namespace peerscope::trace {

struct TraceFile {
  net::Ipv4Addr probe;
  std::vector<PacketRecord> records;
};

/// CSV with header: ts_ns,remote,dir,kind,bytes,ttl
void write_trace_csv(const std::filesystem::path& path, net::Ipv4Addr probe,
                     const std::vector<PacketRecord>& records);

}  // namespace peerscope::trace

#include "trace/io.hpp"

#include <sstream>

#include "util/atomic_file.hpp"

namespace peerscope::trace {

void write_trace_csv(const std::filesystem::path& path, net::Ipv4Addr probe,
                     const std::vector<PacketRecord>& records) {
  std::ostringstream out;
  out << "# probe=" << probe.to_string() << '\n';
  out << "ts_ns,remote,dir,kind,bytes,ttl\n";
  for (const auto& r : records) {
    out << r.ts.ns() << ',' << r.remote.to_string() << ','
        << (r.dir == Direction::kRx ? "rx" : "tx") << ','
        << (r.kind == sim::PacketKind::kVideo ? "video" : "sig") << ','
        << r.bytes << ',' << static_cast<int>(r.ttl) << '\n';
  }
  util::write_file_atomic(path, out.str());
}

}  // namespace peerscope::trace

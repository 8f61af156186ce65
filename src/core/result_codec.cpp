#include "core/result_codec.hpp"

#include "common/check.hpp"

namespace gpawfd::core {

// ---- SimResult codec ---------------------------------------------------

std::vector<std::uint8_t> encode_sim_result(const SimResult& r) {
  std::vector<std::uint8_t> out;
  out.reserve(kSimResultCodecBytes);
  append_double(out, r.seconds);
  append_double(out, r.compute_core_seconds);
  append_double(out, r.utilization);
  append_u64(out, static_cast<std::uint64_t>(r.bytes_sent_total));
  append_double(out, r.bytes_sent_per_node);
  append_u64(out, static_cast<std::uint64_t>(r.messages_total));
  append_double(out, r.phases.compute);
  append_double(out, r.phases.copy);
  append_double(out, r.phases.mpi_overhead);
  append_double(out, r.phases.wait);
  append_double(out, r.phases.barrier);
  append_double(out, r.phases.spawn);
  return out;
}

SimResult decode_sim_result(const std::uint8_t* p, std::size_t n) {
  GPAWFD_CHECK_MSG(n == kSimResultCodecBytes,
                   "SimResult payload is " << n << " bytes, want "
                                           << kSimResultCodecBytes);
  SimResult r;
  r.seconds = read_double(p);
  r.compute_core_seconds = read_double(p + 8);
  r.utilization = read_double(p + 16);
  r.bytes_sent_total = static_cast<std::int64_t>(read_u64(p + 24));
  r.bytes_sent_per_node = read_double(p + 32);
  r.messages_total = static_cast<std::int64_t>(read_u64(p + 40));
  r.phases.compute = read_double(p + 48);
  r.phases.copy = read_double(p + 56);
  r.phases.mpi_overhead = read_double(p + 64);
  r.phases.wait = read_double(p + 72);
  r.phases.barrier = read_double(p + 80);
  r.phases.spawn = read_double(p + 88);
  return r;
}

}  // namespace gpawfd::core

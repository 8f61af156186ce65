// Little-endian byte primitives: the one implementation behind every
// binary format in the repo — the SimResult codec (core/result_codec),
// the RPC wire frames (net/frame) and the record-log header
// (common/record_log). Doubles travel as their IEEE-754 bit images, so
// encoding round-trips to the last bit.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace gpawfd {

inline void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void append_double(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  append_u64(out, bits);
}

inline std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

inline std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

inline double read_double(const std::uint8_t* p) {
  const std::uint64_t bits = read_u64(p);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

}  // namespace gpawfd

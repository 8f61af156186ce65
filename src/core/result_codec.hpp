// Fixed-width binary codec for core::SimResult. One implementation
// shared by every layer that serializes results — the RPC wire format
// (src/net/frame) and the persistent result store (src/svc/cache_store)
// — so a result that crosses the wire and a result recovered from disk
// are byte-identical by construction: 12 little-endian 8-byte fields,
// doubles stored as their IEEE-754 bit images, so encoding round-trips
// to the last bit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "core/sim_executor.hpp"

namespace gpawfd::core {

// ---- little-endian primitives -----------------------------------------
// One implementation in common/bytes.hpp, re-exported so codec users
// keep reading as core:: throughout.

using gpawfd::append_u32;
using gpawfd::append_u64;
using gpawfd::append_double;
using gpawfd::read_u32;
using gpawfd::read_u64;
using gpawfd::read_double;

// ---- SimResult codec ---------------------------------------------------

/// Encoded size: 12 fields x 8 bytes. A change here is a format change
/// for both the wire protocol and the on-disk store — bump
/// net::kWireVersion and svc::kStoreVersion together with it.
inline constexpr std::size_t kSimResultCodecBytes = 12 * 8;

std::vector<std::uint8_t> encode_sim_result(const SimResult& r);
/// Throws Error on a size mismatch.
SimResult decode_sim_result(const std::uint8_t* p, std::size_t n);

}  // namespace gpawfd::core

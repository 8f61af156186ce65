// Length-prefixed binary framing for the RPC front-end. One frame is
//
//   magic(4) | version(1) | type(1) | status(1) | flags(1) |
//   request_id(8) | payload_len(4) | payload...
//
// all little-endian, 20 header bytes. Submit requests carry the
// svc::JobKey canonical string as payload (the key is already a stable,
// versioned serialization of the whole SimJobSpec) with the priority
// class in `flags`; result responses carry a fixed-width binary
// SimResult; error responses carry a WireStatus in `status` plus a
// human-readable message payload. FrameDecoder reassembles frames from
// an arbitrary byte stream (torn reads, many frames per read) and
// enforces the max-frame admission limit before buffering a payload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/figures.hpp"
#include "core/result_codec.hpp"
#include "net/wire_status.hpp"

namespace gpawfd::net {

inline constexpr std::uint32_t kMagic = 0x46575047;  // "GPWF" on the wire
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderBytes = 20;
inline constexpr std::size_t kDefaultMaxFrameBytes = 64 * 1024;

enum class FrameType : std::uint8_t {
  kSubmit = 1,  // payload: JobKey canonical string; flags: priority
  kResult = 2,  // payload: binary SimResult; status: kOk
  kError = 3,   // payload: message; status: the WireStatus
  kPing = 4,    // payload: empty
  kPong = 5,    // payload: empty; also acks a kFill
  kFill = 6,    // payload: FillRecord (peer cache-fill push)
};

struct FrameHeader {
  std::uint8_t version = kWireVersion;
  FrameType type = FrameType::kPing;
  WireStatus status = WireStatus::kOk;
  std::uint8_t flags = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

// ---- little-endian primitives -----------------------------------------
// One implementation in common/bytes.hpp, shared with the result codec
// and the record log; re-exported here so wire code keeps reading
// as net:: throughout.

using core::append_u32;
using core::append_u64;
using core::append_double;
using core::read_u32;
using core::read_u64;
using core::read_double;

// ---- frame encoding ----------------------------------------------------

/// Header + payload as one contiguous wire-ready byte string.
std::vector<std::uint8_t> encode_frame(const FrameHeader& header,
                                       const std::uint8_t* payload,
                                       std::size_t payload_len);

std::vector<std::uint8_t> make_submit_frame(std::uint64_t request_id,
                                            const std::string& canonical,
                                            svc::Priority priority);
std::vector<std::uint8_t> make_result_frame(std::uint64_t request_id,
                                            const core::SimResult& result);
std::vector<std::uint8_t> make_error_frame(std::uint64_t request_id,
                                           WireStatus status,
                                           const std::string& message);
std::vector<std::uint8_t> make_control_frame(FrameType type,
                                             std::uint64_t request_id);

// ---- peer cache-fill ----------------------------------------------------

/// One pushed cache entry: the receiving node ingests it exactly as it
/// would a warm-loaded store record (ResultCache::insert_warm semantics,
/// newest-wins by write_time). The value bytes are the shared
/// core/result_codec encoding, so a fill payload *is* a CacheStore
/// record body — the replication path reuses the persistence codec.
struct FillRecord {
  std::string key;  // JobKey canonical string
  core::SimResult result{};
  double cost_seconds = 0;  // measured cold cost (weights eviction)
  double write_time = 0;    // trace::unix_seconds() at production time
};

/// Fill payload: key_len(4) | key | cost(8,f64) | write_time(8,f64) |
/// value (kSimResultWireBytes), all little-endian.
std::vector<std::uint8_t> make_fill_frame(std::uint64_t request_id,
                                          const FillRecord& record);
/// Strict inverse of make_fill_frame's payload: lengths must account
/// for every byte (no trailing garbage) and the key must be non-empty
/// and bounded. Throws Error on any violation.
FillRecord decode_fill_payload(const std::uint8_t* data, std::size_t len);

/// Priority class carried in a submit frame's flags byte; out-of-range
/// values clamp to kNormal (a forward-compatibility valve, not an error).
svc::Priority priority_of_flags(std::uint8_t flags);

// ---- incremental decoding ----------------------------------------------

/// Reassembles frames from a TCP byte stream. feed() appends whatever
/// the socket produced; next() pops at most one complete frame per call.
/// Protocol errors (bad magic/version, oversized frame) are sticky: the
/// stream cannot be resynchronized, so the connection must be dropped.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  enum class Status {
    kNeedMore,  // no complete frame buffered yet
    kFrame,     // `frame` holds the next decoded frame
    kError,     // protocol violation; see error/error_status
  };

  struct Result {
    Status status = Status::kNeedMore;
    Frame frame;
    /// On kError: what went wrong, and the reply status the server
    /// should send before closing (when the header was readable,
    /// `frame.header` carries the offending request id).
    std::string error;
    WireStatus error_status = WireStatus::kBadRequest;
    bool header_valid = false;
  };

  void feed(const std::uint8_t* data, std::size_t n);
  Result next();

  std::size_t buffered_bytes() const { return buf_.size() - pos_; }
  std::size_t max_frame_bytes() const { return max_frame_bytes_; }

 private:
  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  bool poisoned_ = false;
  Result poison_;
};

// ---- payload codecs ----------------------------------------------------

/// Fixed-width binary SimResult: 12 little-endian 8-byte fields (doubles
/// bit-exact via their IEEE-754 representation), so a result round-trips
/// the wire identical to the last bit. The codec itself lives in
/// core/result_codec.{hpp,cpp} — the same bytes the persistent cache
/// store (src/svc/cache_store) writes to disk, so a kResult reply *is* a
/// serialized store entry.
inline constexpr std::size_t kSimResultWireBytes = core::kSimResultCodecBytes;

using core::encode_sim_result;
using core::decode_sim_result;

/// Parse a svc::JobKey canonical string back into the SimJobSpec it
/// encodes — the server side of a submit payload. Strict: the parsed
/// spec is re-canonicalized and must reproduce the input byte-for-byte
/// (so any parser/encoder drift, wrong version, or trailing garbage is a
/// bad request, never a silently different simulation), and the decoded
/// fields must pass basic admission bounds (a remote client cannot ask
/// a worker to chew on a petabyte grid). Throws Error on any violation.
core::SimJobSpec parse_job_spec(const std::string& canonical);

}  // namespace gpawfd::net

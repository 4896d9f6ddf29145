// Length-prefixed binary frame codec for the serve wire protocol.
//
// Every message on a serve connection is one frame: a fixed 20-byte
// little-endian header followed by `payload_len` payload bytes. The
// codec is transport-agnostic (the same bytes flow over Unix-domain and
// TCP sockets) and decoding is non-throwing: a malformed header maps to
// the shared quarantine Reason vocabulary (bad-magic, bad-version,
// implausible-size, truncated), so a corrupt or hostile peer produces a
// typed error reply and a quarantine entry instead of killing the
// daemon — the same failure model the archive parsers follow.
//
//   offset  size  field
//        0     4  magic        0x58544F49 ("IOTX")
//        4     2  version      protocol version (currently 1)
//        6     1  type         FrameType
//        7     1  flags        FrameFlag bits
//        8     8  request_id   client-chosen, echoed verbatim in replies
//       16     4  payload_len  bytes following the header
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/util/quarantine.hpp"

namespace iotax::util {

enum class FrameType : std::uint8_t {
  kPredictRequest = 1,   // payload: PredictRequest (serve/protocol.hpp)
  kPredictResponse = 2,  // payload: PredictResponse
  kErrorResponse = 3,    // payload: ErrorResponse
  kPing = 4,             // empty payload; server replies kPong
  kPong = 5,             // empty payload
  kControlRequest = 6,   // payload: ControlRequest (promote/rollback/status)
  kControlResponse = 7,  // payload: ControlResponse
};

enum FrameFlag : std::uint8_t {
  kFlagPredictDist = 1,  // request mean/aleatory/epistemic, not a point
  kFlagShadow = 2,       // also score the shadow model: values = {prod, shadow}
};

struct FrameHeader {
  static constexpr std::uint32_t kMagic = 0x58544F49u;  // "IOTX" on the wire
  static constexpr std::uint16_t kVersion = 1;
  static constexpr std::size_t kWireSize = 20;
  /// Upper bound on payload_len; anything larger is kImplausibleSize
  /// (a corrupt length field must not drive allocation).
  static constexpr std::uint32_t kMaxPayload = 1u << 20;

  std::uint16_t version = kVersion;
  std::uint8_t type = 0;
  std::uint8_t flags = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
};

// -- little-endian primitive codec (append / cursor-read) -------------------

void put_u16(std::string* out, std::uint16_t v);
void put_u32(std::string* out, std::uint32_t v);
void put_u64(std::string* out, std::uint64_t v);
/// f64 is transported as its IEEE-754 bit pattern, so a value round-trips
/// bit-identically (the serve-vs-offline golden tests depend on this).
void put_f64(std::string* out, double v);

/// Cursor reads: advance *pos past the field; return false when fewer
/// than the needed bytes remain (cursor unchanged).
bool get_u16(std::span<const std::uint8_t> buf, std::size_t* pos,
             std::uint16_t* v);
bool get_u32(std::span<const std::uint8_t> buf, std::size_t* pos,
             std::uint32_t* v);
bool get_u64(std::span<const std::uint8_t> buf, std::size_t* pos,
             std::uint64_t* v);
bool get_f64(std::span<const std::uint8_t> buf, std::size_t* pos, double* v);

// -- frame encode / decode --------------------------------------------------

/// One whole frame (header + payload) as wire bytes.
std::string encode_frame(FrameType type, std::uint8_t flags,
                         std::uint64_t request_id, std::string_view payload);

struct FrameDecode {
  enum class Status {
    kOk,        // header + full payload present; `header`/`consumed` valid
    kNeedMore,  // prefix of a plausible frame; feed more bytes
    kBad,       // unrecoverable framing defect; `reason`/`detail` valid
  };
  Status status = Status::kNeedMore;
  FrameHeader header;
  /// Total bytes (header + payload) consumed when kOk.
  std::size_t consumed = 0;
  Reason reason = Reason::kBadMagic;
  std::string detail;
};

/// Inspect the start of `buf` for one frame. Never throws; a bad magic,
/// unsupported version, or implausible length is kBad with the matching
/// quarantine Reason. kNeedMore callers that hit end-of-stream should
/// quarantine as Reason::kTruncated (the codec cannot distinguish a slow
/// peer from a truncated one).
FrameDecode decode_frame(std::span<const std::uint8_t> buf);

/// Write `request_id` into an encoded frame's header (bytes 8-15). The
/// frame carries no checksum, so the fleet router re-tags a forwarded
/// frame without touching its payload.
void patch_request_id(std::span<std::uint8_t> frame, std::uint64_t request_id);

/// Reassembles frames from a byte stream: the one copy of the receive
/// buffer, parse cursor and defect mapping that every framed connection
/// (event-loop connection, router backhaul, blocking client) uses.
///
///   reader.read_from(fd);
///   while (reader.peek().status == kOk) { use frame()/payload(); pop(); }
///
/// A kBad peek is unrecoverable for the stream (framing is lost); at
/// end of stream, buffered() > 0 means the peer cut a frame short,
/// which truncation_detail() describes as Reason::kTruncated.
class FrameReader {
 public:
  /// One recv() of up to 16 KiB straight into the buffer. Returns its
  /// result: bytes read, 0 at end of stream, -1 with errno set (EINTR
  /// is retried).
  ssize_t read_from(int fd);

  /// Decode the frame at the cursor without consuming it.
  const FrameDecode& peek();
  /// The peeked kOk frame's bytes (header + payload) and payload; valid
  /// until the next read_from or pop.
  std::span<std::uint8_t> frame();
  std::span<const std::uint8_t> payload() const;
  /// Consume the peeked kOk frame.
  void pop();

  /// Bytes received but not yet popped.
  std::size_t buffered() const { return end_ - start_; }
  std::string truncation_detail() const;
  void clear();

 private:
  std::vector<std::uint8_t> buf_;  // size() is the capacity
  std::size_t start_ = 0;          // parse cursor
  std::size_t end_ = 0;            // end of received bytes
  FrameDecode dec_;
};

}  // namespace iotax::util

#include "src/util/frame.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace iotax::util {

namespace {

void put_bytes(std::string* out, const void* p, std::size_t n) {
  out->append(static_cast<const char*>(p), n);
}

bool get_bytes(std::span<const std::uint8_t> buf, std::size_t* pos, void* p,
               std::size_t n) {
  if (buf.size() - *pos < n) return false;
  std::memcpy(p, buf.data() + *pos, n);
  *pos += n;
  return true;
}

}  // namespace

// The library only targets little-endian hosts (the binary archive
// format already assumes it), so the "codec" is a bounds-checked memcpy.
void put_u16(std::string* out, std::uint16_t v) { put_bytes(out, &v, 2); }
void put_u32(std::string* out, std::uint32_t v) { put_bytes(out, &v, 4); }
void put_u64(std::string* out, std::uint64_t v) { put_bytes(out, &v, 8); }
void put_f64(std::string* out, double v) { put_bytes(out, &v, 8); }

bool get_u16(std::span<const std::uint8_t> buf, std::size_t* pos,
             std::uint16_t* v) {
  return get_bytes(buf, pos, v, 2);
}
bool get_u32(std::span<const std::uint8_t> buf, std::size_t* pos,
             std::uint32_t* v) {
  return get_bytes(buf, pos, v, 4);
}
bool get_u64(std::span<const std::uint8_t> buf, std::size_t* pos,
             std::uint64_t* v) {
  return get_bytes(buf, pos, v, 8);
}
bool get_f64(std::span<const std::uint8_t> buf, std::size_t* pos, double* v) {
  return get_bytes(buf, pos, v, 8);
}

std::string encode_frame(FrameType type, std::uint8_t flags,
                         std::uint64_t request_id, std::string_view payload) {
  std::string out;
  out.reserve(FrameHeader::kWireSize + payload.size());
  put_u32(&out, FrameHeader::kMagic);
  put_u16(&out, FrameHeader::kVersion);
  out.push_back(static_cast<char>(type));
  out.push_back(static_cast<char>(flags));
  put_u64(&out, request_id);
  put_u32(&out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

FrameDecode decode_frame(std::span<const std::uint8_t> buf) {
  FrameDecode r;
  // Reject a wrong magic as soon as the bytes that disagree arrive: a
  // peer speaking another protocol should not be able to stall us by
  // sending three bytes and pausing.
  const std::uint8_t magic_bytes[4] = {0x49, 0x4F, 0x54, 0x58};  // "IOTX"
  for (std::size_t i = 0; i < 4 && i < buf.size(); ++i) {
    if (buf[i] != magic_bytes[i]) {
      r.status = FrameDecode::Status::kBad;
      r.reason = Reason::kBadMagic;
      r.detail = "frame does not start with IOTX";
      return r;
    }
  }
  if (buf.size() < FrameHeader::kWireSize) {
    r.status = FrameDecode::Status::kNeedMore;
    return r;
  }
  std::size_t pos = 4;  // magic already checked
  std::uint8_t type = 0;
  std::uint8_t flags = 0;
  get_u16(buf, &pos, &r.header.version);
  get_bytes(buf, &pos, &type, 1);
  get_bytes(buf, &pos, &flags, 1);
  get_u64(buf, &pos, &r.header.request_id);
  get_u32(buf, &pos, &r.header.payload_len);
  r.header.type = type;
  r.header.flags = flags;
  if (r.header.version != FrameHeader::kVersion) {
    r.status = FrameDecode::Status::kBad;
    r.reason = Reason::kBadVersion;
    r.detail = "protocol version " + std::to_string(r.header.version);
    return r;
  }
  if (r.header.payload_len > FrameHeader::kMaxPayload) {
    r.status = FrameDecode::Status::kBad;
    r.reason = Reason::kImplausibleSize;
    r.detail = "payload length " + std::to_string(r.header.payload_len);
    return r;
  }
  if (buf.size() < FrameHeader::kWireSize + r.header.payload_len) {
    r.status = FrameDecode::Status::kNeedMore;
    return r;
  }
  r.status = FrameDecode::Status::kOk;
  r.consumed = FrameHeader::kWireSize + r.header.payload_len;
  return r;
}

void patch_request_id(std::span<std::uint8_t> frame,
                      std::uint64_t request_id) {
  std::memcpy(frame.data() + 8, &request_id, sizeof(request_id));
}

namespace {
constexpr std::size_t kReadChunk = 16384;
}  // namespace

ssize_t FrameReader::read_from(int fd) {
  if (start_ == end_) start_ = end_ = 0;
  if (buf_.size() - end_ < kReadChunk) {
    // Slide the unparsed tail to the front; grow if that is not enough.
    if (start_ > 0) {
      std::memmove(buf_.data(), buf_.data() + start_, end_ - start_);
      end_ -= start_;
      start_ = 0;
    }
    if (buf_.size() - end_ < kReadChunk) buf_.resize(end_ + kReadChunk);
  }
  ssize_t n;
  do {
    n = ::recv(fd, buf_.data() + end_, buf_.size() - end_, 0);
  } while (n < 0 && errno == EINTR);
  if (n > 0) end_ += static_cast<std::size_t>(n);
  return n;
}

const FrameDecode& FrameReader::peek() {
  dec_ = decode_frame(std::span<const std::uint8_t>(buf_.data() + start_,
                                                    end_ - start_));
  return dec_;
}

std::span<std::uint8_t> FrameReader::frame() {
  return {buf_.data() + start_, dec_.consumed};
}

std::span<const std::uint8_t> FrameReader::payload() const {
  return {buf_.data() + start_ + FrameHeader::kWireSize,
          dec_.header.payload_len};
}

void FrameReader::pop() {
  start_ += dec_.consumed;
  dec_ = FrameDecode{};
}

std::string FrameReader::truncation_detail() const {
  return "connection closed inside a frame (" + std::to_string(buffered()) +
         " byte(s) of partial frame)";
}

void FrameReader::clear() {
  start_ = end_ = 0;
  dec_ = FrameDecode{};
}

}  // namespace iotax::util

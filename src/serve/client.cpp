#include "src/serve/client.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace iotax::serve {

using util::FrameDecode;
using util::FrameType;

namespace {

void set_timeout(int fd, int option, std::uint64_t ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

/// A blocking connect() bounded by `timeout_ms` (0 = unbounded): a send
/// timeout caps connect() too, for both socket families. Throws Timeout
/// past the bound and runtime_error when the peer is not there.
int connect_to(const sockaddr* addr, socklen_t len, const std::string& where,
               std::uint64_t timeout_ms) {
  const int fd = ::socket(addr->sa_family, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("query: socket() failed");
  set_timeout(fd, SO_SNDTIMEO, timeout_ms);
  int rc;
  while ((rc = ::connect(fd, addr, len)) < 0 && errno == EINTR) {
  }
  const int err = errno;
  set_timeout(fd, SO_SNDTIMEO, 0);
  if (rc == 0) return fd;
  ::close(fd);
  if (err == EINPROGRESS || err == EAGAIN) {
    throw Client::Timeout("query: connect to " + where + " timed out after " +
                          std::to_string(timeout_ms) + "ms");
  }
  throw std::runtime_error("query: cannot connect to " + where + ": " +
                           std::strerror(err));
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      reader_(std::move(other.reader_)),
      recv_timeout_ms_(std::exchange(other.recv_timeout_ms_, 0)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    reader_ = std::move(other.reader_);
    recv_timeout_ms_ = std::exchange(other.recv_timeout_ms_, 0);
  }
  return *this;
}

Client Client::connect_unix(const std::string& path,
                            std::uint64_t connect_timeout_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("query: unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return Client(connect_to(reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr), path, connect_timeout_ms));
}

Client Client::connect_tcp(const std::string& host, std::uint16_t port,
                           std::uint64_t connect_timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int gai = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                                &hints, &res);
  if (gai != 0 || res == nullptr) {
    throw std::runtime_error("query: cannot resolve " + host + ": " +
                             ::gai_strerror(gai));
  }
  sockaddr_in addr{};
  std::memcpy(&addr, res->ai_addr, sizeof(addr));
  ::freeaddrinfo(res);
  return Client(connect_to(reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr), host + ":" + std::to_string(port),
                           connect_timeout_ms));
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_.clear();
}

void Client::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Client::set_recv_timeout_ms(std::uint64_t ms) {
  recv_timeout_ms_ = ms;
  if (fd_ >= 0) set_timeout(fd_, SO_RCVTIMEO, ms);
}

void Client::send_raw(std::string_view bytes) {
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("query: send failed: ") +
                               std::strerror(errno));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

void Client::send_predict(const PredictRequest& req) {
  send_raw(encode_predict_request(req));
}

void Client::send_ping(std::uint64_t request_id) {
  send_raw(encode_ping(request_id));
}

void Client::send_control(const ControlRequest& req) {
  send_raw(encode_control_request(req));
}

bool Client::read_reply(Reply* out) {
  while (true) {
    const FrameDecode& dec = reader_.peek();
    if (dec.status == FrameDecode::Status::kBad) {
      throw std::runtime_error("query: malformed reply frame: " + dec.detail);
    }
    if (dec.status == FrameDecode::Status::kOk) {
      const auto payload = reader_.payload();
      out->type = static_cast<FrameType>(dec.header.type);
      out->request_id = dec.header.request_id;
      bool parsed = true;
      switch (out->type) {
        case FrameType::kPredictResponse:
          parsed = decode_predict_response(dec.header, payload, &out->predict);
          break;
        case FrameType::kErrorResponse:
          parsed = decode_error_response(dec.header, payload, &out->error);
          break;
        case FrameType::kControlResponse:
          parsed = decode_control_response(dec.header, payload, &out->control);
          break;
        case FrameType::kPong:
          break;
        default:
          parsed = false;
      }
      if (!parsed) {
        throw std::runtime_error("query: unparseable reply payload (type " +
                                 std::to_string(dec.header.type) + ")");
      }
      reader_.pop();
      return true;
    }
    // kNeedMore: pull more bytes off the socket.
    const ssize_t n = reader_.read_from(fd_);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw Timeout("query: no reply within " +
                      std::to_string(recv_timeout_ms_) + "ms deadline");
      }
      throw std::runtime_error(std::string("query: recv failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      if (reader_.buffered() > 0) {
        throw std::runtime_error("query: connection closed mid-reply");
      }
      return false;  // clean EOF
    }
  }
}

}  // namespace iotax::serve

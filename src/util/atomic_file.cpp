#include "src/util/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace iotax::util {
namespace {

[[noreturn]] void fail(const std::string& path, const char* step, int err) {
  throw std::runtime_error("cannot write " + path + ": " + step + ": " +
                           std::strerror(err));
}

}  // namespace

void write_file_atomic(const std::string& path, std::string_view bytes) {
  // pid + a per-process counter: concurrent writers of one path, in this
  // process or another, never share a temp file.
  static std::atomic<unsigned long> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                        0666);
  if (fd < 0) fail(path, "open temp file", errno);
  const auto abandon = [&](const char* step) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    fail(path, step, err);
  };
  for (std::size_t off = 0; off < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      abandon("write");
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) abandon("fsync");
  if (::close(fd) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    fail(path, "close", err);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    fail(path, "rename", err);
  }
}

}  // namespace iotax::util

#ifndef _WIN32

#include "serve/socket.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/clock.h"

namespace rlccd {
namespace serve {

namespace {

Status fill_addr(const std::string& path, sockaddr_un& addr) {
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::invalid_argument(
        "socket path must be 1..%zu bytes, got %zu",
        sizeof(addr.sun_path) - 1, path.size());
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return Status();
}

}  // namespace

Status unix_listen(const std::string& path, int& fd_out) {
  sockaddr_un addr;
  RLCCD_TRY(fill_addr(path, addr));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::io_error("socket: %s", std::strerror(errno));
  }
  // The daemon owns its socket path: a stale file from a previous run (or a
  // crashed daemon) must not block startup.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status s =
        Status::io_error("bind %s: %s", path.c_str(), std::strerror(errno));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) < 0) {
    const Status s =
        Status::io_error("listen %s: %s", path.c_str(), std::strerror(errno));
    ::close(fd);
    return s;
  }
  Status nb = set_nonblocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  fd_out = fd;
  return Status();
}

Status unix_accept(int listen_fd, int& fd_out) {
  fd_out = -1;
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
      Status nb = set_nonblocking(fd);
      if (!nb.ok()) {
        ::close(fd);
        return nb;
      }
      fd_out = fd;
      return Status();
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
      return Status();  // nothing pending (or the peer already gave up)
    }
    return Status::io_error("accept: %s", std::strerror(errno));
  }
}

Status unix_connect(const std::string& path, double timeout_sec,
                    int& fd_out) {
  sockaddr_un addr;
  RLCCD_TRY(fill_addr(path, addr));
  const double deadline = mono_sec() + (timeout_sec > 0.0 ? timeout_sec : 0.0);
  Status last = Status::io_error("connect %s: never attempted", path.c_str());
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      return Status::io_error("socket: %s", std::strerror(errno));
    }
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      fd_out = fd;
      return Status();
    }
    last = Status::io_error("connect %s: %s", path.c_str(),
                            std::strerror(errno));
    ::close(fd);
    if (timeout_sec <= 0.0 || mono_sec() >= deadline) return last;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

Status recv_frame(int fd, FrameDecoder& decoder, Frame& frame,
                  double timeout_sec) {
  const double deadline =
      timeout_sec > 0.0 ? mono_sec() + timeout_sec : 0.0;
  for (;;) {
    if (decoder.next(frame)) return Status();
    if (!decoder.error().ok()) return decoder.error();

    int timeout_ms = -1;
    if (deadline > 0.0) {
      const double left = deadline - mono_sec();
      if (left <= 0.0) {
        return Status::io_error("timeout waiting for a frame");
      }
      timeout_ms = static_cast<int>(left * 1e3) + 1;
    }
    pollfd pfd{fd, POLLIN, 0};
    int pr;
    do {
      pr = ::poll(&pfd, 1, timeout_ms);
    } while (pr < 0 && errno == EINTR);
    if (pr < 0) {
      return Status::io_error("poll: %s", std::strerror(errno));
    }
    if (pr == 0) continue;  // deadline re-checked above

    bool eof = false;
    RLCCD_TRY(read_available(fd, decoder, eof));
    if (eof && !decoder.next(frame)) {
      if (decoder.mid_frame()) {
        return Status::corrupt("connection closed mid-frame");
      }
      return Status::io_error("connection closed");
    }
    if (eof) return Status();  // the buffered bytes completed a frame
  }
}

}  // namespace serve
}  // namespace rlccd

#endif  // !_WIN32

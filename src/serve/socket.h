// Unix-domain stream sockets for the serve daemon and its clients.
//
// Thin Status-returning wrappers over socket/bind/listen/accept/connect
// plus a deadline-bounded frame receive built on common/ipc's FrameDecoder.
// All fds are created close-on-exec; the listener and accepted connections
// are nonblocking (the daemon multiplexes them through one poll loop),
// client connections stay blocking for writes and use poll() for reads.
#pragma once

#ifndef _WIN32

#include <string>

#include "common/ipc.h"
#include "common/status.h"

namespace rlccd {
namespace serve {

// Binds and listens on `path` (an existing socket file is unlinked first —
// the daemon owns its socket path). The returned fd is nonblocking.
Status unix_listen(const std::string& path, int& fd_out);

// Accepts one pending connection; returns it nonblocking in `fd_out`, or
// -1 with an OK status when the listener has nothing pending (EAGAIN).
Status unix_accept(int listen_fd, int& fd_out);

// Connects to the daemon at `path`, retrying (50 ms apart) until
// `timeout_sec` elapses — covers the daemon still starting up and the
// serve_accept_fail fault point dropping a connection on the floor.
Status unix_connect(const std::string& path, double timeout_sec, int& fd_out);

// Receives the next complete frame, polling `fd` until `timeout_sec`
// elapses (<= 0: wait forever). EOF before a full frame arrives is an
// io_error ("connection closed"), a torn frame a corrupt Status, an expired
// deadline an io_error mentioning "timeout". Bytes beyond the returned
// frame stay buffered in `decoder` for the next call.
Status recv_frame(int fd, FrameDecoder& decoder, Frame& frame,
                  double timeout_sec);

}  // namespace serve
}  // namespace rlccd

#endif  // !_WIN32

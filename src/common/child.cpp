#include "common/child.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/clock.h"
#include "common/contracts.h"
#include "common/log.h"

#ifndef _WIN32
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace rlccd {

const char* worker_failure_name(WorkerFailure f) {
  switch (f) {
    case WorkerFailure::kNone: return "none";
    case WorkerFailure::kExit: return "exit";
    case WorkerFailure::kSignal: return "signal";
    case WorkerFailure::kTimeout: return "timeout";
    case WorkerFailure::kProtocol: return "protocol";
  }
  return "?";
}

double retry_backoff_sec(double base, int restart, double u) {
  const double delay = std::min(
      base * std::pow(2.0, static_cast<double>(restart)), kRetryBackoffMaxSec);
  return delay * (1.0 + 0.5 * u);
}

#ifndef _WIN32

WorkerExit classify_worker_exit(int wait_status, bool killed, bool stream_bad,
                                bool got_result) {
  WorkerExit out;
  if (got_result) return out;
  if (killed) {
    out.failure = WorkerFailure::kTimeout;
    out.term_signal = SIGKILL;
  } else if (stream_bad ||
             (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0)) {
    // Malformed or truncated stream, an explicit error frame, or a clean
    // exit that never produced a result: the protocol was violated.
    out.failure = WorkerFailure::kProtocol;
  } else if (WIFEXITED(wait_status)) {
    out.failure = WorkerFailure::kExit;
    out.exit_code = WEXITSTATUS(wait_status);
  } else if (WIFSIGNALED(wait_status)) {
    out.failure = WorkerFailure::kSignal;
    out.term_signal = WTERMSIG(wait_status);
  } else {
    out.failure = WorkerFailure::kProtocol;
  }
  return out;
}

// -- ChildAttempt -------------------------------------------------------------

ChildAttempt::~ChildAttempt() {
  if (!running()) return;
  kill("abandoned");
  (void)reap();
}

Status ChildAttempt::spawn(Limits limits,
                           const std::vector<int>& close_in_child,
                           const std::function<void(int)>& child_main) {
  RLCCD_EXPECTS(!running());
  // A child whose parent-side read end vanished must see EPIPE, not die.
  ::signal(SIGPIPE, SIG_IGN);

  Pipe pipe;
  RLCCD_TRY(pipe_create(pipe));
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(pipe.read_fd);
    ::close(pipe.write_fd);
    return Status::io_error("fork: %s", std::strerror(err));
  }
  if (pid == 0) {
    ::close(pipe.read_fd);
    for (int fd : close_in_child) {
      if (fd >= 0) ::close(fd);
    }
    child_main(pipe.write_fd);
    _exit(0);
  }
  ::close(pipe.write_fd);
  (void)set_nonblocking(pipe.read_fd);
  limits_ = limits;
  pid_ = pid;
  fd_ = pipe.read_fd;
  decoder_ = FrameDecoder();
  started_ = mono_sec();
  last_activity_ = started_;
  got_result_ = false;
  killed_ = false;
  kill_reason_ = "";
  result_.clear();
  error_.clear();
  return Status();
}

bool ChildAttempt::pump(const std::function<void(Frame&)>& on_frame) {
  bool eof = false;
  std::size_t bytes = 0;
  const Status rs = read_available(fd_, decoder_, eof, &bytes);
  if (bytes > 0) last_activity_ = mono_sec();
  Frame frame;
  while (decoder_.next(frame)) {
    switch (frame.type) {
      case static_cast<std::uint8_t>(FrameType::kHeartbeat):
        break;  // activity already refreshed above
      case static_cast<std::uint8_t>(FrameType::kResult):
        got_result_ = true;
        result_ = std::move(frame.payload);
        break;
      case static_cast<std::uint8_t>(FrameType::kError):
        error_ = std::move(frame.payload);
        break;
      default:
        on_frame(frame);
    }
  }
  if (!rs.ok()) {
    RLCCD_LOG_WARN("child %d: pipe read: %s", pid_, rs.to_string().c_str());
    return true;
  }
  return eof;
}

const char* ChildAttempt::enforce(double now) {
  if (!running() || killed_) return nullptr;
  if (limits_.deadline_sec > 0.0 && now - started_ > limits_.deadline_sec) {
    kill("deadline exceeded");
  } else if (limits_.heartbeat_timeout_sec > 0.0 &&
             now - last_activity_ > limits_.heartbeat_timeout_sec) {
    kill("heartbeat silence");
  } else {
    return nullptr;
  }
  return kill_reason_;
}

bool ChildAttempt::kill(const char* reason) {
  if (!running() || killed_) return false;
  killed_ = true;
  kill_reason_ = reason;
  ::kill(pid_, SIGKILL);
  return true;
}

void ChildAttempt::terminate() const {
  if (running()) ::kill(pid_, SIGTERM);
}

double ChildAttempt::next_wakeup() const {
  double next = std::numeric_limits<double>::infinity();
  if (!running() || killed_) return next;
  if (limits_.deadline_sec > 0.0) {
    next = std::min(next, started_ + limits_.deadline_sec);
  }
  if (limits_.heartbeat_timeout_sec > 0.0) {
    next = std::min(next, last_activity_ + limits_.heartbeat_timeout_sec);
  }
  return next;
}

void ChildAttempt::reject(std::string why) {
  got_result_ = false;
  result_.clear();
  error_ = std::move(why);
}

WorkerExit ChildAttempt::reap() {
  ::close(fd_);
  fd_ = -1;
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &status, 0);
  } while (r < 0 && errno == EINTR);
  pid_ = -1;
  const bool stream_bad =
      !decoder_.error().ok() || decoder_.mid_frame() || !error_.empty();
  return classify_worker_exit(status, killed_, stream_bad, got_result_);
}

std::string ChildAttempt::describe(const WorkerExit& e) const {
  const char* detail = killed_ ? kill_reason_ : error_.c_str();
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s%s%s (exit=%d signal=%d)",
                worker_failure_name(e.failure), *detail ? ": " : "", detail,
                e.exit_code, e.term_signal);
  return buf;
}

// -- ChildChannel -------------------------------------------------------------

Status ChildChannel::send(std::uint8_t type, std::string_view payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  return write_frame(fd_, static_cast<FrameType>(type), payload);
}

void ChildChannel::start_heartbeat(double interval_sec,
                                   std::function<void()> on_beat) {
  on_beat_ = std::move(on_beat);
  if (interval_sec <= 0.0) return;
  beat_ = std::thread([this, interval_sec] {
    try {
      double next = mono_sec();
      while (!stop_.load(std::memory_order_relaxed)) {
        const double now = mono_sec();
        if (now >= next) {
          if (!send(static_cast<std::uint8_t>(FrameType::kHeartbeat), {})
                   .ok()) {
            return;  // the parent is gone; nobody is listening
          }
          if (on_beat_) on_beat_();
          next = now + interval_sec;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    } catch (const std::exception& e) {
      // Beats stop; the parent's heartbeat timeout decides what that means.
      RLCCD_LOG_ERROR("heartbeat thread: %s", e.what());
    }
  });
}

void ChildChannel::stop_beat() {
  stop_.store(true, std::memory_order_relaxed);
  if (beat_.joinable()) beat_.join();
}

void ChildChannel::finish() {
  if (finished_) return;
  finished_ = true;
  stop_beat();
  if (on_beat_) on_beat_();
}

#endif  // !_WIN32

}  // namespace rlccd

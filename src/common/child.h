// One forked-child lifecycle, shared by both process owners: the rollout
// supervisor (rl/isolation/supervisor.h) and the serve daemon
// (serve/daemon.h). Each keeps its own scheduling; one attempt's fork,
// heartbeat, kill, reap and classification live here. Frames are
// common/ipc.h's.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/ipc.h"
#include "common/status.h"

namespace rlccd {

enum class WorkerFailure : std::uint8_t {
  kNone = 0,
  kExit,      // child exited with a nonzero code
  kSignal,    // child terminated by a signal (segfault, OOM kill, ...)
  kTimeout,   // parent killed it: deadline or heartbeat silence
  kProtocol,  // stream ended mid-frame or carried a malformed frame
};
const char* worker_failure_name(WorkerFailure f);

struct WorkerExit {
  WorkerFailure failure = WorkerFailure::kNone;  // kNone: result delivered
  int exit_code = -1;   // valid for kExit
  int term_signal = 0;  // valid for kSignal / kTimeout
};

inline constexpr double kRetryBackoffMaxSec = 2.0;

// Delay before 0-based restart `restart`: min(base * 2^restart, 2.0) *
// (1 + u/2), u in [0, 1) drawn by the caller from its own seeded stream.
[[nodiscard]] double retry_backoff_sec(double base, int restart, double u);

#ifndef _WIN32

// Classifies a finished attempt from its raw waitpid() status. `killed`:
// the parent SIGKILLed the child. `stream_bad`: a malformed or truncated
// frame, or an error frame. `got_result`: a complete result frame arrived —
// kNone regardless of exit status. A clean exit (code 0) that never
// produced a result is kProtocol.
[[nodiscard]] WorkerExit classify_worker_exit(int wait_status, bool killed,
                                              bool stream_bad,
                                              bool got_result);

// Parent side of one attempt; spawn() again after reap() to retry.
class ChildAttempt {
 public:
  struct Limits {
    double deadline_sec = 0.0;           // hard wall clock; <= 0 disables
    double heartbeat_timeout_sec = 0.0;  // silence bound; <= 0 disables
  };

  ChildAttempt() = default;
  // An attempt still running is SIGKILLed and reaped: no orphan, no zombie.
  ~ChildAttempt();
  ChildAttempt(const ChildAttempt&) = delete;
  ChildAttempt& operator=(const ChildAttempt&) = delete;

  // Forks with a result pipe. The child closes the read end and every fd
  // in `close_in_child` (no exec follows, so FD_CLOEXEC cannot help), then
  // runs `child_main(write_fd)`, which should _exit(); returning exits 0
  // without a result. The parent keeps the read end, nonblocking.
  Status spawn(Limits limits, const std::vector<int>& close_in_child,
               const std::function<void(int write_fd)>& child_main);

  // Drains the pipe. Any byte counts as heartbeat activity; result and
  // error frames are captured, heartbeats consumed, every other frame goes
  // to `on_frame`. True once the stream ended: reap() must follow.
  bool pump(const std::function<void(Frame&)>& on_frame);

  // SIGKILLs an attempt past its deadline or heartbeat timeout and returns
  // why; nullptr otherwise. Never kills an attempt twice.
  const char* enforce(double now);
  // SIGKILLs for `reason` unless already killed; true when it did.
  bool kill(const char* reason);
  // SIGTERM: a cooperative stop request.
  void terminate() const;
  // When enforce() could next fire; +infinity when never.
  [[nodiscard]] double next_wakeup() const;

  // Drops any captured result and marks the stream bad (reap() then says
  // kProtocol), for frames that fail the caller's own decoding.
  void reject(std::string why);

  // Closes the pipe, waits for the child (retrying EINTR), classifies.
  WorkerExit reap();

  [[nodiscard]] bool running() const { return pid_ > 0; }
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] double started() const { return started_; }
  [[nodiscard]] bool got_result() const { return got_result_; }
  [[nodiscard]] std::string& result() { return result_; }
  [[nodiscard]] bool killed() const { return killed_; }
  // "<failure>[: <kill reason or error text>] (exit=N signal=N)".
  [[nodiscard]] std::string describe(const WorkerExit& e) const;

 private:
  Limits limits_;
  int pid_ = -1;
  int fd_ = -1;
  FrameDecoder decoder_;
  double started_ = 0.0;
  double last_activity_ = 0.0;
  bool got_result_ = false;
  bool killed_ = false;
  const char* kill_reason_ = "";
  std::string result_;
  std::string error_;
};

// Child side: the pipe's one writer. A frame past PIPE_BUF is not written
// atomically, so sends are serialized by a mutex.
class ChildChannel {
 public:
  explicit ChildChannel(int fd) : fd_(fd) {}
  ~ChildChannel() { stop_beat(); }  // no final flush
  ChildChannel(const ChildChannel&) = delete;
  ChildChannel& operator=(const ChildChannel&) = delete;

  // One whole frame, from any thread. Failure means the parent is gone.
  Status send(std::uint8_t type, std::string_view payload);

  // A heartbeat frame every `interval_sec` (the first at once), each
  // followed by `on_beat()`, which ships what the child recorded since the
  // last beat. Stops when a write fails; `interval_sec` <= 0: no thread.
  void start_heartbeat(double interval_sec, std::function<void()> on_beat);

  // Joins the heartbeat thread, then runs the hook once more (the final
  // flush before the result frame). Idempotent.
  void finish();

 private:
  void stop_beat();

  int fd_;
  std::mutex mutex_;
  std::function<void()> on_beat_;
  std::atomic<bool> stop_{false};
  std::thread beat_;
  bool finished_ = false;
};

#endif  // !_WIN32

}  // namespace rlccd

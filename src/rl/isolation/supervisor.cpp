#include "rl/isolation/supervisor.h"

#include "common/contracts.h"
#include "common/fault.h"
#include "common/ipc.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/telemetry_wire.h"
#include "common/trace.h"

#ifndef _WIN32
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#include <fcntl.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <thread>

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

RolloutSupervisor::RolloutSupervisor(SupervisorConfig config)
    : config_(config) {
  RLCCD_EXPECTS(config.workers >= 1);
  RLCCD_EXPECTS(config.max_restarts >= 0);
}

#ifdef _WIN32

WorkerExit classify_worker_exit(int, bool, bool, bool) {
  WorkerExit out;
  out.failure = WorkerFailure::kProtocol;
  return out;
}

bool RolloutSupervisor::supported() { return false; }

std::vector<WorkerOutcome> RolloutSupervisor::run(const WorkerJob&) {
  RLCCD_LOG_ERROR("process isolation is not supported on this platform");
  return std::vector<WorkerOutcome>(
      static_cast<std::size_t>(config_.workers));
}

#else

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

namespace {

double mono_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Fault directives for one spawn, decided in the parent so hit counting is
// global and deterministic (each forked child would otherwise count hits in
// its own copy of the injector).
struct Directives {
  bool crash = false;
  bool oom = false;
  bool truncate = false;
  bool hang = false;
  double hang_sec = 0.0;
};

bool targets_worker(double param, int w) {
  return param < 0.0 || static_cast<int>(param) == w;
}

Directives eval_directives(int w) {
  Directives d;
  double p = 0.0;
  if (fault_fire("worker_crash", &p) && targets_worker(p, w)) d.crash = true;
  p = 0.0;
  if (fault_fire("worker_oom", &p) && targets_worker(p, w)) d.oom = true;
  p = 0.0;
  if (fault_fire("pipe_truncate", &p) && targets_worker(p, w)) {
    d.truncate = true;
  }
  p = 0.0;
  if (fault_fire("worker_hang", &p)) {
    d.hang = true;
    d.hang_sec = p > 0.0 ? p : 3600.0;
  }
  return d;
}

[[noreturn]] void run_child(int w, int write_fd, const Directives& dir,
                            double hb_interval, const WorkerJob& job) {
  if (dir.crash) _exit(3);
  if (dir.oom) {
    // What the kernel OOM killer looks like from the outside.
    ::raise(SIGKILL);
    ::pause();
  }
  if (dir.hang) {
    // Wedge silently: no heartbeats, no result. The parent's heartbeat
    // timeout (or hard deadline) must notice and SIGKILL us.
    std::this_thread::sleep_for(std::chrono::duration<double>(dir.hang_sec));
    _exit(0);
  }

  // Trace shipping: the child inherits the parent recorder's runtime gate
  // and ring contents across fork; prime a cursor so only events recorded
  // *after* the fork ship back. Numeric telemetry is NOT shipped here — it
  // rides the result wire's TelemetrySnapshot, so nothing double-counts.
  TraceCursor trace_cursor;
  std::uint64_t obs_seq = 0;
  const bool ship_trace = TraceRecorder::enabled();
  if (ship_trace) TraceRecorder::global().sync_cursor(trace_cursor);
  // Single-threaded use only: the heartbeat thread calls this while alive,
  // the main thread only after joining it (final flush before the result).
  auto ship_obs = [&trace_cursor, &obs_seq, write_fd, ship_trace]() {
    if (!ship_trace) return;
    ObsDelta d;
    d.seq = ++obs_seq;
    d.source_pid = static_cast<std::int32_t>(::getpid());
    TraceRecorder::global().collect_since(trace_cursor, d.trace_events);
    if (d.trace_events.empty()) return;
    (void)write_frame(write_fd, FrameType::kTelemetry, d.encode());
  };

  std::atomic<bool> done{false};
  std::thread beat;
  if (hb_interval > 0.0) {
    beat = std::thread([&done, &ship_obs, write_fd, hb_interval]() {
      double last = mono_sec();
      while (!done.load(std::memory_order_relaxed)) {
        const double now = mono_sec();
        if (now - last >= hb_interval) {
          if (!write_frame(write_fd, FrameType::kHeartbeat, "").ok()) return;
          ship_obs();
          last = now;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }

  std::string payload;
  std::string error;
  bool failed = false;
  try {
    payload = job(w);
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  } catch (...) {
    failed = true;
    error = "unknown exception";
  }
  done.store(true, std::memory_order_relaxed);
  if (beat.joinable()) beat.join();
  // Final flush: trace events recorded after the last heartbeat ship now,
  // so a clean completion loses nothing.
  ship_obs();

  if (failed) {
    (void)write_frame(write_fd, FrameType::kError, error);
    _exit(4);
  }
  if (dir.truncate) {
    (void)write_truncated_frame(write_fd, FrameType::kResult, payload,
                                payload.size() / 2);
    _exit(0);
  }
  Status s = write_frame(write_fd, FrameType::kResult, payload);
  _exit(s.ok() ? 0 : 5);
}

struct Slot {
  enum class State { kIdle, kBackoff, kRunning, kDone };
  State state = State::kIdle;
  double due = 0.0;  // kBackoff: earliest respawn time
  pid_t pid = -1;
  int fd = -1;
  FrameDecoder decoder;
  double started = 0.0;
  double last_activity = 0.0;  // any bytes read (heartbeat or payload)
  bool got_result = false;
  bool killed = false;
  const char* kill_reason = "";
  std::string error_frame;
  WorkerOutcome out;
  Rng jitter;

  Slot() : jitter(0) {}
};

}  // namespace

bool RolloutSupervisor::supported() { return true; }

std::vector<WorkerOutcome> RolloutSupervisor::run(const WorkerJob& job) {
  // A child whose parent-side read end vanished must see EPIPE, not die.
  static const bool sigpipe_ignored = []() {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)sigpipe_ignored;

  MetricsRegistry& reg = MetricsRegistry::global();
  static MetricsCounter& ctr_restarts = reg.counter("train.worker_restarts");
  static MetricsCounter& ctr_kills = reg.counter("train.worker_kills");

  const int n = config_.workers;
  std::vector<Slot> slots(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    slots[static_cast<std::size_t>(w)].jitter = Rng(
        config_.backoff_seed ^
        (0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(w) + 1)));
  }

  auto spawn = [&](int w) {
    Slot& s = slots[static_cast<std::size_t>(w)];
    const Directives dir = eval_directives(w);
    Pipe pipe;
    Status ps = pipe_create(pipe);
    if (!ps.ok()) {
      // Out of fds is not a child crash; give up on this worker.
      RLCCD_LOG_ERROR("worker %d: %s", w, ps.to_string().c_str());
      s.state = Slot::State::kDone;
      return;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      RLCCD_LOG_ERROR("worker %d: fork: %s", w, std::strerror(errno));
      ::close(pipe.read_fd);
      ::close(pipe.write_fd);
      s.state = Slot::State::kDone;
      return;
    }
    if (pid == 0) {
      // Child: drop every inherited supervisor fd except our write end, so
      // sibling EOFs are not held open by us.
      ::close(pipe.read_fd);
      for (const Slot& other : slots) {
        if (other.state == Slot::State::kRunning && other.fd >= 0) {
          ::close(other.fd);
        }
      }
      run_child(w, pipe.write_fd, dir, config_.heartbeat_interval_sec, job);
    }
    ::close(pipe.write_fd);
    ::fcntl(pipe.read_fd, F_SETFL, O_NONBLOCK);
    s.state = Slot::State::kRunning;
    s.pid = pid;
    s.fd = pipe.read_fd;
    s.decoder = FrameDecoder();
    s.started = mono_sec();
    s.last_activity = s.started;
    s.got_result = false;
    s.killed = false;
    s.error_frame.clear();
    ++s.out.attempts;
  };

  // Classify a finished attempt and either schedule a restart with backoff
  // or mark the worker permanently failed.
  auto finalize = [&](int w) {
    Slot& s = slots[static_cast<std::size_t>(w)];
    ::close(s.fd);
    s.fd = -1;
    int st = 0;
    pid_t r;
    do {
      r = ::waitpid(s.pid, &st, 0);
    } while (r < 0 && errno == EINTR);
    s.pid = -1;

    if (s.got_result) {
      s.state = Slot::State::kDone;
      s.out.completed = true;
      return;
    }

    const bool stream_bad = !s.decoder.error().ok() ||
                            s.decoder.mid_frame() || !s.error_frame.empty();
    const WorkerExit cls =
        classify_worker_exit(st, s.killed, stream_bad, /*got_result=*/false);
    const WorkerFailure f = cls.failure;
    const int code = cls.exit_code;
    const int sig = cls.term_signal;
    s.out.last_failure = f;
    s.out.exit_code = code;
    s.out.term_signal = sig;

    const char* detail = s.killed ? s.kill_reason
                         : !s.error_frame.empty() ? s.error_frame.c_str()
                                                  : "";
    if (s.out.attempts <= config_.max_restarts) {
      const std::size_t restart =
          s.out.backoff_sec.size();  // 0-based restart index
      double delay = config_.backoff_base_sec *
                     std::pow(2.0, static_cast<double>(restart));
      delay = std::min(delay, config_.backoff_max_sec);
      delay *= 1.0 + 0.5 * s.jitter.uniform();
      s.out.backoff_sec.push_back(delay);
      s.state = Slot::State::kBackoff;
      s.due = mono_sec() + delay;
      ctr_restarts.increment();
      RLCCD_TRACE_INSTANT("train.worker_restart");
      RLCCD_LOG_WARN(
          "worker %d attempt %d failed (%s%s%s, exit=%d signal=%d); "
          "restarting in %.0f ms",
          w, s.out.attempts, worker_failure_name(f), *detail ? ": " : "",
          detail, code, sig, delay * 1e3);
    } else {
      s.state = Slot::State::kDone;
      RLCCD_LOG_ERROR(
          "worker %d lost after %d attempts (%s%s%s, exit=%d signal=%d)", w,
          s.out.attempts, worker_failure_name(f), *detail ? ": " : "",
          detail, code, sig);
    }
  };

  auto drain = [&](int w) {
    Slot& s = slots[static_cast<std::size_t>(w)];
    bool eof = false;
    std::size_t bytes = 0;
    Status rs = read_available(s.fd, s.decoder, eof, &bytes);
    if (bytes > 0) s.last_activity = mono_sec();
    Frame frame;
    while (s.decoder.next(frame)) {
      if (frame.type == static_cast<std::uint8_t>(FrameType::kResult)) {
        s.got_result = true;
        s.out.payload = std::move(frame.payload);
      } else if (frame.type == static_cast<std::uint8_t>(FrameType::kError)) {
        s.error_frame = std::move(frame.payload);
      } else if (frame.type ==
                 static_cast<std::uint8_t>(FrameType::kTelemetry)) {
        // Child trace events stitch into the parent timeline on the
        // child's pid row. A frame that fails to decode is dropped whole —
        // a torn delta can never half-apply.
        ObsDelta d;
        if (d.decode(frame.payload).ok()) {
          reg.merge_delta(d.telemetry);
          TraceRecorder::global().import_events(
              d.source_pid > 0 ? d.source_pid : static_cast<int>(s.pid),
              d.trace_events);
        }
      }
      // Heartbeats only refresh last_activity, done above.
    }
    if (!rs.ok()) {
      RLCCD_LOG_WARN("worker %d: pipe read: %s", w, rs.to_string().c_str());
      finalize(w);
      return;
    }
    if (eof) finalize(w);  // the attempt is over, whatever happened
  };

  const bool hb_on =
      config_.heartbeat_interval_sec > 0.0 && config_.heartbeat_timeout_sec > 0.0;
  for (;;) {
    double now = mono_sec();
    // Spawn everything that is due (initial spawns in worker order).
    for (int w = 0; w < n; ++w) {
      Slot& s = slots[static_cast<std::size_t>(w)];
      if (s.state == Slot::State::kIdle ||
          (s.state == Slot::State::kBackoff && s.due <= now)) {
        spawn(w);
      }
    }

    std::vector<pollfd> fds;
    std::vector<int> fd_worker;
    double next_event = now + 0.2;  // idle tick
    bool any_pending = false;
    for (int w = 0; w < n; ++w) {
      Slot& s = slots[static_cast<std::size_t>(w)];
      if (s.state == Slot::State::kRunning) {
        any_pending = true;
        fds.push_back(pollfd{s.fd, POLLIN, 0});
        fd_worker.push_back(w);
        if (config_.deadline_sec > 0.0) {
          next_event = std::min(next_event, s.started + config_.deadline_sec);
        }
        if (hb_on) {
          next_event = std::min(
              next_event, s.last_activity + config_.heartbeat_timeout_sec);
        }
      } else if (s.state == Slot::State::kBackoff) {
        any_pending = true;
        next_event = std::min(next_event, s.due);
      }
    }
    if (!any_pending) break;

    const int timeout_ms = std::max(
        1, static_cast<int>(std::ceil((next_event - now) * 1e3)));
    int pr;
    do {
      pr = ::poll(fds.data(), fds.size(), timeout_ms);
    } while (pr < 0 && errno == EINTR);

    for (std::size_t i = 0; i < fds.size(); ++i) {
      const int w = fd_worker[i];
      Slot& s = slots[static_cast<std::size_t>(w)];
      if (s.state != Slot::State::kRunning) continue;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) drain(w);
    }

    // Enforcement: hard deadline and heartbeat silence. A killed attempt
    // stays kRunning until its EOF is read; it must not be killed (and
    // counted) again on the polls in between.
    now = mono_sec();
    for (int w = 0; w < n; ++w) {
      Slot& s = slots[static_cast<std::size_t>(w)];
      if (s.state != Slot::State::kRunning || s.killed) continue;
      const bool over_deadline =
          config_.deadline_sec > 0.0 &&
          now - s.started > config_.deadline_sec;
      const bool hb_silent =
          hb_on && now - s.last_activity > config_.heartbeat_timeout_sec;
      if (!over_deadline && !hb_silent) continue;
      s.killed = true;
      s.kill_reason = over_deadline ? "deadline exceeded" : "heartbeat lost";
      ++s.out.kills;
      ctr_kills.increment();
      RLCCD_TRACE_INSTANT("train.worker_kill");
      RLCCD_LOG_WARN("worker %d: %s after %.2fs; sending SIGKILL", w,
                     s.kill_reason, now - s.started);
      ::kill(s.pid, SIGKILL);
      // The EOF that follows the kill finalizes and classifies the attempt.
    }
  }

  std::vector<WorkerOutcome> outcomes;
  outcomes.reserve(static_cast<std::size_t>(n));
  for (Slot& s : slots) outcomes.push_back(std::move(s.out));
  return outcomes;
}

#endif  // _WIN32

}  // namespace rlccd

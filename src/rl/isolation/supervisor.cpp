#include "rl/isolation/supervisor.h"

#include "common/clock.h"
#include "common/contracts.h"
#include "common/fault.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/telemetry_wire.h"
#include "common/trace.h"

#ifndef _WIN32
#include <poll.h>
#include <signal.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <thread>

namespace rlccd {

RolloutSupervisor::RolloutSupervisor(SupervisorConfig config)
    : config_(config) {
  RLCCD_EXPECTS(config.workers >= 1);
  RLCCD_EXPECTS(config.max_restarts >= 0);
}

#ifdef _WIN32

bool RolloutSupervisor::supported() { return false; }

std::vector<WorkerOutcome> RolloutSupervisor::run(const WorkerJob&) {
  RLCCD_LOG_ERROR("process isolation is not supported on this platform");
  return std::vector<WorkerOutcome>(
      static_cast<std::size_t>(config_.workers));
}

#else

namespace {

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
  ChildChannel channel(write_fd);
  TraceCursor trace_cursor;
  std::uint64_t obs_seq = 0;
  const bool ship_trace = TraceRecorder::enabled();
  if (ship_trace) TraceRecorder::global().sync_cursor(trace_cursor);
  channel.start_heartbeat(hb_interval, [&]() {
    if (!ship_trace) return;
    ObsDelta d;
    d.seq = ++obs_seq;
    d.source_pid = static_cast<std::int32_t>(::getpid());
    TraceRecorder::global().collect_since(trace_cursor, d.trace_events);
    if (d.trace_events.empty()) return;
    (void)channel.send(static_cast<std::uint8_t>(FrameType::kTelemetry),
                       d.encode());
  });

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
  channel.finish();

  if (failed) {
    (void)channel.send(static_cast<std::uint8_t>(FrameType::kError), error);
    _exit(4);
  }
  if (dir.truncate) {
    (void)write_truncated_frame(write_fd, FrameType::kResult, payload,
                                payload.size() / 2);
    _exit(0);
  }
  const Status s =
      channel.send(static_cast<std::uint8_t>(FrameType::kResult), payload);
  _exit(s.ok() ? 0 : 5);
}

struct Slot {
  enum class State { kIdle, kBackoff, kRunning, kDone };
  State state = State::kIdle;
  double due = 0.0;  // kBackoff: earliest respawn time
  ChildAttempt attempt;
  WorkerOutcome out;
  Rng jitter{0};
};

}  // namespace

bool RolloutSupervisor::supported() { return true; }

std::vector<WorkerOutcome> RolloutSupervisor::run(const WorkerJob& job) {
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
  ChildAttempt::Limits limits;
  limits.deadline_sec = config_.deadline_sec;
  if (config_.heartbeat_interval_sec > 0.0) {
    limits.heartbeat_timeout_sec = config_.heartbeat_timeout_sec;
  }

  auto spawn = [&](int w) {
    Slot& s = slots[static_cast<std::size_t>(w)];
    const Directives dir = eval_directives(w);
    // The child drops every sibling's read end, so sibling EOFs are not
    // held open by it.
    std::vector<int> siblings;
    for (const Slot& other : slots) {
      if (other.state == Slot::State::kRunning) {
        siblings.push_back(other.attempt.fd());
      }
    }
    const Status ss = s.attempt.spawn(limits, siblings, [&](int write_fd) {
      run_child(w, write_fd, dir, config_.heartbeat_interval_sec, job);
    });
    if (!ss.ok()) {
      // Out of fds or processes is not a child crash; give up on this
      // worker.
      RLCCD_LOG_ERROR("worker %d: %s", w, ss.to_string().c_str());
      s.state = Slot::State::kDone;
      return;
    }
    s.state = Slot::State::kRunning;
    ++s.out.attempts;
  };

  // Classify a finished attempt and either schedule a restart with backoff
  // or mark the worker permanently failed.
  auto finalize = [&](int w) {
    Slot& s = slots[static_cast<std::size_t>(w)];
    const WorkerExit cls = s.attempt.reap();
    if (cls.failure == WorkerFailure::kNone) {
      s.state = Slot::State::kDone;
      s.out.completed = true;
      s.out.payload = std::move(s.attempt.result());
      return;
    }
    s.out.last_failure = cls.failure;
    s.out.exit_code = cls.exit_code;
    s.out.term_signal = cls.term_signal;

    const std::string desc = s.attempt.describe(cls);
    if (s.out.attempts <= config_.max_restarts) {
      const int restart = static_cast<int>(s.out.backoff_sec.size());
      const double delay = retry_backoff_sec(config_.backoff_base_sec,
                                             restart, s.jitter.uniform());
      s.out.backoff_sec.push_back(delay);
      s.state = Slot::State::kBackoff;
      s.due = mono_sec() + delay;
      ctr_restarts.increment();
      RLCCD_TRACE_INSTANT("train.worker_restart");
      RLCCD_LOG_WARN("worker %d attempt %d failed (%s); restarting in %.0f ms",
                     w, s.out.attempts, desc.c_str(), delay * 1e3);
    } else {
      s.state = Slot::State::kDone;
      RLCCD_LOG_ERROR("worker %d lost after %d attempts (%s)", w,
                      s.out.attempts, desc.c_str());
    }
  };

  // Child trace events stitch into the parent timeline on the child's pid
  // row. A frame that fails to decode is dropped whole — a torn delta can
  // never half-apply. Children ship trace events only (numeric telemetry
  // rides the result wire), so there is nothing to merge into the registry.
  auto on_frame = [&](int pid, Frame& frame) {
    if (frame.type != static_cast<std::uint8_t>(FrameType::kTelemetry)) return;
    ObsDelta d;
    if (!d.decode(frame.payload).ok()) return;
    TraceRecorder::global().import_events(
        d.source_pid > 0 ? d.source_pid : pid, d.trace_events);
  };

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
        fds.push_back(pollfd{s.attempt.fd(), POLLIN, 0});
        fd_worker.push_back(w);
        next_event = std::min(next_event, s.attempt.next_wakeup());
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
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int pid = s.attempt.pid();
      if (s.attempt.pump([&](Frame& f) { on_frame(pid, f); })) finalize(w);
    }

    // Enforcement: hard deadline and heartbeat silence. The EOF that
    // follows a kill finalizes and classifies the attempt.
    now = mono_sec();
    for (int w = 0; w < n; ++w) {
      Slot& s = slots[static_cast<std::size_t>(w)];
      if (s.state != Slot::State::kRunning) continue;
      const char* reason = s.attempt.enforce(now);
      if (reason == nullptr) continue;
      ++s.out.kills;
      ctr_kills.increment();
      RLCCD_TRACE_INSTANT("train.worker_kill");
      RLCCD_LOG_WARN("worker %d: %s after %.2fs; sent SIGKILL", w, reason,
                     now - s.attempt.started());
    }
  }

  std::vector<WorkerOutcome> outcomes;
  outcomes.reserve(static_cast<std::size_t>(n));
  for (Slot& s : slots) outcomes.push_back(std::move(s.out));
  return outcomes;
}

#endif  // _WIN32

}  // namespace rlccd

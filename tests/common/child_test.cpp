// The shared child-process lifecycle (common/child.h): the crash taxonomy,
// the restart delay, and real forks — a child whose heartbeat thread and
// main thread write frames at the same time, and a silent child that must
// be killed exactly once.
#include "common/child.h"

#include <gtest/gtest.h>

#ifndef _WIN32
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "common/clock.h"

namespace rlccd {
namespace {

TEST(RetryBackoff, DoublesFromBaseJittersUpToHalfAndCapsAtTwoSeconds) {
  const double base = 0.05;
  for (int r = 0; r < 12; ++r) {
    const double floor = std::min(base * static_cast<double>(1 << r), 2.0);
    EXPECT_DOUBLE_EQ(retry_backoff_sec(base, r, 0.0), floor) << "restart "
                                                               << r;
    EXPECT_DOUBLE_EQ(retry_backoff_sec(base, r, 0.5), floor * 1.25);
    EXPECT_LT(retry_backoff_sec(base, r, 0.999), floor * 1.5);
  }
  // 0.05 * 2^6 = 3.2 s is past the cap: every later restart waits 2 s
  // before jitter, and never more than 3 s after it.
  EXPECT_DOUBLE_EQ(retry_backoff_sec(base, 6, 0.0), kRetryBackoffMaxSec);
  EXPECT_DOUBLE_EQ(retry_backoff_sec(base, 40, 0.0), kRetryBackoffMaxSec);
  EXPECT_LT(retry_backoff_sec(base, 40, 0.999), 1.5 * kRetryBackoffMaxSec);
}

#ifndef _WIN32

TEST(ChildExit, ClassifiesEveryEnding) {
  struct Row {
    const char* name;
    int wait_status;
    bool killed;
    bool stream_bad;
    bool got_result;
    WorkerFailure failure;
    int exit_code;
    int term_signal;
  };
  const Row rows[] = {
      {"result delivered, nonzero exit", W_EXITCODE(3, 0), false, false, true,
       WorkerFailure::kNone, -1, 0},
      {"killed by the parent", W_EXITCODE(0, SIGKILL), true, false, false,
       WorkerFailure::kTimeout, -1, SIGKILL},
      {"torn stream", W_EXITCODE(5, 0), false, true, false,
       WorkerFailure::kProtocol, -1, 0},
      {"clean exit without a result", W_EXITCODE(0, 0), false, false, false,
       WorkerFailure::kProtocol, -1, 0},
      {"exit 3", W_EXITCODE(3, 0), false, false, false, WorkerFailure::kExit, 3,
       0},
      {"segfault", W_EXITCODE(0, SIGSEGV), false, false, false,
       WorkerFailure::kSignal, -1, SIGSEGV},
  };
  for (const Row& row : rows) {
    const WorkerExit e = classify_worker_exit(row.wait_status, row.killed,
                                              row.stream_bad, row.got_result);
    EXPECT_EQ(e.failure, row.failure) << row.name;
    EXPECT_EQ(e.exit_code, row.exit_code) << row.name;
    EXPECT_EQ(e.term_signal, row.term_signal) << row.name;
  }
}

// Polls, pumps and enforces until the attempt's stream ends; counts the
// kills enforce() reports.
WorkerExit run_to_end(ChildAttempt& attempt,
                      const std::function<void(Frame&)>& on_frame,
                      int& kills) {
  for (;;) {
    pollfd p{attempt.fd(), POLLIN, 0};
    (void)::poll(&p, 1, 20);
    if (attempt.pump(on_frame)) return attempt.reap();
    if (attempt.enforce(mono_sec()) != nullptr) ++kills;
  }
}

TEST(ChildChannel, HeartbeatAndMainThreadFramesArriveWhole) {
  // Payloads past PIPE_BUF are written in several chunks; without the
  // channel's writer lock the two threads would interleave them.
  constexpr std::uint8_t kMainType = 20;
  constexpr std::uint8_t kBeatType = 21;
  constexpr int kMinMainFrames = 100;
  constexpr int kMinBeats = 10;
  const std::string main_payload(20000, 'm');
  const std::string beat_payload(30000, 'b');

  auto child_main = [&](int fd) {
    ChildChannel channel(fd);
    std::atomic<int> beats{0};
    channel.start_heartbeat(0.001, [&] {
      (void)channel.send(kBeatType, beat_payload);
      beats.fetch_add(1);
    });
    // Keep the main thread writing across many beats.
    for (int i = 0; i < kMinMainFrames || beats.load() < kMinBeats; ++i) {
      (void)channel.send(kMainType, main_payload);
    }
    channel.finish();
    (void)channel.send(static_cast<std::uint8_t>(FrameType::kResult), "done");
    _exit(0);
  };
  ChildAttempt attempt;
  ChildAttempt::Limits limits;
  limits.deadline_sec = 60.0;  // a wedged child fails the test, not CI
  ASSERT_TRUE(attempt.spawn(limits, {}, child_main).ok());

  int main_frames = 0;
  int beat_frames = 0;
  int other_frames = 0;
  int kills = 0;
  const WorkerExit exit = run_to_end(
      attempt,
      [&](Frame& f) {
        if (f.type == kMainType && f.payload == main_payload) {
          ++main_frames;
        } else if (f.type == kBeatType && f.payload == beat_payload) {
          ++beat_frames;
        } else {
          ++other_frames;
        }
      },
      kills);

  EXPECT_EQ(exit.failure, WorkerFailure::kNone);
  EXPECT_EQ(attempt.result(), "done");
  EXPECT_EQ(kills, 0);
  EXPECT_EQ(other_frames, 0) << "a frame arrived torn or interleaved";
  EXPECT_GE(main_frames, kMinMainFrames);
  EXPECT_GE(beat_frames, kMinBeats + 1) << "beats plus the final flush";
}

TEST(ChildAttempt, SilentChildIsKilledOnceAndClassifiedTimeout) {
  auto child_main = [](int) {
    std::this_thread::sleep_for(std::chrono::seconds(30));
    _exit(0);
  };
  ChildAttempt attempt;
  ChildAttempt::Limits limits;
  limits.heartbeat_timeout_sec = 0.1;
  ASSERT_TRUE(attempt.spawn(limits, {}, child_main).ok());
  EXPECT_LE(attempt.next_wakeup(), attempt.started() + 0.1);

  int kills = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const WorkerExit exit = run_to_end(attempt, [](Frame&) {}, kills);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  EXPECT_EQ(kills, 1) << "polls between the kill and its EOF must not re-kill";
  EXPECT_EQ(exit.failure, WorkerFailure::kTimeout);
  EXPECT_EQ(exit.term_signal, SIGKILL);
  EXPECT_EQ(attempt.describe(exit),
            "timeout: heartbeat silence (exit=-1 signal=9)");
  EXPECT_FALSE(attempt.running());
  EXPECT_LT(elapsed, 10.0);
}

#endif  // !_WIN32

}  // namespace
}  // namespace rlccd

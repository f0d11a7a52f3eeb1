// JobQueue unit tests: admission caps (global and per-session), the
// shed-lowest-priority overload policy, FIFO-per-session / round-robin
// cross-session scheduling, retry requeue-at-front with backoff gating, and
// the no-silent-jobs terminal invariant; plus the attempt's bounded
// postmortem tail and the JSON report written from it.
#include "serve/queue.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/io.h"
#include "common/json.h"

namespace rlccd {
namespace serve {
namespace {

JobSpec make_spec(const std::string& session, int priority = 0) {
  JobSpec spec;
  spec.session = session;
  spec.kind = JobKind::kNoop;
  spec.priority = priority;
  return spec;
}

class QueueTest : public ::testing::Test {
 protected:
  Session* session(const std::string& name) {
    for (auto& s : sessions_) {
      if (s->name == name) return s.get();
    }
    auto s = std::make_unique<Session>();
    s->name = name;
    s->dir = "/tmp/serve-test/" + name;
    sessions_.push_back(std::move(s));
    return sessions_.back().get();
  }

  std::vector<std::unique_ptr<Session>> sessions_;
};

TEST_F(QueueTest, AdmitsUpToGlobalDepthThenRejectsWithReason) {
  QueueConfig cfg;
  cfg.max_queue_depth = 3;
  cfg.max_queued_per_session = 8;
  JobQueue queue(cfg);
  Session* s = session("a");
  for (int i = 0; i < 3; ++i) {
    auto adm = queue.admit(make_spec("a"), s, 0.0);
    ASSERT_TRUE(adm.accepted) << i;
    ASSERT_NE(adm.job, nullptr);
    EXPECT_EQ(adm.job->state, JobState::kQueued);
  }
  auto rejected = queue.admit(make_spec("a"), s, 0.0);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.job, nullptr);
  EXPECT_NE(rejected.reason.find("queue full"), std::string::npos)
      << rejected.reason;
  EXPECT_EQ(queue.queued_depth(), 3);
  EXPECT_EQ(s->submitted, 3u) << "rejected submits never become jobs";
}

TEST_F(QueueTest, PerSessionBacklogCapRejectsBeforeGlobal) {
  QueueConfig cfg;
  cfg.max_queue_depth = 10;
  cfg.max_queued_per_session = 2;
  JobQueue queue(cfg);
  Session* s = session("greedy");
  ASSERT_TRUE(queue.admit(make_spec("greedy"), s, 0.0).accepted);
  ASSERT_TRUE(queue.admit(make_spec("greedy"), s, 0.0).accepted);
  auto adm = queue.admit(make_spec("greedy"), s, 0.0);
  EXPECT_FALSE(adm.accepted);
  EXPECT_NE(adm.reason.find("backlog full"), std::string::npos) << adm.reason;
  // Another session is unaffected by the first one's backlog.
  EXPECT_TRUE(queue.admit(make_spec("other"), session("other"), 0.0).accepted);
}

TEST_F(QueueTest, FullQueueShedsStrictlyLowerPriorityOnly) {
  QueueConfig cfg;
  cfg.max_queue_depth = 2;
  JobQueue queue(cfg);
  Session* s = session("a");
  auto low = queue.admit(make_spec("a", /*priority=*/0), s, 0.0);
  auto mid = queue.admit(make_spec("a", /*priority=*/5), s, 0.0);
  ASSERT_TRUE(low.accepted && mid.accepted);

  // Equal priority must not displace admitted work.
  auto equal = queue.admit(make_spec("a", /*priority=*/0), s, 0.0);
  EXPECT_FALSE(equal.accepted);
  EXPECT_EQ(equal.shed_victim, nullptr);

  // Strictly higher priority evicts the lowest-priority queued job.
  auto high = queue.admit(make_spec("a", /*priority=*/9), s, 0.0);
  ASSERT_TRUE(high.accepted);
  ASSERT_EQ(high.shed_victim, low.job);
  EXPECT_EQ(low.job->state, JobState::kShed);
  EXPECT_NE(low.job->detail.find("shed"), std::string::npos);
  EXPECT_EQ(queue.queued_depth(), 2);
  EXPECT_EQ(s->shed, 1u);
}

TEST_F(QueueTest, ShedTieBreaksOnYoungestJob) {
  QueueConfig cfg;
  cfg.max_queue_depth = 2;
  JobQueue queue(cfg);
  Session* s = session("a");
  auto older = queue.admit(make_spec("a", 0), s, 0.0);
  auto younger = queue.admit(make_spec("a", 0), s, 1.0);
  ASSERT_TRUE(older.accepted && younger.accepted);
  auto high = queue.admit(make_spec("a", 1), s, 2.0);
  ASSERT_TRUE(high.accepted);
  EXPECT_EQ(high.shed_victim, younger.job)
      << "among equals, work that has waited longest keeps its place";
  EXPECT_EQ(older.job->state, JobState::kQueued);
}

TEST_F(QueueTest, ForceFullTriggersOverloadPathBelowCapacity) {
  // The serve_queue_full fault point: admission behaves as if the global
  // queue were full even though it is not.
  JobQueue queue(QueueConfig{});
  Session* s = session("a");
  ASSERT_TRUE(queue.admit(make_spec("a", 0), s, 0.0).accepted);
  auto adm = queue.admit(make_spec("a", 0), s, 0.0, /*force_full=*/true);
  EXPECT_FALSE(adm.accepted);
  EXPECT_NE(adm.reason.find("queue full"), std::string::npos);
}

TEST_F(QueueTest, FifoWithinSessionRoundRobinAcrossSessions) {
  JobQueue queue(QueueConfig{});
  Session* a = session("a");
  Session* b = session("b");
  auto a1 = queue.admit(make_spec("a"), a, 0.0);
  auto a2 = queue.admit(make_spec("a"), a, 0.0);
  auto b1 = queue.admit(make_spec("b"), b, 0.0);
  auto b2 = queue.admit(make_spec("b"), b, 0.0);

  // Dispatch order: a1 b1 a2 b2 — FIFO inside a session, alternating
  // between sessions, even though session a queued everything first.
  std::vector<Job*> order;
  for (int i = 0; i < 4; ++i) {
    Job* job = queue.next_runnable(0.0);
    ASSERT_NE(job, nullptr) << i;
    queue.mark_running(job, /*slot=*/i);
    order.push_back(job);
  }
  EXPECT_EQ(order, (std::vector<Job*>{a1.job, b1.job, a2.job, b2.job}));
  EXPECT_EQ(queue.next_runnable(0.0), nullptr);
  EXPECT_EQ(queue.running_count(), 4);

  for (Job* job : order) queue.finish_running(job, JobState::kDone);
  queue.assert_no_silent_jobs();
}

TEST_F(QueueTest, InflightCapGatesSessionButNotOthers) {
  QueueConfig cfg;
  cfg.max_inflight_per_session = 1;
  JobQueue queue(cfg);
  Session* a = session("a");
  Session* b = session("b");
  auto a1 = queue.admit(make_spec("a"), a, 0.0);
  queue.admit(make_spec("a"), a, 0.0);
  auto b1 = queue.admit(make_spec("b"), b, 0.0);

  Job* first = queue.next_runnable(0.0);
  ASSERT_EQ(first, a1.job);
  queue.mark_running(first, 0);
  // Session a is at its in-flight cap; the next runnable must be b's job,
  // not a's second one.
  Job* second = queue.next_runnable(0.0);
  ASSERT_EQ(second, b1.job);
  queue.mark_running(second, 1);
  EXPECT_EQ(queue.next_runnable(0.0), nullptr)
      << "a's second job stays queued until a slot frees";

  queue.finish_running(first, JobState::kDone);
  Job* third = queue.next_runnable(0.0);
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->session, a);
}

TEST_F(QueueTest, RetryRequeuesAtFrontAndWaitsOutBackoff) {
  JobQueue queue(QueueConfig{});
  Session* s = session("a");
  auto first = queue.admit(make_spec("a"), s, 0.0);
  auto second = queue.admit(make_spec("a"), s, 0.0);

  Job* job = queue.next_runnable(0.0);
  ASSERT_EQ(job, first.job);
  queue.mark_running(job, 0);
  EXPECT_EQ(job->attempts, 1);

  // Crash: requeue with a backoff due at t=5. Until then nothing from this
  // session runs (the retry holds the front; FIFO order is preserved).
  queue.requeue_for_retry(job, /*due_sec=*/5.0);
  EXPECT_EQ(job->state, JobState::kRetryWait);
  EXPECT_TRUE(job->resume);
  EXPECT_EQ(queue.next_runnable(1.0), nullptr);
  EXPECT_EQ(queue.next_retry_due(1.0), 5.0);

  // Once the backoff expires the retry dispatches before the newer submit.
  Job* again = queue.next_runnable(5.0);
  ASSERT_EQ(again, first.job);
  queue.mark_running(again, 0);
  EXPECT_EQ(again->attempts, 2);
  Job* next = queue.next_runnable(5.0);
  EXPECT_EQ(next, second.job);
}

TEST_F(QueueTest, CancelQueuedAndFindById) {
  JobQueue queue(QueueConfig{});
  Session* s = session("a");
  auto adm = queue.admit(make_spec("a"), s, 0.0);
  ASSERT_TRUE(adm.accepted);
  EXPECT_EQ(queue.find(adm.job->id), adm.job);
  EXPECT_EQ(queue.find(999), nullptr);

  queue.remove_queued(adm.job, JobState::kCancelled);
  EXPECT_EQ(adm.job->state, JobState::kCancelled);
  EXPECT_EQ(queue.queued_depth(), 0);
  EXPECT_EQ(queue.next_runnable(0.0), nullptr);
  queue.assert_no_silent_jobs();
  EXPECT_EQ(queue.count_in_state(JobState::kCancelled), 1);
}

TEST_F(QueueTest, QueuedJobsSnapshotCoversAllSessions) {
  JobQueue queue(QueueConfig{});
  Session* a = session("a");
  Session* b = session("b");
  queue.admit(make_spec("a"), a, 0.0);
  queue.admit(make_spec("b"), b, 0.0);
  queue.admit(make_spec("a"), a, 0.0);
  auto snapshot = queue.queued_jobs();
  EXPECT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(queue.running_jobs().size(), 0u);
}

TEST(PostmortemTest, RingKeepsNewestAndDropsOldest) {
  AttemptObs obs;
  const int n = static_cast<int>(AttemptObs::kMaxTailEvents) + 20;
  for (int i = 0; i < n; ++i) {
    obs.note("phase", "event " + std::to_string(i), 0.5 * i);
  }
  ASSERT_EQ(obs.tail.size(), AttemptObs::kMaxTailEvents) << "bounded";
  EXPECT_EQ(obs.tail.front().text, "event 20") << "oldest survivors first";
  EXPECT_EQ(obs.tail.back().text, "event " + std::to_string(n - 1));
  EXPECT_EQ(obs.tail.back().seq, static_cast<std::uint64_t>(n));
  EXPECT_EQ(obs.tail.back().t_sec, 0.5 * (n - 1));
  for (std::size_t i = 1; i < obs.tail.size(); ++i) {
    EXPECT_EQ(obs.tail[i].seq, obs.tail[i - 1].seq + 1) << "gap-free tail";
  }
}

TEST(PostmortemTest, ReportJsonRoundTripsThroughWriter) {
  PostmortemReport rep;
  rep.job = "7";
  rep.attempt = 2;
  rep.pid = 4242;
  rep.classification = "signal";
  rep.term_signal = 9;
  rep.wall_sec = 1.5;
  rep.events.push_back({3, 0.25, "log", "warn: \"quoted\"\nline"});
  rep.events.push_back({4, 0.5, "phase", "attempt start"});

  const std::string path =
      ::testing::TempDir() + "postmortem_test_report.json";
  ASSERT_TRUE(write_postmortem_json(path, rep).ok());
  std::string text;
  ASSERT_TRUE(read_file(path, text).ok());

  JsonValue doc;
  ASSERT_TRUE(JsonValue::parse(text, doc).ok()) << text;
  EXPECT_EQ(doc.string_or("job", ""), "7");
  EXPECT_EQ(doc.number_or("attempt", 0.0), 2.0);
  EXPECT_EQ(doc.number_or("pid", 0.0), 4242.0);
  EXPECT_EQ(doc.string_or("classification", ""), "signal");
  EXPECT_EQ(doc.number_or("term_signal", 0.0), 9.0);
  const JsonValue* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array_items().size(), 2u);
  const JsonValue& ev = events->array_items()[0];
  EXPECT_EQ(ev.string_or("kind", ""), "log");
  EXPECT_EQ(ev.string_or("text", ""), "warn: \"quoted\"\nline")
      << "escaping survives the round trip";
}

}  // namespace
}  // namespace serve
}  // namespace rlccd

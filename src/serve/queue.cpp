#include "serve/queue.h"

#include <algorithm>

#include "common/contracts.h"
#include "common/io.h"
#include "common/json_writer.h"

namespace rlccd {
namespace serve {

void AttemptObs::note(std::string kind, std::string text, double t_sec) {
  tail.push_back({++tail_seq, t_sec, std::move(kind), std::move(text)});
  if (tail.size() > kMaxTailEvents) tail.pop_front();
}

std::string PostmortemReport::to_json() const {
  std::string out = "{\"job\":\"";
  json_escape(out, job);
  out += "\",\"attempt\":";
  append_json_number(out, static_cast<std::uint64_t>(attempt));
  out += ",\"pid\":";
  append_json_number(out, static_cast<std::uint64_t>(pid));
  out += ",\"classification\":\"";
  json_escape(out, classification);
  out += "\",\"exit_code\":";
  append_json_number(out, static_cast<double>(exit_code));
  out += ",\"term_signal\":";
  append_json_number(out, static_cast<double>(term_signal));
  out += ",\"wall_sec\":";
  append_json_number(out, wall_sec);
  out += ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const PostmortemEvent& ev = events[i];
    if (i) out += ',';
    out += "{\"seq\":";
    append_json_number(out, ev.seq);
    out += ",\"t_sec\":";
    append_json_number(out, ev.t_sec);
    out += ",\"kind\":\"";
    json_escape(out, ev.kind);
    out += "\",\"text\":\"";
    json_escape(out, ev.text);
    out += "\"}";
  }
  out += "]}";
  return out;
}

Status write_postmortem_json(const std::string& path,
                             const PostmortemReport& report) {
  return atomic_write_file(path, report.to_json() + '\n');
}

JobQueue::JobQueue(QueueConfig config) : config_(config) {}

JobQueue::Admission JobQueue::admit(const JobSpec& spec, Session* session,
                                    double now_sec, bool force_full) {
  Admission out;
  if (session->queued >= config_.max_queued_per_session) {
    out.reason = "session \"" + spec.session + "\" backlog full (" +
                 std::to_string(session->queued) + "/" +
                 std::to_string(config_.max_queued_per_session) +
                 " queued jobs)";
    return out;
  }
  if (force_full || queued_depth_ >= config_.max_queue_depth) {
    // Overload: degrade gracefully by evicting the least important queued
    // work, but only when the incoming job is strictly more important —
    // equal priority never displaces admitted work.
    Job* victim = lowest_priority_queued();
    if (victim == nullptr || victim->priority() >= spec.priority) {
      out.reason = "queue full (" + std::to_string(queued_depth_) + "/" +
                   std::to_string(config_.max_queue_depth) +
                   " jobs); retry later or raise priority";
      return out;
    }
    remove_queued(victim, JobState::kShed);
    victim->session->shed += 1;
    victim->detail = "shed: displaced by higher-priority submit";
    out.shed_victim = victim;
  }

  auto job = std::make_unique<Job>();
  job->id = next_id_++;
  job->spec = spec;
  job->session = session;
  job->workspace = session->dir + "/job-" + std::to_string(job->id);
  job->submitted_sec = now_sec;
  Job* raw = job.get();
  jobs_.emplace(raw->id, std::move(job));

  auto [it, inserted] = session_queues_.try_emplace(session);
  if (inserted) rr_sessions_.push_back(session);
  it->second.push_back(raw);
  session->queued += 1;
  session->submitted += 1;
  queued_depth_ += 1;

  out.accepted = true;
  out.job = raw;
  return out;
}

Job* JobQueue::next_runnable(double now_sec) {
  if (rr_sessions_.empty()) return nullptr;
  const std::size_t n = rr_sessions_.size();
  for (std::size_t step = 0; step < n; ++step) {
    Session* session = rr_sessions_[(rr_cursor_ + step) % n];
    if (session->inflight >= config_.max_inflight_per_session) continue;
    auto it = session_queues_.find(session);
    if (it == session_queues_.end() || it->second.empty()) continue;
    Job* job = it->second.front();
    if (job->state == JobState::kRetryWait && job->retry_due_sec > now_sec) {
      continue;  // still backing off; FIFO order within the session holds
    }
    // Advance the cursor past this session so the next dispatch starts with
    // its successor — round-robin fairness across sessions.
    rr_cursor_ = (rr_cursor_ + step + 1) % n;
    return job;
  }
  return nullptr;
}

double JobQueue::next_retry_due(double now_sec) const {
  double due = 0.0;
  for (const auto& [session, queue] : session_queues_) {
    if (queue.empty()) continue;
    const Job* job = queue.front();
    if (job->state != JobState::kRetryWait || job->retry_due_sec <= now_sec) {
      continue;
    }
    if (due == 0.0 || job->retry_due_sec < due) due = job->retry_due_sec;
  }
  return due;
}

void JobQueue::mark_running(Job* job, int slot) {
  auto it = session_queues_.find(job->session);
  RLCCD_EXPECTS(it != session_queues_.end() && !it->second.empty() &&
                it->second.front() == job);
  it->second.pop_front();
  job->session->queued -= 1;
  job->session->inflight += 1;
  queued_depth_ -= 1;
  running_ += 1;
  job->state = JobState::kRunning;
  job->slot = slot;
  job->attempts += 1;
}

void JobQueue::requeue_for_retry(Job* job, double due_sec) {
  RLCCD_EXPECTS(job->state == JobState::kRunning);
  job->session->inflight -= 1;
  running_ -= 1;
  job->state = JobState::kRetryWait;
  job->slot = -1;
  job->resume = true;
  job->retry_due_sec = due_sec;
  session_queues_[job->session].push_front(job);
  job->session->queued += 1;
  queued_depth_ += 1;
}

void JobQueue::finish_running(Job* job, JobState state) {
  RLCCD_EXPECTS(job->state == JobState::kRunning &&
                job_state_terminal(state));
  job->session->inflight -= 1;
  running_ -= 1;
  job->state = state;
  job->slot = -1;
  if (state == JobState::kDone || state == JobState::kDrained) {
    job->session->done += 1;
  } else {
    job->session->failed += 1;
  }
}

void JobQueue::remove_queued(Job* job, JobState state) {
  RLCCD_EXPECTS(job->state == JobState::kQueued ||
                job->state == JobState::kRetryWait);
  RLCCD_EXPECTS(state == JobState::kShed || state == JobState::kCancelled ||
                state == JobState::kDrained);
  auto it = session_queues_.find(job->session);
  RLCCD_EXPECTS(it != session_queues_.end());
  auto pos = std::find(it->second.begin(), it->second.end(), job);
  RLCCD_EXPECTS(pos != it->second.end());
  it->second.erase(pos);
  job->session->queued -= 1;
  queued_depth_ -= 1;
  job->state = state;
}

Job* JobQueue::find(std::uint64_t job_id) {
  auto it = jobs_.find(job_id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

std::vector<Job*> JobQueue::queued_jobs() {
  std::vector<Job*> out;
  out.reserve(static_cast<std::size_t>(queued_depth_));
  for (Session* session : rr_sessions_) {
    auto it = session_queues_.find(session);
    if (it == session_queues_.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

std::vector<Job*> JobQueue::running_jobs() {
  std::vector<Job*> out;
  for (auto& [id, job] : jobs_) {
    if (job->state == JobState::kRunning) out.push_back(job.get());
  }
  return out;
}

int JobQueue::count_in_state(JobState state) const {
  int n = 0;
  for (const auto& [id, job] : jobs_) {
    if (job->state == state) ++n;
  }
  return n;
}

void JobQueue::assert_no_silent_jobs() const {
  for (const auto& [id, job] : jobs_) {
    RLCCD_EXPECTS(job_state_terminal(job->state));
  }
}

Job* JobQueue::lowest_priority_queued() {
  // Lowest priority loses; among equals the youngest (largest id) does —
  // work that has waited longest keeps its place.
  Job* victim = nullptr;
  for (Session* session : rr_sessions_) {
    auto it = session_queues_.find(session);
    if (it == session_queues_.end()) continue;
    for (Job* job : it->second) {
      if (victim == nullptr || job->priority() < victim->priority() ||
          (job->priority() == victim->priority() && job->id > victim->id)) {
        victim = job;
      }
    }
  }
  return victim;
}

}  // namespace serve
}  // namespace rlccd

#include "common/postmortem.h"

#include <algorithm>

#include "common/clock.h"
#include "common/io.h"
#include "common/json_writer.h"

namespace rlccd {

namespace postmortem_detail {
std::atomic<bool> g_ring_enabled{false};
}  // namespace postmortem_detail

namespace {

void event_to_json(std::string& out, const PostmortemEvent& ev) {
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

}  // namespace

EventRing& EventRing::global() {
  static EventRing ring;
  return ring;
}

void EventRing::enable(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = std::max<std::size_t>(capacity, 8);
  ring_.clear();
  ring_.resize(capacity_);
  postmortem_detail::g_ring_enabled.store(true, std::memory_order_release);
}

void EventRing::disable() {
  postmortem_detail::g_ring_enabled.store(false, std::memory_order_release);
}

void EventRing::note(std::string_view kind, std::string_view text) {
  if (!enabled()) return;
  const double now = mono_sec();
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.empty()) return;  // disabled raced with enable(); nothing to do
  PostmortemEvent& slot = ring_[(next_seq_ - 1) % capacity_];
  slot.seq = next_seq_++;
  slot.t_sec = now;
  slot.kind.assign(kind);
  slot.text.assign(text);
}

std::uint64_t EventRing::collect_since(std::uint64_t after_seq,
                                       std::vector<PostmortemEvent>& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (next_seq_ == 1) return after_seq;
  const std::uint64_t newest = next_seq_ - 1;
  std::uint64_t first = after_seq + 1;
  if (newest >= capacity_ && first < newest - capacity_ + 1) {
    first = newest - capacity_ + 1;  // older events lost to wrap-around
  }
  for (std::uint64_t s = first; s <= newest; ++s) {
    out.push_back(ring_[(s - 1) % capacity_]);
  }
  return newest;
}

std::vector<PostmortemEvent> EventRing::events() const {
  std::vector<PostmortemEvent> out;
  collect_since(0, out);
  return out;
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
    if (i) out += ',';
    event_to_json(out, events[i]);
  }
  out += "]}";
  return out;
}

Status write_postmortem_json(const std::string& path,
                             const PostmortemReport& report) {
  std::string json = report.to_json();
  json += '\n';
  return atomic_write_file(path, json);
}

}  // namespace rlccd

#include "common/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/json_writer.h"
#include "common/telemetry.h"

namespace rlccd {

namespace trace_detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace trace_detail

namespace {

// Single-producer ring: only the owning thread writes slots and bumps
// `total` (release); the exporter reads `total` (acquire) and the slots
// below it. A thread mid-record during export can tear at most the one
// in-flight slot; the tools export after their work has joined.
struct ThreadRing {
  explicit ThreadRing(std::size_t capacity, std::uint64_t ring_epoch, int id)
      : slots(capacity), epoch(ring_epoch), tid(id) {}
  std::vector<TraceEvent> slots;
  std::atomic<std::uint64_t> total{0};
  std::uint64_t epoch;
  int tid;
};

struct ForeignEvent {
  int pid;
  CollectedTraceEvent ev;
};

struct TraceState {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::vector<ForeignEvent> foreign;  // imported child-process events
  std::size_t capacity = TraceRecorder::kDefaultCapacity;
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::uint64_t> dropped{0};
  double t0_sec = 0.0;
};

TraceState& state() {
  static TraceState s;
  return s;
}

// Finds (or lazily registers) the calling thread's ring for the current
// enable() generation. Registration takes the recorder mutex once per
// thread per generation; the record path itself is lock-free.
ThreadRing* local_ring() {
  thread_local std::shared_ptr<ThreadRing> t_ring;
  TraceState& st = state();
  const std::uint64_t epoch = st.epoch.load(std::memory_order_acquire);
  if (t_ring == nullptr || t_ring->epoch != epoch) {
    std::lock_guard<std::mutex> lock(st.mutex);
    t_ring = std::make_shared<ThreadRing>(st.capacity, epoch,
                                          static_cast<int>(st.rings.size()));
    st.rings.push_back(t_ring);
  }
  return t_ring.get();
}

void record_event(std::string_view name, double start_sec, double dur_sec) {
  ThreadRing* ring = local_ring();
  const std::uint64_t n = ring->total.load(std::memory_order_relaxed);
  TraceEvent& ev = ring->slots[n % ring->slots.size()];
  const std::size_t len = std::min(name.size(), TraceEvent::kMaxName);
  std::memcpy(ev.name, name.data(), len);
  ev.name[len] = '\0';
  ev.start_sec = start_sec;
  ev.dur_sec = dur_sec;
  ring->total.store(n + 1, std::memory_order_release);
  if (n >= ring->slots.size()) {
    // Drop-oldest: this write overwrote the oldest surviving event.
    state().dropped.fetch_add(1, std::memory_order_relaxed);
    static MetricsCounter& ctr_dropped =
        MetricsRegistry::global().counter("trace.events_dropped");
    ctr_dropped.increment();
  }
}

// ts/dur in microseconds relative to `t0_sec`; events that began before it
// are clipped at zero so viewers get a non-negative timeline.
void append_event_json(std::string& out, std::string_view name,
                       double start_sec, double dur_sec, int pid, int tid,
                       double t0_sec) {
  double ts_us = (start_sec - t0_sec) * 1e6;
  double dur_us = dur_sec * 1e6;
  if (ts_us < 0.0) {
    if (dur_us > 0.0) dur_us = std::max(0.0, dur_us + ts_us);
    ts_us = 0.0;
  }
  append_chrome_event(out, name, ts_us, dur_sec < 0.0 ? -1.0 : dur_us, pid,
                      tid);
}

}  // namespace

void append_chrome_event(std::string& out, std::string_view name, double ts_us,
                         double dur_us, int pid, int tid) {
  out += "{\"name\":\"";
  json_escape(out, name);
  if (dur_us < 0.0) {
    out += "\",\"cat\":\"marker\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
    append_json_number(out, ts_us);
  } else {
    out += "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":";
    append_json_number(out, ts_us);
    out += ",\"dur\":";
    append_json_number(out, dur_us);
  }
  out += ",\"pid\":";
  append_json_number(out, static_cast<std::uint64_t>(pid));
  out += ",\"tid\":";
  append_json_number(out, static_cast<std::uint64_t>(tid));
  out += '}';
}

void append_chrome_process_name(std::string& out, int pid,
                                std::string_view name) {
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
  append_json_number(out, static_cast<std::uint64_t>(pid));
  out += ",\"tid\":0,\"args\":{\"name\":\"";
  json_escape(out, name);
  out += "\"}}";
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::enable(std::size_t capacity) {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  st.rings.clear();
  st.foreign.clear();
  st.capacity = std::max<std::size_t>(capacity, 16);
  st.dropped.store(0, std::memory_order_relaxed);
  st.t0_sec = mono_sec();
  // Release-publish the new generation before opening the runtime gate, so
  // threads that see the gate also see the new capacity via local_ring()'s
  // mutex.
  st.epoch.fetch_add(1, std::memory_order_release);
  trace_detail::g_trace_enabled.store(true, std::memory_order_release);
}

void TraceRecorder::disable() {
  trace_detail::g_trace_enabled.store(false, std::memory_order_release);
}

void TraceRecorder::record_complete(std::string_view name, double start_sec,
                                    double dur_sec) {
  record_event(name, start_sec, std::max(dur_sec, 0.0));
}

void TraceRecorder::record_instant(std::string_view name) {
  record_event(name, mono_sec(), -1.0);
}

std::uint64_t TraceRecorder::buffered_events() const {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  std::uint64_t n = 0;
  for (const auto& ring : st.rings) {
    n += std::min<std::uint64_t>(ring->total.load(std::memory_order_acquire),
                                 ring->slots.size());
  }
  return n;
}

std::uint64_t TraceRecorder::dropped_events() const {
  return state().dropped.load(std::memory_order_relaxed);
}

void TraceRecorder::collect_since(TraceCursor& cursor,
                                  std::vector<CollectedTraceEvent>& out) const {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  const std::uint64_t epoch = st.epoch.load(std::memory_order_acquire);
  if (cursor.epoch != epoch) {
    cursor.epoch = epoch;
    cursor.taken.clear();
  }
  cursor.taken.resize(st.rings.size(), 0);
  for (std::size_t i = 0; i < st.rings.size(); ++i) {
    const ThreadRing& ring = *st.rings[i];
    const std::uint64_t total = ring.total.load(std::memory_order_acquire);
    const std::uint64_t cap = ring.slots.size();
    std::uint64_t from = cursor.taken[i];
    if (total > cap && from < total - cap) from = total - cap;  // wrapped away
    for (std::uint64_t k = from; k < total; ++k) {
      const TraceEvent& ev = ring.slots[k % cap];
      // strnlen bounds the copy even if the producer tore this slot
      // mid-write (a wrapped ring under concurrent recording).
      out.push_back(CollectedTraceEvent{
          std::string(ev.name, strnlen(ev.name, TraceEvent::kMaxName)),
          ev.start_sec, ev.dur_sec, ring.tid});
    }
    cursor.taken[i] = total;
  }
}

void TraceRecorder::sync_cursor(TraceCursor& cursor) const {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  cursor.epoch = st.epoch.load(std::memory_order_acquire);
  cursor.taken.resize(st.rings.size());
  for (std::size_t i = 0; i < st.rings.size(); ++i) {
    cursor.taken[i] = st.rings[i]->total.load(std::memory_order_acquire);
  }
}

void TraceRecorder::import_events(
    int pid, const std::vector<CollectedTraceEvent>& events) {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  for (const CollectedTraceEvent& ev : events) {
    if (st.foreign.size() >= kMaxForeignEvents) {
      const std::uint64_t over = events.size() - (&ev - events.data());
      st.dropped.fetch_add(over, std::memory_order_relaxed);
      MetricsRegistry::global().counter("trace.events_dropped").add(over);
      break;
    }
    st.foreign.push_back(ForeignEvent{pid, ev});
  }
}

double TraceRecorder::t0_sec() const {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  return st.t0_sec;
}

std::string TraceRecorder::to_chrome_json() const {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& ring : st.rings) {
    const std::uint64_t total = ring->total.load(std::memory_order_acquire);
    const std::uint64_t cap = ring->slots.size();
    const std::uint64_t count = std::min(total, cap);
    const std::uint64_t start = total - count;
    for (std::uint64_t i = 0; i < count; ++i) {
      const TraceEvent& ev = ring->slots[(start + i) % cap];
      if (!first) out += ',';
      first = false;
      append_event_json(out, ev.name, ev.start_sec, ev.dur_sec, 1, ring->tid,
                        st.t0_sec);
    }
  }
  for (const ForeignEvent& fe : st.foreign) {
    if (!first) out += ',';
    first = false;
    append_event_json(out, fe.ev.name, fe.ev.start_sec, fe.ev.dur_sec, fe.pid,
                      fe.ev.tid, st.t0_sec);
  }
  out += "]}";
  return out;
}

bool TraceRecorder::write_chrome_json(const std::string& path) const {
  const std::string json = to_chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  ok = std::fputc('\n', f) != EOF && ok;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

}  // namespace rlccd

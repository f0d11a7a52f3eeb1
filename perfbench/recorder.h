// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from benchmark code only: RAII BenchSpan scopes around
// calls into a layer's public function, and retroactive spans built from the
// program's own progress events (a trainer iteration or a flow step reports
// its duration when it ends). Each span keeps its name, start, end, the
// span that caused it, the thread it ran on and the repeat it belongs to.
// Nothing is written until export_chrome() at exit.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int tid = 0;
  int parent = -1;  // index of the causing span; -1 for a root
  int repeat = -1;
};

class Recorder {
 public:
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_repeat(int repeat) { repeat_.store(repeat); }

  // Opens a span on the calling thread; returns its id for close().
  int open(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::string(name), now_sec(), 0.0, thread_index(),
                      parent_locked(), repeat_.load()});
    stack().push_back(id);
    return id;
  }

  void close(int id) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now_sec();
    std::vector<int>& s = stack();
    if (!s.empty() && s.back() == id) s.pop_back();
  }

  // A span that ends now and lasted `seconds` (a progress event). Its parent
  // is the innermost open span on this thread, else on the main thread.
  void add_ending_now(std::string_view name, double seconds) {
    if (!on()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    const double end = now_sec();
    spans_.push_back({std::string(name), end - std::max(0.0, seconds), end,
                      thread_index(), parent_locked(), repeat_.load()});
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  // Share of [t0, t1] covered by the union of the spans `counts` accepts.
  template <class Pred>
  [[nodiscard]] double coverage(double t0, double t1, Pred counts) const {
    std::vector<std::pair<double, double>> iv;
    for (const SpanRecord& s : spans_) {
      if (!counts(s.name)) continue;
      const double a = std::max(s.start, t0);
      const double b = std::min(s.end, t1);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = t0;
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    return t1 > t0 ? covered / (t1 - t0) : 0.0;
  }

  // Writes a Chrome trace ({"traceEvents": [...]}) with one complete event
  // per span; the parent, workload and repeat ride in each event's args.
  bool export_chrome(const std::string& path, const std::string& workload,
                     double t0) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\"traceEvents\": [\n{\"name\": \"process_name\", \"ph\": "
                 "\"M\", \"pid\": 1, \"tid\": 0, \"args\": {\"name\": "
                 "\"perfbench %s\"}}",
                 workload.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d, \"workload\": \"%s\", "
                   "\"repeat\": %d}}",
                   s.name.c_str(), s.tid, (s.start - t0) * 1e6,
                   std::max(0.0, s.end - s.start) * 1e6, i, s.parent,
                   workload.c_str(), s.repeat);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int thread_index() {
    thread_local int index = next_tid_.fetch_add(1);
    return index;
  }
  std::vector<int>& stack() {
    thread_local std::vector<int> open_spans;
    return open_spans;
  }
  int parent_locked() {
    const std::vector<int>& s = stack();
    if (!s.empty()) return s.back();
    return main_top_locked();
  }
  // Innermost open span of thread 0 (the thread that opened the first
  // span), so worker-thread events attach to the call that spawned them.
  int main_top_locked() const {
    for (std::size_t i = spans_.size(); i-- > 0;) {
      const SpanRecord& s = spans_[i];
      if (s.tid == 0 && s.end == 0.0) return static_cast<int>(i);
    }
    return -1;
  }

  std::atomic<bool> on_{false};
  std::atomic<int> repeat_{-1};
  std::atomic<int> next_tid_{0};
  std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

// RAII span; free when the recorder is off.
class BenchSpan {
 public:
  BenchSpan(Recorder& rec, std::string_view name)
      : rec_(rec), id_(rec.on() ? rec.open(name) : -1) {}
  ~BenchSpan() {
    if (id_ >= 0) rec_.close(id_);
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  Recorder& rec_;
  int id_;
};

}  // namespace perfbench

#include "common/progress.h"

#include <cstdio>

namespace rlccd {

std::string format_progress_line(const ProgressEvent& event) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof buf, "[%.*s] %-16.*s",
                static_cast<int>(event.phase.size()), event.phase.data(),
                static_cast<int>(event.step.size()), event.step.data());
  out += buf;
  if (event.index >= 0) {
    std::snprintf(buf, sizeof buf, " #%d", event.index);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, " %.3fs", event.seconds);
  out += buf;
  for (const ProgressMetric& m : event.metrics) {
    std::snprintf(buf, sizeof buf, " %.*s=%.3f",
                  static_cast<int>(m.name.size()), m.name.data(), m.value);
    out += buf;
  }
  return out;
}

void StderrProgress::on_event(const ProgressEvent& event) {
  std::FILE* stream = stream_ != nullptr ? stream_ : stderr;
  std::string line = format_progress_line(event);
  std::fprintf(stream, "%s\n", line.c_str());
}

}  // namespace rlccd

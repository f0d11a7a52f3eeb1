// ProgressObserver implementation for the CLI (`--progress`). One line per
// event, e.g.
//
//   [flow] useful_skew      #2 1.204s tns=-113.220 nve=41.000
//
// Kept in the library so the format is tested there.
#pragma once

#include <cstdio>
#include <string>

#include "common/telemetry.h"

namespace rlccd {

// Renders one event as a single text line: "[phase] step", a "#index" when
// the index is set, the wall-clock seconds, then each metric as name=value
// with three decimals.
[[nodiscard]] std::string format_progress_line(const ProgressEvent& event);

// Streams each event as one line to a stdio stream (stderr by default).
class StderrProgress : public ProgressObserver {
 public:
  explicit StderrProgress(std::FILE* stream = nullptr) : stream_(stream) {}

  void on_event(const ProgressEvent& event) override;

 private:
  std::FILE* stream_;  // nullptr means stderr (resolved at call time)
};

}  // namespace rlccd

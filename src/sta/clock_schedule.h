// Clock schedule: per-flop clock arrival adjustments (useful skew) plus the
// clock period. An ideal clock network is assumed — the common source
// latency cancels in single-cycle setup/hold checks, so only the per-flop
// adjustment delta matters. The useful-skew engine (src/opt/useful_skew.h)
// mutates this schedule; STA reads it.
//
// The schedule tracks which flops changed since the STA last consumed it
// (dirty_flops / ack_dirty), so a skew edit invalidates only the affected
// flop's launch/capture cones instead of the whole design.
#pragma once

#include <vector>

#include "common/ids.h"

namespace rlccd {

class ClockSchedule {
 public:
  explicit ClockSchedule(double period = 1.0) : period_(period) {}

  [[nodiscard]] double period() const { return period_; }

  // Clock arrival adjustment at a flop's CK pin (ns, signed).
  [[nodiscard]] double adjustment(CellId flop) const {
    if (flop.index() >= adjustments_.size()) return 0.0;
    return adjustments_[flop.index()];
  }

  void set_adjustment(CellId flop, double delta) {
    if (flop.index() >= adjustments_.size()) {
      if (delta == 0.0) return;
      adjustments_.resize(flop.index() + 1, 0.0);
    }
    if (adjustments_[flop.index()] == delta) return;
    adjustments_[flop.index()] = delta;
    dirty_.push_back(flop);
  }

  void clear() {
    for (std::size_t i = 0; i < adjustments_.size(); ++i) {
      if (adjustments_[i] != 0.0) dirty_.push_back(CellId(
          static_cast<std::uint32_t>(i)));
    }
    adjustments_.clear();
  }

  // All nonzero adjustments (for Fig. 5-style histograms).
  [[nodiscard]] std::vector<double> nonzero_adjustments() const {
    std::vector<double> out;
    for (double d : adjustments_) {
      if (d != 0.0) out.push_back(d);
    }
    return out;
  }

  // -- incremental-STA hooks --------------------------------------------------
  // Flops whose adjustment changed since the last ack (may repeat ids).
  [[nodiscard]] const std::vector<CellId>& dirty_flops() const {
    return dirty_;
  }
  void ack_dirty() { dirty_.clear(); }

 private:
  double period_;
  std::vector<double> adjustments_;  // indexed by CellId, default 0
  std::vector<CellId> dirty_;        // changed since last ack_dirty()
};

}  // namespace rlccd

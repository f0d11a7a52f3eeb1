// RL selection environment (paper Fig. 2 / Algorithm 1 lines 5-13).
//
// State: every violating endpoint is valid, selected, or masked. An action
// selects one valid endpoint; all remaining valid endpoints whose fan-in
// cone overlaps the selection by more than the threshold rho are then masked
// (Fig. 3). The episode ends when no endpoint is valid — the agent thereby
// chooses the selection *count* implicitly through its overlap behaviour
// (paper Sec. III-C).
#pragma once

#include <vector>

#include "rl/audit.h"
#include "rl/design_graph.h"

namespace rlccd {

class SelectionEnv {
 public:
  SelectionEnv(const DesignGraph* graph, double overlap_threshold);

  void reset();
  [[nodiscard]] bool done() const { return num_valid_ == 0; }
  [[nodiscard]] std::size_t num_endpoints() const {
    return graph_->num_endpoints();
  }
  // 1 = still selectable.
  [[nodiscard]] const std::vector<char>& valid() const { return valid_; }
  // Selects endpoint `index`; masks overlapping endpoints; returns how many
  // endpoints were masked by this action. When `masked_out` is non-null,
  // every endpoint masked by this action is appended with the cone-overlap
  // ratio that masked it (decision provenance; read-only side channel).
  int step(std::size_t index, std::vector<AuditMaskEvent>* masked_out = nullptr);

  [[nodiscard]] const std::vector<std::size_t>& selected() const {
    return selected_;
  }
  [[nodiscard]] std::vector<PinId> selected_pins() const;

  // Per-cell "RL masked" flags (Table I column 0): owner cells of selected
  // or masked endpoints.
  [[nodiscard]] std::vector<char> cell_mask_flags() const;
  // Endpoints the last step() flagged: the selected one, then the ones it
  // masked. Their owner cells are the cells that step added to
  // cell_mask_flags(). Empty after reset().
  [[nodiscard]] const std::vector<std::size_t>& last_flagged() const {
    return last_flagged_;
  }

 private:
  const DesignGraph* graph_;
  double rho_;
  std::vector<char> valid_;
  std::vector<char> masked_or_selected_;
  std::vector<std::size_t> selected_;
  std::vector<std::size_t> last_flagged_;
  std::size_t num_valid_ = 0;
};

}  // namespace rlccd

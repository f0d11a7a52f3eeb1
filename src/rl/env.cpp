#include "rl/env.h"

namespace rlccd {

SelectionEnv::SelectionEnv(const DesignGraph* graph, double overlap_threshold)
    : graph_(graph), rho_(overlap_threshold) {
  RLCCD_EXPECTS(graph != nullptr);
  RLCCD_EXPECTS(overlap_threshold >= 0.0 && overlap_threshold <= 1.0);
  reset();
}

void SelectionEnv::reset() {
  const std::size_t n = graph_->num_endpoints();
  valid_.assign(n, 1);
  masked_or_selected_.assign(n, 0);
  selected_.clear();
  last_flagged_.clear();
  num_valid_ = n;
}

int SelectionEnv::step(std::size_t index,
                       std::vector<AuditMaskEvent>* masked_out) {
  RLCCD_EXPECTS(index < valid_.size());
  RLCCD_EXPECTS(valid_[index] != 0);
  valid_[index] = 0;
  masked_or_selected_[index] = 1;
  --num_valid_;
  selected_.push_back(index);
  last_flagged_.assign(1, index);

  int masked = 0;
  const ConeIndex& cones = graph_->cones();
  for (std::size_t j = 0; j < valid_.size(); ++j) {
    if (!valid_[j]) continue;
    const double overlap = cones.overlap(index, j);
    if (overlap > rho_) {
      valid_[j] = 0;
      masked_or_selected_[j] = 1;
      last_flagged_.push_back(j);
      --num_valid_;
      ++masked;
      if (masked_out != nullptr) {
        masked_out->push_back({static_cast<std::uint32_t>(j), overlap});
      }
    }
  }
  return masked;
}

std::vector<PinId> SelectionEnv::selected_pins() const {
  std::vector<PinId> pins;
  pins.reserve(selected_.size());
  for (std::size_t i : selected_) pins.push_back(graph_->violating()[i]);
  return pins;
}

std::vector<char> SelectionEnv::cell_mask_flags() const {
  std::vector<char> flags(graph_->design().netlist->num_cells(), 0);
  const auto& rows = graph_->endpoint_rows();
  for (std::size_t i = 0; i < masked_or_selected_.size(); ++i) {
    if (masked_or_selected_[i]) flags[rows[i]] = 1;
  }
  return flags;
}

}  // namespace rlccd

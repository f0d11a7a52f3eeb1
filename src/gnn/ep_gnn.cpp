#include "gnn/ep_gnn.h"

#include <cmath>

namespace rlccd {

EpGnn::EpGnn(const EpGnnConfig& config, Rng& rng) : config_(config) {
  RLCCD_EXPECTS(config.layers >= 1);
  std::size_t in = config.in_features;
  for (int l = 0; l < config.layers; ++l) {
    proj_.emplace_back(in, config.hidden, rng);
    agg_.emplace_back(in, config.hidden, rng);
    gate_.push_back(Tensor::zeros(1, 1, /*requires_grad=*/true));
    in = config.hidden;
  }
  fc_ = Linear(config.hidden, config.embedding, rng);
}

Tensor EpGnn::forward(const Tensor& x, const SparseOperand& adj,
                      const SparseOperand& cones,
                      const std::vector<std::size_t>& ep_rows) const {
  RLCCD_EXPECTS(x.cols() == config_.in_features);
  RLCCD_EXPECTS(adj.matrix.rows == x.rows());
  RLCCD_EXPECTS(cones.matrix.cols == x.rows());
  RLCCD_EXPECTS(cones.matrix.rows == ep_rows.size());

  Tensor h = x;
  for (std::size_t l = 0; l < proj_.size(); ++l) {
    Tensor gamma = ops::sigmoid(gate_[l]);               // (0,1)
    Tensor one_minus = ops::affine(gamma, -1.0f, 1.0f);  // 1 - gamma
    Tensor self_term = ops::scale_by_scalar(proj_[l].forward(h), gamma);
    Tensor neigh = ops::spmm(adj, h);
    Tensor agg_term =
        ops::scale_by_scalar(agg_[l].forward(neigh), one_minus);
    h = ops::sigmoid(ops::add(self_term, agg_term));
  }

  Tensor ep_self = ops::gather_rows(h, ep_rows);
  Tensor cone_sum = ops::spmm(cones, h);
  return fc_.forward(ops::add(ep_self, cone_sum));
}

std::vector<Tensor> EpGnn::parameters() const {
  std::vector<Tensor> params;
  for (std::size_t l = 0; l < proj_.size(); ++l) {
    for (Tensor& t : proj_[l].parameters()) params.push_back(t);
    for (Tensor& t : agg_[l].parameters()) params.push_back(t);
    params.push_back(gate_[l]);
  }
  for (Tensor& t : fc_.parameters()) params.push_back(t);
  return params;
}

std::vector<float> EpGnn::gamma_values() const {
  std::vector<float> out;
  for (const Tensor& g : gate_) {
    out.push_back(1.0f / (1.0f + std::exp(-g.item())));
  }
  return out;
}

}  // namespace rlccd

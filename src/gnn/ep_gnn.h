// EP-GNN: endpoint-oriented graph neural network (paper Sec. III-B.1).
//
// Three graph-convolution layers implementing Eq. 2,
//   f_v^l = sigmoid( gamma * f_v^{l-1} W_proj
//                    + (1 - gamma) * W_agg( mean_{j in N(v)} f_j^{l-1} ) ),
// with gamma a trainable scalar per layer (kept in (0,1) via a sigmoid
// reparameterization), followed by the Eq. 3 endpoint head
//   f_e = FC( f_e^{L} + sum_{j in cone(e)} f_j^{L} ).
// Hidden dimension 32, endpoint embeddings 16, as in the paper.
#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/modules.h"
#include "nn/sparse.h"

namespace rlccd {

struct EpGnnConfig {
  std::size_t in_features = 13;
  std::size_t hidden = 32;
  std::size_t embedding = 16;
  int layers = 3;
};

class EpGnn {
 public:
  EpGnn() = default;
  EpGnn(const EpGnnConfig& config, Rng& rng);

  // X: [num_cells, in_features]; returns endpoint embeddings
  // [num_endpoints, embedding]. `adj` and `cones` must outlive the backward
  // pass of any tensor produced here.
  [[nodiscard]] Tensor forward(const Tensor& x, const SparseOperand& adj,
                               const SparseOperand& cones,
                               const std::vector<std::size_t>& ep_rows) const;

  [[nodiscard]] std::vector<Tensor> parameters() const;
  [[nodiscard]] const EpGnnConfig& config() const { return config_; }

  // Current gamma (post-sigmoid) per layer — exposed for tests/analysis.
  [[nodiscard]] std::vector<float> gamma_values() const;

 private:
  EpGnnConfig config_;
  std::vector<Linear> proj_;
  std::vector<Linear> agg_;
  std::vector<Tensor> gate_;  // pre-sigmoid gamma logits, 1x1 each
  Linear fc_;
};

}  // namespace rlccd

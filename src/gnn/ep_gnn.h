// EP-GNN: endpoint-oriented graph neural network (paper Sec. III-B.1).
//
// Three graph-convolution layers implementing Eq. 2,
//   f_v^l = sigmoid( gamma * f_v^{l-1} W_proj
//                    + (1 - gamma) * W_agg( mean_{j in N(v)} f_j^{l-1} ) ),
// with gamma a trainable scalar per layer (kept in (0,1) via a sigmoid
// reparameterization), followed by the Eq. 3 endpoint head
//   f_e = FC( f_e^{L} + sum_{j in cone(e)} f_j^{L} ).
// Hidden dimension 32, endpoint embeddings 16, as in the paper.
//
// Two forwards compute Eq. 2-3. forward() builds the autograd graph the
// training modes back-propagate through. EpGnn::Incremental is the
// gradient-free encoder of inference rollouts: it keeps every layer's
// activations and, when the RL-masked column changes, recomputes only the
// rows that change. Its row kernels repeat forward()'s per-element float
// operations in the same order, so the two agree bit for bit.
#pragma once

#include <cstdint>
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

  class Incremental;

 private:
  EpGnnConfig config_;
  std::vector<Linear> proj_;
  std::vector<Linear> agg_;
  std::vector<Tensor> gate_;  // pre-sigmoid gamma logits, 1x1 each
  Linear fc_;
};

// Exact incremental encode for one inference rollout. encode() runs the
// whole design once; each flag_endpoints() then sets the RL-masked feature
// (Table I column 0) of the endpoints' owner cells and recomputes the cell
// rows within l adjacency hops of a flipped cell at layer l, plus the head
// rows whose endpoint row or cone holds a recomputed last-layer row. Every
// other row's inputs are unchanged, so embeddings() stays bit-equal to
// forward() on the current input. The flags only ever go 0 -> 1.
//
// Reads the weights of `gnn` and the graph operands, which must outlive it
// and not change meanwhile; no gradient is recorded. Counter
// "gnn.encode_rows" adds the rows each call computes (cell rows summed over
// the layers, plus head rows).
class EpGnn::Incremental {
 public:
  Incremental(const EpGnn& gnn, const SparseOperand& adj,
              const SparseOperand& cones,
              const std::vector<std::size_t>& ep_rows);

  // Encodes every row of `x` [num_cells, in_features].
  void encode(Tensor x);
  [[nodiscard]] bool encoded() const { return !h_.empty(); }

  // Flags the owner cells of `endpoints` (indices into ep_rows) as masked
  // and re-encodes what changes. Cells already flagged change nothing.
  void flag_endpoints(const std::vector<std::size_t>& endpoints);

  // [num_endpoints, embedding]; the next flag_endpoints() updates it in place.
  [[nodiscard]] const Tensor& embeddings() const { return out_; }

  // Rows computed by the last encode() or flag_endpoints() call.
  [[nodiscard]] std::size_t last_rows() const { return last_rows_; }

 private:
  struct Layer {
    const float* w_proj;
    const float* b_proj;
    const float* w_agg;
    const float* b_agg;
    float gamma;
    float one_minus;  // 1 - gamma, computed as ops::affine(gamma, -1, 1)
    std::size_t in;
  };

  void layer_row(std::size_t l, std::size_t v);
  void head_row(std::size_t e);
  void record_rows(std::size_t rows);

  const SparseOperand* adj_;
  const SparseOperand* cones_;
  const std::vector<std::size_t>* ep_rows_;
  std::vector<Layer> layers_;
  const float* w_fc_;
  const float* b_fc_;
  std::size_t hidden_;
  std::size_t embedding_;

  std::vector<Tensor> h_;  // h_[0] input, h_[l] layer l's output
  Tensor out_;
  std::vector<float> neigh_, self_, agg_;  // one row each

  // Dirty tracking: cells within the current hop count of a flipped cell,
  // in BFS order, and endpoints whose head row is to be recomputed.
  std::vector<char> cell_dirty_;
  std::vector<std::uint32_t> dirty_cells_;
  std::vector<char> ep_dirty_;
  std::vector<std::uint32_t> dirty_eps_;
  std::size_t last_rows_ = 0;
};

}  // namespace rlccd

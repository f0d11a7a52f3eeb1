#include "gnn/ep_gnn.h"

#include <algorithm>
#include <cmath>

#include "common/telemetry.h"
#include "gnn/features.h"

namespace rlccd {

namespace {

// ops::sigmoid's per-element expression.
inline float sigmoid_value(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// One row of ops::matmul: out = 0, then out[j] += a[kk] * w[kk][j] with kk
// outer, skipping zero a[kk].
inline void matmul_row(const float* a, std::size_t k, const float* w,
                       std::size_t n, float* out) {
  std::fill_n(out, n, 0.0f);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float av = a[kk];
    if (av == 0.0f) continue;
    const float* wrow = w + kk * n;
    for (std::size_t j = 0; j < n; ++j) out[j] += av * wrow[j];
  }
}

// One row of ops::spmm: out = 0, then out += value * x[col] in CSR order.
inline void spmm_row(const SparseMatrix& m, std::size_t r, const float* x,
                     std::size_t n, float* out) {
  std::fill_n(out, n, 0.0f);
  for (std::uint32_t k = m.row_ptr[r]; k < m.row_ptr[r + 1]; ++k) {
    const float v = m.values[k];
    const float* xrow = x + static_cast<std::size_t>(m.col_idx[k]) * n;
    for (std::size_t j = 0; j < n; ++j) out[j] += v * xrow[j];
  }
}

}  // namespace

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

EpGnn::Incremental::Incremental(const EpGnn& gnn, const SparseOperand& adj,
                                const SparseOperand& cones,
                                const std::vector<std::size_t>& ep_rows)
    : adj_(&adj),
      cones_(&cones),
      ep_rows_(&ep_rows),
      w_fc_(gnn.fc_.weight().data()),
      b_fc_(gnn.fc_.bias().data()),
      hidden_(gnn.config_.hidden),
      embedding_(gnn.config_.embedding),
      neigh_(std::max(gnn.config_.in_features, gnn.config_.hidden)),
      self_(gnn.config_.hidden),
      agg_(gnn.config_.hidden) {
  RLCCD_EXPECTS(adj.matrix.rows == adj.matrix.cols);
  RLCCD_EXPECTS(cones.matrix.cols == adj.matrix.rows);
  RLCCD_EXPECTS(cones.matrix.rows == ep_rows.size());
  std::size_t in = gnn.config_.in_features;
  for (std::size_t l = 0; l < gnn.proj_.size(); ++l) {
    const float gamma = sigmoid_value(gnn.gate_[l].item());
    layers_.push_back({gnn.proj_[l].weight().data(),
                       gnn.proj_[l].bias().data(), gnn.agg_[l].weight().data(),
                       gnn.agg_[l].bias().data(), gamma, -1.0f * gamma + 1.0f,
                       in});
    in = hidden_;
  }
}

// Layer l's row v from layer l-1, forward()'s op chain per element:
// sigmoid(gamma * (h W_p + b_p) + (1 - gamma) * ((A h) W_a + b_a)).
void EpGnn::Incremental::layer_row(std::size_t l, std::size_t v) {
  const Layer& w = layers_[l - 1];
  const float* h = h_[l - 1].data();
  matmul_row(h + v * w.in, w.in, w.w_proj, hidden_, self_.data());
  spmm_row(adj_->matrix, v, h, w.in, neigh_.data());
  matmul_row(neigh_.data(), w.in, w.w_agg, hidden_, agg_.data());
  float* out = h_[l].data() + v * hidden_;
  for (std::size_t j = 0; j < hidden_; ++j) {
    const float self_term = w.gamma * (self_[j] + w.b_proj[j]);
    const float agg_term = w.one_minus * (agg_[j] + w.b_agg[j]);
    out[j] = sigmoid_value(self_term + agg_term);
  }
}

// Endpoint e's embedding: FC(h[ep_row] + sum over the cone of h).
void EpGnn::Incremental::head_row(std::size_t e) {
  const float* h = h_.back().data();
  spmm_row(cones_->matrix, e, h, hidden_, agg_.data());
  const float* ep_self = h + (*ep_rows_)[e] * hidden_;
  for (std::size_t j = 0; j < hidden_; ++j) self_[j] = ep_self[j] + agg_[j];
  float* out = out_.data() + e * embedding_;
  matmul_row(self_.data(), hidden_, w_fc_, embedding_, out);
  for (std::size_t j = 0; j < embedding_; ++j) out[j] = out[j] + b_fc_[j];
}

void EpGnn::Incremental::record_rows(std::size_t rows) {
  static MetricsCounter& ctr_rows =
      MetricsRegistry::global().counter("gnn.encode_rows");
  ctr_rows.add(rows);
  last_rows_ = rows;
}

void EpGnn::Incremental::encode(Tensor x) {
  RLCCD_EXPECTS(x.cols() == layers_.front().in);
  RLCCD_EXPECTS(x.rows() == adj_->matrix.rows);
  const std::size_t n = x.rows();
  const std::size_t num_eps = cones_->matrix.rows;
  h_.assign(1, std::move(x));
  for (std::size_t l = 1; l <= layers_.size(); ++l) {
    h_.push_back(Tensor::zeros(n, hidden_));
    for (std::size_t v = 0; v < n; ++v) layer_row(l, v);
  }
  out_ = Tensor::zeros(num_eps, embedding_);
  for (std::size_t e = 0; e < num_eps; ++e) head_row(e);
  cell_dirty_.assign(n, 0);
  ep_dirty_.assign(num_eps, 0);
  record_rows(n * layers_.size() + num_eps);
}

void EpGnn::Incremental::flag_endpoints(
    const std::vector<std::size_t>& endpoints) {
  RLCCD_EXPECTS(encoded());
  float* x = h_.front().data();
  const std::size_t in = h_.front().cols();
  for (std::size_t e : endpoints) {
    RLCCD_EXPECTS(e < ep_rows_->size());
    const std::size_t c = (*ep_rows_)[e];
    float& flag = x[c * in + kMaskedFeature];
    if (flag == 1.0f) continue;
    flag = 1.0f;
    cell_dirty_[c] = 1;
    dirty_cells_.push_back(static_cast<std::uint32_t>(c));
  }

  // Layer l's rows change only within l hops of a flipped cell: row v reads
  // row v and the rows of A's row v, so the cells whose rows read a dirty u
  // are A^T's row u.
  const SparseMatrix& adj_t = adj_->matrix_t;
  std::size_t rows = 0;
  std::size_t frontier = 0;
  for (std::size_t l = 1; l <= layers_.size() && !dirty_cells_.empty(); ++l) {
    const std::size_t end = dirty_cells_.size();
    for (std::size_t i = frontier; i < end; ++i) {
      const std::uint32_t u = dirty_cells_[i];
      for (std::uint32_t k = adj_t.row_ptr[u]; k < adj_t.row_ptr[u + 1]; ++k) {
        const std::uint32_t v = adj_t.col_idx[k];
        if (cell_dirty_[v]) continue;
        cell_dirty_[v] = 1;
        dirty_cells_.push_back(v);
      }
    }
    frontier = end;
    for (std::uint32_t v : dirty_cells_) layer_row(l, v);
    rows += dirty_cells_.size();
  }

  // Head rows whose cone or endpoint row holds a recomputed last-layer row.
  const SparseMatrix& cones_t = cones_->matrix_t;
  for (std::uint32_t v : dirty_cells_) {
    for (std::uint32_t k = cones_t.row_ptr[v]; k < cones_t.row_ptr[v + 1];
         ++k) {
      const std::uint32_t e = cones_t.col_idx[k];
      if (ep_dirty_[e]) continue;
      ep_dirty_[e] = 1;
      dirty_eps_.push_back(e);
    }
  }
  for (std::size_t e = 0; e < ep_dirty_.size(); ++e) {
    if (ep_dirty_[e] || !cell_dirty_[(*ep_rows_)[e]]) continue;
    ep_dirty_[e] = 1;
    dirty_eps_.push_back(static_cast<std::uint32_t>(e));
  }
  for (std::uint32_t e : dirty_eps_) {
    head_row(e);
    ep_dirty_[e] = 0;
  }
  rows += dirty_eps_.size();
  for (std::uint32_t v : dirty_cells_) cell_dirty_[v] = 0;
  dirty_cells_.clear();
  dirty_eps_.clear();
  record_rows(rows);
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

#include "nn/optim.h"

#include <cmath>

namespace rlccd {

Adam::Adam(std::vector<Tensor> params, double lr, double beta1, double beta2,
           double eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(params_[i].size(), 0.0f);
    v_[i].assign(params_[i].size(), 0.0f);
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, t_);
  const double bc2 = 1.0 - std::pow(beta2_, t_);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    const std::vector<float>& g = p.grad();
    float* value = p.data();
    for (std::size_t j = 0; j < p.size(); ++j) {
      m_[i][j] = static_cast<float>(beta1_ * m_[i][j] + (1.0 - beta1_) * g[j]);
      v_[i][j] = static_cast<float>(beta2_ * v_[i][j] +
                                    (1.0 - beta2_) * g[j] * g[j]);
      const double m_hat = m_[i][j] / bc1;
      const double v_hat = v_[i][j] / bc2;
      value[j] -= static_cast<float>(lr_ * m_hat / (std::sqrt(v_hat) + eps_));
    }
  }
}

Status Adam::import_state(const State& state) {
  if (state.m.size() != params_.size() || state.v.size() != params_.size()) {
    return Status::invalid_argument(
        "optimizer state covers %zu parameters, expected %zu", state.m.size(),
        params_.size());
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (state.m[i].size() != params_[i].size() ||
        state.v[i].size() != params_[i].size()) {
      return Status::invalid_argument(
          "optimizer state parameter %zu has %zu elements, expected %zu", i,
          state.m[i].size(), params_[i].size());
    }
  }
  t_ = state.t;
  m_ = state.m;
  v_ = state.v;
  return Status();
}

double clip_grad_norm(std::vector<Tensor>& params, double max_norm) {
  double sq = 0.0;
  for (Tensor& p : params) {
    for (float g : p.grad()) sq += static_cast<double>(g) * g;
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (Tensor& p : params) {
      for (float& g : p.grad_mut()) g *= scale;
    }
  }
  return norm;
}

}  // namespace rlccd

// Adam over parameter tensors. State (moment estimates) is keyed
// positionally, so the same parameter list must be passed at construction and
// kept stable.
#pragma once

#include <vector>

#include "common/status.h"
#include "nn/tensor.h"

namespace rlccd {

class Adam {
 public:
  Adam(std::vector<Tensor> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);

  void zero_grad() {
    for (Tensor& p : params_) p.zero_grad();
  }
  void step();

  // Full optimizer state (step count + moment estimates), for training
  // checkpoints: restoring it makes subsequent steps bit-identical to an
  // uninterrupted optimizer.
  struct State {
    long t = 0;
    std::vector<std::vector<float>> m, v;
  };
  [[nodiscard]] State export_state() const { return State{t_, m_, v_}; }
  // Rejects state whose per-parameter sizes do not match this optimizer.
  Status import_state(const State& state);

 private:
  std::vector<Tensor> params_;
  double lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

// Global-norm gradient clipping; returns the pre-clip norm.
double clip_grad_norm(std::vector<Tensor>& params, double max_norm);

}  // namespace rlccd

// Neural-network building blocks over the autograd tensor: Linear and the
// LSTM cell of paper Eq. 4. Modules own their parameter tensors and expose
// them for optimizers / serialization.
#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace rlccd {

// Xavier-uniform initialization.
void init_xavier(Tensor& t, Rng& rng);

class Linear {
 public:
  Linear() = default;
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng);

  // x: [m, in] -> [m, out]
  [[nodiscard]] Tensor forward(const Tensor& x) const;

  [[nodiscard]] std::vector<Tensor> parameters() const { return {w_, b_}; }
  [[nodiscard]] const Tensor& weight() const { return w_; }
  [[nodiscard]] const Tensor& bias() const { return b_; }

 private:
  Tensor w_;  // [in, out]
  Tensor b_;  // [1, out]
};

// Single-layer LSTM cell (Eq. 4): gates computed from [h_{t-1}, x_t].
class LSTMCell {
 public:
  LSTMCell() = default;
  LSTMCell(std::size_t input_size, std::size_t hidden_size, Rng& rng);

  struct State {
    Tensor h;  // [batch, hidden]
    Tensor c;  // [batch, hidden]
  };

  [[nodiscard]] State zero_state(std::size_t batch = 1) const;
  // x: [batch, input] -> next state. All gate arithmetic is row-independent,
  // so a batch of B rows computes exactly the B independent single-row
  // forwards bit-for-bit.
  [[nodiscard]] State forward(const Tensor& x, const State& prev) const;

  [[nodiscard]] std::vector<Tensor> parameters() const;
  [[nodiscard]] std::size_t hidden_size() const { return hidden_; }
  [[nodiscard]] std::size_t input_size() const { return input_; }

 private:
  std::size_t input_ = 0;
  std::size_t hidden_ = 0;
  Linear gate_i_, gate_f_, gate_o_, gate_c_;  // each [(h+x) -> h]
};

}  // namespace rlccd

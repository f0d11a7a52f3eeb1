#include "nn/optim.h"

#include <gtest/gtest.h>

#include "nn/modules.h"
#include "nn/ops.h"

namespace rlccd {
namespace {

// Minimize (x - 3)^2 and expect convergence to 3.
template <class Opt, class... Args>
double minimize_quadratic(int steps, Args... args) {
  Tensor x = Tensor::scalar(0.0f, true);
  Opt opt({x}, args...);
  for (int i = 0; i < steps; ++i) {
    opt.zero_grad();
    Tensor diff = ops::affine(x, 1.0f, -3.0f);
    Tensor loss = ops::mul(diff, diff);
    loss.backward();
    opt.step();
  }
  return x.item();
}

TEST(Optim, AdamConvergesOnQuadratic) {
  EXPECT_NEAR(minimize_quadratic<Adam>(400, 0.05), 3.0, 1e-2);
}

TEST(Optim, ZeroGradClears) {
  Tensor x = Tensor::scalar(1.0f, true);
  Adam opt({x}, 0.1);
  Tensor y = ops::affine(x, 2.0f, 0.0f);
  y.backward();
  EXPECT_NE(x.grad()[0], 0.0f);
  opt.zero_grad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(Optim, ClipGradNormScalesDown) {
  Tensor a = Tensor::scalar(0.0f, true);
  Tensor b = Tensor::scalar(0.0f, true);
  a.grad_mut()[0] = 3.0f;
  b.grad_mut()[0] = 4.0f;  // norm 5
  std::vector<Tensor> params = {a, b};
  double norm = clip_grad_norm(params, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  EXPECT_NEAR(a.grad()[0], 0.6f, 1e-6);
  EXPECT_NEAR(b.grad()[0], 0.8f, 1e-6);
}

TEST(Optim, ClipGradNormLeavesSmallGradients) {
  Tensor a = Tensor::scalar(0.0f, true);
  a.grad_mut()[0] = 0.1f;
  std::vector<Tensor> params = {a};
  clip_grad_norm(params, 1.0);
  EXPECT_FLOAT_EQ(a.grad()[0], 0.1f);
}

TEST(Optim, AdamTrainsALinearModel) {
  // Fit y = 2x + 1 from samples.
  Rng rng(6);
  Linear lin(1, 1, rng);
  Adam opt(lin.parameters(), 0.05);
  for (int step = 0; step < 500; ++step) {
    float xv = static_cast<float>(rng.uniform(-1.0, 1.0));
    Tensor x = Tensor::from_data({xv}, 1, 1);
    Tensor target = Tensor::from_data({2.0f * xv + 1.0f}, 1, 1);
    opt.zero_grad();
    Tensor err = ops::sub(lin.forward(x), target);
    ops::mul(err, err).backward();
    opt.step();
  }
  EXPECT_NEAR(lin.weight().item(), 2.0f, 0.1);
  EXPECT_NEAR(lin.bias().item(), 1.0f, 0.1);
}

}  // namespace
}  // namespace rlccd

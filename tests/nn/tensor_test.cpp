#include "nn/tensor.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "nn/ops.h"

namespace rlccd {
namespace {

TEST(Tensor, ConstructionAndAccess) {
  Tensor t = Tensor::from_data({1, 2, 3, 4, 5, 6}, 2, 3);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_FLOAT_EQ(t.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(t.at(1, 2), 6.0f);
  t.set(1, 2, -1.0f);
  EXPECT_FLOAT_EQ(t.at(1, 2), -1.0f);
}

TEST(Tensor, ZerosAndFull) {
  Tensor z = Tensor::zeros(3, 2);
  for (std::size_t i = 0; i < z.size(); ++i) EXPECT_FLOAT_EQ(z.data()[i], 0.0f);
  Tensor f = Tensor::full(2, 2, 1.5f);
  for (std::size_t i = 0; i < f.size(); ++i) EXPECT_FLOAT_EQ(f.data()[i], 1.5f);
}

TEST(Tensor, ScalarItem) {
  Tensor s = Tensor::scalar(2.5f);
  EXPECT_FLOAT_EQ(s.item(), 2.5f);
}

TEST(Tensor, HandleSemanticsShareStorage) {
  Tensor a = Tensor::zeros(1, 1);
  Tensor b = a;
  b.set(0, 0, 3.0f);
  EXPECT_FLOAT_EQ(a.item(), 3.0f);
}

TEST(Tensor, DetachCopyDropsGraphAndIndependentStorage) {
  Tensor a = Tensor::scalar(1.0f, /*requires_grad=*/true);
  Tensor b = ops::affine(a, 2.0f, 0.0f);
  Tensor d = b.detach_copy();
  EXPECT_FALSE(d.requires_grad());
  d.set(0, 0, 99.0f);
  EXPECT_FLOAT_EQ(b.item(), 2.0f);
}

TEST(Tensor, BackwardAccumulatesThroughSharedSubexpression) {
  // y = x + x => dy/dx = 2.
  Tensor x = Tensor::scalar(3.0f, true);
  Tensor y = ops::add(x, x);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(Tensor, BackwardThroughDiamondGraph) {
  // y = (x*x) + (x*x) reusing the same intermediate: dy/dx = 2*2x = 4x.
  Tensor x = Tensor::scalar(2.0f, true);
  Tensor sq = ops::mul(x, x);
  Tensor y = ops::add(sq, sq);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 8.0f);
}

TEST(Tensor, ZeroGradClearsAccumulation) {
  Tensor x = Tensor::scalar(1.0f, true);
  Tensor y = ops::affine(x, 3.0f, 0.0f);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 3.0f);
  x.zero_grad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(Tensor, SecondBackwardAccumulates) {
  Tensor x = Tensor::scalar(1.0f, true);
  Tensor y1 = ops::affine(x, 2.0f, 0.0f);
  y1.backward();
  Tensor y2 = ops::affine(x, 5.0f, 0.0f);
  y2.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 7.0f);
}

TEST(Tensor, ConstantsGetNoGrad) {
  Tensor c = Tensor::scalar(2.0f, false);
  Tensor x = Tensor::scalar(3.0f, true);
  Tensor y = ops::mul(c, x);
  EXPECT_TRUE(y.requires_grad());
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
  EXPECT_FALSE(c.requires_grad());
}

// -- storage recycling --------------------------------------------------------

// The smallest pooled shape: exactly kMinPooledFloats elements.
constexpr std::size_t kPoolCols = 16;
constexpr std::size_t kPoolRows = tensor_storage::kMinPooledFloats / kPoolCols;

// Drops a tensor of the pooled shape whose values are all `junk` and returns
// its buffer address: the next pooled request of that shape on this thread
// gets exactly this buffer back.
const float* release_dirty_buffer(float junk = 7.0f) {
  Tensor t = Tensor::full(kPoolRows, kPoolCols, junk);
  return t.data();
}

bool all_equal(const float* data, std::size_t n, float v) {
  for (std::size_t i = 0; i < n; ++i) {
    if (data[i] != v) return false;
  }
  return true;
}

TEST(TensorPool, ReleasedBufferOfSameSizeIsReused) {
  Tensor a = Tensor::zeros(kPoolRows, kPoolCols);
  const float* p = a.data();
  a = Tensor();
  Tensor b = Tensor::zeros(kPoolRows, kPoolCols);
  EXPECT_EQ(b.data(), p);
}

TEST(TensorPool, RecycledBufferIsZeroFilledByMakeResult) {
  const float* p = release_dirty_buffer();
  Tensor t = make_result(kPoolRows, kPoolCols, {});
  ASSERT_EQ(t.data(), p);
  EXPECT_TRUE(all_equal(t.data(), t.size(), 0.0f));
}

TEST(TensorPool, RecycledBufferIsFillValuedByFull) {
  const float* p = release_dirty_buffer();
  Tensor t = Tensor::full(kPoolRows, kPoolCols, -2.5f);
  ASSERT_EQ(t.data(), p);
  EXPECT_TRUE(all_equal(t.data(), t.size(), -2.5f));
}

TEST(TensorPool, RecycledBufferHoldsTheSourceAfterDetachCopy) {
  Tensor src = Tensor::zeros(kPoolRows, kPoolCols);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src.data()[i] = static_cast<float>(i % 97) - 48.0f;
  }
  const float* p = release_dirty_buffer();
  Tensor copy = src.detach_copy();
  ASSERT_EQ(copy.data(), p);
  EXPECT_EQ(std::memcmp(copy.data(), src.data(), src.size() * sizeof(float)),
            0);
}

TEST(TensorPool, RecycledBufferIsZeroFilledByEnsureGrad) {
  Tensor t = Tensor::zeros(kPoolRows, kPoolCols);
  const float* p = release_dirty_buffer();
  t.impl().ensure_grad();
  ASSERT_EQ(t.impl().grad.data(), p);
  EXPECT_TRUE(all_equal(t.impl().grad.data(), t.size(), 0.0f));
}

TEST(TensorPool, BuffersBelowTheThresholdAreNotPooled) {
  // On a fresh thread, whose pool starts empty.
  std::thread([] {
    { Tensor small = Tensor::zeros(1, tensor_storage::kMinPooledFloats - 1); }
    EXPECT_EQ(tensor_storage::pooled_bytes(), 0u);
    { Tensor pooled = Tensor::zeros(1, tensor_storage::kMinPooledFloats); }
    EXPECT_EQ(tensor_storage::pooled_bytes(),
              tensor_storage::kMinPooledFloats * sizeof(float));
  }).join();
}

TEST(TensorPool, PoolBytesNeverExceedTheCap) {
  // On its own thread, so the pool it fills dies with the thread.
  std::thread([] {
    // Five releases of a quarter-cap buffer each, all of distinct sizes so
    // none is taken back: the fifth must overflow the cap.
    const std::size_t quarter =
        tensor_storage::kPoolCapBytes / sizeof(float) / 4;
    for (std::size_t k = 0; k < 5; ++k) {
      { Tensor t = Tensor::zeros(1, quarter - k); }
      EXPECT_LE(tensor_storage::pooled_bytes(), tensor_storage::kPoolCapBytes);
      EXPECT_GT(tensor_storage::pooled_bytes(), 0u);
    }
    // The overflowing release emptied the pool and then kept itself.
    EXPECT_EQ(tensor_storage::pooled_bytes(), (quarter - 4) * sizeof(float));
  }).join();
}

TEST(TensorPool, TensorFreedOnAnotherThreadJoinsThatThreadsPool) {
  Tensor t;
  const float* p = nullptr;
  std::thread([&] {
    t = Tensor::full(kPoolRows, kPoolCols, 3.0f);
    p = t.data();
  }).join();
  std::thread([&] {
    const std::size_t before = tensor_storage::pooled_bytes();
    t = Tensor();
    EXPECT_EQ(tensor_storage::pooled_bytes(),
              before + tensor_storage::kMinPooledFloats * sizeof(float));
    Tensor again = Tensor::zeros(kPoolRows, kPoolCols);
    EXPECT_EQ(again.data(), p);
    EXPECT_TRUE(all_equal(again.data(), again.size(), 0.0f));
  }).join();
}

TEST(TensorPool, TensorOutlivingItsThreadsPoolIsFreed) {
  struct Holder {
    Tensor t;
  };
  std::thread([] {
    // Constructed before the pool, so destroyed after it at thread exit:
    // the tensor it holds is released to a pool that no longer exists.
    thread_local Holder holder;
    { Tensor warm = Tensor::zeros(kPoolRows, kPoolCols); }
    holder.t = Tensor::full(kPoolRows, kPoolCols, 1.0f);
    holder.t.impl().ensure_grad();
  }).join();
  SUCCEED();
}

// -- no-grad scope ------------------------------------------------------------

// A small two-layer expression over a parameter, big enough to pool.
Tensor two_layer(const Tensor& x, const Tensor& w) {
  Tensor h = ops::sigmoid(ops::matmul(x, w));
  return ops::tanh_op(ops::add(h, ops::affine(h, 0.5f, -1.0f)));
}

TEST(NoGrad, ResultsAreConstantsWithBitEqualValues) {
  Tensor x = Tensor::zeros(kPoolRows, 4);
  Tensor w = Tensor::zeros(4, kPoolCols, /*requires_grad=*/true);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(i % 13) * 0.1f - 0.6f;
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    w.data()[i] = static_cast<float>(i % 7) * 0.2f - 0.7f;
  }
  Tensor with_grad = two_layer(x, w);
  ASSERT_TRUE(with_grad.requires_grad());
  ASSERT_FALSE(with_grad.impl().parents.empty());

  Tensor no_grad;
  {
    NoGradScope scope;
    no_grad = two_layer(x, w);
  }
  EXPECT_FALSE(no_grad.requires_grad());
  EXPECT_TRUE(no_grad.impl().parents.empty());
  EXPECT_FALSE(static_cast<bool>(no_grad.impl().backward_fn));
  ASSERT_EQ(no_grad.size(), with_grad.size());
  EXPECT_EQ(std::memcmp(no_grad.data(), with_grad.data(),
                        with_grad.size() * sizeof(float)),
            0);
}

TEST(NoGrad, InactiveScopeRecordsAndScopesNest) {
  Tensor w = Tensor::scalar(2.0f, /*requires_grad=*/true);
  {
    NoGradScope off(/*active=*/false);
    EXPECT_TRUE(ops::affine(w, 3.0f, 0.0f).requires_grad());
  }
  {
    NoGradScope outer;
    {
      NoGradScope inner;
      EXPECT_FALSE(ops::affine(w, 3.0f, 0.0f).requires_grad());
    }
    EXPECT_FALSE(ops::affine(w, 3.0f, 0.0f).requires_grad());
  }
  Tensor y = ops::affine(w, 3.0f, 0.0f);
  y.backward();
  EXPECT_FLOAT_EQ(w.grad()[0], 3.0f);
}

}  // namespace
}  // namespace rlccd

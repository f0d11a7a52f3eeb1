// Minimal reverse-mode autograd tensor library.
//
// Tensors are dense row-major float matrices (vectors are 1xN or Nx1). A
// Tensor is a cheap handle onto a shared node; operations (nn/ops.h) build a
// dynamic computation graph, and Tensor::backward() runs reverse-mode
// differentiation from a scalar. This is deliberately small — just the ops
// EP-GNN, the LSTM encoder, the attention decoder and REINFORCE need — but
// exact: every op has an analytic gradient validated against finite
// differences in tests/nn/gradcheck_test.cpp.
//
// Storage of large tensors is recycled per thread (tensor_storage below), and
// a NoGradScope turns graph recording off for inference; neither changes a
// computed value.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/contracts.h"

namespace rlccd {

// Per-thread free list of float buffers, keyed by exact element count. A
// destroyed tensor returns its value and grad buffers here, and the next
// tensor of the same size on that thread takes them instead of mapping fresh
// pages: at 9K cells every N x 32 intermediate is larger than glibc's mmap
// threshold, so without reuse each one faults its pages in and is unmapped
// again. Buffers are handed out filled exactly as a fresh one would be.
namespace tensor_storage {

// 64 KiB. Smaller buffers come from malloc's own free lists cheaply; pooling
// them would only add bookkeeping.
inline constexpr std::size_t kMinPooledFloats = std::size_t{16} << 10;
// Bound on one thread's pooled bytes. A training step at 9K cells frees about
// 60 MiB of graph at once; the cap keeps that whole working set. A release
// that would overflow it empties the pool first, so buffers of sizes that
// never come back cannot pin it full.
inline constexpr std::size_t kPoolCapBytes = std::size_t{128} << 20;

// A buffer of n elements, every one equal to `fill`.
std::vector<float> take(std::size_t n, float fill);
// Returns `buffer` to the calling thread's pool, or frees it (too small, or
// the thread's pool is already destroyed at thread exit).
void give(std::vector<float>&& buffer);
// Bytes pooled on the calling thread.
std::size_t pooled_bytes();

}  // namespace tensor_storage

// While a NoGradScope is alive on a thread, ops record no graph there: every
// result is a constant (no parents, no backward_fn, requires_grad false).
// Values are bit-equal to the recording path. Scopes nest.
class NoGradScope {
 public:
  explicit NoGradScope(bool active = true);
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

 private:
  bool previous_;
};

struct TensorImpl {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<float> value;
  std::vector<float> grad;  // allocated iff requires_grad
  bool requires_grad = false;

  // Parents keep the upstream graph alive; backward_fn pushes this node's
  // grad into the parents' grads.
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void()> backward_fn;

  TensorImpl() = default;
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;
  ~TensorImpl();  // gives value and grad back to tensor_storage

  [[nodiscard]] std::size_t size() const { return rows * cols; }
  void ensure_grad() {
    if (grad.size() != value.size()) {
      tensor_storage::give(std::move(grad));
      grad = tensor_storage::take(value.size(), 0.0f);
    }
  }
};

class Tensor {
 public:
  Tensor() = default;

  static Tensor zeros(std::size_t rows, std::size_t cols,
                      bool requires_grad = false);
  static Tensor full(std::size_t rows, std::size_t cols, float fill,
                     bool requires_grad = false);
  static Tensor from_data(std::vector<float> data, std::size_t rows,
                          std::size_t cols, bool requires_grad = false);
  static Tensor scalar(float v, bool requires_grad = false) {
    return from_data({v}, 1, 1, requires_grad);
  }

  [[nodiscard]] bool defined() const { return impl_ != nullptr; }
  [[nodiscard]] std::size_t rows() const { return impl().rows; }
  [[nodiscard]] std::size_t cols() const { return impl().cols; }
  [[nodiscard]] std::size_t size() const { return impl().size(); }

  [[nodiscard]] float* data() { return impl().value.data(); }
  [[nodiscard]] const float* data() const { return impl().value.data(); }
  [[nodiscard]] float at(std::size_t r, std::size_t c) const {
    RLCCD_EXPECTS(r < rows() && c < cols());
    return impl().value[r * cols() + c];
  }
  void set(std::size_t r, std::size_t c, float v) {
    RLCCD_EXPECTS(r < rows() && c < cols());
    impl().value[r * cols() + c] = v;
  }
  [[nodiscard]] float item() const {
    RLCCD_EXPECTS(size() == 1);
    return impl().value[0];
  }

  [[nodiscard]] bool requires_grad() const { return impl().requires_grad; }
  [[nodiscard]] const std::vector<float>& grad() const {
    RLCCD_EXPECTS(impl().requires_grad);
    const_cast<TensorImpl&>(impl()).ensure_grad();
    return impl().grad;
  }
  [[nodiscard]] std::vector<float>& grad_mut() {
    RLCCD_EXPECTS(impl().requires_grad);
    impl().ensure_grad();
    return impl().grad;
  }
  void zero_grad() {
    if (impl().requires_grad) impl().grad.assign(size(), 0.0f);
  }

  // Reverse-mode AD from this scalar (1x1). Each reachable requires-grad
  // node's grad is *accumulated* (callers zero parameter grads between
  // backward passes).
  void backward() const;

  // Detached copy of the values (no graph).
  [[nodiscard]] Tensor detach_copy() const;

  [[nodiscard]] TensorImpl& impl() {
    RLCCD_EXPECTS(impl_ != nullptr);
    return *impl_;
  }
  [[nodiscard]] const TensorImpl& impl() const {
    RLCCD_EXPECTS(impl_ != nullptr);
    return *impl_;
  }
  [[nodiscard]] const std::shared_ptr<TensorImpl>& ptr() const { return impl_; }

  // Internal: wrap an impl (used by ops).
  static Tensor wrap(std::shared_ptr<TensorImpl> impl) {
    Tensor t;
    t.impl_ = std::move(impl);
    return t;
  }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

// Creates a zero-filled result node whose requires_grad is the OR of the
// parents'. Inside a NoGradScope the parents are dropped and the result is a
// constant.
Tensor make_result(std::size_t rows, std::size_t cols,
                   std::vector<std::shared_ptr<TensorImpl>> parents);

}  // namespace rlccd

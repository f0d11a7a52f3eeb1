#include "nn/tensor.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace rlccd {

namespace tensor_storage {
namespace {

struct Pool {
  std::unordered_map<std::size_t, std::vector<std::vector<float>>> free;
  std::size_t bytes = 0;
  ~Pool();
};

// Trivially destructible, so it stays readable while other thread_local
// destructors run: a tensor a thread_local holds may die after the pool.
thread_local bool t_pool_destroyed = false;

Pool::~Pool() { t_pool_destroyed = true; }

Pool* thread_pool() {
  if (t_pool_destroyed) return nullptr;
  thread_local Pool pool;
  return &pool;
}

std::size_t bytes_of(const std::vector<float>& buffer) {
  return buffer.capacity() * sizeof(float);
}

}  // namespace

std::vector<float> take(std::size_t n, float fill) {
  if (n >= kMinPooledFloats) {
    if (Pool* pool = thread_pool()) {
      auto it = pool->free.find(n);
      if (it != pool->free.end() && !it->second.empty()) {
        std::vector<float> buffer = std::move(it->second.back());
        it->second.pop_back();
        pool->bytes -= bytes_of(buffer);
        std::fill(buffer.begin(), buffer.end(), fill);
        return buffer;
      }
    }
  }
  return std::vector<float>(n, fill);
}

void give(std::vector<float>&& buffer) {
  if (buffer.size() < kMinPooledFloats) return;
  Pool* pool = thread_pool();
  if (pool == nullptr) return;
  const std::size_t bytes = bytes_of(buffer);
  if (bytes > kPoolCapBytes) return;
  if (pool->bytes + bytes > kPoolCapBytes) {
    pool->free.clear();
    pool->bytes = 0;
  }
  pool->bytes += bytes;
  pool->free[buffer.size()].push_back(std::move(buffer));
}

std::size_t pooled_bytes() {
  const Pool* pool = thread_pool();
  return pool == nullptr ? 0 : pool->bytes;
}

}  // namespace tensor_storage

namespace {
thread_local bool t_grad_mode = true;
}  // namespace

NoGradScope::NoGradScope(bool active) : previous_(t_grad_mode) {
  if (active) t_grad_mode = false;
}

NoGradScope::~NoGradScope() { t_grad_mode = previous_; }

TensorImpl::~TensorImpl() {
  tensor_storage::give(std::move(value));
  tensor_storage::give(std::move(grad));
}

Tensor Tensor::zeros(std::size_t rows, std::size_t cols, bool requires_grad) {
  return full(rows, cols, 0.0f, requires_grad);
}

Tensor Tensor::full(std::size_t rows, std::size_t cols, float fill,
                    bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->value = tensor_storage::take(rows * cols, fill);
  impl->requires_grad = requires_grad;
  if (requires_grad) impl->ensure_grad();
  return wrap(std::move(impl));
}

Tensor Tensor::from_data(std::vector<float> data, std::size_t rows,
                         std::size_t cols, bool requires_grad) {
  RLCCD_EXPECTS(data.size() == rows * cols);
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->value = std::move(data);
  impl->requires_grad = requires_grad;
  if (requires_grad) impl->ensure_grad();
  return wrap(std::move(impl));
}

Tensor Tensor::detach_copy() const {
  auto copy = std::make_shared<TensorImpl>();
  copy->rows = rows();
  copy->cols = cols();
  copy->value = tensor_storage::take(size(), 0.0f);
  std::copy(impl().value.begin(), impl().value.end(), copy->value.begin());
  return wrap(std::move(copy));
}

Tensor make_result(std::size_t rows, std::size_t cols,
                   std::vector<std::shared_ptr<TensorImpl>> parents) {
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->value = tensor_storage::take(rows * cols, 0.0f);
  if (!t_grad_mode) return Tensor::wrap(std::move(impl));
  for (const auto& p : parents) {
    if (p && p->requires_grad) {
      impl->requires_grad = true;
      break;
    }
  }
  impl->parents = std::move(parents);
  return Tensor::wrap(std::move(impl));
}

void Tensor::backward() const {
  RLCCD_EXPECTS(size() == 1);
  RLCCD_EXPECTS(impl().requires_grad);

  // Topological order over the requires-grad subgraph (iterative DFS).
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  struct Frame {
    TensorImpl* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({impl_.get(), 0});
  visited.insert(impl_.get());
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      TensorImpl* p = f.node->parents[f.next_parent++].get();
      if (p != nullptr && p->requires_grad && !visited.count(p)) {
        visited.insert(p);
        stack.push_back({p, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }

  impl_->ensure_grad();
  impl_->grad[0] += 1.0f;
  // order is post-order (leaves first); walk it backwards so each node runs
  // its backward_fn after all its consumers have contributed.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn) node->backward_fn();
  }
}

}  // namespace rlccd

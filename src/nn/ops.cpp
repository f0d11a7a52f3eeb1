#include "nn/ops.h"

#include <algorithm>
#include <cmath>

namespace rlccd::ops {

namespace {

// Accumulates `n` values of src into dst->grad if dst wants gradients.
inline bool wants_grad(TensorImpl* t) { return t != nullptr && t->requires_grad; }

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  RLCCD_EXPECTS(a.cols() == b.rows());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Tensor out = make_result(m, n, {a.ptr(), b.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* bi = b.ptr().get();
  TensorImpl* oi = out.ptr().get();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = ai->value.data() + i * k;
    float* orow = oi->value.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = bi->value.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  if (oi->requires_grad) {
    oi->backward_fn = [ai, bi, oi, m, k, n]() {
      if (wants_grad(ai)) {
        ai->ensure_grad();
        // dA = dO * B^T
        for (std::size_t i = 0; i < m; ++i) {
          const float* grow = oi->grad.data() + i * n;
          float* agrow = ai->grad.data() + i * k;
          for (std::size_t kk = 0; kk < k; ++kk) {
            const float* brow = bi->value.data() + kk * n;
            float acc = 0.0f;
            for (std::size_t j = 0; j < n; ++j) acc += grow[j] * brow[j];
            agrow[kk] += acc;
          }
        }
      }
      if (wants_grad(bi)) {
        bi->ensure_grad();
        // dB = A^T * dO
        for (std::size_t i = 0; i < m; ++i) {
          const float* arow = ai->value.data() + i * k;
          const float* grow = oi->grad.data() + i * n;
          for (std::size_t kk = 0; kk < k; ++kk) {
            float av = arow[kk];
            if (av == 0.0f) continue;
            float* bgrow = bi->grad.data() + kk * n;
            for (std::size_t j = 0; j < n; ++j) bgrow[j] += av * grow[j];
          }
        }
      }
    };
  }
  return out;
}

Tensor add(const Tensor& a, const Tensor& b) {
  RLCCD_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  Tensor out = make_result(a.rows(), a.cols(), {a.ptr(), b.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* bi = b.ptr().get();
  TensorImpl* oi = out.ptr().get();
  for (std::size_t i = 0; i < oi->size(); ++i) {
    oi->value[i] = ai->value[i] + bi->value[i];
  }
  if (oi->requires_grad) {
    oi->backward_fn = [ai, bi, oi]() {
      if (wants_grad(ai)) {
        ai->ensure_grad();
        for (std::size_t i = 0; i < oi->size(); ++i) ai->grad[i] += oi->grad[i];
      }
      if (wants_grad(bi)) {
        bi->ensure_grad();
        for (std::size_t i = 0; i < oi->size(); ++i) bi->grad[i] += oi->grad[i];
      }
    };
  }
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  RLCCD_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  Tensor out = make_result(a.rows(), a.cols(), {a.ptr(), b.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* bi = b.ptr().get();
  TensorImpl* oi = out.ptr().get();
  for (std::size_t i = 0; i < oi->size(); ++i) {
    oi->value[i] = ai->value[i] - bi->value[i];
  }
  if (oi->requires_grad) {
    oi->backward_fn = [ai, bi, oi]() {
      if (wants_grad(ai)) {
        ai->ensure_grad();
        for (std::size_t i = 0; i < oi->size(); ++i) ai->grad[i] += oi->grad[i];
      }
      if (wants_grad(bi)) {
        bi->ensure_grad();
        for (std::size_t i = 0; i < oi->size(); ++i) bi->grad[i] -= oi->grad[i];
      }
    };
  }
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  RLCCD_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  Tensor out = make_result(a.rows(), a.cols(), {a.ptr(), b.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* bi = b.ptr().get();
  TensorImpl* oi = out.ptr().get();
  for (std::size_t i = 0; i < oi->size(); ++i) {
    oi->value[i] = ai->value[i] * bi->value[i];
  }
  if (oi->requires_grad) {
    oi->backward_fn = [ai, bi, oi]() {
      if (wants_grad(ai)) {
        ai->ensure_grad();
        for (std::size_t i = 0; i < oi->size(); ++i) {
          ai->grad[i] += oi->grad[i] * bi->value[i];
        }
      }
      if (wants_grad(bi)) {
        bi->ensure_grad();
        for (std::size_t i = 0; i < oi->size(); ++i) {
          bi->grad[i] += oi->grad[i] * ai->value[i];
        }
      }
    };
  }
  return out;
}

Tensor add_rowvec(const Tensor& a, const Tensor& row) {
  RLCCD_EXPECTS(row.rows() == 1 && row.cols() == a.cols());
  Tensor out = make_result(a.rows(), a.cols(), {a.ptr(), row.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* ri = row.ptr().get();
  TensorImpl* oi = out.ptr().get();
  const std::size_t n = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      oi->value[i * n + j] = ai->value[i * n + j] + ri->value[j];
    }
  }
  if (oi->requires_grad) {
    const std::size_t m = a.rows();
    oi->backward_fn = [ai, ri, oi, m, n]() {
      if (wants_grad(ai)) {
        ai->ensure_grad();
        for (std::size_t i = 0; i < m * n; ++i) ai->grad[i] += oi->grad[i];
      }
      if (wants_grad(ri)) {
        ri->ensure_grad();
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            ri->grad[j] += oi->grad[i * n + j];
          }
        }
      }
    };
  }
  return out;
}

Tensor affine(const Tensor& a, float alpha, float beta) {
  Tensor out = make_result(a.rows(), a.cols(), {a.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* oi = out.ptr().get();
  for (std::size_t i = 0; i < oi->size(); ++i) {
    oi->value[i] = alpha * ai->value[i] + beta;
  }
  if (oi->requires_grad) {
    oi->backward_fn = [ai, oi, alpha]() {
      if (!wants_grad(ai)) return;
      ai->ensure_grad();
      for (std::size_t i = 0; i < oi->size(); ++i) {
        ai->grad[i] += alpha * oi->grad[i];
      }
    };
  }
  return out;
}

Tensor scale_by_scalar(const Tensor& a, const Tensor& s) {
  RLCCD_EXPECTS(s.size() == 1);
  Tensor out = make_result(a.rows(), a.cols(), {a.ptr(), s.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* si = s.ptr().get();
  TensorImpl* oi = out.ptr().get();
  const float sv = si->value[0];
  for (std::size_t i = 0; i < oi->size(); ++i) {
    oi->value[i] = sv * ai->value[i];
  }
  if (oi->requires_grad) {
    oi->backward_fn = [ai, si, oi]() {
      const float sv = si->value[0];
      if (wants_grad(ai)) {
        ai->ensure_grad();
        for (std::size_t i = 0; i < oi->size(); ++i) {
          ai->grad[i] += sv * oi->grad[i];
        }
      }
      if (wants_grad(si)) {
        si->ensure_grad();
        float acc = 0.0f;
        for (std::size_t i = 0; i < oi->size(); ++i) {
          acc += ai->value[i] * oi->grad[i];
        }
        si->grad[0] += acc;
      }
    };
  }
  return out;
}

namespace {

template <class Fwd, class Dfn>
Tensor unary_op(const Tensor& a, Fwd fwd, Dfn dfn) {
  Tensor out = make_result(a.rows(), a.cols(), {a.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* oi = out.ptr().get();
  for (std::size_t i = 0; i < oi->size(); ++i) {
    oi->value[i] = fwd(ai->value[i]);
  }
  if (oi->requires_grad) {
    oi->backward_fn = [ai, oi, dfn]() {
      if (!wants_grad(ai)) return;
      ai->ensure_grad();
      for (std::size_t i = 0; i < oi->size(); ++i) {
        // dfn receives (input, output) so e.g. sigmoid can reuse y.
        ai->grad[i] += oi->grad[i] * dfn(ai->value[i], oi->value[i]);
      }
    };
  }
  return out;
}

}  // namespace

Tensor sigmoid(const Tensor& a) {
  return unary_op(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor tanh_op(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor relu(const Tensor& a) {
  return unary_op(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor sum(const Tensor& a) {
  Tensor out = make_result(1, 1, {a.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* oi = out.ptr().get();
  float acc = 0.0f;
  for (float v : ai->value) acc += v;
  oi->value[0] = acc;
  if (oi->requires_grad) {
    oi->backward_fn = [ai, oi]() {
      if (!wants_grad(ai)) return;
      ai->ensure_grad();
      const float g = oi->grad[0];
      for (std::size_t i = 0; i < ai->size(); ++i) ai->grad[i] += g;
    };
  }
  return out;
}

Tensor mean(const Tensor& a) {
  RLCCD_EXPECTS(a.size() > 0);
  return affine(sum(a), 1.0f / static_cast<float>(a.size()), 0.0f);
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  RLCCD_EXPECTS(a.rows() == b.rows());
  const std::size_t m = a.rows(), p = a.cols(), q = b.cols();
  Tensor out = make_result(m, p + q, {a.ptr(), b.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* bi = b.ptr().get();
  TensorImpl* oi = out.ptr().get();
  for (std::size_t i = 0; i < m; ++i) {
    std::copy_n(ai->value.data() + i * p, p, oi->value.data() + i * (p + q));
    std::copy_n(bi->value.data() + i * q, q,
                oi->value.data() + i * (p + q) + p);
  }
  if (oi->requires_grad) {
    oi->backward_fn = [ai, bi, oi, m, p, q]() {
      for (std::size_t i = 0; i < m; ++i) {
        const float* grow = oi->grad.data() + i * (p + q);
        if (wants_grad(ai)) {
          ai->ensure_grad();
          float* ag = ai->grad.data() + i * p;
          for (std::size_t j = 0; j < p; ++j) ag[j] += grow[j];
        }
        if (wants_grad(bi)) {
          bi->ensure_grad();
          float* bg = bi->grad.data() + i * q;
          for (std::size_t j = 0; j < q; ++j) bg[j] += grow[p + j];
        }
      }
    };
  }
  return out;
}

Tensor gather_rows(const Tensor& a, const std::vector<std::size_t>& idx) {
  const std::size_t n = a.cols();
  Tensor out = make_result(idx.size(), n, {a.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* oi = out.ptr().get();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    RLCCD_EXPECTS(idx[i] < a.rows());
    std::copy_n(ai->value.data() + idx[i] * n, n, oi->value.data() + i * n);
  }
  if (oi->requires_grad) {
    oi->backward_fn = [ai, oi, idx, n]() {
      if (!wants_grad(ai)) return;
      ai->ensure_grad();
      for (std::size_t i = 0; i < idx.size(); ++i) {
        float* ag = ai->grad.data() + idx[i] * n;
        const float* g = oi->grad.data() + i * n;
        for (std::size_t j = 0; j < n; ++j) ag[j] += g[j];
      }
    };
  }
  return out;
}

Tensor pick(const Tensor& a, std::size_t r, std::size_t c) {
  RLCCD_EXPECTS(r < a.rows() && c < a.cols());
  Tensor out = make_result(1, 1, {a.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* oi = out.ptr().get();
  const std::size_t flat = r * a.cols() + c;
  oi->value[0] = ai->value[flat];
  if (oi->requires_grad) {
    oi->backward_fn = [ai, oi, flat]() {
      if (!wants_grad(ai)) return;
      ai->ensure_grad();
      ai->grad[flat] += oi->grad[0];
    };
  }
  return out;
}

Tensor masked_log_softmax(const Tensor& scores,
                          const std::vector<char>& valid) {
  RLCCD_EXPECTS(scores.cols() == 1);
  RLCCD_EXPECTS(valid.size() == scores.rows());
  const std::size_t n = scores.rows();
  Tensor out = make_result(n, 1, {scores.ptr()});
  TensorImpl* si = scores.ptr().get();
  TensorImpl* oi = out.ptr().get();

  constexpr float kNegInf = -1e30f;
  float max_v = kNegInf;
  bool any_valid = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (valid[i]) {
      any_valid = true;
      max_v = std::max(max_v, si->value[i]);
    }
  }
  RLCCD_EXPECTS(any_valid);
  double z = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (valid[i]) z += std::exp(static_cast<double>(si->value[i] - max_v));
  }
  const float log_z = max_v + static_cast<float>(std::log(z));
  for (std::size_t i = 0; i < n; ++i) {
    oi->value[i] = valid[i] ? si->value[i] - log_z : kNegInf;
  }
  if (oi->requires_grad) {
    oi->backward_fn = [si, oi, valid, n]() {
      if (!wants_grad(si)) return;
      si->ensure_grad();
      // d log_softmax_i / d s_j = delta_ij - softmax_j (valid entries only).
      float grad_total = 0.0f;
      for (std::size_t i = 0; i < n; ++i) {
        if (valid[i]) grad_total += oi->grad[i];
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (!valid[j]) continue;
        const float p_j = std::exp(oi->value[j]);
        si->grad[j] += oi->grad[j] - p_j * grad_total;
      }
    };
  }
  return out;
}

Tensor spmm(const SparseOperand& sp, const Tensor& x) {
  RLCCD_EXPECTS(sp.matrix.cols == x.rows());
  const std::size_t n = x.cols();
  Tensor out = make_result(sp.matrix.rows, n, {x.ptr()});
  TensorImpl* xi = x.ptr().get();
  TensorImpl* oi = out.ptr().get();
  const SparseMatrix& a = sp.matrix;
  for (std::size_t r = 0; r < a.rows; ++r) {
    float* orow = oi->value.data() + r * n;
    for (std::uint32_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      const float v = a.values[k];
      const float* xrow = xi->value.data() + a.col_idx[k] * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += v * xrow[j];
    }
  }
  if (oi->requires_grad) {
    const SparseMatrix* at = &sp.matrix_t;
    oi->backward_fn = [xi, oi, at, n]() {
      if (!wants_grad(xi)) return;
      xi->ensure_grad();
      // dX = A^T * dO
      for (std::size_t r = 0; r < at->rows; ++r) {
        float* xg = xi->grad.data() + r * n;
        for (std::uint32_t k = at->row_ptr[r]; k < at->row_ptr[r + 1]; ++k) {
          const float v = at->values[k];
          const float* grow = oi->grad.data() + at->col_idx[k] * n;
          for (std::size_t j = 0; j < n; ++j) xg[j] += v * grow[j];
        }
      }
    };
  }
  return out;
}

}  // namespace rlccd::ops

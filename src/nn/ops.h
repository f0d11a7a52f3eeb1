// Differentiable operations over Tensor (see nn/tensor.h). All ops validate
// shapes with contracts and register exact backward closures; gradients are
// verified against finite differences in the test suite.
#pragma once

#include <vector>

#include "nn/sparse.h"
#include "nn/tensor.h"

namespace rlccd::ops {

// Dense linear algebra.
Tensor matmul(const Tensor& a, const Tensor& b);           // [m,k]x[k,n]
Tensor add(const Tensor& a, const Tensor& b);              // elementwise
Tensor sub(const Tensor& a, const Tensor& b);              // elementwise
Tensor mul(const Tensor& a, const Tensor& b);              // elementwise
Tensor add_rowvec(const Tensor& a, const Tensor& row);     // [m,n] + [1,n]
Tensor affine(const Tensor& a, float alpha, float beta);   // alpha*a + beta
// Broadcast-scale by a 1x1 tensor: out = a * s (gradient flows into both).
Tensor scale_by_scalar(const Tensor& a, const Tensor& s);

// Nonlinearities.
Tensor sigmoid(const Tensor& a);
Tensor tanh_op(const Tensor& a);
Tensor relu(const Tensor& a);

// Reductions / reshaping.
Tensor sum(const Tensor& a);                       // -> 1x1
Tensor mean(const Tensor& a);                      // -> 1x1
Tensor concat_cols(const Tensor& a, const Tensor& b);  // [m,p]|[m,q] -> [m,p+q]
// Row gather with scatter-add backward: out[i,:] = a[idx[i],:].
Tensor gather_rows(const Tensor& a, const std::vector<std::size_t>& idx);
Tensor pick(const Tensor& a, std::size_t r, std::size_t c);  // -> 1x1

// Masked log-softmax over a column vector [n,1]: invalid entries get
// log-probability -inf (represented as a large negative constant with zero
// gradient) and do not contribute to the normalizer (paper Eq. 5/6).
Tensor masked_log_softmax(const Tensor& scores,
                          const std::vector<char>& valid);

// Sparse x dense: out = sp.matrix * x; backward uses sp.matrix_t. The
// sparse values are constants (graph structure), only x carries gradient.
Tensor spmm(const SparseOperand& sp, const Tensor& x);

}  // namespace rlccd::ops

#include "rl/policy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/fault.h"
#include "common/telemetry.h"
#include "nn/serialize.h"

namespace rlccd {

Policy::Policy(const PolicyConfig& config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  Rng rng(seed);
  gnn_ = EpGnn(config.gnn, rng);
  lstm_ = LSTMCell(config.gnn.embedding, config.lstm_hidden, rng);
  attn_w1_ = Tensor::zeros(config.gnn.embedding, config.attn_dim,
                           /*requires_grad=*/true);
  attn_w2_ = Tensor::zeros(config.lstm_hidden, config.attn_dim,
                           /*requires_grad=*/true);
  attn_v_ = Tensor::zeros(config.attn_dim, 1, /*requires_grad=*/true);
  init_xavier(attn_w1_, rng);
  init_xavier(attn_w2_, rng);
  init_xavier(attn_v_, rng);
}

namespace {

// Fills one AuditStep from the masked log-softmax of this step: entropy of
// the valid distribution and the top-k probabilities (descending, ties by
// endpoint index). Pure observation — no RNG, no graph mutation.
void capture_audit_step(AuditStep& step, const Tensor& log_probs,
                        const std::vector<char>& valid) {
  double entropy = 0.0;
  std::vector<std::pair<std::uint32_t, double>> probs;
  for (std::size_t i = 0; i < log_probs.rows(); ++i) {
    if (!valid[i]) continue;
    const double lp = log_probs.at(i, 0);
    const double p = std::exp(lp);
    if (p > 0.0) entropy -= p * lp;
    probs.emplace_back(static_cast<std::uint32_t>(i), p);
  }
  step.entropy = entropy;
  const std::size_t k = std::min(SelectionAudit::kTopK, probs.size());
  std::partial_sort(probs.begin(), probs.begin() + static_cast<long>(k),
                    probs.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  probs.resize(k);
  step.top_probs = std::move(probs);
}

}  // namespace

Policy::RolloutResult Policy::rollout(const DesignGraph& graph,
                                      SelectionEnv& env, Rng& rng,
                                      bool greedy, RolloutMode mode,
                                      SelectionAudit* audit) const {
  RolloutResult result;
  if (audit != nullptr) audit->clear();
  const bool stepwise = mode != RolloutMode::FullGraph;
  const bool backward = mode == RolloutMode::StepwiseBackward;
  if (!stepwise) {
    result.log_prob_sum = Tensor::zeros(1, 1, /*requires_grad=*/true);
  }

  LSTMCell::State state = lstm_.zero_state();
  Tensor prev_embedding = Tensor::zeros(1, config_.gnn.embedding);

  while (!env.done()) {
    // 1. EP-GNN encoding with the current masked flags (Alg. 1 line 6).
    Tensor x = graph.features_with_mask(env.cell_mask_flags());
    Tensor f_ep = gnn_.forward(x, graph.adjacency(), graph.cone_matrix(),
                               graph.endpoint_rows());

    // 2. LSTM query from the previous action's embedding (Alg. 1 lines 7-8).
    state = lstm_.forward(prev_embedding, state);
    const Tensor& q = state.h;  // [1, hidden]

    // 3. Attention scores over all endpoints (Eq. 5):
    //    A_i = v^T tanh(W1 f_i + W2 q).
    Tensor scores = ops::matmul(
        ops::tanh_op(ops::add_rowvec(ops::matmul(f_ep, attn_w1_),
                                     ops::matmul(q, attn_w2_))),
        attn_v_);  // [n, 1]

    // Numerical-health guard: a NaN/Inf logit would poison the softmax, the
    // sampled action and (via backward) every parameter gradient. Stop the
    // trajectory here and let the trainer drop it instead.
    if (fault_fire("nan_logits")) {
      scores.set(0, 0, std::numeric_limits<float>::quiet_NaN());
    }
    bool logits_finite = true;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (!std::isfinite(scores.data()[i])) {
        logits_finite = false;
        break;
      }
    }
    if (!logits_finite) {
      static MetricsCounter& ctr_nonfinite =
          MetricsRegistry::global().counter("policy.nonfinite_logits");
      ctr_nonfinite.increment();
      result.poisoned = true;
      if (audit != nullptr) audit->poisoned = true;
      break;
    }

    // 4. Masked softmax + sampling (Eq. 6, Alg. 1 line 10).
    Tensor log_probs = ops::masked_log_softmax(scores, env.valid());
    std::size_t action;
    if (greedy) {
      action = 0;
      float best = -1e30f;
      for (std::size_t i = 0; i < log_probs.rows(); ++i) {
        if (env.valid()[i] && log_probs.at(i, 0) > best) {
          best = log_probs.at(i, 0);
          action = i;
        }
      }
    } else {
      std::vector<float> probs(log_probs.rows());
      for (std::size_t i = 0; i < probs.size(); ++i) {
        probs[i] = env.valid()[i] ? std::exp(log_probs.at(i, 0)) : 0.0f;
      }
      action = rng.sample_probabilities(probs);
    }
    RLCCD_ASSERT(env.valid()[action]);

    Tensor log_p = ops::pick(log_probs, action, 0);
    result.log_prob_value += log_p.item();
    if (backward) {
      // Accumulate grad(log pi_t) into the parameter grads now and free
      // this step's graph; the caller scales by the advantage later.
      log_p.backward();
    } else if (!stepwise) {
      result.log_prob_sum = ops::add(result.log_prob_sum, log_p);
    }
    result.actions.push_back(action);

    AuditStep* audit_step = nullptr;
    if (audit != nullptr) {
      audit->steps.emplace_back();
      audit_step = &audit->steps.back();
      audit_step->chosen = static_cast<std::uint32_t>(action);
      audit_step->slack = graph.endpoint_slacks()[action];
      audit_step->log_prob = log_p.item();
      capture_audit_step(*audit_step, log_probs, env.valid());
    }

    // 5. Overlap masking (Alg. 1 line 11) and next-step LSTM input.
    prev_embedding = ops::gather_rows(f_ep, {action});
    if (stepwise) {
      // Truncated BPTT: cut the recurrent chain so each step's graph dies
      // with the step.
      prev_embedding = prev_embedding.detach_copy();
      state.h = state.h.detach_copy();
      state.c = state.c.detach_copy();
    }
    env.step(action, audit_step != nullptr ? &audit_step->masked : nullptr);
    ++result.steps;
  }

  result.selected = env.selected_pins();
  return result;
}

std::vector<Tensor> Policy::parameters() const {
  std::vector<Tensor> params = gnn_.parameters();
  for (Tensor& t : lstm_.parameters()) params.push_back(t);
  params.push_back(attn_w1_);
  params.push_back(attn_w2_);
  params.push_back(attn_v_);
  return params;
}

Policy Policy::clone() const {
  Policy copy(config_, seed_);
  std::vector<Tensor> src = parameters();
  std::vector<Tensor> dst = copy.parameters();
  copy_parameter_values(src, dst);
  return copy;
}

Status Policy::save_gnn(const std::string& path) const {
  return save_parameters(gnn_.parameters(), path);
}

Status Policy::load_gnn(const std::string& path) {
  std::vector<Tensor> params = gnn_.parameters();
  return load_parameters(params, path);
}

}  // namespace rlccd

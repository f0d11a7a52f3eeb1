#include "rl/evaluator.h"

#include "common/contracts.h"

namespace rlccd {

RolloutEvaluator::RolloutEvaluator(const Design* design, FlowConfig flow)
    : design_(design), flow_(flow) {
  RLCCD_EXPECTS(design != nullptr && design->netlist != nullptr);
}

void RolloutEvaluator::set_reward_transform(double shift, double denom) {
  RLCCD_EXPECTS(denom != 0.0);
  reward_shift_ = shift;
  reward_denom_ = denom;
}

std::unique_ptr<Netlist> RolloutEvaluator::acquire_scratch() {
  std::unique_ptr<Netlist> scratch;
  {
    std::lock_guard<std::mutex> lock(scratch_mutex_);
    if (!scratch_pool_.empty()) {
      scratch = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
    }
  }
  if (scratch) {
    *scratch = *design_->netlist;  // reset in place, reusing capacity
  } else {
    scratch = std::make_unique<Netlist>(*design_->netlist);
  }
  return scratch;
}

void RolloutEvaluator::release_scratch(std::unique_ptr<Netlist> scratch) {
  std::lock_guard<std::mutex> lock(scratch_mutex_);
  scratch_pool_.push_back(std::move(scratch));
}

FlowResult RolloutEvaluator::evaluate_full(std::span<const PinId> selection,
                                           const CancelToken* cancel) {
  std::unique_ptr<Netlist> work = acquire_scratch();
  FlowInput input{design_->sta_config, design_->clock_period, design_->die,
                  design_->pi_toggles, selection};
  FlowConfig flow = flow_;
  flow.cancel = cancel;
  FlowResult result = run_placement_flow(*work, input, flow);
  release_scratch(std::move(work));
  return result;
}

EvalOutcome RolloutEvaluator::evaluate(std::span<const PinId> selection,
                                       const CancelToken* cancel) {
  FlowResult fr = evaluate_full(selection, cancel);
  EvalOutcome outcome;
  outcome.summary = fr.final_summary;
  outcome.flow_ran = true;
  outcome.cancelled = fr.cancelled;
  outcome.reward = (outcome.summary.tns - reward_shift_) / reward_denom_;
  return outcome;
}

}  // namespace rlccd

// The one seam through which the trainer turns a selection into a reward.
//
// The REINFORCE trainer evaluates every sampled endpoint selection by
// running the full placement flow on a pristine copy of the design. Both
// execution backends — in-thread workers and fork-isolated worker
// processes — go through RolloutEvaluator, which owns the pool of scratch
// netlists the flows run on and the reward normalization, and returns an
// EvalOutcome (the struct the isolation wire ships back to the parent).
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/cancel.h"
#include "designgen/generator.h"
#include "opt/flow.h"

namespace rlccd {

// What an evaluation produced: the flow summary the reward is computed
// from, plus its status.
struct EvalOutcome {
  TimingSummary summary;    // final flow summary (TNS/WNS/NVE)
  double reward = 0.0;      // normalized against the default flow
  bool flow_ran = false;    // the flow ran and produced a summary
  bool cancelled = false;   // the watchdog fired mid-flow; summary partial
};

class RolloutEvaluator {
 public:
  // `design` is not owned and must outlive the evaluator.
  RolloutEvaluator(const Design* design, FlowConfig flow);

  // Runs the placement flow with `selection` prioritized and applies the
  // reward transform. `cancel` is the calling backend's cooperative
  // watchdog (null in isolated children, where the supervisor's SIGKILL
  // deadline supersedes it). Thread-safe: the scratch pool takes its own
  // lock.
  [[nodiscard]] EvalOutcome evaluate(std::span<const PinId> selection,
                                     const CancelToken* cancel);

  // Full evaluation for callers that need the complete FlowResult (the
  // facade's final comparison flows, ablation benches).
  [[nodiscard]] FlowResult evaluate_full(std::span<const PinId> selection,
                                         const CancelToken* cancel);

  // Reward transform applied to every outcome: (tns - shift) / denom. The
  // trainer sets it once the default flow's TNS is known.
  void set_reward_transform(double shift, double denom);

 private:
  // Pops a scratch netlist from the pool (or allocates the first time) and
  // resets it to the pristine design via copy-assignment, which reuses the
  // scratch's existing heap allocations across rollouts.
  [[nodiscard]] std::unique_ptr<Netlist> acquire_scratch();
  void release_scratch(std::unique_ptr<Netlist> scratch);

  const Design* design_;
  FlowConfig flow_;
  double reward_shift_ = 0.0;
  double reward_denom_ = 1.0;

  std::mutex scratch_mutex_;
  std::vector<std::unique_ptr<Netlist>> scratch_pool_;
};

}  // namespace rlccd

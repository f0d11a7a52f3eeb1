// RolloutEvaluator: a repeat evaluation on a recycled scratch netlist
// reproduces the first one bit for bit (the pool resets each scratch to
// the pristine design), and rewards follow the transform in force at
// evaluation time.
#include <gtest/gtest.h>

#include <vector>

#include "rl/design_graph.h"
#include "rl/evaluator.h"

namespace rlccd {
namespace {

Design small_design(std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.target_cells = 400;
  cfg.seed = seed;
  cfg.clock_tightness = 0.72;
  return generate_design(cfg);
}

TEST(RolloutEvaluatorTest, RepeatEvaluationOnPooledScratchIsBitIdentical) {
  Design d = small_design(19);
  DesignGraph graph(d);
  ASSERT_GE(graph.num_endpoints(), 1u);
  std::vector<PinId> sel(graph.violating().begin(),
                         graph.violating().begin() + 1);

  RolloutEvaluator ev(
      &d, default_flow_config(d.netlist->num_real_cells(), d.clock_period));

  const EvalOutcome a = ev.evaluate(sel, /*cancel=*/nullptr);
  const EvalOutcome b = ev.evaluate(sel, /*cancel=*/nullptr);
  EXPECT_TRUE(a.flow_ran);
  EXPECT_FALSE(a.cancelled);
  EXPECT_EQ(a.summary.tns, b.summary.tns);
  EXPECT_EQ(a.summary.wns, b.summary.wns);
  EXPECT_EQ(a.summary.nve, b.summary.nve);
  EXPECT_EQ(a.reward, b.reward);
}

TEST(RolloutEvaluatorTest, RewardUsesTransformInForce) {
  // The trainer learns the normalization (default TNS, reward denominator)
  // after the evaluator exists.
  Design d = small_design(19);
  DesignGraph graph(d);
  ASSERT_GE(graph.num_endpoints(), 1u);
  std::vector<PinId> sel(graph.violating().begin(),
                         graph.violating().begin() + 1);

  RolloutEvaluator ev(
      &d, default_flow_config(d.netlist->num_real_cells(), d.clock_period));

  ev.set_reward_transform(-10.0, 4.0);
  const EvalOutcome first = ev.evaluate(sel, /*cancel=*/nullptr);
  EXPECT_EQ(first.reward, (first.summary.tns - -10.0) / 4.0);

  ev.set_reward_transform(-20.0, 8.0);
  const EvalOutcome second = ev.evaluate(sel, /*cancel=*/nullptr);
  EXPECT_EQ(second.summary.tns, first.summary.tns);
  EXPECT_EQ(second.reward, (second.summary.tns - -20.0) / 8.0);
}

}  // namespace
}  // namespace rlccd

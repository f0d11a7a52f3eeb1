#include "rl/env.h"

#include <gtest/gtest.h>

namespace rlccd {
namespace {

struct Fixture {
  Design design;
  DesignGraph graph;

  Fixture() : design(make()), graph(design) {}

  static Design make() {
    GeneratorConfig cfg;
    cfg.target_cells = 500;
    cfg.seed = 73;
    cfg.clock_tightness = 0.75;
    return generate_design(cfg);
  }
};

TEST(SelectionEnv, StartsAllValid) {
  Fixture f;
  SelectionEnv env(&f.graph, 0.3);
  EXPECT_FALSE(env.done());
  for (char v : env.valid()) EXPECT_EQ(v, 1);
  EXPECT_TRUE(env.selected().empty());
}

TEST(SelectionEnv, StepSelectsAndMasksOverlaps) {
  Fixture f;
  SelectionEnv env(&f.graph, 0.3);
  int masked = env.step(0);
  EXPECT_EQ(env.selected().size(), 1u);
  EXPECT_EQ(env.valid()[0], 0);
  // Every masked endpoint overlaps the selection above threshold.
  int recount = 0;
  for (std::size_t j = 1; j < env.valid().size(); ++j) {
    if (!env.valid()[j]) {
      EXPECT_GT(f.graph.cones().overlap(0, j), 0.3);
      ++recount;
    }
  }
  EXPECT_EQ(masked, recount);
}

TEST(SelectionEnv, EpisodeTerminatesWithAllSelectedOrMasked) {
  Fixture f;
  SelectionEnv env(&f.graph, 0.3);
  while (!env.done()) {
    // Pick the first valid endpoint.
    std::size_t a = 0;
    while (!env.valid()[a]) ++a;
    env.step(a);
  }
  std::size_t n = env.valid().size();
  for (char v : env.valid()) EXPECT_EQ(v, 0);
  EXPECT_LE(env.selected().size(), n);
  EXPECT_GE(env.selected().size(), 1u);
}

TEST(SelectionEnv, ThresholdOneMeansNoMasking) {
  Fixture f;
  SelectionEnv env(&f.graph, 1.0);  // overlap can never exceed 1
  std::size_t steps = 0;
  while (!env.done()) {
    std::size_t a = 0;
    while (!env.valid()[a]) ++a;
    env.step(a);
    ++steps;
  }
  EXPECT_EQ(steps, f.graph.num_endpoints())
      << "with rho=1 every endpoint must be selected individually";
}

TEST(SelectionEnv, LowerThresholdMasksMore) {
  Fixture f;
  auto count_steps = [&](double rho) {
    SelectionEnv env(&f.graph, rho);
    std::size_t steps = 0;
    while (!env.done()) {
      std::size_t a = 0;
      while (!env.valid()[a]) ++a;
      env.step(a);
      ++steps;
    }
    return steps;
  };
  EXPECT_LE(count_steps(0.1), count_steps(0.9));
}

TEST(SelectionEnv, CellMaskFlagsTrackSelectionAndMasking) {
  Fixture f;
  SelectionEnv env(&f.graph, 0.3);
  std::vector<char> before = env.cell_mask_flags();
  for (char v : before) EXPECT_EQ(v, 0);

  env.step(0);
  std::vector<char> after = env.cell_mask_flags();
  // The selected endpoint's owner cell is flagged.
  EXPECT_EQ(after[f.graph.endpoint_rows()[0]], 1);
  std::size_t flagged = 0;
  for (char v : after) flagged += static_cast<std::size_t>(v);
  EXPECT_GE(flagged, 1u);
}

TEST(SelectionEnv, LastFlaggedOwnersAccumulateToCellMaskFlags) {
  Fixture f;
  SelectionEnv env(&f.graph, 0.3);
  std::vector<char> accumulated(f.design.netlist->num_cells(), 0);
  Rng rng(3);
  while (!env.done()) {
    std::vector<std::size_t> valid;
    for (std::size_t i = 0; i < env.valid().size(); ++i) {
      if (env.valid()[i]) valid.push_back(i);
    }
    const std::size_t action = valid[rng.uniform_int(valid.size())];
    const int masked = env.step(action);
    const std::vector<std::size_t>& flagged = env.last_flagged();
    ASSERT_EQ(flagged.size(), static_cast<std::size_t>(masked) + 1);
    EXPECT_EQ(flagged.front(), action);
    for (std::size_t e : flagged) accumulated[f.graph.endpoint_rows()[e]] = 1;
    ASSERT_EQ(accumulated, env.cell_mask_flags());
  }
}

TEST(SelectionEnv, ResetRestoresInitialState) {
  Fixture f;
  SelectionEnv env(&f.graph, 0.3);
  env.step(0);
  env.reset();
  EXPECT_TRUE(env.selected().empty());
  EXPECT_TRUE(env.last_flagged().empty());
  for (char v : env.valid()) EXPECT_EQ(v, 1);
}

TEST(SelectionEnv, SelectedPinsMapToViolatingEndpoints) {
  Fixture f;
  SelectionEnv env(&f.graph, 0.3);
  env.step(2);
  std::vector<PinId> pins = env.selected_pins();
  ASSERT_EQ(pins.size(), 1u);
  EXPECT_EQ(pins[0], f.graph.violating()[2]);
}

}  // namespace
}  // namespace rlccd

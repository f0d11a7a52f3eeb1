#include "rl/policy.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "common/telemetry.h"

namespace rlccd {
namespace {

struct Fixture {
  Design design;
  DesignGraph graph;

  Fixture() : design(make()), graph(design) {}

  static Design make() {
    GeneratorConfig cfg;
    cfg.target_cells = 400;
    cfg.seed = 81;
    cfg.clock_tightness = 0.75;
    return generate_design(cfg);
  }
};

TEST(Policy, RolloutSelectsUntilDone) {
  Fixture f;
  Policy policy(PolicyConfig{}, 1);
  SelectionEnv env(&f.graph, 0.3);
  Rng rng(5);
  Policy::RolloutResult r = policy.rollout(f.graph, env, rng);
  EXPECT_TRUE(env.done());
  EXPECT_EQ(r.actions.size(), static_cast<std::size_t>(r.steps));
  EXPECT_EQ(r.selected.size(), r.actions.size());
  EXPECT_GE(r.steps, 1);
  // Log-probabilities of sampled actions are negative.
  EXPECT_LT(r.log_prob_value, 0.0);
  EXPECT_NEAR(r.log_prob_sum.item(), r.log_prob_value, 1e-4);
}

TEST(Policy, ActionsAreDistinctValidEndpoints) {
  Fixture f;
  Policy policy(PolicyConfig{}, 2);
  SelectionEnv env(&f.graph, 0.3);
  Rng rng(7);
  Policy::RolloutResult r = policy.rollout(f.graph, env, rng);
  std::vector<std::size_t> sorted = r.actions;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "an endpoint was selected twice";
  for (std::size_t a : r.actions) EXPECT_LT(a, f.graph.num_endpoints());
}

TEST(Policy, DeterministicGivenSeedAndRng) {
  Fixture f;
  Policy p1(PolicyConfig{}, 3);
  Policy p2(PolicyConfig{}, 3);
  SelectionEnv e1(&f.graph, 0.3), e2(&f.graph, 0.3);
  Rng r1(9), r2(9);
  Policy::RolloutResult a = p1.rollout(f.graph, e1, r1);
  Policy::RolloutResult b = p2.rollout(f.graph, e2, r2);
  EXPECT_EQ(a.actions, b.actions);
}

TEST(Policy, GreedyIsDeterministicWithoutRngConsumption) {
  Fixture f;
  Policy policy(PolicyConfig{}, 4);
  SelectionEnv e1(&f.graph, 0.3), e2(&f.graph, 0.3);
  Rng r1(1), r2(999);  // different rngs must not matter in greedy mode
  Policy::RolloutResult a = policy.rollout(f.graph, e1, r1, /*greedy=*/true);
  Policy::RolloutResult b = policy.rollout(f.graph, e2, r2, /*greedy=*/true);
  EXPECT_EQ(a.actions, b.actions);
}

TEST(Policy, FullGraphBackwardReachesAllParameters) {
  Fixture f;
  Policy policy(PolicyConfig{}, 5);
  SelectionEnv env(&f.graph, 0.3);
  Rng rng(11);
  Policy::RolloutResult r = policy.rollout(f.graph, env, rng);
  r.log_prob_sum.backward();
  for (Tensor& p : policy.parameters()) {
    double norm = 0.0;
    for (float g : p.grad()) norm += std::abs(g);
    EXPECT_GT(norm, 0.0);
  }
}

TEST(Policy, StepwiseBackwardMatchesFullGraphForOneStepEpisode) {
  // With rho = 0 every endpoint overlapping anything is masked after the
  // first pick, collapsing most designs to very short episodes; for a
  // single step there is no recurrent truncation, so the two modes must
  // produce identical gradients.
  Fixture f;
  SelectionEnv probe(&f.graph, 0.0);
  probe.step(0);
  if (!probe.done()) GTEST_SKIP() << "design does not collapse to one step";

  Policy full(PolicyConfig{}, 6);
  Policy step = full.clone();

  SelectionEnv e1(&f.graph, 0.0), e2(&f.graph, 0.0);
  Rng r1(13), r2(13);
  Policy::RolloutResult a =
      full.rollout(f.graph, e1, r1, false, Policy::RolloutMode::FullGraph);
  a.log_prob_sum.backward();
  Policy::RolloutResult b = step.rollout(
      f.graph, e2, r2, false, Policy::RolloutMode::StepwiseBackward);
  ASSERT_EQ(a.actions, b.actions);

  std::vector<Tensor> pa = full.parameters();
  std::vector<Tensor> pb = step.parameters();
  for (std::size_t p = 0; p < pa.size(); ++p) {
    for (std::size_t i = 0; i < pa[p].size(); ++i) {
      ASSERT_NEAR(pa[p].grad()[i], pb[p].grad()[i], 1e-5);
    }
  }
}

TEST(Policy, InferenceModeLeavesGradientsUntouched) {
  Fixture f;
  Policy policy(PolicyConfig{}, 10);
  for (Tensor& p : policy.parameters()) p.zero_grad();
  SelectionEnv env(&f.graph, 0.3);
  Rng rng(21);
  Policy::RolloutResult r = policy.rollout(
      f.graph, env, rng, /*greedy=*/true, Policy::RolloutMode::Inference);
  EXPECT_GE(r.steps, 1);
  for (Tensor& p : policy.parameters()) {
    for (float g : p.grad()) {
      ASSERT_EQ(g, 0.0f) << "inference rollouts must not write gradients";
    }
  }
}

TEST(Policy, GreedyInferenceIsBitEqualOnColdAndWarmPoolsAndToStepwise) {
  // Large enough that the encoder's N x 32 and N x 13 tensors are pooled.
  GeneratorConfig cfg;
  cfg.target_cells = 2000;
  cfg.seed = 81;
  cfg.clock_tightness = 0.75;
  const Design design = generate_design(cfg);
  const DesignGraph graph(design);
  ASSERT_GE(design.netlist->num_cells() * 13, tensor_storage::kMinPooledFloats);
  const Policy policy(PolicyConfig{}, 12);

  auto greedy = [&](Policy::RolloutMode mode) {
    SelectionEnv env(&graph, 0.3);
    Rng rng(23);
    return policy.rollout(graph, env, rng, /*greedy=*/true, mode);
  };
  Policy::RolloutResult cold, warm;
  // A fresh thread starts with an empty pool; its second rollout runs on
  // the buffers the first one released.
  std::thread([&] {
    cold = greedy(Policy::RolloutMode::Inference);
    EXPECT_GT(tensor_storage::pooled_bytes(), 0u);
    warm = greedy(Policy::RolloutMode::Inference);
  }).join();
  const Policy::RolloutResult stepwise =
      greedy(Policy::RolloutMode::StepwiseBackward);

  ASSERT_GE(cold.steps, 2);
  EXPECT_EQ(cold.actions, warm.actions);
  EXPECT_EQ(cold.actions, stepwise.actions);
  EXPECT_EQ(std::memcmp(&cold.log_prob_value, &warm.log_prob_value,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&cold.log_prob_value, &stepwise.log_prob_value,
                        sizeof(double)),
            0);
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Replays `actions` on a fresh env with the encoder inference rollouts use,
// and checks before every step that its embeddings equal the autograd
// forward on the full masked feature matrix, bit for bit. Generated designs
// own one endpoint per cell, so no real step flags an already-flagged cell;
// each step's endpoints are flagged a second time to cover that case.
// Returns the rows the encoder computed.
std::uint64_t replay_against_full_forward(
    const Policy& policy, const DesignGraph& graph,
    const std::vector<std::size_t>& actions) {
  const NoGradScope no_grad;
  SelectionEnv env(&graph, 0.3);
  EpGnn::Incremental inc(policy.gnn(), graph.adjacency(), graph.cone_matrix(),
                         graph.endpoint_rows());
  std::uint64_t rows = 0;
  for (std::size_t t = 0; t < actions.size(); ++t) {
    const std::vector<char> flags = env.cell_mask_flags();
    if (t == 0) {
      inc.encode(graph.features_with_mask(flags));
    } else {
      inc.flag_endpoints(env.last_flagged());
    }
    rows += inc.last_rows();
    const Tensor full = policy.gnn().forward(
        graph.features_with_mask(flags), graph.adjacency(),
        graph.cone_matrix(), graph.endpoint_rows());
    EXPECT_TRUE(bit_equal(inc.embeddings(), full)) << "step " << t;
    if (t > 0) {
      inc.flag_endpoints(env.last_flagged());
      EXPECT_EQ(inc.last_rows(), 0u) << "step " << t;
      EXPECT_TRUE(bit_equal(inc.embeddings(), full)) << "step " << t;
    }
    env.step(actions[t]);
  }
  return rows;
}

TEST(Policy, GreedyInferenceIncrementalEncodeMatchesFullEveryStep) {
  MetricsCounter& encode_rows =
      MetricsRegistry::global().counter("gnn.encode_rows");
  bool empty_adjacency_row = false;
  for (std::uint64_t seed : {81u, 82u, 83u}) {
    GeneratorConfig cfg;
    cfg.target_cells = 800;
    cfg.seed = seed;
    cfg.clock_tightness = 0.75;
    const Design design = generate_design(cfg);
    const DesignGraph graph(design);
    const SparseMatrix& adj = graph.adjacency().matrix;
    for (std::size_t r = 0; r < adj.rows; ++r) {
      empty_adjacency_row |= adj.row_ptr[r] == adj.row_ptr[r + 1];
    }
    const Policy policy(PolicyConfig{}, seed);

    for (bool greedy : {true, false}) {
      auto decode = [&](Policy::RolloutMode mode) {
        SelectionEnv env(&graph, 0.3);
        Rng rng(seed + 100);
        return policy.rollout(graph, env, rng, greedy, mode);
      };
      const std::uint64_t before = encode_rows.value();
      const Policy::RolloutResult r = decode(Policy::RolloutMode::Inference);
      const std::uint64_t rows = encode_rows.value() - before;
      ASSERT_GE(r.steps, 2) << "seed " << seed;

      // The rollout ran exactly the replayed encoder, and the count repeats.
      EXPECT_EQ(replay_against_full_forward(policy, graph, r.actions), rows)
          << "seed " << seed;
      const std::uint64_t again = encode_rows.value();
      EXPECT_EQ(decode(Policy::RolloutMode::Inference).actions, r.actions);
      EXPECT_EQ(encode_rows.value() - again, rows);

      // A differentiable rollout encodes with the full forward and agrees.
      const Policy::RolloutResult full =
          decode(Policy::RolloutMode::StepwiseBackward);
      EXPECT_EQ(full.actions, r.actions) << "seed " << seed;
      EXPECT_EQ(std::memcmp(&full.log_prob_value, &r.log_prob_value,
                            sizeof(double)),
                0);
    }
  }
  EXPECT_TRUE(empty_adjacency_row);
}

TEST(Policy, GreedyInferenceFromTwoThreadsOnSharedPolicyAndGraph) {
  GeneratorConfig cfg;
  cfg.target_cells = 600;
  cfg.seed = 82;
  cfg.clock_tightness = 0.75;
  const Design design = generate_design(cfg);
  const DesignGraph graph(design);
  const Policy policy(PolicyConfig{}, 14);
  auto greedy = [&] {
    SelectionEnv env(&graph, 0.3);
    Rng rng(1);
    return policy.rollout(graph, env, rng, /*greedy=*/true,
                          Policy::RolloutMode::Inference);
  };
  const Policy::RolloutResult reference = greedy();
  ASSERT_GE(reference.steps, 2);
  Policy::RolloutResult a, b;
  std::thread ta([&] { a = greedy(); });
  std::thread tb([&] { b = greedy(); });
  ta.join();
  tb.join();
  EXPECT_EQ(a.actions, reference.actions);
  EXPECT_EQ(b.actions, reference.actions);
  EXPECT_EQ(std::memcmp(&a.log_prob_value, &b.log_prob_value, sizeof(double)),
            0);
}

TEST(Policy, CloneSharesValuesNotStorage) {
  Policy a(PolicyConfig{}, 7);
  Policy b = a.clone();
  std::vector<Tensor> pa = a.parameters();
  std::vector<Tensor> pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t p = 0; p < pa.size(); ++p) {
    for (std::size_t i = 0; i < pa[p].size(); ++i) {
      ASSERT_FLOAT_EQ(pa[p].data()[i], pb[p].data()[i]);
    }
  }
  pb[0].data()[0] += 1.0f;
  EXPECT_NE(pa[0].data()[0], pb[0].data()[0]);
}

TEST(Policy, GnnSaveLoadRoundTrip) {
  Policy a(PolicyConfig{}, 8);
  Policy b(PolicyConfig{}, 9);  // different init
  std::string path = std::string(::testing::TempDir()) + "/gnn.bin";
  ASSERT_TRUE(a.save_gnn(path).ok());
  ASSERT_TRUE(b.load_gnn(path).ok());
  std::vector<Tensor> ga = a.gnn_parameters();
  std::vector<Tensor> gb = b.gnn_parameters();
  for (std::size_t p = 0; p < ga.size(); ++p) {
    for (std::size_t i = 0; i < ga[p].size(); ++i) {
      ASSERT_FLOAT_EQ(ga[p].data()[i], gb[p].data()[i]);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rlccd

#include "gnn/ep_gnn.h"

#include <gtest/gtest.h>

#include <cstring>

#include "gnn/features.h"
#include "nn/optim.h"

namespace rlccd {
namespace {

// A 4-node path graph with 2 endpoints whose cones are {0,1} and {1,2}.
struct TinyGraph {
  SparseOperand adj;
  SparseOperand cones;
  std::vector<std::size_t> ep_rows = {3, 0};
  Tensor x;

  TinyGraph()
      : adj(SparseMatrix::from_triplets(
            4, 4,
            {{0, 1, 1.0f}, {1, 0, 0.5f}, {1, 2, 0.5f}, {2, 1, 0.5f},
             {2, 3, 0.5f}, {3, 2, 1.0f}})),
        cones(SparseMatrix::from_triplets(
            2, 4, {{0, 0, 1.0f}, {0, 1, 1.0f}, {1, 1, 1.0f}, {1, 2, 1.0f}})) {
    std::vector<float> data(4 * 13);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = 0.1f * static_cast<float>(i % 7) - 0.3f;
    }
    x = Tensor::from_data(std::move(data), 4, 13);
  }
};

TEST(EpGnn, OutputShapeMatchesConfig) {
  Rng rng(1);
  EpGnn gnn(EpGnnConfig{}, rng);
  TinyGraph g;
  Tensor f = gnn.forward(g.x, g.adj, g.cones, g.ep_rows);
  EXPECT_EQ(f.rows(), 2u);
  EXPECT_EQ(f.cols(), 16u);  // paper: 16-d endpoint embeddings
}

TEST(EpGnn, ParameterInventory) {
  Rng rng(2);
  EpGnn gnn(EpGnnConfig{}, rng);
  // 3 layers x (proj W,b + agg W,b + gate) + fc (W,b) = 3*5 + 2 = 17.
  EXPECT_EQ(gnn.parameters().size(), 17u);
  // Gamma starts at sigmoid(0) = 0.5 per layer.
  for (float g : gnn.gamma_values()) EXPECT_FLOAT_EQ(g, 0.5f);
}

TEST(EpGnn, DeterministicForSameSeed) {
  TinyGraph g;
  Rng rng1(3), rng2(3);
  EpGnn a(EpGnnConfig{}, rng1);
  EpGnn b(EpGnnConfig{}, rng2);
  Tensor fa = a.forward(g.x, g.adj, g.cones, g.ep_rows);
  Tensor fb = b.forward(g.x, g.adj, g.cones, g.ep_rows);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_FLOAT_EQ(fa.data()[i], fb.data()[i]);
  }
}

TEST(EpGnn, MaskFeatureChangesEmbeddings) {
  TinyGraph g;
  Rng rng(4);
  EpGnn gnn(EpGnnConfig{}, rng);
  Tensor f0 = gnn.forward(g.x, g.adj, g.cones, g.ep_rows);

  Tensor x2 = g.x.detach_copy();
  x2.set(1, 0, 1.0f);  // flip a masked bit on a cone cell
  Tensor f1 = gnn.forward(x2, g.adj, g.cones, g.ep_rows);
  bool changed = false;
  for (std::size_t i = 0; i < f0.size(); ++i) {
    if (std::abs(f0.data()[i] - f1.data()[i]) > 1e-7) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(EpGnn, GradientsFlowToAllParameters) {
  TinyGraph g;
  Rng rng(5);
  EpGnn gnn(EpGnnConfig{}, rng);
  Tensor f = gnn.forward(g.x, g.adj, g.cones, g.ep_rows);
  ops::sum(ops::mul(f, f)).backward();
  for (Tensor& p : gnn.parameters()) {
    double norm = 0.0;
    for (float v : p.grad()) norm += std::abs(v);
    EXPECT_GT(norm, 0.0) << "a parameter received no gradient";
  }
}

TEST(EpGnn, CanOverfitATinyRegressionTarget) {
  // Sanity: with Adam the full model can drive endpoint embedding 0 toward
  // a fixed target — the composed graph is trainable end-to-end.
  TinyGraph g;
  Rng rng(6);
  EpGnn gnn(EpGnnConfig{}, rng);
  Adam opt(gnn.parameters(), 0.01);
  Tensor target = Tensor::full(2, 16, 0.25f);
  double first_loss = 0.0, last_loss = 0.0;
  for (int step = 0; step < 150; ++step) {
    opt.zero_grad();
    Tensor f = gnn.forward(g.x, g.adj, g.cones, g.ep_rows);
    Tensor err = ops::sub(f, target);
    Tensor loss = ops::mean(ops::mul(err, err));
    if (step == 0) first_loss = loss.item();
    last_loss = loss.item();
    loss.backward();
    opt.step();
  }
  EXPECT_LT(last_loss, 0.3 * first_loss);
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// A random graph with isolated cells (empty adjacency rows), endpoints that
// share an owner cell, and features with exact zeros (matmul's skip path).
struct RandomGraph {
  static constexpr std::size_t kCells = 300;
  static constexpr std::size_t kEndpoints = 40;
  SparseOperand adj;
  SparseOperand cones;
  std::vector<std::size_t> ep_rows;
  Tensor x;

  explicit RandomGraph(std::uint64_t seed)
      : adj(make_adj(seed)), cones(make_cones(seed)) {
    Rng rng(seed + 2);
    // Endpoints 0 and 1 share cell 7; endpoint 2 owns isolated cell 299.
    ep_rows = {7, 7, kCells - 1};
    while (ep_rows.size() < kEndpoints) {
      ep_rows.push_back(rng.uniform_int(kCells));
    }
    std::vector<float> data(kCells * 13);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = i % 13 == kMaskedFeature || rng.uniform() < 0.2
                    ? 0.0f
                    : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    x = Tensor::from_data(std::move(data), kCells, 13);
  }

  static SparseMatrix make_adj(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<SparseMatrix::Triplet> t;
    std::vector<std::uint32_t> degree(kCells, 0);
    for (int i = 0; i < 500; ++i) {
      // Cells >= 280 stay isolated.
      const auto a = static_cast<std::uint32_t>(rng.uniform_int(280));
      const auto b = static_cast<std::uint32_t>(rng.uniform_int(280));
      if (a == b) continue;
      t.push_back({a, b, 1.0f});
      t.push_back({b, a, 1.0f});
      ++degree[a];
      ++degree[b];
    }
    for (SparseMatrix::Triplet& tr : t) {
      tr.value = 1.0f / static_cast<float>(degree[tr.row]);
    }
    return SparseMatrix::from_triplets(kCells, kCells, std::move(t));
  }

  static SparseMatrix make_cones(std::uint64_t seed) {
    Rng rng(seed + 1);
    std::vector<SparseMatrix::Triplet> t;
    for (std::uint32_t e = 0; e < kEndpoints; ++e) {
      const int size = static_cast<int>(rng.uniform_int(12));
      for (int i = 0; i < size; ++i) {
        t.push_back({e, static_cast<std::uint32_t>(rng.uniform_int(kCells)),
                     1.0f});
      }
    }
    return SparseMatrix::from_triplets(kEndpoints, kCells, std::move(t));
  }
};

TEST(EpGnn, IncrementalEncodeIsBitEqualToForwardOnTinyGraph) {
  TinyGraph g;
  Rng rng(7);
  EpGnn gnn(EpGnnConfig{}, rng);
  EpGnn::Incremental inc(gnn, g.adj, g.cones, g.ep_rows);
  inc.encode(g.x.detach_copy());
  EXPECT_EQ(inc.last_rows(), 4u * 3 + 2);
  EXPECT_TRUE(bit_equal(inc.embeddings(),
                        gnn.forward(g.x, g.adj, g.cones, g.ep_rows)));

  // Endpoint 1's owner is cell 0; one hop reaches cell 1, two reach 2,
  // three reach 3. Its flag flips column 0 of x from -0.3 to 1.
  inc.flag_endpoints({1});
  Tensor x = g.x.detach_copy();
  x.set(0, kMaskedFeature, 1.0f);
  EXPECT_EQ(inc.last_rows(), 2u + 3 + 4 + 2);
  EXPECT_TRUE(bit_equal(inc.embeddings(),
                        gnn.forward(x, g.adj, g.cones, g.ep_rows)));

  // Flagging it again flips nothing and recomputes nothing.
  inc.flag_endpoints({1});
  EXPECT_EQ(inc.last_rows(), 0u);
  EXPECT_TRUE(bit_equal(inc.embeddings(),
                        gnn.forward(x, g.adj, g.cones, g.ep_rows)));
}

TEST(EpGnn, IncrementalEncodeIsBitEqualToForwardAfterEveryFlag) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    RandomGraph g(seed);
    Rng rng(seed);
    EpGnn gnn(EpGnnConfig{}, rng);
    // Every parameter away from its initialisation (zero biases, gates at
    // 0.5), so bias adds, gamma and 1 - gamma all round.
    Rng init(seed + 4);
    for (Tensor& p : gnn.parameters()) {
      for (std::size_t i = 0; i < p.size(); ++i) {
        p.data()[i] = static_cast<float>(init.uniform(-0.8, 0.8));
      }
    }
    Tensor x = g.x.detach_copy();
    EpGnn::Incremental inc(gnn, g.adj, g.cones, g.ep_rows);
    inc.encode(x.detach_copy());
    ASSERT_TRUE(bit_equal(inc.embeddings(),
                          gnn.forward(x, g.adj, g.cones, g.ep_rows)));

    // Shared owner cell, isolated cell, then random batches with repeats.
    std::vector<std::vector<std::size_t>> steps = {{0}, {1}, {2}, {2, 1}};
    Rng pick(seed + 3);
    for (int s = 0; s < 12; ++s) {
      std::vector<std::size_t> batch;
      const int size = 1 + static_cast<int>(pick.uniform_int(4));
      for (int i = 0; i < size; ++i) {
        batch.push_back(pick.uniform_int(RandomGraph::kEndpoints));
      }
      steps.push_back(batch);
    }
    for (const std::vector<std::size_t>& batch : steps) {
      bool flips = false;
      for (std::size_t e : batch) {
        flips |= x.at(g.ep_rows[e], kMaskedFeature) != 1.0f;
        x.set(g.ep_rows[e], kMaskedFeature, 1.0f);
      }
      inc.flag_endpoints(batch);
      EXPECT_EQ(inc.last_rows() > 0, flips) << "seed " << seed;
      ASSERT_TRUE(bit_equal(inc.embeddings(),
                            gnn.forward(x, g.adj, g.cones, g.ep_rows)))
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace rlccd

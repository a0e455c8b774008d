//===- tests/GraphTests.cpp - Graph partitioner unit tests --------------------===//

#include "graph/MultilevelPartitioner.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace gdp;

// --- The partition graph: CSRGraph's edge-list constructor ------------------

TEST(PartitionGraphTest, NodeWeightsAndTotals) {
  CSRGraph G(2, {10, 1, 20, 2}, {});
  ASSERT_EQ(G.getNumNodes(), 2u);
  EXPECT_EQ(G.nodeWeight(1, 0), 20u);
  EXPECT_EQ(G.nodeWeight(1, 1), 2u);
  auto Totals = G.totalWeights();
  EXPECT_EQ(Totals[0], 30u);
  EXPECT_EQ(Totals[1], 3u);
}

TEST(PartitionGraphTest, ParallelEdgesAccumulate) {
  CSRGraph G(1, {1, 1}, {{0, 1, 3}, {1, 0, 4}});
  EXPECT_EQ(G.edgeWeightBetween(0, 1), 7u);
  EXPECT_EQ(G.edgeWeightBetween(1, 0), 7u);
  EXPECT_EQ(G.degree(0), 1u);
  EXPECT_EQ(G.totalEdgeWeight(), 7u);
}

TEST(PartitionGraphTest, SelfAndZeroEdgesIgnored) {
  CSRGraph G(1, {1, 1}, {{0, 0, 5}, {0, 1, 0}});
  EXPECT_EQ(G.degree(0), 0u);
  EXPECT_EQ(G.degree(1), 0u);
  EXPECT_EQ(G.totalEdgeWeight(), 0u);
}

TEST(PartitionGraphTest, CutWeight) {
  CSRGraph G(1, {1, 1, 1}, {{0, 1, 5}, {1, 2, 7}});
  EXPECT_EQ(G.cutWeight({0, 0, 1}), 7u);
  EXPECT_EQ(G.cutWeight({0, 1, 0}), 12u);
  EXPECT_EQ(G.cutWeight({0, 0, 0}), 0u);
}

// --- Multilevel partitioner -------------------------------------------------

namespace {

/// Two 4-cliques joined by a single light edge: the partitioner must cut
/// the bridge.
CSRGraph makeTwoCliques() {
  std::vector<CSRGraph::Edge> Edges;
  for (unsigned I = 0; I != 4; ++I)
    for (unsigned J = I + 1; J != 4; ++J) {
      Edges.push_back({I, J, 10});
      Edges.push_back({I + 4, J + 4, 10});
    }
  Edges.push_back({3, 4, 1}); // Bridge.
  return CSRGraph(1, std::vector<uint64_t>(8, 1), Edges);
}

} // namespace

TEST(PartitionerTest, CutsTheBridge) {
  CSRGraph G = makeTwoCliques();
  GraphPartitionOptions Opt;
  Opt.NumParts = 2;
  GraphPartition R = partitionGraph(G, Opt);
  EXPECT_EQ(R.CutWeight, 1u);
  // Each clique stays whole.
  for (unsigned I = 1; I != 4; ++I) {
    EXPECT_EQ(R.Assignment[I], R.Assignment[0]);
    EXPECT_EQ(R.Assignment[I + 4], R.Assignment[4]);
  }
  EXPECT_NE(R.Assignment[0], R.Assignment[4]);
}

TEST(PartitionerTest, RespectsBalanceTolerance) {
  // 10 equal nodes, no edges: must split 5/5 within 10%.
  CSRGraph G(1, std::vector<uint64_t>(10, 100), {});
  GraphPartitionOptions Opt;
  Opt.NumParts = 2;
  Opt.Tolerances = {0.10};
  GraphPartition R = partitionGraph(G, Opt);
  EXPECT_LE(R.PartWeights[0][0], 550u);
  EXPECT_LE(R.PartWeights[1][0], 550u);
}

TEST(PartitionerTest, GiantNodeStaysFeasible) {
  // One node heavier than the ideal half: assignment must still succeed,
  // with the giant alone-ish on one side.
  CSRGraph G(1, {1000, 10, 10, 10, 10, 10}, {});
  GraphPartitionOptions Opt;
  Opt.NumParts = 2;
  Opt.Tolerances = {0.05};
  GraphPartition R = partitionGraph(G, Opt);
  ASSERT_EQ(R.Assignment.size(), 6u);
  // The 5 light nodes end up opposite the giant (or with it under the
  // giant-headroom rule); either way every part weight is consistent.
  uint64_t Sum = R.PartWeights[0][0] + R.PartWeights[1][0];
  EXPECT_EQ(Sum, 1050u);
}

TEST(PartitionerTest, MultiConstraintBalanced) {
  // Constraint 0 concentrated on even nodes, constraint 1 on odd ones:
  // both must end up split.
  CSRGraph G(2, {100, 0, 0, 50, 100, 0, 0, 50, 100, 0, 0, 50, 100, 0, 0, 50},
             {});
  GraphPartitionOptions Opt;
  Opt.NumParts = 2;
  Opt.Tolerances = {0.2, 0.2};
  GraphPartition R = partitionGraph(G, Opt);
  for (unsigned C = 0; C != 2; ++C) {
    uint64_t Total = C == 0 ? 400 : 200;
    EXPECT_LE(R.PartWeights[0][C], Total * 6 / 10);
    EXPECT_LE(R.PartWeights[1][C], Total * 6 / 10);
  }
}

TEST(PartitionerTest, FourWay) {
  // Four 3-cliques in a ring with light bridges.
  std::vector<CSRGraph::Edge> Edges;
  for (unsigned K = 0; K != 4; ++K) {
    unsigned Base = K * 3;
    Edges.push_back({Base, Base + 1, 10});
    Edges.push_back({Base, Base + 2, 10});
    Edges.push_back({Base + 1, Base + 2, 10});
    Edges.push_back({Base + 2, (Base + 3) % 12, 1});
  }
  CSRGraph G(1, std::vector<uint64_t>(12, 1), Edges);
  GraphPartitionOptions Opt;
  Opt.NumParts = 4;
  GraphPartition R = partitionGraph(G, Opt);
  EXPECT_LE(R.CutWeight, 4u);
  for (unsigned K = 0; K != 4; ++K) {
    EXPECT_EQ(R.Assignment[K * 3], R.Assignment[K * 3 + 1]);
    EXPECT_EQ(R.Assignment[K * 3], R.Assignment[K * 3 + 2]);
  }
}

TEST(PartitionerTest, EmptyAndSingletonGraphs) {
  CSRGraph Empty(1, {}, {});
  GraphPartitionOptions Opt;
  Opt.NumParts = 2;
  GraphPartition R = partitionGraph(Empty, Opt);
  EXPECT_TRUE(R.Assignment.empty());
  EXPECT_EQ(R.CutWeight, 0u);

  CSRGraph One(1, {5}, {});
  R = partitionGraph(One, Opt);
  ASSERT_EQ(R.Assignment.size(), 1u);
  EXPECT_EQ(R.CutWeight, 0u);
}

TEST(PartitionerTest, SinglePartTrivial) {
  CSRGraph G = makeTwoCliques();
  GraphPartitionOptions Opt;
  Opt.NumParts = 1;
  GraphPartition R = partitionGraph(G, Opt);
  for (unsigned A : R.Assignment)
    EXPECT_EQ(A, 0u);
}

TEST(PartitionerTest, DeterministicForSeed) {
  // The partitioner's random choices come from one fixed seed.
  CSRGraph G = makeTwoCliques();
  GraphPartitionOptions Opt;
  Opt.NumParts = 2;
  GraphPartition A = partitionGraph(G, Opt);
  GraphPartition B = partitionGraph(G, Opt);
  EXPECT_EQ(A.Assignment, B.Assignment);
  EXPECT_EQ(A.CutWeight, B.CutWeight);
}

TEST(PartitionerTest, EscapesBalanceBlockedMinimumViaSwap) {
  // The fir-shaped trap: two heavy nodes that must sit on opposite sides,
  // where only a pairwise exchange reaches the good cut.
  const unsigned In = 0, Out = 1, Coef = 2, Mul = 3, Scl = 4;
  CSRGraph G(1, {4096, 4096, 96, 0, 0},
             {{In, Mul, 100000},
              {Coef, Mul, 100000},
              {Mul, Scl, 50000},
              {Scl, Out, 6144}});
  GraphPartitionOptions Opt;
  Opt.NumParts = 2;
  Opt.Tolerances = {0.125};
  GraphPartition R = partitionGraph(G, Opt);
  EXPECT_EQ(R.CutWeight, 6144u);
  EXPECT_EQ(R.Assignment[In], R.Assignment[Coef]);
  EXPECT_NE(R.Assignment[In], R.Assignment[Out]);
}

/// Structural invariants hold for arbitrary random graphs across seeds.
class PartitionerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionerPropertyTest, InvariantsOnRandomGraph) {
  uint64_t Seed = GetParam();
  Random RNG(Seed * 7919 + 1);
  unsigned N = 20 + static_cast<unsigned>(RNG.nextBelow(180));
  std::vector<uint64_t> Weights;
  for (unsigned I = 0; I != N; ++I) {
    uint64_t Bytes = RNG.nextBelow(100);
    Weights.insert(Weights.end(), {Bytes, RNG.nextBelow(5)});
  }
  std::vector<CSRGraph::Edge> Edges;
  for (unsigned I = 0; I != N * 2; ++I) {
    auto A = static_cast<unsigned>(RNG.nextBelow(N));
    auto B = static_cast<unsigned>(RNG.nextBelow(N));
    Edges.push_back({A, B, 1 + RNG.nextBelow(50)});
  }
  CSRGraph G(2, Weights, Edges);

  GraphPartitionOptions Opt;
  Opt.NumParts = 2 + static_cast<unsigned>(Seed % 3);
  GraphPartition R = partitionGraph(G, Opt);

  // Assignment covers every node with a valid part.
  ASSERT_EQ(R.Assignment.size(), N);
  for (unsigned A : R.Assignment)
    EXPECT_LT(A, Opt.NumParts);
  // Reported cut matches a recomputation.
  EXPECT_EQ(R.CutWeight, G.cutWeight(R.Assignment));
  // Part weights sum to the totals.
  auto Totals = G.totalWeights();
  for (unsigned C = 0; C != 2; ++C) {
    uint64_t Sum = 0;
    for (unsigned Pt = 0; Pt != Opt.NumParts; ++Pt)
      Sum += R.PartWeights[Pt][C];
    EXPECT_EQ(Sum, Totals[C]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionerPropertyTest,
                         ::testing::Range<uint64_t>(0, 12));

TEST(PartitionerTest, CapacitySharesSkewLoads) {
  // 12 unconnected equal nodes with shares {3, 1}: part 0 should carry
  // roughly three quarters of the weight.
  CSRGraph G(1, std::vector<uint64_t>(12, 100), {});
  GraphPartitionOptions Opt;
  Opt.NumParts = 2;
  Opt.Tolerances = {0.10};
  Opt.PartCapacityShares = {3.0, 1.0};
  GraphPartition R = partitionGraph(G, Opt);
  EXPECT_GT(R.PartWeights[0][0], R.PartWeights[1][0]);
  EXPECT_LE(R.PartWeights[0][0], 1100u); // ≤ (1+0.1)·1200·(3/4)
  // Part 1's cap is max(share cap 330, giant-node floor ≈ 403).
  EXPECT_LE(R.PartWeights[1][0], 410u);
}

TEST(PartitionerTest, UniformSharesMatchDefault) {
  CSRGraph G(1, std::vector<uint64_t>(10, 50), {});
  GraphPartitionOptions A;
  A.NumParts = 2;
  GraphPartitionOptions B = A;
  B.PartCapacityShares = {1.0, 1.0};
  GraphPartition RA = partitionGraph(G, A);
  GraphPartition RB = partitionGraph(G, B);
  EXPECT_EQ(RA.PartWeights, RB.PartWeights);
}

//===- tests/PerfStructTests.cpp - Hot-path data structure tests --------------===//
//
// The performance-oriented structures behind the refinement/pipeline
// overhaul: the addressable gain bucket's strict deterministic ordering
// under inserts, updates and extracts; the CSR graph snapshot's exact
// equivalence with the map-based adjacency it compresses; the shared
// prepared-program cache's hit/miss accounting and immutable sharing; and
// byte-determinism of the refactored refinement across 1/2/8 threads.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "graph/CSRGraph.h"
#include "graph/GainBucket.h"
#include "graph/MultilevelPartitioner.h"
#include "graph/PartitionGraph.h"
#include "partition/PreparedCache.h"
#include "support/Random.h"
#include "support/Telemetry.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

using namespace gdp;

namespace {

// --- GainBucket --------------------------------------------------------------

/// Pops every entry in priority order (erasing as it goes).
std::vector<GainBucket::Entry> drain(GainBucket &B) {
  std::vector<GainBucket::Entry> Out;
  while (!B.empty()) {
    Out.push_back(B.top());
    B.erase(Out.back().Node);
  }
  return Out;
}

TEST(GainBucketTest, ExtractsByGainThenPartThenNode) {
  GainBucket B;
  B.reset(8);
  B.insertOrUpdate(/*Node=*/5, /*Part=*/1, /*Gain=*/10);
  B.insertOrUpdate(3, 0, 10); // Same gain, smaller part id wins.
  B.insertOrUpdate(7, 0, 10); // Same gain and part, smaller node id wins.
  B.insertOrUpdate(0, 3, 42); // Highest gain wins outright.
  B.insertOrUpdate(1, 0, -5); // Negative gains order too.

  std::vector<GainBucket::Entry> Order = drain(B);
  ASSERT_EQ(Order.size(), 5u);
  EXPECT_EQ(Order[0].Node, 0u);
  EXPECT_EQ(Order[1].Node, 3u);
  EXPECT_EQ(Order[2].Node, 7u);
  EXPECT_EQ(Order[3].Node, 5u);
  EXPECT_EQ(Order[4].Node, 1u);
}

TEST(GainBucketTest, UpdateReplacesTheOldKey) {
  GainBucket B;
  B.reset(4);
  B.insertOrUpdate(0, 0, 1);
  B.insertOrUpdate(1, 0, 2);
  EXPECT_EQ(B.top().Node, 1u);

  B.insertOrUpdate(0, 1, 9); // Promote node 0; its old key must vanish.
  EXPECT_EQ(B.size(), 2u);
  EXPECT_EQ(B.top().Node, 0u);
  EXPECT_EQ(B.top().Gain, 9);
  EXPECT_EQ(B.top().Part, 1u);

  B.insertOrUpdate(0, 1, 9); // Identical key: no-op, still consistent.
  EXPECT_EQ(B.size(), 2u);

  B.insertOrUpdate(0, 1, -3); // Demote below node 1.
  EXPECT_EQ(B.top().Node, 1u);
  EXPECT_EQ(B.size(), 2u);
}

TEST(GainBucketTest, EraseContainsAndReset) {
  GainBucket B;
  B.reset(4);
  EXPECT_TRUE(B.empty());
  B.insertOrUpdate(2, 0, 5);
  EXPECT_TRUE(B.contains(2));
  EXPECT_FALSE(B.contains(3));

  B.erase(2);
  EXPECT_FALSE(B.contains(2));
  EXPECT_TRUE(B.empty());
  B.erase(2); // Erasing an absent node is a no-op.

  B.insertOrUpdate(1, 0, 1);
  B.reset(4);
  EXPECT_TRUE(B.empty());
  EXPECT_FALSE(B.contains(1));
}

TEST(GainBucketTest, DrainOrderIndependentOfInsertOrder) {
  // The extracted sequence is a pure function of the final keys — the
  // deterministic tie-break the refiner relies on.
  Random RNG(1234);
  std::vector<GainBucket::Entry> Keys;
  for (unsigned N = 0; N != 200; ++N)
    Keys.push_back({static_cast<int64_t>(RNG.nextBelow(7)) - 3,
                    static_cast<unsigned>(RNG.nextBelow(4)), N});

  GainBucket Forward, Shuffled;
  Forward.reset(200);
  Shuffled.reset(200);
  for (const GainBucket::Entry &E : Keys)
    Forward.insertOrUpdate(E.Node, E.Part, E.Gain);
  std::vector<GainBucket::Entry> Mixed = Keys;
  for (size_t I = Mixed.size(); I > 1; --I)
    std::swap(Mixed[I - 1], Mixed[RNG.nextBelow(I)]);
  for (const GainBucket::Entry &E : Mixed)
    Shuffled.insertOrUpdate(E.Node, E.Part, E.Gain);

  std::vector<GainBucket::Entry> A = drain(Forward), B = drain(Shuffled);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Node, B[I].Node) << "position " << I;
    EXPECT_EQ(A[I].Part, B[I].Part) << "position " << I;
    EXPECT_EQ(A[I].Gain, B[I].Gain) << "position " << I;
  }
}

// --- CSRGraph ----------------------------------------------------------------

/// A reproducible random multigraph with two constraints and duplicate
/// addEdge calls (which must accumulate identically in both forms).
PartitionGraph makeRandomGraph(uint64_t Seed, unsigned NumNodes,
                               unsigned NumEdges) {
  Random RNG(Seed);
  PartitionGraph G(2);
  for (unsigned I = 0; I != NumNodes; ++I)
    G.addNode({RNG.nextBelow(1000) + 1, RNG.nextBelow(50) + 1});
  for (unsigned I = 0; I != NumEdges; ++I)
    G.addEdge(static_cast<unsigned>(RNG.nextBelow(NumNodes)),
              static_cast<unsigned>(RNG.nextBelow(NumNodes)),
              RNG.nextBelow(100)); // Zero weights and self-edges ride along.
  return G;
}

TEST(CSRGraphTest, RoundTripMatchesMapAdjacency) {
  PartitionGraph G = makeRandomGraph(42, 64, 400);
  CSRGraph C(G);

  ASSERT_EQ(C.getNumNodes(), G.getNumNodes());
  ASSERT_EQ(C.getNumConstraints(), G.getNumConstraints());
  for (unsigned N = 0; N != G.getNumNodes(); ++N) {
    const std::vector<uint64_t> &W = G.getNodeWeights(N);
    for (unsigned K = 0; K != G.getNumConstraints(); ++K) {
      EXPECT_EQ(C.nodeWeight(N, K), W[K]);
      EXPECT_EQ(C.nodeWeights(N)[K], W[K]);
    }

    // Every adjacency row reproduces the edge list exactly, in ascending
    // order.
    const PartitionGraph::EdgeList &Nbrs = G.neighbors(N);
    ASSERT_EQ(C.degree(N), Nbrs.size()) << "node " << N;
    uint32_t Slot = C.edgeBegin(N);
    for (const auto &[To, W2] : Nbrs) {
      EXPECT_EQ(C.edgeTarget(Slot), To);
      EXPECT_EQ(C.edgeWeight(Slot), W2);
      ++Slot;
    }
    EXPECT_EQ(Slot, C.edgeEnd(N));
  }

  EXPECT_EQ(C.totalWeights(), G.totalWeights());
  EXPECT_EQ(C.totalEdgeWeight(), G.totalEdgeWeight());
}

TEST(CSRGraphTest, EdgeWeightBetweenAndCutWeightAgree) {
  PartitionGraph G = makeRandomGraph(7, 48, 300);
  CSRGraph C(G);

  for (unsigned A = 0; A != G.getNumNodes(); ++A)
    for (unsigned B = 0; B != G.getNumNodes(); ++B) {
      uint64_t Expected = G.edgeWeight(A, B);
      EXPECT_EQ(C.edgeWeightBetween(A, B), Expected)
          << "edge {" << A << ", " << B << "}";
    }

  Random RNG(99);
  for (int Trial = 0; Trial != 10; ++Trial) {
    std::vector<unsigned> Assign(G.getNumNodes());
    for (unsigned &P : Assign)
      P = static_cast<unsigned>(RNG.nextBelow(4));
    EXPECT_EQ(C.cutWeight(Assign), G.cutWeight(Assign));
  }
}

TEST(CSRGraphTest, HandlesEmptyAndIsolatedNodes) {
  PartitionGraph Empty(1);
  CSRGraph CE(Empty);
  EXPECT_EQ(CE.getNumNodes(), 0u);
  EXPECT_EQ(CE.totalEdgeWeight(), 0u);

  PartitionGraph G(1);
  G.addNode({3});
  G.addNode({5}); // Isolated.
  G.addNode({7});
  G.addEdge(0, 2, 11);
  CSRGraph C(G);
  EXPECT_EQ(C.degree(1), 0u);
  EXPECT_EQ(C.edgeBegin(1), C.edgeEnd(1));
  EXPECT_EQ(C.edgeWeightBetween(0, 1), 0u);
  EXPECT_EQ(C.edgeWeightBetween(2, 0), 11u);
  EXPECT_EQ(C.totalWeights(), std::vector<uint64_t>{15});
}

// --- PreparedProgramCache ----------------------------------------------------

TEST(PreparedCacheTest, SecondGetHitsAndSharesTheSameEntry) {
  telemetry::TelemetrySession S;
  telemetry::ScopedSession Scope(S);
  PreparedProgramCache &Cache = PreparedProgramCache::global();

  int Builds = 0;
  auto Build = [&Builds](std::vector<support::Diag> &) {
    ++Builds;
    return buildWorkload("fir");
  };
  // Unique key so other tests sharing the process-wide cache can't have
  // populated it already.
  const std::string Key = "perfstruct-hit-miss";
  auto First = Cache.get(Key, false, Build);
  auto Second = Cache.get(Key, false, Build);

  EXPECT_EQ(Builds, 1) << "the second get must not rebuild";
  EXPECT_EQ(First.get(), Second.get()) << "both gets share one entry";
  ASSERT_TRUE(First->Prog);
  EXPECT_TRUE(First->PP.Ok) << First->PP.Error;
  EXPECT_EQ(Second->Prog.get(), First->Prog.get());
  EXPECT_EQ(S.stats().getCounter("prepared_cache.misses"), 1u);
  EXPECT_EQ(S.stats().getCounter("prepared_cache.hits"), 1u);
}

TEST(PreparedCacheTest, DistinctOptionsAreDistinctEntries) {
  telemetry::TelemetrySession S;
  telemetry::ScopedSession Scope(S);
  PreparedProgramCache &Cache = PreparedProgramCache::global();

  int Builds = 0;
  auto Build = [&Builds](std::vector<support::Diag> &) {
    ++Builds;
    return buildWorkload("fir");
  };
  const std::string Key = "perfstruct-options";
  auto Plain = Cache.get(Key, /*CaptureTrace=*/false, Build);
  auto Traced = Cache.get(Key, /*CaptureTrace=*/true, Build);

  EXPECT_EQ(Builds, 2) << "a trace-capturing preparation is its own entry";
  EXPECT_NE(Plain.get(), Traced.get());
  EXPECT_FALSE(Plain->PP.Trace);
  EXPECT_TRUE(Traced->PP.Trace) << "the traced entry must hold its trace";
  EXPECT_EQ(S.stats().getCounter("prepared_cache.misses"), 2u);
  EXPECT_EQ(S.stats().getCounter("prepared_cache.hits"), 0u);
}

TEST(PreparedCacheTest, CachedResultsAreImmutableAcrossUses) {
  // Two consumers observing the same entry must see identical profiling
  // data no matter what pipeline work happened in between — the cache
  // hands out a frozen preparation, not a scratch one.
  PreparedProgramCache &Cache = PreparedProgramCache::global();
  const std::string Key = "perfstruct-immutability";
  auto Build = [](std::vector<support::Diag> &) {
    return buildWorkload("viterbi");
  };
  auto First = Cache.get(Key, false, Build);
  ASSERT_TRUE(First->PP.Ok) << First->PP.Error;

  uint64_t TotalBefore = 0;
  for (unsigned O = 0; O != First->Prog->getNumObjects(); ++O)
    TotalBefore += First->PP.Prof.getObjectAccessTotal(O);

  // Run the whole strategy pipeline against the shared preparation.
  PipelineOptions Opt;
  Opt.Strategy = StrategyKind::GDP;
  PipelineResult R = runStrategy(First->PP, Opt);
  EXPECT_GT(R.Cycles, 0u);

  auto Second = Cache.get(Key, false, Build);
  EXPECT_EQ(Second.get(), First.get());
  uint64_t TotalAfter = 0;
  for (unsigned O = 0; O != Second->Prog->getNumObjects(); ++O)
    TotalAfter += Second->PP.Prof.getObjectAccessTotal(O);
  EXPECT_EQ(TotalAfter, TotalBefore);
}

TEST(PreparedCacheTest, FailedBuildsAreCachedToo) {
  PreparedProgramCache &Cache = PreparedProgramCache::global();
  int Builds = 0;
  auto Build = [&Builds](std::vector<support::Diag> &Diags)
      -> std::unique_ptr<Program> {
    ++Builds;
    Diags.push_back(support::errorDiag(support::StatusCode::InputError,
                                       "test.load", "no such program"));
    return nullptr;
  };
  const std::string Key = "perfstruct-failure";
  auto First = Cache.get(Key, false, Build);
  auto Second = Cache.get(Key, false, Build);
  EXPECT_EQ(Builds, 1) << "a deterministic failure is not retried";
  EXPECT_FALSE(First->Prog);
  EXPECT_FALSE(First->PP.Ok);
  EXPECT_EQ(Second.get(), First.get());
  // The failure keeps the diagnostics its build gave, for every hit.
  ASSERT_EQ(First->PP.Diags.size(), 1u);
  EXPECT_EQ(First->PP.Diags[0].Site, "test.load");
  EXPECT_EQ(First->PP.Diags[0].Message, "no such program");
}

TEST(PreparedCacheTest, ThrowingBuildPropagatesAndLeavesNoEntry) {
  // Unlike a null build, a throw is not cached: the caller sees the
  // exception and the next request for the key builds again.
  PreparedProgramCache Cache;
  const std::string Key = "perfstruct-throw";
  EXPECT_THROW(Cache.get(Key, false,
                         [](std::vector<support::Diag> &)
                             -> std::unique_ptr<Program> {
                           throw std::runtime_error("build failed");
                         }),
               std::runtime_error);
  EXPECT_EQ(Cache.size(), 0u);
  int Builds = 0;
  auto Entry = Cache.get(Key, false,
                         [&Builds](std::vector<support::Diag> &) {
                           ++Builds;
                           return buildWorkload("fir");
                         });
  EXPECT_EQ(Builds, 1);
  EXPECT_TRUE(Entry->PP.Ok) << Entry->PP.Error;
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(PreparedCacheTest, LruEvictsLeastRecentlyUsedFirst) {
  telemetry::TelemetrySession S;
  telemetry::ScopedSession Scope(S);
  PreparedProgramCache Cache; // Private instance: capacity play is local.
  Cache.setCapacity(2);
  EXPECT_EQ(Cache.capacity(), 2u);

  int Builds = 0;
  auto Build = [&Builds](std::vector<support::Diag> &) {
    ++Builds;
    return buildWorkload("fir");
  };
  Cache.get("a", false, Build);
  Cache.get("b", false, Build);
  // Touch "a": now "b" is the least recently used.
  Cache.get("a", false, Build);
  EXPECT_EQ(Builds, 2);
  EXPECT_EQ(Cache.size(), 2u);

  Cache.get("c", false, Build);
  EXPECT_EQ(Builds, 3);
  EXPECT_EQ(Cache.size(), 2u) << "inserting past the cap must evict";
  EXPECT_EQ(Cache.evictionCount(), 1u);

  // "a" survived (recently used), "b" was the victim and rebuilds.
  Cache.get("a", false, Build);
  EXPECT_EQ(Builds, 3) << "the recently-used entry must still be resident";
  Cache.get("b", false, Build);
  EXPECT_EQ(Builds, 4) << "the evicted entry must rebuild";
  EXPECT_EQ(Cache.evictionCount(), 2u); // Re-inserting "b" evicted "c".

  // Telemetry: evictions counted, residency sampled with peak at the cap.
  EXPECT_EQ(S.stats().getCounter("prepared_cache.evictions"), 2u);
  EXPECT_EQ(S.stats().getCounter("prepared_cache.misses"), 4u);
  EXPECT_EQ(S.stats().getCounter("prepared_cache.hits"), 2u);
  EXPECT_DOUBLE_EQ(S.stats().getValue("prepared_cache.resident").Max, 2.0);
}

TEST(PreparedCacheTest, SetCapacityEvictsDownImmediately) {
  PreparedProgramCache Cache;
  Cache.setCapacity(0); // Unbounded.
  auto Build = [](std::vector<support::Diag> &) {
    return buildWorkload("fir");
  };
  for (const char *Key : {"k1", "k2", "k3", "k4"})
    Cache.get(Key, false, Build);
  EXPECT_EQ(Cache.size(), 4u);
  EXPECT_EQ(Cache.evictionCount(), 0u);

  Cache.setCapacity(1);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.evictionCount(), 3u);
  // The survivor is the most recently used key.
  int Builds = 0;
  Cache.get("k4", false, [&Builds](std::vector<support::Diag> &) {
    ++Builds;
    return buildWorkload("fir");
  });
  EXPECT_EQ(Builds, 0) << "k4 was most recently used and must survive";
}

TEST(PreparedCacheTest, DefaultCapacityIsGenerous) {
  PreparedProgramCache Cache;
  EXPECT_EQ(Cache.capacity(), PreparedProgramCache::DefaultCapacity);
  EXPECT_GE(PreparedProgramCache::DefaultCapacity, 32u)
      << "the whole bench suite must fit without eviction churn";
}

// --- Refinement determinism --------------------------------------------------

TEST(RefinementDeterminism, PartitionerIdenticalAcrossRepeatedRuns) {
  // The bucket-based refiner's deterministic tie-breaking end to end: the
  // same seed yields bit-identical assignments, cut and part weights.
  PartitionGraph G = makeRandomGraph(2026, 96, 600);
  GraphPartitionOptions Opt;
  Opt.NumParts = 4;
  Opt.Seed = 17;
  GraphPartition First = partitionGraph(G, Opt);
  GraphPartition Second = partitionGraph(G, Opt);
  EXPECT_EQ(First.Assignment, Second.Assignment);
  EXPECT_EQ(First.CutWeight, Second.CutWeight);
  EXPECT_EQ(First.PartWeights, Second.PartWeights);
  EXPECT_EQ(First.CutWeight, G.cutWeight(First.Assignment));
}

TEST(RefinementDeterminism, RecordsByteIdenticalAt1_2_8Threads) {
  // The refactored refinement inside the full pipeline: deterministic
  // JSON records over a small GDP + ProfileMax matrix must be
  // byte-identical however the evaluations fan out over the pool.
  std::vector<bench::SuiteEntry> Entries;
  for (const char *Name : {"fir", "histogram"}) {
    auto C = PreparedProgramCache::global().get(
        Name, false,
        [Name](std::vector<support::Diag> &) { return buildWorkload(Name); });
    ASSERT_TRUE(C->PP.Ok) << Name << ": " << C->PP.Error;
    bench::SuiteEntry E;
    E.Name = Name;
    E.P = C->Prog;
    E.PP = C->PP;
    Entries.push_back(std::move(E));
  }
  std::vector<bench::EvalTask> Tasks;
  for (const bench::SuiteEntry &E : Entries)
    for (StrategyKind K : {StrategyKind::GDP, StrategyKind::ProfileMax})
      Tasks.push_back({&E, K, 5});

  bench::setThreads(1);
  std::vector<std::string> Baseline = bench::runMatrixRecords(Tasks);
  ASSERT_EQ(Baseline.size(), 4u);
  for (unsigned Threads : {2u, 8u}) {
    bench::setThreads(Threads);
    std::vector<std::string> Got = bench::runMatrixRecords(Tasks);
    ASSERT_EQ(Got.size(), Baseline.size());
    for (size_t I = 0; I != Baseline.size(); ++I)
      EXPECT_EQ(Got[I], Baseline[I])
          << "record " << I << " at " << Threads << " threads";
  }
  bench::setThreads(1);
}

} // namespace

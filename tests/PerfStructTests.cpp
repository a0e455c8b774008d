//===- tests/PerfStructTests.cpp - Hot-path data structure tests --------------===//
//
// The performance-oriented structures behind the refinement/pipeline
// overhaul: the addressable gain bucket's strict deterministic ordering
// under inserts, updates and extracts; the CSR graph's exact equivalence
// with the map-based adjacency its edge list accumulates to; the shared
// prepared-program cache's hit/miss accounting and immutable sharing; and
// byte-determinism of the refactored refinement across 1/2/8 threads.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "graph/CSRGraph.h"
#include "graph/GainBucket.h"
#include "graph/MultilevelPartitioner.h"
#include "partition/PreparedCache.h"
#include "support/Random.h"
#include "support/Telemetry.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
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

TEST(GainBucketTest, MatchesOrderedSetReference) {
  // Seeded insert/update/erase/pop sequences against an ordered set of the
  // same keys: after every step the queue's size, membership and top entry
  // must equal the set's. Gains and parts come from small ranges so ties
  // on gain and on part are frequent. Odd seeds keep the queue on an arena.
  struct Before {
    bool operator()(const GainBucket::Entry &A,
                    const GainBucket::Entry &B) const {
      if (A.Gain != B.Gain)
        return A.Gain > B.Gain;
      if (A.Part != B.Part)
        return A.Part < B.Part;
      return A.Node < B.Node;
    }
  };
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Random RNG(Seed);
    unsigned N = 1 + static_cast<unsigned>(RNG.nextBelow(80));
    support::Arena A;
    GainBucket B(Seed % 2 ? &A : nullptr);
    std::set<GainBucket::Entry, Before> Ref;
    std::vector<GainBucket::Entry> Live(N);
    std::vector<bool> Present(N, false);
    auto RefErase = [&](unsigned Node) {
      if (Present[Node])
        Ref.erase(Live[Node]);
      Present[Node] = false;
    };
    for (int Round = 0; Round != 3; ++Round) {
      B.reset(N); // Reuse after reset must start empty.
      Ref.clear();
      Present.assign(N, false);
      for (int Step = 0; Step != 1500; ++Step) {
        unsigned Node = static_cast<unsigned>(RNG.nextBelow(N));
        switch (RNG.nextBelow(5)) {
        case 0:
        case 1:
        case 2: {
          GainBucket::Entry E{static_cast<int64_t>(RNG.nextBelow(9)) - 4,
                              static_cast<unsigned>(RNG.nextBelow(3)), Node};
          B.insertOrUpdate(Node, E.Part, E.Gain);
          RefErase(Node);
          Ref.insert(E);
          Live[Node] = E;
          Present[Node] = true;
          break;
        }
        case 3:
          B.erase(Node);
          RefErase(Node);
          break;
        case 4:
          if (!Ref.empty()) {
            unsigned Best = B.top().Node;
            B.erase(Best);
            RefErase(Best);
          }
          break;
        }
        ASSERT_EQ(B.size(), Ref.size()) << "seed " << Seed << " step " << Step;
        ASSERT_EQ(B.contains(Node), Present[Node]) << "seed " << Seed;
        if (Ref.empty()) {
          ASSERT_TRUE(B.empty());
          continue;
        }
        const GainBucket::Entry &Got = B.top(), &Want = *Ref.begin();
        ASSERT_EQ(Got.Node, Want.Node) << "seed " << Seed << " step " << Step;
        ASSERT_EQ(Got.Part, Want.Part) << "seed " << Seed << " step " << Step;
        ASSERT_EQ(Got.Gain, Want.Gain) << "seed " << Seed << " step " << Step;
      }
      std::vector<GainBucket::Entry> Order = drain(B);
      ASSERT_EQ(Order.size(), Ref.size()) << "seed " << Seed;
      size_t I = 0;
      for (const GainBucket::Entry &Want : Ref) {
        EXPECT_EQ(Order[I].Node, Want.Node) << "seed " << Seed << " pos " << I;
        ++I;
      }
    }
  }
}

// --- CSRGraph ----------------------------------------------------------------

/// A reproducible random multigraph with two constraints: row-major node
/// weights, an edge list in which duplicates, zero weights and self-edges
/// ride along, and the std::map adjacency those edges accumulate to.
struct RandomGraph {
  std::vector<uint64_t> Weights;
  std::vector<CSRGraph::Edge> Edges;
  std::vector<std::map<unsigned, uint64_t>> Adj;
};

RandomGraph makeRandomGraph(uint64_t Seed, unsigned NumNodes,
                            unsigned NumEdges) {
  Random RNG(Seed);
  RandomGraph R;
  for (unsigned I = 0; I != NumNodes; ++I) {
    uint64_t Bytes = RNG.nextBelow(1000) + 1;
    R.Weights.insert(R.Weights.end(), {Bytes, RNG.nextBelow(50) + 1});
  }
  R.Adj.resize(NumNodes);
  for (unsigned I = 0; I != NumEdges; ++I) {
    auto A = static_cast<unsigned>(RNG.nextBelow(NumNodes));
    auto B = static_cast<unsigned>(RNG.nextBelow(NumNodes));
    uint64_t W = RNG.nextBelow(100);
    R.Edges.push_back({A, B, W});
    if (A != B && W != 0) {
      R.Adj[A][B] += W;
      R.Adj[B][A] += W;
    }
  }
  return R;
}

TEST(CSRGraphTest, RoundTripMatchesMapAdjacency) {
  RandomGraph R = makeRandomGraph(42, 64, 400);
  CSRGraph C(2, R.Weights, R.Edges);

  ASSERT_EQ(C.getNumNodes(), 64u);
  ASSERT_EQ(C.getNumConstraints(), 2u);
  std::vector<uint64_t> Totals(2, 0);
  uint64_t TotalEdgeW = 0;
  for (unsigned N = 0; N != 64; ++N) {
    for (unsigned K = 0; K != 2; ++K) {
      EXPECT_EQ(C.nodeWeight(N, K), R.Weights[2 * N + K]);
      EXPECT_EQ(C.nodeWeights(N)[K], R.Weights[2 * N + K]);
      Totals[K] += R.Weights[2 * N + K];
    }

    // Every adjacency row reproduces the map exactly, in ascending order.
    ASSERT_EQ(C.degree(N), R.Adj[N].size()) << "node " << N;
    uint32_t Slot = C.edgeBegin(N);
    for (const auto &[To, W] : R.Adj[N]) {
      EXPECT_EQ(C.edgeTarget(Slot), To);
      EXPECT_EQ(C.edgeWeight(Slot), W);
      if (To > N)
        TotalEdgeW += W;
      ++Slot;
    }
    EXPECT_EQ(Slot, C.edgeEnd(N));
  }

  EXPECT_EQ(C.totalWeights(), Totals);
  EXPECT_EQ(C.totalEdgeWeight(), TotalEdgeW);
}

TEST(CSRGraphTest, EdgeWeightBetweenAndCutWeightAgree) {
  RandomGraph R = makeRandomGraph(7, 48, 300);
  CSRGraph C(2, R.Weights, R.Edges);

  for (unsigned A = 0; A != 48; ++A)
    for (unsigned B = 0; B != 48; ++B) {
      auto It = R.Adj[A].find(B);
      uint64_t Expected = It == R.Adj[A].end() ? 0 : It->second;
      EXPECT_EQ(C.edgeWeightBetween(A, B), Expected)
          << "edge {" << A << ", " << B << "}";
    }

  Random RNG(99);
  for (int Trial = 0; Trial != 10; ++Trial) {
    std::vector<unsigned> Assign(48);
    for (unsigned &P : Assign)
      P = static_cast<unsigned>(RNG.nextBelow(4));
    uint64_t Expected = 0;
    for (unsigned A = 0; A != 48; ++A)
      for (const auto &[B, W] : R.Adj[A])
        if (B > A && Assign[A] != Assign[B])
          Expected += W;
    EXPECT_EQ(C.cutWeight(Assign), Expected);
  }
}

TEST(CSRGraphTest, HandlesEmptyAndIsolatedNodes) {
  CSRGraph CE(1, {}, {});
  EXPECT_EQ(CE.getNumNodes(), 0u);
  EXPECT_EQ(CE.totalEdgeWeight(), 0u);

  CSRGraph C(1, {3, 5, 7}, {{0, 2, 11}}); // Node 1 is isolated.
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
  EXPECT_FALSE(Plain->PP.Summary);
  EXPECT_TRUE(Traced->PP.Summary)
      << "the traced entry must hold its trace summary";
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
  // same graph yields bit-identical assignments, cut and part weights.
  RandomGraph R = makeRandomGraph(2026, 96, 600);
  CSRGraph G(2, R.Weights, R.Edges);
  GraphPartitionOptions Opt;
  Opt.NumParts = 4;
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

//===- tests/EstimatorOracleTests.cpp - Incremental estimate vs oracle ----===//
//
// sched/Estimator's State re-scores a group move from the ops and edges it
// touches and stops early once the estimate exceeds a bound;
// tests/ReferenceEstimator recomputes the whole region per query. Seeded
// move sequences over every region of the suite and of the generated
// corpus (`GDP_GEN_SEEDS` widens it), at 2, 3 and 4 clusters, move
// latencies 1, 5 and 10 and bus bandwidths 1 and 2, mix singleton and
// multi-op groups, random targets and random bounds (tight ones included,
// so the early exit fires), and end each trial with undo() or commit().
// After every step the incremental length and move count must equal the
// oracle's on the full assignment, and every "exceeds the bound" answer
// must be one the oracle confirms.
//
//===----------------------------------------------------------------------===//

#include "GenTestUtil.h"
#include "ReferenceEstimator.h"

#include "analysis/PointsTo.h"
#include "gen/Generator.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "sched/BlockDFG.h"
#include "sched/Estimator.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <string>

using namespace gdp;

namespace {

/// What the sequences of one corpus exercised.
struct OracleCoverage {
  unsigned Regions = 0;
  /// Regions with a live-in whose producer sits in the same block (a
  /// loop-carried value defined at or after its use).
  unsigned InRegionProducers = 0;
  uint64_t Exceeded = 0; ///< Trials answered "exceeds the bound".
  uint64_t Committed = 0;
};

bool hasInRegionProducer(const BlockDFG &DFG) {
  std::vector<int> Ids;
  for (unsigned I = 0; I != DFG.size(); ++I)
    Ids.push_back(DFG.getOp(I).getId());
  for (const auto &LI : DFG.liveIns())
    if (LI.DefOpId >= 0 && !LI.Hoistable &&
        std::find(Ids.begin(), Ids.end(), LI.DefOpId) != Ids.end())
      return true;
  return false;
}

/// Drives one seeded move sequence over \p DFG on \p MM; empty when every
/// step agrees with the oracle, else the first disagreement.
std::string checkSequence(const BlockDFG &DFG, unsigned NumOpIds,
                          const MachineModel &MM, uint64_t Seed,
                          OracleCoverage &Cov) {
  constexpr unsigned Steps = 24;
  Random RNG(Seed);
  unsigned N = DFG.size(), NC = MM.getNumClusters();
  // Half the sequences start with everything on one cluster, the others
  // from a random placement of the region and of its live-in producers.
  std::vector<int> Assign(NumOpIds, static_cast<int>(RNG.nextBelow(NC)));
  if (RNG.nextBelow(2))
    for (int &C : Assign)
      C = static_cast<int>(RNG.nextBelow(NC));

  ScheduleEstimator Est(DFG, MM);
  ReferenceEstimator Ref(DFG, MM);
  ScheduleEstimator::State S;
  S.load(Est, Assign);
  unsigned RefMoves = 0;
  unsigned RefLen = Ref.estimateWithMoves(Assign, RefMoves);
  auto Where = [&](unsigned Step) {
    return "seed " + std::to_string(Seed) + " step " + std::to_string(Step) +
           ": ";
  };
  auto Agrees = [&](unsigned Step) -> std::string {
    if (S.length() != RefLen || S.moves() != RefMoves)
      return Where(Step) + "estimate " + std::to_string(S.length()) + "/" +
             std::to_string(S.moves()) + ", oracle " +
             std::to_string(RefLen) + "/" + std::to_string(RefMoves);
    return "";
  };
  if (std::string Why = Agrees(0); !Why.empty())
    return "after load, " + Why;

  std::vector<unsigned> Pool(N), Members;
  for (unsigned I = 0; I != N; ++I)
    Pool[I] = I;
  for (unsigned Step = 1; Step <= Steps; ++Step) {
    // A singleton or a group of up to 8 distinct ops, in random order.
    unsigned Size = 1;
    if (N > 1 && RNG.nextBelow(2))
      Size = 2 + static_cast<unsigned>(RNG.nextBelow(std::min(N - 1, 7u)));
    for (unsigned I = 0; I != Size; ++I)
      std::swap(Pool[I], Pool[I + RNG.nextBelow(N - I)]);
    Members.assign(Pool.begin(), Pool.begin() + Size);
    unsigned To = static_cast<unsigned>(RNG.nextBelow(NC));

    std::vector<int> Trial = Assign;
    for (unsigned M : Members)
      Trial[static_cast<unsigned>(DFG.getOp(M).getId())] =
          static_cast<int>(To);
    unsigned TrialMoves = 0;
    unsigned TrialLen = Ref.estimateWithMoves(Trial, TrialMoves);

    unsigned Bound = UINT_MAX;
    switch (RNG.nextBelow(4)) {
    case 0:
      break;
    case 1:
      Bound = TrialLen; // Must not exceed.
      break;
    case 2:
      Bound = TrialLen - 1; // Must exceed (TrialLen ≥ 1).
      break;
    default:
      Bound = static_cast<unsigned>(RNG.nextBelow(RefLen + 4));
      break;
    }

    bool Within = S.tryMove(Members.data(), Members.data() + Members.size(),
                            To, Bound);
    if (!Within) {
      if (TrialLen <= Bound)
        return Where(Step) + "reported over bound " + std::to_string(Bound) +
               ", oracle length " + std::to_string(TrialLen);
      ++Cov.Exceeded;
    } else if (TrialLen > Bound) {
      return Where(Step) + "oracle length " + std::to_string(TrialLen) +
             " exceeds bound " + std::to_string(Bound);
    } else if (S.length() != TrialLen || S.moves() != TrialMoves) {
      return Where(Step) + "trial estimate " + std::to_string(S.length()) +
             "/" + std::to_string(S.moves()) + ", oracle " +
             std::to_string(TrialLen) + "/" + std::to_string(TrialMoves);
    }
    if (Within && RNG.nextBelow(2)) {
      S.commit();
      Assign = std::move(Trial);
      RefLen = TrialLen;
      RefMoves = TrialMoves;
      ++Cov.Committed;
    } else {
      S.undo();
    }
    if (std::string Why = Agrees(Step); !Why.empty())
      return (Within ? "after commit/undo, " : "after undo, ") + Why;
  }
  return "";
}

/// Every combination of cluster count, move latency and bus bandwidth.
std::vector<MachineModel> oracleMachines() {
  std::vector<MachineModel> Machines;
  for (unsigned Clusters : {2u, 3u, 4u})
    for (unsigned Lat : {1u, 5u, 10u})
      for (unsigned BW : {1u, 2u}) {
        MachineModel MM = MachineModel::makeDefault(Clusters, Lat);
        MM.setMoveBandwidth(BW);
        Machines.push_back(MM);
      }
  return Machines;
}

/// Runs a sequence per region of \p P per machine; empty or the first
/// disagreement.
std::string checkProgram(Program &P, uint64_t Seed, OracleCoverage &Cov) {
  annotateMemoryAccesses(P);
  ProgramAnalyses PA(P);
  std::vector<MachineModel> Machines = oracleMachines();
  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    const FunctionAnalyses &FA = PA.function(F);
    unsigned NumOpIds = P.getFunction(F).getNumOpIds();
    for (unsigned B = 0; B != FA.numBlocks(); ++B) {
      const BlockDFG &DFG = FA.dfg(B);
      if (DFG.size() == 0)
        continue;
      ++Cov.Regions;
      Cov.InRegionProducers += hasInRegionProducer(DFG);
      for (unsigned M = 0; M != Machines.size(); ++M) {
        uint64_t SeqSeed = Seed * 1000003 + (uint64_t(F) << 40) +
                           (uint64_t(B) << 8) + M;
        std::string Why =
            checkSequence(DFG, NumOpIds, Machines[M], SeqSeed, Cov);
        if (!Why.empty())
          return P.getFunction(F).getName() + " bb" + std::to_string(B) +
                 " clusters " + std::to_string(Machines[M].getNumClusters()) +
                 " lat " + std::to_string(Machines[M].getMoveLatency()) +
                 " bw " + std::to_string(Machines[M].getMoveBandwidth()) +
                 ", " + Why;
      }
    }
  }
  return "";
}

void expectCoverage(const OracleCoverage &Cov) {
  EXPECT_GT(Cov.Regions, 0u);
  EXPECT_GT(Cov.InRegionProducers, 0u)
      << "no region has a live-in produced in the same block";
  EXPECT_GT(Cov.Exceeded, 0u) << "the early exit never fired";
  EXPECT_GT(Cov.Committed, 0u);
}

} // namespace

TEST(EstimatorOracle, SuiteRegionsMatchReference) {
  OracleCoverage Cov;
  for (const WorkloadInfo &W : allWorkloads()) {
    std::unique_ptr<Program> P = W.Build();
    ASSERT_NE(P, nullptr) << W.Name;
    EXPECT_EQ(checkProgram(*P, /*Seed=*/1, Cov), "") << W.Name;
  }
  expectCoverage(Cov);
}

TEST(GenEstimatorOracle, CorpusMatchesReference) {
  OracleCoverage Cov;
  unsigned N = gentest::seedCount(10);
  for (uint64_t Seed = 1; Seed <= N; ++Seed)
    for (const gen::GenOptions &Opt :
         {gen::GenOptions::smallDifferential(Seed),
          gen::GenOptions::property(Seed)}) {
      std::unique_ptr<Program> P = gen::generateProgram(Opt);
      ASSERT_NE(P, nullptr) << gen::reproCommand(Opt);
      std::string Why = checkProgram(*P, Seed, Cov);
      if (!Why.empty()) {
        gentest::dumpFailingSeed(Opt, P.get(), Why);
        ADD_FAILURE() << gen::reproCommand(Opt) << ": " << Why;
        return;
      }
    }
  expectCoverage(Cov);
}

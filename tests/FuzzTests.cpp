//===- tests/FuzzTests.cpp - Robustness under malformed input -------------------===//
//
// The parser and verifier face arbitrary text/programs; these tests mutate
// well-formed inputs randomly and assert the invariant that matters: no
// crash — every input either parses (and then verifies or is rejected by
// the verifier) or produces a diagnostic.
//
//===----------------------------------------------------------------------===//

#include "analysis/PointsTo.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "profile/Interpreter.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace gdp;

namespace {

/// Applies \p Count random single-character mutations to \p Text.
std::string mutate(std::string Text, Random &RNG, unsigned Count) {
  const char Alphabet[] = "rbf0123456789 ,()[]+-=\nxq";
  for (unsigned I = 0; I != Count && !Text.empty(); ++I) {
    size_t Pos = RNG.nextBelow(Text.size());
    switch (RNG.nextBelow(3)) {
    case 0: // Replace.
      Text[Pos] = Alphabet[RNG.nextBelow(sizeof(Alphabet) - 1)];
      break;
    case 1: // Delete.
      Text.erase(Pos, 1);
      break;
    default: // Insert.
      Text.insert(Pos, 1, Alphabet[RNG.nextBelow(sizeof(Alphabet) - 1)]);
      break;
    }
  }
  return Text;
}

} // namespace

class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, MutatedTextNeverCrashesTheFrontend) {
  Random RNG(GetParam() * 2654435761u + 3);
  auto P = buildWorkload("histogram");
  std::string Base = printProgram(*P, /*IncludeInit=*/true);
  for (unsigned Round = 0; Round != 25; ++Round) {
    std::string Text =
        mutate(Base, RNG, 1 + static_cast<unsigned>(RNG.nextBelow(8)));
    ParseResult R = parseProgram(Text);
    if (!R.ok()) {
      EXPECT_FALSE(R.Error.empty());
      continue;
    }
    // Parsed: the verifier must classify it without crashing; if it also
    // verifies, it must be safely executable (errors allowed, crashes
    // not — bounds and arity are all checked).
    VerifyResult VR = verifyProgram(*R.P);
    if (!VR.ok())
      continue;
    if (R.P->getEntryId() < 0 ||
        R.P->getEntry().getNumParams() != 0)
      continue;
    Interpreter I(*R.P);
    InterpResult Res = I.run(/*MaxSteps=*/200000);
    (void)Res; // Ok or a diagnostic — both acceptable.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Range<uint64_t>(0, 8));

// --- Scheduler invariants under random assignments ------------------------------

#include "analysis/CFG.h"
#include "analysis/DefUse.h"
#include "analysis/LoopInfo.h"
#include "analysis/OpIndex.h"
#include "machine/MachineModel.h"
#include "sched/BlockDFG.h"
#include "sched/Estimator.h"
#include "sched/ListScheduler.h"

class SchedFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedFuzzTest, RandomAssignmentsKeepSchedulerInvariants) {
  Random RNG(GetParam() * 97 + 11);
  auto P = buildWorkload(GetParam() % 2 ? "viterbi" : "fft");
  ASSERT_EQ(annotateMemoryAccesses(*P), 0u);
  MachineModel MM = MachineModel::makeDefault(
      2 + static_cast<unsigned>(GetParam() % 3),
      1 + static_cast<unsigned>(RNG.nextBelow(10)));

  for (const auto &F : P->functions()) {
    OpIndex OI(*F);
    DefUse DU(*F);
    CFG Cfg(*F);
    LoopInfo LI(*F, Cfg);
    // Random but complete assignment.
    std::vector<int> Assign(F->getNumOpIds());
    for (auto &A : Assign)
      A = static_cast<int>(RNG.nextBelow(MM.getNumClusters()));

    for (unsigned Bk = 0; Bk != F->getNumBlocks(); ++Bk) {
      BlockDFG DFG(F->getBlock(Bk), DU, OI, &LI);
      BlockSchedule BS = scheduleBlock(DFG, MM, Assign);
      ScheduleEstimator Est(DFG, MM);

      // Every op got a cycle, and dependences are respected.
      ASSERT_EQ(BS.IssueCycle.size(), DFG.size());
      for (const auto &Edge : DFG.edges()) {
        unsigned From = BS.IssueCycle[Edge.From];
        unsigned To = BS.IssueCycle[Edge.To];
        switch (Edge.Kind) {
        case BlockDFG::EdgeKind::Data:
          EXPECT_GE(To, From + MM.getLatency(
                              DFG.getOp(Edge.From).getOpcode()));
          break;
        case BlockDFG::EdgeKind::Mem:
          EXPECT_GE(To, From + 1);
          break;
        case BlockDFG::EdgeKind::Order:
          EXPECT_GE(To, From);
          break;
        }
      }
      // The estimator never exceeds the real schedule (it is a max of
      // lower bounds).
      ScheduleEstimator::State S;
      S.load(Est, Assign);
      EXPECT_LE(S.length(), BS.Length + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedFuzzTest,
                         ::testing::Range<uint64_t>(0, 10));

//===- tests/DefUseOracleTests.cpp - DefUse against the dense oracle -------===//
//
// analysis/DefUse computes reaching definitions a word at a time and finds
// each use's reaching defs from a per-register slot of the latest local
// definition. tests/ReferenceDefUse is the obvious dense formulation. Every
// query (definition table, reaching defs per use operand in order, uses
// per definition and per parameter, def index per operation) must agree on
// the suite, on the generated corpus (`GDP_GEN_SEEDS` widens it) and on
// two scale-sized generated programs. So must the def-use pairs and
// parameter uses the analysis bundle keeps for the program-level graph.
//
//===----------------------------------------------------------------------===//

#include "GenTestUtil.h"
#include "ReferenceDefUse.h"

#include "analysis/DefUse.h"
#include "gen/Generator.h"
#include "ir/Function.h"
#include "sched/BlockDFG.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <string>

using namespace gdp;

namespace {

bool sameUses(const std::vector<DefUse::UseSite> &A,
              const std::vector<DefUse::UseSite> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].OpId != B[I].OpId || A[I].SrcIdx != B[I].SrcIdx)
      return false;
  return true;
}

/// Empty when \p F's DefUse and analysis bundle answer every query as the
/// oracle does, else the first disagreement.
std::string compareWithOracle(const Function &F) {
  DefUse DU(F);
  ReferenceDefUse Ref(F);
  FunctionAnalyses FA(F);
  // The bundle's (def, use) pairs: every non-parameter reaching def of
  // every use operand, in order, duplicates kept.
  std::vector<FunctionAnalyses::Flow> Flows;
  std::string Where = F.getName() + ": ";
  if (DU.getNumDefs() != Ref.getNumDefs())
    return Where + "definition counts differ";
  for (unsigned D = 0; D != DU.getNumDefs(); ++D)
    if (DU.getDef(D).OpId != Ref.getDef(D).OpId ||
        DU.getDef(D).Reg != Ref.getDef(D).Reg)
      return Where + "definition " + std::to_string(D) + " differs";
  for (const auto &BB : F.blocks())
    for (const auto &Op : BB->operations()) {
      unsigned Id = static_cast<unsigned>(Op->getId());
      std::string At = Where + "op " + std::to_string(Id) + ": ";
      if (DU.defIndexOfOp(Id) != Ref.defIndexOfOp(Id))
        return At + "def index differs";
      for (unsigned S = 0; S != Op->getNumSrcs(); ++S) {
        if (DU.defsForUse(Id, S) != Ref.defsForUse(Id, S))
          return At + "reaching defs of operand " + std::to_string(S) +
                 " differ";
        for (unsigned D : Ref.defsForUse(Id, S))
          if (!Ref.getDef(D).isParam())
            Flows.push_back({static_cast<unsigned>(Ref.getDef(D).OpId), Id});
      }
      if (!sameUses(DU.usesOfDef(Id), Ref.usesOfDef(Id)))
        return At + "uses differ";
    }
  if (FA.flows().size() != Flows.size())
    return Where + "def-use pair counts differ";
  for (size_t I = 0; I != Flows.size(); ++I)
    if (FA.flows()[I].DefOpId != Flows[I].DefOpId ||
        FA.flows()[I].UseOpId != Flows[I].UseOpId)
      return Where + "def-use pair " + std::to_string(I) + " differs";
  for (unsigned P = 0; P != F.getNumParams(); ++P) {
    if (!sameUses(DU.usesOfParam(P), Ref.usesOfParam(P)))
      return Where + "uses of parameter " + std::to_string(P) + " differ";
    std::vector<unsigned> UseOps;
    for (const auto &Use : Ref.usesOfParam(P))
      UseOps.push_back(static_cast<unsigned>(Use.OpId));
    if (FA.paramUses(P) != UseOps)
      return Where + "bundle's uses of parameter " + std::to_string(P) +
             " differ";
  }
  return "";
}

/// Checks every function of the generated program \p Opt describes.
void checkGenerated(const gen::GenOptions &Opt) {
  std::unique_ptr<Program> P = gen::generateProgram(Opt);
  ASSERT_NE(P, nullptr) << gen::reproCommand(Opt);
  for (unsigned F = 0; F != P->getNumFunctions(); ++F) {
    std::string Why = compareWithOracle(P->getFunction(F));
    if (!Why.empty()) {
      gentest::dumpFailingSeed(Opt, P.get(), Why);
      ADD_FAILURE() << gen::reproCommand(Opt) << ": " << Why;
      return;
    }
  }
}

} // namespace

TEST(DefUseOracle, SuiteMatchesDenseReference) {
  for (const WorkloadInfo &W : allWorkloads()) {
    std::unique_ptr<Program> P = W.Build();
    ASSERT_NE(P, nullptr) << W.Name;
    for (unsigned F = 0; F != P->getNumFunctions(); ++F)
      EXPECT_EQ(compareWithOracle(P->getFunction(F)), "") << W.Name;
  }
}

TEST(GenDefUseOracle, CorpusMatchesDenseReference) {
  unsigned N = gentest::seedCount(25);
  for (uint64_t Seed = 1; Seed <= N; ++Seed) {
    checkGenerated(gen::GenOptions::smallDifferential(Seed));
    checkGenerated(gen::GenOptions::property(Seed));
  }
}

TEST(GenDefUseOracle, ScaleSpecsMatchDenseReference) {
  for (const char *Spec : {"gen:103:1000", "gen:103:10000"}) {
    gen::GenOptions Opt;
    ASSERT_TRUE(gen::parseGenSpec(Spec, Opt)) << Spec;
    checkGenerated(Opt);
  }
}

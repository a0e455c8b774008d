//===- perfbench/src/Checks.cpp - Output checks ---------------------------===//

#include "Checks.h"

#include "ir/Function.h"
#include "partition/DataPlacement.h"
#include "profile/ProfileData.h"
#include "sim/Simulator.h"
#include "support/StrUtil.h"

#include <cstdlib>

using namespace gdp;

namespace perfbench {

std::string checkCellOk(const PipelineResult &R) {
  if (R.ok())
    return "";
  std::string Why = "evaluation failed";
  if (!R.Diags.empty())
    Why += ": " + R.Diags.front().render();
  return Why;
}

std::string checkPlacement(const Program &P, const ProfileData &Prof,
                           const PipelineResult &R) {
  if (R.EffectiveStrategy == StrategyKind::Unified)
    return "";
  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    const Function &Fn = P.getFunction(F);
    for (const auto &BB : Fn.blocks())
      for (const auto &Op : BB->operations()) {
        int Home = -1;
        if (Op->isMemoryAccess())
          Home = R.Placement.homeOfOp(*Op, F, Prof);
        else if (Op->getOpcode() == Opcode::Malloc)
          Home = R.Placement.getHome(
              static_cast<unsigned>(Op->getMallocSite()));
        if (Home < 0)
          continue;
        int At = R.Assignment.get(F, static_cast<unsigned>(Op->getId()));
        if (At != Home)
          return formatStr("%s: op %d of %s sits on cluster %d, its data "
                           "home is %d",
                           strategyName(R.EffectiveStrategy), Op->getId(),
                           Fn.getName().c_str(), At, Home);
      }
  }
  return "";
}

std::string checkSim(const PipelineResult &R, const SimResult &S) {
  if (!S.Ok)
    return "simulation failed: " + S.Error;
  if (S.Cycles < R.Cycles)
    return formatStr("simulated cycles %llu below the static estimate %llu",
                     static_cast<unsigned long long>(S.Cycles),
                     static_cast<unsigned long long>(R.Cycles));
  return "";
}

std::string checkRepeat(const CellOutcome &First, const CellOutcome &Now) {
  if (First == Now)
    return "";
  return formatStr("cycles/moves changed between passes: %llu/%llu/%llu "
                   "then %llu/%llu/%llu",
                   static_cast<unsigned long long>(First.Cycles),
                   static_cast<unsigned long long>(First.DynamicMoves),
                   static_cast<unsigned long long>(First.StaticMoves),
                   static_cast<unsigned long long>(Now.Cycles),
                   static_cast<unsigned long long>(Now.DynamicMoves),
                   static_cast<unsigned long long>(Now.StaticMoves));
}

namespace {

bool readField(const std::string &Body, const char *Key, uint64_t &Out) {
  std::string Needle = std::string("\"") + Key + "\": ";
  size_t At = Body.find(Needle);
  if (At == std::string::npos)
    return false;
  const char *Begin = Body.c_str() + At + Needle.size();
  if (*Begin < '0' || *Begin > '9')
    return false;
  char *End = nullptr;
  Out = std::strtoull(Begin, &End, 10);
  return End != Begin;
}

} // namespace

bool parseServeBody(const std::string &Body, CellOutcome &Out) {
  return readField(Body, "cycles", Out.Cycles) &&
         readField(Body, "dynamic_moves", Out.DynamicMoves) &&
         readField(Body, "static_moves", Out.StaticMoves);
}

std::string checkServeBody(const std::string &Body, const CellOutcome &Ref) {
  CellOutcome Got;
  if (!parseServeBody(Body, Got))
    return "malformed partition response body";
  if (Got != Ref)
    return formatStr("served cycles/moves %llu/%llu/%llu differ from the "
                     "in-process reference %llu/%llu/%llu",
                     static_cast<unsigned long long>(Got.Cycles),
                     static_cast<unsigned long long>(Got.DynamicMoves),
                     static_cast<unsigned long long>(Got.StaticMoves),
                     static_cast<unsigned long long>(Ref.Cycles),
                     static_cast<unsigned long long>(Ref.DynamicMoves),
                     static_cast<unsigned long long>(Ref.StaticMoves));
  return "";
}

} // namespace perfbench

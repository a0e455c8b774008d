//===- perfbench/tests/checks_test.cpp - The checker rejects tampering ----===//
//
// Evaluates one suite program for real, confirms every check accepts the
// genuine outputs, then tampers with each output the way a wrong program
// would and confirms the matching check rejects it:
//   - a locked memory operation moved off its home cluster;
//   - a serve response body with altered cycles (and one with no cycles);
//   - simulated cycles below the static estimate;
//   - a cell whose cycles changed between passes;
//   - a failed evaluation.
// Exits 0 when every expectation holds, 1 otherwise.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "ir/Function.h"
#include "partition/PreparedCache.h"
#include "serve/Service.h"
#include "sim/Simulator.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <string>

using namespace gdp;
using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const char *What) {
  std::printf("%s: %s\n", Ok ? "ok  " : "FAIL", What);
  Failures += !Ok;
}

} // namespace

int main() {
  auto Prog = buildWorkload("fir");
  PreparedProgram PP = prepareProgram(*Prog, 200000000ULL,
                                      /*CaptureTrace=*/true);
  expect(PP.Ok, "fir prepares");
  if (!PP.Ok)
    return 1;
  PipelineOptions PO;
  PO.Strategy = StrategyKind::GDP;
  PipelineResult R = runStrategy(PP, PO);
  expect(checkCellOk(R).empty(), "a genuine GDP cell is ok");
  expect(checkPlacement(*Prog, PP.Prof, R).empty(),
         "a genuine GDP cell keeps memory ops on their homes");

  // A locked memory operation moved off its home cluster.
  PipelineResult Moved = R;
  bool Tampered = false;
  for (unsigned F = 0; F != Prog->getNumFunctions() && !Tampered; ++F)
    for (const auto &BB : Prog->getFunction(F).blocks()) {
      for (const auto &Op : BB->operations()) {
        if (!Op->isMemoryAccess())
          continue;
        int Home = R.Placement.homeOfOp(*Op, F, PP.Prof);
        if (Home < 0)
          continue;
        Moved.Assignment.set(F, static_cast<unsigned>(Op->getId()),
                             1 - Home);
        Tampered = true;
        break;
      }
      if (Tampered)
        break;
    }
  expect(Tampered, "fir has a placed memory operation to tamper with");
  expect(!checkPlacement(*Prog, PP.Prof, Moved).empty(),
         "a memory op moved off its home cluster is rejected");

  // Simulated cycles below the static estimate.
  SimResult SR = simulateStrategy(PP, R, PO);
  expect(checkSim(R, SR).empty(), "a genuine simulation is accepted");
  SimResult Under = SR;
  Under.Cycles = R.Cycles - 1;
  expect(!checkSim(R, Under).empty(),
         "simulated cycles below static are rejected");

  // A serve body with altered cycles.
  PreparedProgramCache::global().clear();
  serve::Service Svc{serve::ServiceOptions()};
  serve::PartitionRequest Req;
  Req.Spec = "fir";
  Req.Strategy = "gdp";
  serve::PartitionOutcome Out = Svc.partition(Req);
  CellOutcome Ref = outcomeOf(R);
  expect(Out.S == serve::Status::Ok && checkServeBody(Out.Body, Ref).empty(),
         "a genuine serve body matches the in-process reference");
  std::string Needle = "\"cycles\": " + std::to_string(R.Cycles);
  std::string Altered = Out.Body;
  size_t At = Altered.find(Needle);
  expect(At != std::string::npos, "the serve body carries the cycles");
  if (At != std::string::npos)
    Altered.replace(At, Needle.size(),
                    "\"cycles\": " + std::to_string(R.Cycles + 1));
  expect(!checkServeBody(Altered, Ref).empty(),
         "a serve body with altered cycles is rejected");
  expect(!checkServeBody("{\"spec\": \"fir\"}", Ref).empty(),
         "a serve body without cycles is rejected");

  // Cycles that change between passes, and a failed evaluation.
  CellOutcome Later = Ref;
  Later.DynamicMoves += 1;
  expect(!checkRepeat(Ref, Later).empty(),
         "moves that change between passes are rejected");
  PipelineResult Failed = R;
  Failed.Failed = true;
  expect(!checkCellOk(Failed).empty(), "a failed evaluation is rejected");

  std::printf("%s\n", Failures ? "checks_test: FAILED" : "checks_test: ok");
  return Failures ? 1 : 0;
}

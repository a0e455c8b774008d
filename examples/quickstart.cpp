//===- examples/quickstart.cpp - Library tour in 60 lines --------------------===//
//
// Builds a small program with the IR builder, runs the full pipeline
// (verify → points-to → profile → partition → schedule) for each of the
// paper's four strategies through the evaluation driver (sim/Evaluate.h),
// and prints the resulting cycle counts.
//
// Run: ./quickstart [workload-name]   (default: a tiny inline kernel)
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "partition/Pipeline.h"
#include "sim/Evaluate.h"
#include "support/StrUtil.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>

using namespace gdp;

/// A tiny two-array kernel: out[i] = a[i]*3 + b[i].
static std::unique_ptr<Program> buildInlineDemo() {
  auto P = std::make_unique<Program>("demo");
  int A = P->addGlobal("a", 256, 4);
  {
    std::vector<int64_t> Init(256);
    for (int I = 0; I != 256; ++I)
      Init[static_cast<unsigned>(I)] = I * 7 % 100;
    P->getObject(A).setInit(Init);
  }
  int Bo = P->addGlobal("b", 256, 4);
  {
    std::vector<int64_t> Init(256);
    for (int I = 0; I != 256; ++I)
      Init[static_cast<unsigned>(I)] = I % 17;
    P->getObject(Bo).setInit(Init);
  }
  int Out = P->addGlobal("out", 256, 4);

  Function *Main = P->makeFunction("main", 0);
  IRBuilder B(Main);
  B.setInsertPoint(Main->makeBlock("entry"));
  int ABase = B.addrOf(A);
  int BBase = B.addrOf(Bo);
  int OBase = B.addrOf(Out);
  int Sum = B.movi(0);
  auto L = B.beginCountedLoop(0, 256);
  int Av = B.load(B.add(ABase, L.IndVar));
  int Bv = B.load(B.add(BBase, L.IndVar));
  int V = B.add(B.mul(Av, B.movi(3)), Bv);
  B.store(V, B.add(OBase, L.IndVar));
  B.emitBinaryTo(Sum, Opcode::Add, Sum, V);
  B.endCountedLoop(L);
  B.ret(Sum);
  return P;
}

int main(int argc, char **argv) {
  unsigned MoveLatency = 5;
  if (argc > 2)
    MoveLatency = static_cast<unsigned>(std::atoi(argv[2]));
  std::unique_ptr<Program> P;
  if (argc > 1) {
    P = buildWorkload(argv[1]);
    if (!P) {
      std::fprintf(stderr, "unknown workload '%s'\n", argv[1]);
      return 1;
    }
  } else {
    P = buildInlineDemo();
  }

  PreparedProgram PP = prepareProgram(*P);
  if (!PP.Ok) {
    std::fprintf(stderr, "prepare failed: %s\n", PP.Error.c_str());
    return 1;
  }

  std::printf("program: %s (%u ops, %u data objects)\n",
              P->getName().c_str(), P->getNumOps(), P->getNumObjects());

  // One cell per strategy, evaluated in order on this thread. Each cell
  // records into its own telemetry shard, whose phase timers say how long
  // partitioning took.
  std::vector<EvalCell> Cells;
  for (StrategyKind K : {StrategyKind::Unified, StrategyKind::GDP,
                         StrategyKind::ProfileMax, StrategyKind::Naive}) {
    EvalCell C;
    C.PP = &PP;
    C.Opt.Strategy = K;
    C.Opt.MoveLatency = MoveLatency;
    Cells.push_back(C);
  }
  std::vector<CellResult> Evals =
      evaluateCells(Cells, /*Threads=*/1, /*Faults=*/nullptr);

  TextTable Table({"strategy", "cycles", "vs unified", "dyn moves",
                   "partition ms"});
  uint64_t UnifiedCycles = Evals.front().R.Cycles;
  for (const CellResult &E : Evals) {
    const PipelineResult &R = E.R;
    double Rel = UnifiedCycles
                     ? static_cast<double>(UnifiedCycles) /
                           static_cast<double>(R.Cycles)
                     : 0.0;
    Table.addRow({strategyName(R.RequestedStrategy),
                  formatStr("%llu", static_cast<unsigned long long>(R.Cycles)),
                  formatPercent(Rel),
                  formatStr("%llu",
                            static_cast<unsigned long long>(R.DynamicMoves)),
                  formatDouble(partitionSeconds(E.Shard->stats()) * 1000.0,
                               1)});
  }
  std::printf("%s", Table.render().c_str());
  return 0;
}

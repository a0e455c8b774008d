//===- tests/SimOracleTests.cpp - Per-variant replay vs event replay ------===//
//
// sim/Simulator replays each distinct block execution of the trace summary
// once and multiplies by its count; tests/ReferenceSimulator walks the raw
// trace event by event with the machine state carried across blocks.
// Every SimResult field must agree, over every registered workload and
// the generated corpus (`GDP_GEN_SEEDS` widens it), × 4 strategies × 2, 3
// and 4 clusters × move latencies 1, 5 and 10 × bus bandwidths 1 and 2,
// on the strategy's own placement and on a seeded random placement (so
// remote accesses and memory-port queuing occur). The reference also
// checks the drain invariant the per-variant replay rests on: no bus or
// port slot is still reserved when a block starts.
//
//===----------------------------------------------------------------------===//

#include "GenTestUtil.h"
#include "ReferenceInterpreter.h"
#include "ReferenceSimulator.h"

#include "gen/Generator.h"
#include "ir/IRBuilder.h"
#include "machine/MachineModel.h"
#include "partition/DataPlacement.h"
#include "partition/Pipeline.h"
#include "profile/Interpreter.h"
#include "sched/ListScheduler.h"
#include "sim/Simulator.h"
#include "support/Random.h"
#include "support/StrUtil.h"
#include "support/Telemetry.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

using namespace gdp;

namespace {

const StrategyKind AllStrategies[] = {StrategyKind::Unified, StrategyKind::GDP,
                                      StrategyKind::ProfileMax,
                                      StrategyKind::Naive};

/// The first field in which \p Got differs from \p Want, or "".
std::string simDiff(const SimResult &Got, const SimResult &Want) {
  auto Field = [](const char *Name, uint64_t G, uint64_t W) {
    return G == W ? std::string()
                  : formatStr("%s %llu, reference %llu", Name,
                              static_cast<unsigned long long>(G),
                              static_cast<unsigned long long>(W));
  };
  if (Got.Ok != Want.Ok || Got.Error != Want.Error)
    return "status: '" + Got.Error + "', reference '" + Want.Error + "'";
  for (std::string D :
       {Field("cycles", Got.Cycles, Want.Cycles),
        Field("block_execs", Got.BlockExecs, Want.BlockExecs),
        Field("bus_transfers", Got.BusTransfers, Want.BusTransfers),
        Field("hoisted_transfers", Got.HoistedTransfers,
              Want.HoistedTransfers),
        Field("local_accesses", Got.LocalAccesses, Want.LocalAccesses),
        Field("remote_accesses", Got.RemoteAccesses, Want.RemoteAccesses),
        Field("bus_stall", Got.BusContentionStallCycles,
              Want.BusContentionStallCycles),
        Field("move_stall", Got.MoveLatencyStallCycles,
              Want.MoveLatencyStallCycles),
        Field("port_stall", Got.MemPortStallCycles,
              Want.MemPortStallCycles)})
    if (!D.empty())
      return D;
  if (Got.ClusterUtilization != Want.ClusterUtilization)
    return "cluster utilization";
  return "";
}

/// A program prepared with trace capture, and the raw trace the reference
/// interpreter records on an identical build, which the reference
/// simulator replays.
struct TracedProgram {
  std::unique_ptr<Program> P;
  PreparedProgram PP;
  ExecTrace Trace;
};

std::unique_ptr<TracedProgram>
traceProgram(const std::function<std::unique_ptr<Program>()> &Build) {
  auto T = std::make_unique<TracedProgram>();
  T->P = Build();
  if (!T->P)
    return nullptr;
  T->PP = prepareProgram(*T->P, 200000000ULL, /*CaptureTrace=*/true);
  std::unique_ptr<Program> Twin = Build();
  ReferenceInterpreter I(*Twin);
  I.setTrace(&T->Trace);
  if (!T->PP.Ok || !I.run(200000000ULL).Ok)
    return nullptr;
  return T;
}

/// What one corpus's sweep covered.
struct Coverage {
  unsigned Cells = 0;
  unsigned CellsWithRemote = 0;
};

/// Compares the simulator with the reference on every machine of the grid,
/// every strategy, on the strategy's placement and on a random one seeded
/// by \p Seed. Returns the first mismatch, or "".
std::string sweepProgram(const TracedProgram &T, uint64_t Seed,
                         Coverage &Cov) {
  const PreparedProgram &PP = T.PP;
  unsigned NumObjects = T.P->getNumObjects();
  Random Rng(Seed);
  for (unsigned Clusters : {2u, 3u, 4u})
    for (unsigned Lat : {1u, 5u, 10u})
      for (unsigned Bandwidth : {1u, 2u}) {
        MachineModel MM = MachineModel::makeDefault(Clusters, Lat);
        MM.setMoveBandwidth(Bandwidth);
        PipelineOptions Opt;
        Opt.NumClusters = Clusters;
        Opt.MoveLatency = Lat;
        Opt.Machine = &MM;
        for (StrategyKind K : AllStrategies) {
          std::string Cell = formatStr("%s k%u lat%u bw%u",
                                       strategyName(K), Clusters, Lat,
                                       Bandwidth);
          Opt.Strategy = K;
          PipelineResult R = runStrategy(PP, Opt);
          if (!R.ok())
            return Cell + ": evaluation failed";
          DataPlacement Random(NumObjects);
          for (unsigned O = 0; O != NumObjects; ++O)
            Random.setHome(O, static_cast<int>(Rng.nextBelow(Clusters)));
          for (const DataPlacement *PL : {&R.Placement, &Random}) {
            SimResult Got =
                PL == &R.Placement
                    ? simulateStrategy(PP, R, Opt)
                    : simulateTrace(*PP.Analyses, *PP.Summary, MM,
                                    R.Assignment, R.Schedule, *PL);
            ReferenceSimulation Want =
                referenceSimulate(*PP.Analyses, T.Trace, MM, R.Assignment,
                                  R.Schedule, *PL);
            const char *Which = PL == &R.Placement ? "own" : "random";
            if (!Got.Ok)
              return Cell + " " + Which + ": " + Got.Error;
            if (Want.UndrainedStarts != 0)
              return formatStr("%s %s: %llu block starts found a busy "
                               "slot",
                               Cell.c_str(), Which,
                               static_cast<unsigned long long>(
                                   Want.UndrainedStarts));
            std::string D = simDiff(Got, Want.S);
            if (!D.empty())
              return Cell + " " + Which + ": " + D;
            ++Cov.Cells;
            Cov.CellsWithRemote += Got.RemoteAccesses != 0;
          }
        }
      }
  return "";
}

TEST(SimOracle, WorkloadsMatchReference) {
  Coverage Cov;
  uint64_t Seed = 1;
  for (const WorkloadInfo &W : allWorkloads()) {
    SCOPED_TRACE(W.Name);
    std::unique_ptr<TracedProgram> T = traceProgram(W.Build);
    ASSERT_NE(T, nullptr);
    EXPECT_EQ(sweepProgram(*T, Seed++, Cov), "");
  }
  // Random placements split access sets across clusters, so the
  // remote-access protocol and the port queues were exercised.
  EXPECT_GT(Cov.CellsWithRemote, Cov.Cells / 4) << Cov.Cells << " cells";
}

TEST(GenSimOracle, GeneratedProgramsMatchReference) {
  Coverage Cov;
  unsigned N = gentest::seedCount(3);
  for (uint64_t Seed = 1; Seed <= N; ++Seed)
    for (const gen::GenOptions &GO : {gen::GenOptions::smallDifferential(Seed),
                                      gen::GenOptions::property(Seed)}) {
      SCOPED_TRACE(gen::reproCommand(GO));
      std::unique_ptr<TracedProgram> T =
          traceProgram([&GO] { return gen::generateProgram(GO); });
      ASSERT_NE(T, nullptr);
      std::string Why = sweepProgram(*T, Seed, Cov);
      if (!Why.empty())
        gentest::dumpFailingSeed(GO, T->P.get(), Why);
      EXPECT_EQ(Why, "");
    }
  EXPECT_GT(Cov.CellsWithRemote, 0u) << Cov.Cells << " cells";
}

/// main calls rec(2); rec(n) returns at once for n <= 0, else computes
/// v = 3n in a preheader and runs a two-iteration self-loop whose body
/// reads v and calls rec(n - 1). Frames of rec interleave their block
/// events, so the function id's last block before a loop-header execution
/// can be the callee frame's exit block.
std::unique_ptr<Program> makeRecursiveProgram() {
  auto P = std::make_unique<Program>("recursion");
  Function *Main = P->makeFunction("main", 0);
  Function *Rec = P->makeFunction("rec", 1);
  {
    IRBuilder B(Main);
    B.setInsertPoint(Main->makeBlock("entry"));
    B.call(Rec, {B.movi(2)}, /*WantResult=*/false);
    B.ret(B.movi(0));
  }
  IRBuilder B(Rec);
  BasicBlock *Entry = Rec->makeBlock("entry");
  BasicBlock *Pre = Rec->makeBlock("pre");
  BasicBlock *Loop = Rec->makeBlock("loop");
  BasicBlock *Exit = Rec->makeBlock("exit");
  B.setInsertPoint(Entry);
  B.brCond(B.cmpLE(0, B.movi(0)), Exit, Pre);
  B.setInsertPoint(Pre);
  int V = B.mul(0, B.movi(3));
  int I = B.movi(0);
  B.br(Loop);
  B.setInsertPoint(Loop);
  B.add(V, I);
  B.call(Rec, {B.sub(0, B.movi(1))}, /*WantResult=*/false);
  B.emitBinaryTo(I, Opcode::Add, I, B.movi(1));
  B.brCond(B.cmpLT(I, B.movi(2)), Loop, Exit);
  B.setInsertPoint(Exit);
  B.ret();
  return P;
}

TEST(SimOracle, RecursiveLoopEntryIsPerFunctionId) {
  std::unique_ptr<Program> P = makeRecursiveProgram();
  Interpreter Interp(*P);
  TraceSummary Summary;
  Interp.setSummary(&Summary);
  ASSERT_TRUE(Interp.run().Ok);
  ReferenceInterpreter Ref(*P);
  ExecTrace Trace;
  Ref.setTrace(&Trace);
  ASSERT_TRUE(Ref.run().Ok);
  ProgramAnalyses PA(*P);

  // v = 3n on cluster 1, everything else on cluster 0: the loop reads v
  // across clusters, a transfer hoisted to the loop's entry.
  const unsigned RecId = 1;
  ClusterAssignment CA(*P);
  const BasicBlock &Pre = P->getFunction(RecId).getBlock(1);
  for (unsigned OpI = 0; OpI != Pre.size(); ++OpI)
    if (Pre.getOp(OpI).getOpcode() == Opcode::Mul)
      CA.set(RecId, static_cast<unsigned>(Pre.getOp(OpI).getId()), 1);
  DataPlacement Placement(P->getNumObjects());

  for (unsigned Lat : {1u, 5u, 10u}) {
    SCOPED_TRACE(formatStr("lat%u", Lat));
    MachineModel MM = MachineModel::makeDefault(2, Lat);
    ProgramSchedule Sched =
        scheduleProgram(PA, Interp.getProfile(), MM, CA);
    unsigned Hoisted = Sched.Blocks[RecId][2].HoistedMoves;
    ASSERT_GT(Hoisted, 0u) << "the loop must read v across clusters";
    SimResult Got = simulateTrace(PA, Summary, MM, CA, Sched, Placement);
    ReferenceSimulation Want =
        referenceSimulate(PA, Trace, MM, CA, Sched, Placement);
    ASSERT_TRUE(Got.Ok) << Got.Error;
    EXPECT_EQ(simDiff(Got, Want.S), "");
    EXPECT_EQ(Want.UndrainedStarts, 0u);
    // The loop header runs 6 times with rec's last block outside the
    // loop: 3 entries from the preheader, and 3 iterations that follow a
    // callee frame's exit block. Tracking the last block per frame would
    // count only the 3 entries.
    EXPECT_EQ(Got.HoistedTransfers, 6u * Hoisted);
  }
}

/// fir prepared with trace capture, and its GDP result at latency 5.
struct FirCell {
  std::unique_ptr<TracedProgram> T;
  PipelineOptions Opt;
  PipelineResult R;
};

FirCell firCell() {
  FirCell C;
  C.T = traceProgram([] { return buildWorkload("fir"); });
  if (C.T)
    C.R = runStrategy(C.T->PP, C.Opt);
  return C;
}

TEST(SimOracle, ZeroLatencyMachineIsAnInputError) {
  FirCell C = firCell();
  ASSERT_NE(C.T, nullptr);
  ASSERT_TRUE(C.R.ok());
  const PreparedProgram &PP = C.T->PP;
  MachineModel NoMoveLat = MachineModel::makeDefault(2, 0);
  MachineModel NoStoreLat = MachineModel::makeDefault(2, 5);
  NoStoreLat.setLatency(Opcode::Store, 0);
  for (const MachineModel *MM : {&NoMoveLat, &NoStoreLat}) {
    SimResult S = simulateTrace(*PP.Analyses, *PP.Summary, *MM,
                                C.R.Assignment, C.R.Schedule, C.R.Placement);
    EXPECT_FALSE(S.Ok);
    ASSERT_NE(support::firstError(S.Diags), nullptr);
    EXPECT_EQ(support::firstError(S.Diags)->Code,
              support::StatusCode::InputError);
    EXPECT_EQ(support::firstError(S.Diags)->Site, "sim");
  }
  // The precondition is needed: with instant moves, a transfer issued in
  // a block's last cycle still holds the bus when the next block starts.
  ProgramSchedule Sched = scheduleProgram(*PP.Analyses, PP.Prof, NoMoveLat,
                                          C.R.Assignment);
  EXPECT_GT(referenceSimulate(*PP.Analyses, C.T->Trace, NoMoveLat,
                              C.R.Assignment, Sched, C.R.Placement)
                .UndrainedStarts,
            0u);
}

TEST(SimOracle, TraceErrorsMatchReference) {
  // A raw trace that does not fit the program (an event out of range, or
  // an access stream shorter than its block's executions) is refused by
  // both of its readers with the same message: the reference summarizer
  // and the reference replay. The interpreter's own summary cannot be
  // malformed this way, so the simulator has no such check.
  FirCell C = firCell();
  ASSERT_NE(C.T, nullptr);
  ASSERT_TRUE(C.R.ok());
  const Program &P = *C.T->P;
  const ProgramAnalyses &PA = *C.T->PP.Analyses;
  MachineModel MM = machineFor(C.Opt);

  ExecTrace OutOfRange = C.T->Trace;
  OutOfRange.Blocks.push_back({0, P.getFunction(0).getNumBlocks()});
  ExecTrace Exhausted = C.T->Trace;
  for (auto &Stream : Exhausted.AccessObj[0])
    if (!Stream.empty()) {
      Stream.pop_back();
      break;
    }
  for (const ExecTrace *Bad : {&OutOfRange, &Exhausted}) {
    std::string Error;
    summarizeTrace(P, *Bad, &Error);
    SimResult Want = referenceSimulate(PA, *Bad, MM, C.R.Assignment,
                                       C.R.Schedule, C.R.Placement)
                         .S;
    EXPECT_FALSE(Want.Ok);
    EXPECT_FALSE(Error.empty());
    EXPECT_EQ(Error, Want.Error);
  }
  std::string Error;
  summarizeTrace(P, C.T->Trace, &Error);
  EXPECT_EQ(Error, "");
}

TEST(SimOracle, VariantCountIsTheSummarys) {
  // sim.variants, the replay's work counter, counts the summary's
  // variants whatever the strategy or latency, far fewer than the block
  // executions they stand for.
  FirCell C = firCell();
  ASSERT_NE(C.T, nullptr);
  const PreparedProgram &PP = C.T->PP;
  uint64_t Variants = 0;
  for (const auto &Fn : PP.Summary->Blocks)
    for (const TraceSummary::Block &B : Fn)
      Variants += B.Variants.size();
  for (StrategyKind K : AllStrategies)
    for (unsigned Lat : {1u, 10u}) {
      telemetry::TelemetrySession Session;
      telemetry::ScopedSession Scope(Session);
      PipelineOptions Opt;
      Opt.Strategy = K;
      Opt.MoveLatency = Lat;
      SimResult S = simulateStrategy(PP, runStrategy(PP, Opt), Opt);
      ASSERT_TRUE(S.Ok) << S.Error;
      EXPECT_EQ(Session.stats().getCounter("sim.variants"), Variants);
      EXPECT_LT(Variants * 10, S.BlockExecs);
    }
}

} // namespace

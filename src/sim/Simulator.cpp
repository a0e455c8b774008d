//===- sim/Simulator.cpp - Trace-driven cycle simulator ---------------------===//

#include "sim/Simulator.h"

#include "ir/Program.h"
#include "machine/MachineModel.h"
#include "partition/DataPlacement.h"
#include "partition/Pipeline.h"
#include "profile/TraceSummary.h"
#include "sched/ListScheduler.h"
#include "support/FaultInjector.h"
#include "support/Telemetry.h"

#include <algorithm>

using namespace gdp;

namespace {

/// Identical units granted on the earliest-free one, each accepting one
/// request per cycle: the intercluster bus (getMoveBandwidth() issue
/// slots) and one cluster's memory ports, which serialize remote
/// (cross-cluster) requests. Local accesses are already paid inside the
/// static block schedules; only the extra remote traffic competes there.
class SlotQueue {
public:
  explicit SlotQueue(unsigned Slots) : SlotFree(std::max(1u, Slots), 0) {}

  /// Grants a slot at the earliest cycle >= \p Earliest; returns the issue
  /// cycle (>= Earliest; the excess is queuing delay).
  uint64_t reserve(uint64_t Earliest) {
    size_t Best = 0;
    for (size_t S = 1; S != SlotFree.size(); ++S)
      if (SlotFree[S] < SlotFree[Best])
        Best = S;
    uint64_t Issue = std::max(Earliest, SlotFree[Best]);
    SlotFree[Best] = Issue + 1;
    return Issue;
  }

  /// Frees every slot (cycle 0 of the next replayed execution).
  void reset() { std::fill(SlotFree.begin(), SlotFree.end(), 0); }

private:
  std::vector<uint64_t> SlotFree;
};

/// A memory operation of one block, as the replayer needs it.
struct MemOpInfo {
  unsigned IssueCycle; ///< Static issue cycle within the block.
  unsigned Cluster;    ///< Executing cluster (= home for locked ops).
  unsigned Latency;
  bool IsLoad;
};

/// What one execution of a block adds to the SimResult counters.
struct ExecOutcome {
  uint64_t Cycles = 0;
  uint64_t BusTransfers = 0;
  uint64_t HoistedTransfers = 0;
  uint64_t LocalAccesses = 0;
  uint64_t RemoteAccesses = 0;
  uint64_t BusContentionStallCycles = 0;
  uint64_t MoveLatencyStallCycles = 0;
  uint64_t MemPortStallCycles = 0;
};

} // namespace

SimResult gdp::simulateTrace(const ProgramAnalyses &PA,
                             const TraceSummary &Summary,
                             const MachineModel &MM,
                             const ClusterAssignment &CA,
                             const ProgramSchedule &Schedule,
                             const DataPlacement &Placement) {
  telemetry::Span Timer("sim.run");
  const Program &P = PA.program();
  SimResult R;
  unsigned NumClusters = MM.getNumClusters();
  unsigned MoveLat = MM.getMoveLatency();

  const char *TraceMismatch = "trace does not match program (was the "
                              "program prepared with trace capture?)";
  auto InputError = [](std::string Why) {
    SimResult Failed;
    Failed.Error = std::move(Why);
    Failed.Diags.push_back(support::errorDiag(
        support::StatusCode::InputError, "sim", Failed.Error));
    return Failed;
  };
  // Every reservation of a block is released by the block's end only when
  // transfers and stores take at least a cycle (docs/SIMULATOR.md); the
  // one-replay-per-variant rule below rests on that.
  if (MoveLat == 0 || MM.getLatency(Opcode::Store) == 0)
    return InputError("the simulator needs a move latency and a store "
                      "latency of at least 1 cycle");
  bool TraceOk = Summary.Blocks.size() == P.getNumFunctions();
  for (unsigned F = 0; TraceOk && F != P.getNumFunctions(); ++F)
    TraceOk = Summary.Blocks[F].size() == PA.function(F).numBlocks();
  if (!TraceOk)
    return InputError(TraceMismatch);
  bool ShapeOk = Schedule.Blocks.size() == P.getNumFunctions();
  for (unsigned F = 0; ShapeOk && F != P.getNumFunctions(); ++F) {
    const FunctionAnalyses &FA = PA.function(F);
    ShapeOk = Schedule.Blocks[F].size() == FA.numBlocks();
    for (unsigned B = 0; ShapeOk && B != FA.numBlocks(); ++B)
      ShapeOk = Schedule.Blocks[F][B].IssueCycle.size() == FA.dfg(B).size();
  }
  if (!ShapeOk)
    return InputError("schedule does not match program (function, block or "
                      "operation counts differ)");

  // The bus model is the simulator's heart; its (injected) failure fails
  // the whole replay before any cycles are accounted.
  if (support::faultAt("sim.bus")) {
    R.Error = "injected fault at sim.bus";
    R.Diags.push_back(support::injectedFaultDiag("sim.bus"));
    return R;
  }

  SlotQueue Bus(MM.getMoveBandwidth());
  std::vector<SlotQueue> Ports;
  Ports.reserve(NumClusters);
  for (unsigned C = 0; C != NumClusters; ++C)
    Ports.emplace_back(MM.getFUCount(C, FUKind::Memory));
  std::vector<uint64_t> OpsIssued(NumClusters, 0);
  std::vector<uint32_t> OpsPerCluster(NumClusters);
  std::vector<MemOpInfo> MemOps;
  uint64_t Variants = 0;

  // Replays one execution of a block from an idle bus and idle ports,
  // starting at cycle 0, with HoistedNow loop-entry transfers and the
  // objects Objs its memory operations touched.
  auto Replay = [&](const BlockSchedule &BS, unsigned HoistedNow,
                    const int32_t *Objs) {
    ExecOutcome O;
    Bus.reset();
    for (SlotQueue &Port : Ports)
      Port.reset();
    uint64_t End = BS.Length;
    for (unsigned K = 0; K != HoistedNow; ++K) {
      uint64_t Issue = Bus.reserve(0);
      ++O.BusTransfers;
      ++O.HoistedTransfers;
      O.BusContentionStallCycles += Issue;
      uint64_t Arrive = Issue + MoveLat;
      if (Arrive > End) {
        O.MoveLatencyStallCycles += Arrive - End;
        End = Arrive;
      }
    }

    // The block's scheduled intercluster moves, against the bus.
    for (unsigned S : BS.MoveIssue) {
      uint64_t Issue = Bus.reserve(S);
      ++O.BusTransfers;
      O.BusContentionStallCycles += Issue - S;
      End = std::max(End, Issue + MoveLat);
    }

    // Memory accesses: objects homed on another cluster pay the
    // remote-access protocol.
    for (size_t M = 0; M != MemOps.size(); ++M) {
      const MemOpInfo &MO = MemOps[M];
      int32_t Obj = Objs[M];
      int Home = Obj >= 0 && static_cast<unsigned>(Obj) <
                                 Placement.getNumObjects()
                     ? Placement.getHome(static_cast<unsigned>(Obj))
                     : -1;
      if (Home < 0 || static_cast<unsigned>(Home) == MO.Cluster) {
        ++O.LocalAccesses; // Unified memory or home-cluster access: the
                           // static schedule already paid for it.
        continue;
      }
      ++O.RemoteAccesses;
      // Request transfer to the home cluster...
      uint64_t Want = MO.IssueCycle;
      uint64_t ReqIssue = Bus.reserve(Want);
      ++O.BusTransfers;
      O.BusContentionStallCycles += ReqIssue - Want;
      uint64_t ReqArrive = ReqIssue + MoveLat;
      // ...service at a home memory port...
      uint64_t Port = Ports[static_cast<unsigned>(Home)].reserve(ReqArrive);
      O.MemPortStallCycles += Port - ReqArrive;
      uint64_t Done = Port + MO.Latency;
      // ...and for loads, the reply transfer back.
      if (MO.IsLoad) {
        uint64_t RepIssue = Bus.reserve(Done);
        ++O.BusTransfers;
        O.BusContentionStallCycles += RepIssue - Done;
        Done = RepIssue + MoveLat;
        O.MoveLatencyStallCycles += 2ull * MoveLat;
      } else {
        O.MoveLatencyStallCycles += MoveLat;
      }
      End = std::max(End, Done);
    }
    O.Cycles = End;
    return O;
  };

  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    const FunctionAnalyses &FA = PA.function(F);
    const LoopInfo &LI = FA.loops();
    // Per loop: hoisted transfers charged on entry (summed over member
    // blocks whose innermost loop this is).
    std::vector<unsigned> LoopHoisted(LI.getNumLoops(), 0);
    for (unsigned B = 0; B != FA.numBlocks(); ++B)
      if (LI.innermostLoopOf(B) >= 0)
        LoopHoisted[static_cast<unsigned>(LI.innermostLoopOf(B))] +=
            Schedule.Blocks[F][B].HoistedMoves;

    for (unsigned B = 0; B != FA.numBlocks(); ++B) {
      const TraceSummary::Block &SB = Summary.Blocks[F][B];
      if (SB.Variants.empty())
        continue;
      const BlockDFG &DFG = FA.dfg(B);
      const BlockSchedule &BS = Schedule.Blocks[F][B];
      std::fill(OpsPerCluster.begin(), OpsPerCluster.end(), 0);
      MemOps.clear();
      for (unsigned Local = 0; Local != DFG.size(); ++Local) {
        const Operation &Op = DFG.getOp(Local);
        unsigned OpId = static_cast<unsigned>(Op.getId());
        unsigned Cluster = static_cast<unsigned>(CA.get(F, OpId));
        ++OpsPerCluster[Cluster];
        if (Op.isMemoryAccess())
          MemOps.push_back({BS.IssueCycle[Local], Cluster,
                            MM.getLatency(Op.getOpcode()),
                            Op.getOpcode() == Opcode::Load});
      }
      if (MemOps.size() != SB.NumMemOps)
        return InputError(TraceMismatch);
      int Loop = LI.innermostLoopOf(B);
      bool IsLoopHeader = Loop >= 0 &&
                          LI.getLoop(static_cast<unsigned>(Loop)).Header ==
                              static_cast<int>(B);

      for (size_t V = 0; V != SB.Variants.size(); ++V) {
        const TraceSummary::Variant &Var = SB.Variants[V];
        // Loop entry: the header executes with the function's previous
        // block outside the loop. Hoisted (preheader) transfers go out
        // then. Hoistable live-ins of a block outside any loop degenerate
        // to a per-execution transfer (mirrors LoopInfo::entryCountOf).
        unsigned HoistedNow = 0;
        if (IsLoopHeader) {
          unsigned L = static_cast<unsigned>(Loop);
          if (Var.Pred < 0 ||
              !LI.contains(L, static_cast<unsigned>(Var.Pred)))
            HoistedNow = LoopHoisted[L];
        } else if (Loop < 0) {
          HoistedNow = BS.HoistedMoves;
        }
        ExecOutcome O = Replay(BS, HoistedNow, SB.objectsOf(V));
        uint64_t N = Var.Count;
        ++Variants;
        R.Cycles += O.Cycles * N;
        R.BlockExecs += N;
        R.BusTransfers += O.BusTransfers * N;
        R.HoistedTransfers += O.HoistedTransfers * N;
        R.LocalAccesses += O.LocalAccesses * N;
        R.RemoteAccesses += O.RemoteAccesses * N;
        R.BusContentionStallCycles += O.BusContentionStallCycles * N;
        R.MoveLatencyStallCycles += O.MoveLatencyStallCycles * N;
        R.MemPortStallCycles += O.MemPortStallCycles * N;
        for (unsigned C = 0; C != NumClusters; ++C)
          OpsIssued[C] += uint64_t{OpsPerCluster[C]} * N;
      }
    }
  }

  R.ClusterUtilization.assign(NumClusters, 0.0);
  for (unsigned C = 0; C != NumClusters; ++C) {
    uint64_t Slots = 0;
    for (unsigned K = 0; K != 4; ++K)
      Slots += MM.getFUCount(C, static_cast<FUKind>(K));
    if (R.Cycles > 0 && Slots > 0)
      R.ClusterUtilization[C] =
          static_cast<double>(OpsIssued[C]) /
          (static_cast<double>(R.Cycles) * static_cast<double>(Slots));
  }

  R.Ok = true;
  if (telemetry::enabled()) {
    telemetry::counter("sim.runs");
    telemetry::counter("sim.variants", Variants);
    telemetry::counter("sim.cycles", R.Cycles);
    telemetry::counter("sim.block_execs", R.BlockExecs);
    telemetry::counter("sim.bus_transfers", R.BusTransfers);
    telemetry::counter("sim.hoisted_transfers", R.HoistedTransfers);
    telemetry::counter("sim.remote_accesses", R.RemoteAccesses);
    telemetry::counter("sim.local_accesses", R.LocalAccesses);
    telemetry::counter("sim.stall.bus_contention",
                       R.BusContentionStallCycles);
    telemetry::counter("sim.stall.move_latency", R.MoveLatencyStallCycles);
    telemetry::counter("sim.stall.mem_port", R.MemPortStallCycles);
    for (unsigned C = 0; C != NumClusters; ++C)
      telemetry::value("sim.cluster_utilization", R.ClusterUtilization[C]);
  }
  return R;
}

SimResult gdp::simulateStrategy(const PreparedProgram &PP,
                                const PipelineResult &R,
                                const PipelineOptions &Opt) {
  auto Usage = [](const char *Why) {
    SimResult S;
    S.Error = Why;
    S.Diags.push_back(support::errorDiag(support::StatusCode::UsageError,
                                         "sim", S.Error));
    return S;
  };
  if (!PP.Analyses)
    return Usage("prepared program carries no analyses; simulate only a "
                 "successful prepareProgram");
  if (!PP.Summary)
    return Usage("prepared program carries no execution trace; call "
                 "prepareProgram(P, MaxSteps, /*CaptureTrace=*/true)");
  if (R.Schedule.Blocks.empty())
    return Usage("result carries no schedule; simulate only a successful "
                 "runStrategy result");
  MachineModel MM = machineFor(Opt);
  return simulateTrace(*PP.Analyses, *PP.Summary, MM, R.Assignment,
                       R.Schedule, R.Placement);
}

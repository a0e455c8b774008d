//===- sim/Simulator.cpp - Trace-driven cycle simulator ---------------------===//

#include "sim/Simulator.h"

#include "ir/Program.h"
#include "machine/MachineModel.h"
#include "partition/DataPlacement.h"
#include "partition/Pipeline.h"
#include "profile/ExecTrace.h"
#include "sched/ListScheduler.h"
#include "support/FaultInjector.h"
#include "support/StrUtil.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>

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

private:
  std::vector<uint64_t> SlotFree;
};

/// A memory operation of one block, as the replayer needs it.
struct MemOpInfo {
  unsigned OpId;
  unsigned IssueCycle; ///< Static issue cycle within the block.
  unsigned Cluster;    ///< Executing cluster (= home for locked ops).
  unsigned Latency;
  bool IsLoad;
};

/// Everything the replayer needs about one static block.
struct BlockDesc {
  const BlockSchedule *Sched = nullptr; ///< The evaluation's schedule.
  int InnermostLoop = -1;
  bool IsLoopHeader = false;
  std::vector<MemOpInfo> MemOps; ///< In program order.
  std::vector<uint32_t> OpsPerCluster;
};

struct FuncDesc {
  std::vector<BlockDesc> Blocks;
  /// Per loop: hoisted transfers charged on entry (summed over member
  /// blocks whose innermost loop this is).
  std::vector<unsigned> LoopHoisted;
  /// Per loop: membership bitmap over blocks.
  std::vector<std::vector<bool>> InLoop;
};

} // namespace

SimResult gdp::simulateTrace(const ProgramAnalyses &PA,
                             const ExecTrace &Trace, const MachineModel &MM,
                             const ClusterAssignment &CA,
                             const ProgramSchedule &Schedule,
                             const DataPlacement &Placement) {
  telemetry::Span Timer("sim.run");
  const Program &P = PA.program();
  SimResult R;
  unsigned NumClusters = MM.getNumClusters();
  unsigned MoveLat = MM.getMoveLatency();

  auto InputError = [&](std::string Why) {
    R.Error = std::move(Why);
    R.Diags.push_back(support::errorDiag(support::StatusCode::InputError,
                                         "sim", R.Error));
    return R;
  };
  if (Trace.AccessObj.size() != P.getNumFunctions())
    return InputError("trace does not match program (was the program "
                      "prepared with trace capture?)");
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

  // --- Static precomputation: one descriptor per scheduled block.
  std::vector<FuncDesc> Funcs(P.getNumFunctions());
  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    const FunctionAnalyses &FA = PA.function(F);
    const LoopInfo &LI = FA.loops();
    unsigned NumBlocks = FA.numBlocks();
    FuncDesc &FD = Funcs[F];
    FD.Blocks.resize(NumBlocks);
    FD.LoopHoisted.assign(LI.getNumLoops(), 0);
    FD.InLoop.resize(LI.getNumLoops());
    for (unsigned L = 0; L != LI.getNumLoops(); ++L) {
      FD.InLoop[L].assign(NumBlocks, false);
      for (int B : LI.getLoop(L).Blocks)
        FD.InLoop[L][static_cast<unsigned>(B)] = true;
    }
    for (unsigned B = 0; B != NumBlocks; ++B) {
      const BlockDFG &DFG = FA.dfg(B);
      const BlockSchedule &BS = Schedule.Blocks[F][B];
      BlockDesc &BD = FD.Blocks[B];
      BD.Sched = &BS;
      BD.InnermostLoop = LI.innermostLoopOf(B);
      BD.IsLoopHeader =
          BD.InnermostLoop >= 0 &&
          LI.getLoop(static_cast<unsigned>(BD.InnermostLoop)).Header ==
              static_cast<int>(B);
      if (BD.InnermostLoop >= 0)
        FD.LoopHoisted[static_cast<unsigned>(BD.InnermostLoop)] +=
            BS.HoistedMoves;
      BD.OpsPerCluster.assign(NumClusters, 0);
      for (unsigned Local = 0; Local != DFG.size(); ++Local) {
        const Operation &Op = DFG.getOp(Local);
        unsigned OpId = static_cast<unsigned>(Op.getId());
        unsigned Cluster = static_cast<unsigned>(CA.get(F, OpId));
        ++BD.OpsPerCluster[Cluster];
        if (!Op.isMemoryAccess())
          continue;
        MemOpInfo MO;
        MO.OpId = OpId;
        MO.IssueCycle = BS.IssueCycle[Local];
        MO.Cluster = Cluster;
        MO.Latency = MM.getLatency(Op.getOpcode());
        MO.IsLoad = Op.getOpcode() == Opcode::Load;
        BD.MemOps.push_back(MO);
      }
    }
  }

  // --- Dynamic replay.
  SlotQueue Bus(MM.getMoveBandwidth());
  std::vector<SlotQueue> Ports;
  Ports.reserve(NumClusters);
  for (unsigned C = 0; C != NumClusters; ++C)
    Ports.emplace_back(MM.getFUCount(C, FUKind::Memory));

  // Cursor into each operation's access stream (k-th block execution
  // consumes the k-th recorded object id of each of its memory ops).
  std::vector<std::vector<uint32_t>> NextAccess(P.getNumFunctions());
  for (unsigned F = 0; F != P.getNumFunctions(); ++F)
    NextAccess[F].assign(Trace.AccessObj[F].size(), 0);

  // Last executed block per function, for dynamic loop-entry detection.
  std::vector<int> LastBlock(P.getNumFunctions(), -1);
  std::vector<uint64_t> OpsIssued(NumClusters, 0);

  uint64_t T = 0; // Start cycle of the current block.
  for (const ExecTrace::BlockEvent &Ev : Trace.Blocks) {
    if (Ev.Func >= Funcs.size() ||
        Ev.Block >= Funcs[Ev.Func].Blocks.size()) {
      return InputError(formatStr("trace event (%u, %u) out of range",
                                  Ev.Func, Ev.Block));
    }
    FuncDesc &FD = Funcs[Ev.Func];
    BlockDesc &BD = FD.Blocks[Ev.Block];
    ++R.BlockExecs;
    for (unsigned C = 0; C != NumClusters; ++C)
      OpsIssued[C] += BD.OpsPerCluster[C];

    uint64_t End = T + BD.Sched->Length;

    // Block 0 is a fresh invocation: the previous block of this function
    // id (possibly another frame's) is not this execution's predecessor.
    if (Ev.Block == 0)
      LastBlock[Ev.Func] = -1;

    // Loop entry: the header executes with the function's previous block
    // outside the loop. Hoisted (preheader) transfers go out now.
    unsigned HoistedNow = 0;
    if (BD.IsLoopHeader) {
      unsigned L = static_cast<unsigned>(BD.InnermostLoop);
      bool Entry = LastBlock[Ev.Func] < 0 ||
                   !FD.InLoop[L][static_cast<unsigned>(LastBlock[Ev.Func])];
      if (Entry)
        HoistedNow = FD.LoopHoisted[L];
    } else if (BD.InnermostLoop < 0) {
      // Hoistable live-ins of a block outside any loop degenerate to a
      // per-execution transfer (mirrors LoopInfo::entryCountOf).
      HoistedNow = BD.Sched->HoistedMoves;
    }
    for (unsigned K = 0; K != HoistedNow; ++K) {
      uint64_t Issue = Bus.reserve(T);
      ++R.BusTransfers;
      ++R.HoistedTransfers;
      R.BusContentionStallCycles += Issue - T;
      uint64_t Arrive = Issue + MoveLat;
      if (Arrive > End) {
        R.MoveLatencyStallCycles += Arrive - End;
        End = Arrive;
      }
    }

    // Replay the block's scheduled intercluster moves against the live bus.
    for (unsigned S : BD.Sched->MoveIssue) {
      uint64_t Want = T + S;
      uint64_t Issue = Bus.reserve(Want);
      ++R.BusTransfers;
      R.BusContentionStallCycles += Issue - Want;
      End = std::max(End, Issue + MoveLat);
    }

    // Memory accesses: consume this execution's object ids and pay the
    // remote-access protocol for objects homed on another cluster.
    for (const MemOpInfo &MO : BD.MemOps) {
      const auto &Stream = Trace.AccessObj[Ev.Func][MO.OpId];
      uint32_t &Cursor = NextAccess[Ev.Func][MO.OpId];
      if (Cursor >= Stream.size())
        return InputError(formatStr(
            "access stream of operation (%u, %u) exhausted after %u events "
            "(trace/profile mismatch)",
            Ev.Func, MO.OpId, Cursor));
      int32_t Obj = Stream[Cursor++];
      int Home = Obj >= 0 && static_cast<unsigned>(Obj) <
                                 Placement.getNumObjects()
                     ? Placement.getHome(static_cast<unsigned>(Obj))
                     : -1;
      if (Home < 0 || static_cast<unsigned>(Home) == MO.Cluster) {
        ++R.LocalAccesses; // Unified memory or home-cluster access: the
                           // static schedule already paid for it.
        continue;
      }
      ++R.RemoteAccesses;
      // Request transfer to the home cluster...
      uint64_t Want = T + MO.IssueCycle;
      uint64_t ReqIssue = Bus.reserve(Want);
      ++R.BusTransfers;
      R.BusContentionStallCycles += ReqIssue - Want;
      uint64_t ReqArrive = ReqIssue + MoveLat;
      // ...service at a home memory port...
      uint64_t Port = Ports[static_cast<unsigned>(Home)].reserve(ReqArrive);
      R.MemPortStallCycles += Port - ReqArrive;
      uint64_t Done = Port + MO.Latency;
      // ...and for loads, the reply transfer back.
      if (MO.IsLoad) {
        uint64_t RepIssue = Bus.reserve(Done);
        ++R.BusTransfers;
        R.BusContentionStallCycles += RepIssue - Done;
        Done = RepIssue + MoveLat;
        R.MoveLatencyStallCycles += 2ull * MoveLat;
      } else {
        R.MoveLatencyStallCycles += MoveLat;
      }
      End = std::max(End, Done);
    }

    LastBlock[Ev.Func] = static_cast<int>(Ev.Block);
    T = End;
  }
  R.Cycles = T;

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
  if (!PP.Trace)
    return Usage("prepared program carries no execution trace; call "
                 "prepareProgram(P, MaxSteps, /*CaptureTrace=*/true)");
  if (R.Schedule.Blocks.empty())
    return Usage("result carries no schedule; simulate only a successful "
                 "runStrategy result");
  MachineModel MM = machineFor(Opt);
  return simulateTrace(*PP.Analyses, *PP.Trace, MM, R.Assignment,
                       R.Schedule, R.Placement);
}

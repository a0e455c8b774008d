//===- sched/ListScheduler.cpp - Cluster-aware VLIW scheduling --------------===//

#include "sched/ListScheduler.h"

#include "machine/MachineModel.h"
#include "profile/ProfileData.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

using namespace gdp;

namespace {

/// Per-cycle resource tracker: cluster function units plus the global bus.
class ResourceTable {
public:
  ResourceTable(const MachineModel &MM) : MM(MM) {}

  /// Earliest cycle >= \p Earliest with a free unit of \p Kind on
  /// \p Cluster; reserves it.
  unsigned reserveFU(unsigned Cluster, FUKind Kind, unsigned Earliest) {
    unsigned Count = MM.getFUCount(Cluster, Kind);
    assert(Count > 0 && "operation kind has no unit on this cluster");
    unsigned Cycle = Earliest;
    for (;; ++Cycle) {
      grow(Cycle);
      if (FUUsed[Cycle][Cluster][static_cast<unsigned>(Kind)] < Count) {
        ++FUUsed[Cycle][Cluster][static_cast<unsigned>(Kind)];
        return Cycle;
      }
    }
  }

  /// Earliest cycle >= \p Earliest with a free bus issue slot; reserves it.
  unsigned reserveBus(unsigned Earliest) {
    unsigned BW = std::max(1u, MM.getMoveBandwidth());
    unsigned Cycle = Earliest;
    for (;; ++Cycle) {
      grow(Cycle);
      if (BusUsed[Cycle] < BW) {
        ++BusUsed[Cycle];
        return Cycle;
      }
    }
  }

private:
  void grow(unsigned Cycle) {
    while (FUUsed.size() <= Cycle) {
      FUUsed.emplace_back(MM.getNumClusters());
      for (auto &PerCluster : FUUsed.back())
        PerCluster.assign(4, 0);
      BusUsed.push_back(0);
    }
  }

  const MachineModel &MM;
  // FUUsed[cycle][cluster][fu kind] — kinds 0..3 (interconnect excluded).
  std::vector<std::vector<std::vector<unsigned>>> FUUsed;
  std::vector<unsigned> BusUsed;
};

} // namespace

BlockSchedule gdp::scheduleBlock(const BlockDFG &DFG, const MachineModel &MM,
                                 const std::vector<int> &ClusterOfOp) {
  unsigned N = DFG.size();
  BlockSchedule Result;
  Result.IssueCycle.assign(N, 0);
  if (N == 0)
    return Result;

  auto ClusterOf = [&](unsigned Local) {
    unsigned OpId = static_cast<unsigned>(DFG.getOp(Local).getId());
    assert(OpId < ClusterOfOp.size() && "assignment table too small");
    int C = ClusterOfOp[OpId];
    assert(C >= 0 && static_cast<unsigned>(C) < MM.getNumClusters() &&
           "operation assigned to a nonexistent cluster");
    return static_cast<unsigned>(C);
  };
  auto Lat = [&](unsigned Local) {
    return MM.getLatency(DFG.getOp(Local).getOpcode());
  };

  // --- Priorities: height (critical path to the block end), cluster blind.
  std::vector<unsigned> Height(N, 0);
  for (unsigned I = N; I-- > 0;) {
    unsigned H = Lat(I);
    for (unsigned E : DFG.succs(I)) {
      const BlockDFG::Edge &Edge = DFG.edges()[E];
      unsigned Delay = Edge.Kind == BlockDFG::EdgeKind::Data
                           ? Lat(I)
                           : (Edge.Kind == BlockDFG::EdgeKind::Mem ? 1 : 0);
      H = std::max(H, Delay + Height[Edge.To]);
    }
    Height[I] = H;
  }

  ResourceTable Resources(MM);
  std::vector<unsigned> ReadyTime(N, 0);
  std::vector<unsigned> InDegree(N, 0);
  for (const auto &Edge : DFG.edges())
    ++InDegree[Edge.To];

  // --- Live-in values: a value produced on another cluster (in another
  // block or a previous iteration) must be moved in before its first use.
  // One move per (producer, destination cluster).
  std::map<std::pair<int, unsigned>, unsigned> LiveInMoveReady;
  std::set<std::pair<int, unsigned>> HoistedTransfers;
  for (const auto &LI : DFG.liveIns()) {
    if (LI.DefOpId < 0)
      continue; // Parameters carry no move cost (see DefUse.h).
    unsigned UserCluster = ClusterOf(LI.LocalUser);
    unsigned DefOpId = static_cast<unsigned>(LI.DefOpId);
    assert(DefOpId < ClusterOfOp.size() && "assignment table too small");
    if (static_cast<unsigned>(ClusterOfOp[DefOpId]) == UserCluster)
      continue;
    if (LI.Hoistable) {
      // Loop-invariant: the transfer sits in the loop preheader, so the
      // value is already local when the block starts. Paid per loop
      // entry, accounted by the caller.
      if (HoistedTransfers.insert({LI.DefOpId, UserCluster}).second)
        ++Result.HoistedMoves;
      continue;
    }
    auto Key = std::make_pair(LI.DefOpId, UserCluster);
    auto It = LiveInMoveReady.find(Key);
    if (It == LiveInMoveReady.end()) {
      unsigned Issue = Resources.reserveBus(0);
      ++Result.NumMoves;
      Result.MoveIssue.push_back(Issue);
      It = LiveInMoveReady.emplace(Key, Issue + MM.getMoveLatency()).first;
    }
    ReadyTime[LI.LocalUser] =
        std::max(ReadyTime[LI.LocalUser], It->second);
  }

  // --- Operation-driven list scheduling: highest height first among ready
  // operations; ties broken by program order.
  auto Better = [&](unsigned A, unsigned B) {
    if (Height[A] != Height[B])
      return Height[A] > Height[B];
    return A < B;
  };
  std::set<unsigned, decltype(Better)> Ready(Better);
  for (unsigned I = 0; I != N; ++I)
    if (InDegree[I] == 0)
      Ready.insert(I);

  // One intercluster move per (producer local index, destination cluster).
  std::map<std::pair<unsigned, unsigned>, unsigned> CrossMoveReady;
  unsigned Scheduled = 0;

  while (!Ready.empty()) {
    Result.ReadyPeak =
        std::max(Result.ReadyPeak, static_cast<unsigned>(Ready.size()));
    unsigned U = *Ready.begin();
    Ready.erase(Ready.begin());

    unsigned Cluster = ClusterOf(U);
    unsigned Issue = Resources.reserveFU(Cluster, DFG.getOp(U).getFUKind(),
                                         ReadyTime[U]);
    Result.IssueCycle[U] = Issue;
    ++Scheduled;
    Result.Length = std::max(Result.Length, Issue + std::max(1u, Lat(U)));

    for (unsigned E : DFG.succs(U)) {
      const BlockDFG::Edge &Edge = DFG.edges()[E];
      unsigned V = Edge.To;
      unsigned Avail = 0;
      switch (Edge.Kind) {
      case BlockDFG::EdgeKind::Data: {
        Avail = Issue + Lat(U);
        unsigned VCluster = ClusterOf(V);
        if (VCluster != Cluster) {
          auto Key = std::make_pair(U, VCluster);
          auto It = CrossMoveReady.find(Key);
          if (It == CrossMoveReady.end()) {
            unsigned MoveIssue = Resources.reserveBus(Avail);
            ++Result.NumMoves;
            Result.MoveIssue.push_back(MoveIssue);
            It = CrossMoveReady
                     .emplace(Key, MoveIssue + MM.getMoveLatency())
                     .first;
          }
          Avail = It->second;
        }
        break;
      }
      case BlockDFG::EdgeKind::Mem:
        Avail = Issue + 1;
        break;
      case BlockDFG::EdgeKind::Order:
        Avail = Issue;
        break;
      }
      ReadyTime[V] = std::max(ReadyTime[V], Avail);
      if (--InDegree[V] == 0)
        Ready.insert(V);
    }
  }
  assert(Scheduled == N && "dependence cycle in block DFG");
  std::sort(Result.MoveIssue.begin(), Result.MoveIssue.end());
  return Result;
}

ProgramSchedule gdp::scheduleProgram(const ProgramAnalyses &PA,
                                     const ProfileData &Prof,
                                     const MachineModel &MM,
                                     const ClusterAssignment &CA) {
  const Program &P = PA.program();
  ProgramSchedule Result;
  Result.Blocks.resize(P.getNumFunctions());

  // Issue slots per cycle across the whole machine (FU kinds 0..3; the
  // interconnect is accounted separately as moves).
  bool Observed = telemetry::enabled();
  uint64_t SlotsPerCycle = 0;
  if (Observed)
    for (unsigned C = 0; C != MM.getNumClusters(); ++C)
      for (unsigned K = 0; K != 4; ++K)
        SlotsPerCycle += MM.getFUCount(C, static_cast<FUKind>(K));

  uint64_t Blocks = 0, Ops = 0;
  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    const FunctionAnalyses &FA = PA.function(F);
    Result.Blocks[F].reserve(FA.numBlocks());
    for (unsigned B = 0; B != FA.numBlocks(); ++B) {
      const BlockDFG &DFG = FA.dfg(B);
      Result.Blocks[F].push_back(scheduleBlock(DFG, MM, CA.func(F)));
      const BlockSchedule &BS = Result.Blocks[F].back();
      uint64_t Freq = Prof.getBlockFreq(F, B);
      Result.TotalCycles += static_cast<uint64_t>(BS.Length) * Freq;
      Result.DynamicMoves += static_cast<uint64_t>(BS.NumMoves) * Freq;
      Result.DynamicMoves += static_cast<uint64_t>(BS.HoistedMoves) *
                             FA.loops().entryCountOf(B, F, Prof);
      Result.StaticMoves += BS.NumMoves + BS.HoistedMoves;
      ++Blocks;
      Ops += DFG.size();
      if (Observed && BS.Length > 0 && SlotsPerCycle > 0) {
        telemetry::value("sched.block_length",
                         static_cast<double>(BS.Length));
        telemetry::value("sched.ready_list_peak",
                         static_cast<double>(BS.ReadyPeak));
        telemetry::value("sched.issue_slot_utilization",
                         static_cast<double>(DFG.size()) /
                             (static_cast<double>(BS.Length) *
                              static_cast<double>(SlotsPerCycle)));
      }
    }
  }
  if (Observed) {
    telemetry::counter("sched.program_runs");
    telemetry::counter("sched.blocks_scheduled", Blocks);
    telemetry::counter("sched.ops_scheduled", Ops);
    telemetry::counter("sched.static_moves", Result.StaticMoves);
  }
  return Result;
}

//===- partition/RHOP.cpp - Region-level operation partitioning -------------===//

#include "partition/RHOP.h"

#include "machine/MachineModel.h"
#include "profile/ProfileData.h"
#include "sched/BlockDFG.h"
#include "sched/Estimator.h"
#include "support/Arena.h"
#include "support/Random.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace gdp;

namespace {

/// Event counts of one runRHOP() call, aggregated across regions and
/// flushed to telemetry once (cheap local increments on the hot path).
struct RhopStats {
  uint64_t Regions = 0;
  uint64_t CoarsenLevels = 0;
  uint64_t RefinePasses = 0;
  uint64_t GroupMoves = 0;
  uint64_t LockedOps = 0;
};

/// Buffers reused across every region and pass of one runRHOP() call.
struct RhopScratch {
  explicit RhopScratch(support::Arena *A) : Order(A), Count(A), Est(A) {}
  support::ArenaVector<unsigned> Order; ///< Shuffled group visit order.
  support::ArenaVector<unsigned> Count; ///< Ops/cluster (balance tie-break).
  ScheduleEstimator::State Est;         ///< The region being refined.
};

/// Everything about one region that does not depend on the evolving
/// assignment: the estimator's precomputed tables, the slack-weighted
/// coarsening hierarchy, and per-level member lists / lock summaries.
/// Locks are fixed for the whole runRHOP() call and coarsening consumes
/// no randomness, so the plan is identical across function passes —
/// build it once per block and sweep it as often as needed.
///
/// The hierarchy is stored flat (structure-of-arrays) on the run's arena:
/// the groups of level L occupy global slots
/// [LevelGroupOff[L], LevelGroupOff[L+1]); slot S's member local indices
/// (ascending) are MemberIds[MemberOff[S], MemberOff[S+1]); GroupLock[S]
/// is S's pinned cluster or -1.
struct RegionPlan {
  explicit RegionPlan(support::Arena *A)
      : A(A), OpIds(A), LockOf(A), LockedAssigns(A), LevelGroupOff(A),
        MemberOff(A), MemberIds(A), GroupLock(A) {}

  bool Built = false;
  support::Arena *A;
  support::ArenaVector<unsigned> OpIds; ///< local op → function-wide op id
  support::ArenaVector<int> LockOf;     ///< local op → locked cluster or -1
  support::ArenaVector<std::pair<unsigned, int>> LockedAssigns; ///< (id, c)
  unsigned Levels = 0;
  support::ArenaVector<unsigned> LevelGroupOff; ///< Levels + 1 slots.
  support::ArenaVector<uint32_t> MemberOff;     ///< totalGroups + 1.
  support::ArenaVector<unsigned> MemberIds;     ///< N per level.
  support::ArenaVector<int> GroupLock;          ///< totalGroups.
  std::optional<ScheduleEstimator> Est;

  unsigned groupsAt(unsigned Level) const {
    return LevelGroupOff[Level + 1] - LevelGroupOff[Level];
  }
};

/// Slack-derived weight per DFG edge index (data edges only; 0 others).
std::vector<uint64_t> computeSlackWeights(const BlockDFG &DFG,
                                          const MachineModel &MM) {
  unsigned N = DFG.size();
  auto Lat = [&](unsigned I) {
    return MM.getLatency(DFG.getOp(I).getOpcode());
  };
  auto Delay = [&](const BlockDFG::Edge &E) -> unsigned {
    switch (E.Kind) {
    case BlockDFG::EdgeKind::Data:
      return Lat(E.From);
    case BlockDFG::EdgeKind::Mem:
      return 1;
    case BlockDFG::EdgeKind::Order:
      return 0;
    }
    return 0;
  };

  // ASAP (program order is topological).
  std::vector<unsigned> ASAP(N, 0);
  unsigned Len = 0;
  for (unsigned I = 0; I != N; ++I) {
    for (unsigned E : DFG.preds(I)) {
      const auto &Edge = DFG.edges()[E];
      ASAP[I] = std::max(ASAP[I], ASAP[Edge.From] + Delay(Edge));
    }
    Len = std::max(Len, ASAP[I] + std::max(1u, Lat(I)));
  }
  // ALAP.
  std::vector<unsigned> ALAP(N, Len);
  for (unsigned I = N; I-- > 0;) {
    ALAP[I] = Len - std::max(1u, Lat(I));
    for (unsigned E : DFG.succs(I)) {
      const auto &Edge = DFG.edges()[E];
      unsigned Bound = ALAP[Edge.To] >= Delay(Edge)
                           ? ALAP[Edge.To] - Delay(Edge)
                           : 0;
      ALAP[I] = std::min(ALAP[I], Bound);
    }
  }

  // Edge weight: (maxSlack + 1 - slack) for data edges, so slack-0 edges
  // coarsen first (paper §3.4: low slack ⇒ high weight ⇒ critical).
  std::vector<uint64_t> EdgeWeight(DFG.edges().size(), 0);
  unsigned MaxSlack = 0;
  std::vector<unsigned> Slack(DFG.edges().size(), 0);
  for (unsigned E = 0; E != DFG.edges().size(); ++E) {
    const auto &Edge = DFG.edges()[E];
    if (Edge.Kind != BlockDFG::EdgeKind::Data)
      continue;
    unsigned S = ALAP[Edge.To] - std::min(ALAP[Edge.To],
                                          ASAP[Edge.From] + Delay(Edge));
    Slack[E] = S;
    MaxSlack = std::max(MaxSlack, S);
  }
  for (unsigned E = 0; E != DFG.edges().size(); ++E)
    if (DFG.edges()[E].Kind == BlockDFG::EdgeKind::Data)
      EdgeWeight[E] = MaxSlack + 1 - Slack[E];
  return EdgeWeight;
}

void buildPlan(RegionPlan &Plan, const BlockDFG &DFG, const MachineModel &MM,
               const std::vector<int> *Locks) {
  unsigned N = DFG.size();
  Plan.OpIds.resize(N);
  Plan.LockOf.assign(N, -1);
  for (unsigned I = 0; I != N; ++I) {
    Plan.OpIds[I] = static_cast<unsigned>(DFG.getOp(I).getId());
    if (Locks) {
      int L = (*Locks)[Plan.OpIds[I]];
      Plan.LockOf[I] = L;
      if (L >= 0)
        Plan.LockedAssigns.push_back({Plan.OpIds[I], L});
    }
  }
  Plan.Built = true;
  if (MM.getNumClusters() == 1)
    return; // Locks are all a single-cluster machine needs.

  Plan.Est.emplace(DFG, MM, Plan.A);
  std::vector<uint64_t> EdgeWeight = computeSlackWeights(DFG, MM);

  // --- Coarsen: heaviest-edge matching over slack weights.
  // GroupOf[level][local op] — group ids at each coarsening level.
  std::vector<std::vector<unsigned>> GroupOfLevel;
  std::vector<unsigned> NumGroupsAt;

  // Level 0: singletons.
  std::vector<unsigned> Current(N);
  for (unsigned I = 0; I != N; ++I)
    Current[I] = I;
  unsigned NumGroups = N;
  GroupOfLevel.push_back(Current);
  NumGroupsAt.push_back(NumGroups);

  unsigned Target = std::max(4u, 2 * MM.getNumClusters());

  // Per-stage buffers, reused (capacity survives clear()).
  std::vector<std::pair<uint64_t, uint64_t>> GroupEdges; // (A<<32|B, weight)

  while (NumGroups > Target) {
    // Aggregate inter-group edge weights at the current level: collect
    // packed (min,max) keys, sort, and merge duplicates in place. The
    // merged list is ascending by (A, B) — the same order the old
    // std::map accumulator iterated in.
    GroupEdges.clear();
    for (unsigned E = 0; E != DFG.edges().size(); ++E) {
      if (EdgeWeight[E] == 0)
        continue;
      unsigned A = Current[DFG.edges()[E].From];
      unsigned B = Current[DFG.edges()[E].To];
      if (A == B)
        continue;
      if (A > B)
        std::swap(A, B);
      GroupEdges.push_back({(uint64_t(A) << 32) | B, EdgeWeight[E]});
    }
    if (GroupEdges.empty())
      break;
    std::sort(GroupEdges.begin(), GroupEdges.end(),
              [](const auto &L, const auto &R) { return L.first < R.first; });
    size_t Out = 0;
    for (size_t I = 0; I != GroupEdges.size(); ++I) {
      if (Out && GroupEdges[Out - 1].first == GroupEdges[I].first)
        GroupEdges[Out - 1].second += GroupEdges[I].second;
      else
        GroupEdges[Out++] = GroupEdges[I];
    }
    GroupEdges.resize(Out);

    // Group locks at this level (-1 free; ≥0 pinned; merging two groups
    // pinned to different clusters is forbidden).
    std::vector<int> GroupLock(NumGroups, -1);
    for (unsigned I = 0; I != N; ++I) {
      int L = Plan.LockOf[I];
      if (L < 0)
        continue;
      assert((GroupLock[Current[I]] < 0 || GroupLock[Current[I]] == L) &&
             "conflicting locks fused during coarsening");
      GroupLock[Current[I]] = L;
    }

    // Heaviest-edge matching: each group merged at most once per stage.
    // (weight desc, key asc) is a total order, so the sort result does
    // not depend on the pre-sort arrangement.
    std::vector<std::pair<uint64_t, uint64_t>> Sorted; // (weight, A<<32|B)
    Sorted.reserve(GroupEdges.size());
    for (const auto &[Key, W] : GroupEdges)
      Sorted.push_back({W, Key});
    std::sort(Sorted.begin(), Sorted.end(),
              [](const auto &A, const auto &B) {
                if (A.first != B.first)
                  return A.first > B.first;
                return A.second < B.second;
              });

    std::vector<int> MergeInto(NumGroups, -1);
    std::vector<bool> Matched(NumGroups, false);
    unsigned NumMerges = 0;
    for (const auto &[W, Key] : Sorted) {
      unsigned A = static_cast<unsigned>(Key >> 32);
      unsigned B = static_cast<unsigned>(Key & 0xffffffffu);
      if (Matched[A] || Matched[B])
        continue;
      if (GroupLock[A] >= 0 && GroupLock[B] >= 0 &&
          GroupLock[A] != GroupLock[B])
        continue;
      if (NumGroups - NumMerges <= Target)
        break;
      Matched[A] = Matched[B] = true;
      MergeInto[B] = static_cast<int>(A);
      ++NumMerges;
    }
    if (NumMerges == 0)
      break;

    // Renumber into the next level.
    std::vector<int> NewId(NumGroups, -1);
    unsigned Next = 0;
    for (unsigned G = 0; G != NumGroups; ++G) {
      if (MergeInto[G] >= 0)
        continue;
      NewId[G] = static_cast<int>(Next++);
    }
    for (unsigned G = 0; G != NumGroups; ++G)
      if (MergeInto[G] >= 0)
        NewId[G] = NewId[static_cast<unsigned>(MergeInto[G])];

    for (unsigned I = 0; I != N; ++I)
      Current[I] = static_cast<unsigned>(NewId[Current[I]]);
    NumGroups = Next;
    GroupOfLevel.push_back(Current);
    NumGroupsAt.push_back(NumGroups);
  }

  // --- Per-level member lists and lock summaries, flattened. Counting
  // sort per level: members come out ascending within each group, the
  // order the old per-group push_back loop produced.
  Plan.Levels = static_cast<unsigned>(GroupOfLevel.size());
  unsigned TotalGroups = 0;
  for (unsigned Level = 0; Level != Plan.Levels; ++Level)
    TotalGroups += NumGroupsAt[Level];
  Plan.LevelGroupOff.resize(Plan.Levels + 1);
  Plan.MemberOff.assign(TotalGroups + 1, 0);
  Plan.MemberIds.resize(static_cast<size_t>(N) * Plan.Levels);
  Plan.GroupLock.assign(TotalGroups, -1);

  unsigned GBase = 0;
  for (unsigned Level = 0; Level != Plan.Levels; ++Level) {
    Plan.LevelGroupOff[Level] = GBase;
    const auto &GroupOf = GroupOfLevel[Level];
    for (unsigned I = 0; I != N; ++I) {
      ++Plan.MemberOff[GBase + GroupOf[I] + 1];
      int L = Plan.LockOf[I];
      if (L >= 0)
        Plan.GroupLock[GBase + GroupOf[I]] = L;
    }
    GBase += NumGroupsAt[Level];
  }
  Plan.LevelGroupOff[Plan.Levels] = GBase;
  for (unsigned S = 0; S != TotalGroups; ++S)
    Plan.MemberOff[S + 1] += Plan.MemberOff[S];
  // Fill via a sliding cursor copy of the start offsets.
  support::ArenaVector<uint32_t> Cursor(Plan.MemberOff.begin(),
                                        Plan.MemberOff.end() - 1,
                                        Plan.A);
  for (unsigned Level = 0; Level != Plan.Levels; ++Level) {
    const auto &GroupOf = GroupOfLevel[Level];
    unsigned Base = Plan.LevelGroupOff[Level];
    for (unsigned I = 0; I != N; ++I)
      Plan.MemberIds[Cursor[Base + GroupOf[I]]++] = I;
  }
}

/// Greedy group moves at one coarsening level. Scratch.Est and
/// Scratch.Count describe \p Assign on entry and are kept in step with it.
void refineLevel(const RegionPlan &Plan, unsigned Level,
                 std::vector<int> &Assign, const MachineModel &MM,
                 Random &RNG, RhopStats &RS, RhopScratch &Scratch) {
  ScheduleEstimator::State &Est = Scratch.Est;
  auto &Count = Scratch.Count;
  unsigned NumClusters = MM.getNumClusters();
  unsigned GBase = Plan.LevelGroupOff[Level];
  unsigned NumGroups = Plan.groupsAt(Level);

  // Max ops on any one cluster once Size ops go from From to To — the
  // tie-break metric.
  auto BalanceAfter = [&](unsigned From, unsigned To, unsigned Size) {
    unsigned Max = 0;
    for (unsigned C = 0; C != NumClusters; ++C)
      Max = std::max(Max, Count[C] - (C == From ? Size : 0) +
                              (C == To ? Size : 0));
    return Max;
  };

  // Lexicographic objective: estimated schedule length, then
  // intercluster transfer count (moves the estimate hides still cost
  // real bandwidth and energy), then operation balance. A score is a pure
  // function of the assignment, so each trial is scored from whichever
  // placement is current; a trial that beats the best so far is
  // committed, any other is undone, and the current score is carried
  // from group to group and across passes instead of being recomputed.
  auto CurScore = std::make_tuple(Est.length(), Est.moves(),
                                  *std::max_element(Count.begin(),
                                                    Count.end()));

  // Persistent, deterministically shuffled visit order.
  auto &Order = Scratch.Order;
  for (unsigned Pass = 0; Pass != 4; ++Pass) {
    bool Moved = false;
    Order.resize(NumGroups);
    for (unsigned G = 0; G != NumGroups; ++G)
      Order[G] = G;
    for (unsigned I = NumGroups; I > 1; --I)
      std::swap(Order[I - 1], Order[RNG.nextBelow(I)]);

    for (unsigned G : Order) {
      uint32_t Begin = Plan.MemberOff[GBase + G];
      uint32_t End = Plan.MemberOff[GBase + G + 1];
      if (Plan.GroupLock[GBase + G] >= 0 || Begin == End)
        continue;
      const unsigned *Members = Plan.MemberIds.data();
      unsigned Size = End - Begin;
      // Representative: first (smallest) member local index.
      unsigned Cur = Est.clusterOf(Members[Begin]);
      auto BestScore = CurScore;
      unsigned Best = Cur;
      for (unsigned C = 0; C != NumClusters; ++C) {
        if (C == Cur)
          continue;
        // A trial longer than the best can never win (strict <).
        if (Est.tryMove(Members + Begin, Members + End, C,
                        std::get<0>(BestScore))) {
          auto S = std::make_tuple(Est.length(), Est.moves(),
                                   BalanceAfter(Best, C, Size));
          if (S < BestScore) {
            Est.commit();
            Count[Best] -= Size;
            Count[C] += Size;
            Best = C;
            BestScore = S;
            continue;
          }
        }
        Est.undo();
      }
      CurScore = BestScore;
      if (Best != Cur) {
        for (uint32_t M = Begin; M != End; ++M)
          Assign[Plan.OpIds[Members[M]]] = static_cast<int>(Best);
        Moved = true;
        ++RS.GroupMoves;
      }
    }
    ++RS.RefinePasses;
    if (!Moved)
      break;
  }
}

/// One refinement sweep over one region: apply locks, then uncoarsen the
/// cached hierarchy from the top, refining at every level.
void runRegion(const BlockDFG &DFG, RegionPlan &Plan, const MachineModel &MM,
               const std::vector<int> *Locks, std::vector<int> &Assign,
               Random &RNG, RhopStats &RS, RhopScratch &Scratch) {
  unsigned N = DFG.size();
  if (N == 0)
    return;
  if (!Plan.Built)
    buildPlan(Plan, DFG, MM, Locks);
  ++RS.Regions;

  // Apply locks up front; locked operations never move.
  for (const auto &[Id, L] : Plan.LockedAssigns) {
    Assign[Id] = L;
    ++RS.LockedOps;
  }
  if (MM.getNumClusters() == 1)
    return;

  RS.CoarsenLevels += Plan.Levels - 1;

  // Groups must start internally consistent: align every member of a
  // top-level group with the group's representative (locks win). Each
  // level's groups split the groups of the level above, and refinement
  // moves whole groups, so every finer level starts consistent too and
  // one estimate, loaded here, serves the whole hierarchy.
  unsigned GBase = Plan.LevelGroupOff[Plan.Levels - 1];
  for (unsigned G = 0, E = Plan.groupsAt(Plan.Levels - 1); G != E; ++G) {
    uint32_t Begin = Plan.MemberOff[GBase + G];
    uint32_t End = Plan.MemberOff[GBase + G + 1];
    if (Begin == End)
      continue;
    int Cluster = Plan.GroupLock[GBase + G] >= 0
                      ? Plan.GroupLock[GBase + G]
                      : Assign[Plan.OpIds[Plan.MemberIds[Begin]]];
    for (uint32_t M = Begin; M != End; ++M) {
      unsigned Local = Plan.MemberIds[M];
      if (Plan.LockOf[Local] < 0)
        Assign[Plan.OpIds[Local]] = Cluster;
    }
  }
  Scratch.Est.load(*Plan.Est, Assign);
  // Ops per cluster, for the balance tie-break.
  auto &Count = Scratch.Count;
  Count.assign(MM.getNumClusters(), 0);
  for (unsigned Id : Plan.OpIds)
    ++Count[static_cast<unsigned>(Assign[Id])];

  for (unsigned Level = Plan.Levels; Level-- > 0;)
    refineLevel(Plan, Level, Assign, MM, RNG, RS, Scratch);
}

} // namespace

ClusterAssignment gdp::runRHOP(const ProgramAnalyses &PA,
                               const ProfileData &Prof,
                               const MachineModel &MM, const LockMap *Locks) {
  (void)Prof; // Frequencies shape the program-level pass; regions are
              // independent here (each block optimized on its own).
  const Program &P = PA.program();
  ClusterAssignment CA(P);
  Random RNG(/*Seed=*/1);
  RhopStats RS;

  // Region plans, estimator tables, and refinement scratch all live on
  // the calling thread's arena for the duration of this call; the arena
  // is released (blocks kept warm) on return.
  support::ScratchArena Scope;
  support::Arena *A = &Scope.arena();
  RhopScratch Scratch(A);

  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    const FunctionAnalyses &FA = PA.function(F);
    const std::vector<int> *FuncLocks = Locks ? &(*Locks)[F] : nullptr;

    // Region plans are built lazily and reused across function passes.
    std::vector<RegionPlan> Plans;
    Plans.reserve(FA.numBlocks());
    for (unsigned B = 0; B != FA.numBlocks(); ++B)
      Plans.emplace_back(A);

    // Two sweeps over the regions: the second lets cross-block producer
    // placements settle.
    for (unsigned Pass = 0; Pass != 2; ++Pass)
      for (int B : FA.cfg().reversePostOrder()) {
        unsigned BI = static_cast<unsigned>(B);
        runRegion(FA.dfg(BI), Plans[BI], MM, FuncLocks, CA.func(F), RNG, RS,
                  Scratch);
      }
  }

  if (telemetry::enabled()) {
    telemetry::counter("rhop.runs");
    telemetry::counter("rhop.regions", RS.Regions);
    telemetry::counter("rhop.coarsen_levels", RS.CoarsenLevels);
    telemetry::counter("rhop.refine_passes", RS.RefinePasses);
    telemetry::counter("rhop.group_moves", RS.GroupMoves);
    telemetry::counter("rhop.locked_ops", RS.LockedOps);
  }
  return CA;
}

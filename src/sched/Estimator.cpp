//===- sched/Estimator.cpp - Schedule-length estimation ---------------------===//

#include "sched/Estimator.h"

#include "ir/Operation.h"
#include "machine/MachineModel.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <tuple>

using namespace gdp;

namespace {

unsigned ceilDiv(unsigned A, unsigned B) { return (A + B - 1) / B; }

/// Fills \p Off (size + 1 slots) with the exclusive prefix sums of the
/// per-slot counts in \p Off[1..].
void prefixSum(support::ArenaVector<uint32_t> &Off) {
  for (size_t I = 1; I < Off.size(); ++I)
    Off[I] += Off[I - 1];
}

/// The largest of \p Value(I) for I in [0, \p N) and how many reach it.
template <typename Fn>
std::pair<unsigned, unsigned> maxWithCount(unsigned N, Fn Value) {
  unsigned Max = 0, Count = 0;
  for (unsigned I = 0; I != N; ++I) {
    unsigned V = Value(I);
    if (V > Max) {
      Max = V;
      Count = 1;
    } else if (V == Max) {
      ++Count;
    }
  }
  return {Max, Count};
}

/// Makes room for \p Size slots in a state buffer, at least doubling its
/// capacity when it grows: a State is reloaded for regions of every size,
/// and an arena does not take back the buffers it outgrows.
template <typename T> void reserveFor(support::ArenaVector<T> &V, size_t Size) {
  if (V.capacity() < Size)
    V.reserve(std::max(Size, 2 * V.capacity()));
}

} // namespace

ScheduleEstimator::ScheduleEstimator(const BlockDFG &DFG,
                                     const MachineModel &MM,
                                     support::Arena *A)
    : Dur(A), OpIds(A), Kind(A), FUCount(A), SuccOff(A), SuccTo(A),
      SuccIsData(A), PredOff(A), PredFrom(A), PredBase(A), PredIsData(A),
      LiveOff(A), LiveKeys(A), LiveDefId(A), ProducedKey(A), KeyUserOff(A),
      KeyUsers(A) {
  N = DFG.size();
  NumClusters = MM.getNumClusters();
  MoveLat = MM.getMoveLatency();
  BW = std::max(1u, MM.getMoveBandwidth());

  std::vector<unsigned> Latency(N);
  Dur.resize(N);
  OpIds.resize(N);
  Kind.resize(N);
  for (unsigned I = 0; I != N; ++I) {
    const Operation &Op = DFG.getOp(I);
    Latency[I] = MM.getLatency(Op.getOpcode());
    Dur[I] = std::max(1u, Latency[I]);
    OpIds[I] = static_cast<unsigned>(Op.getId());
    Kind[I] = static_cast<uint8_t>(Op.getFUKind());
  }

  FUCount.resize(NumClusters * 4);
  for (unsigned C = 0; C != NumClusters; ++C)
    for (unsigned K = 0; K != 4; ++K)
      FUCount[C * 4 + K] = MM.getFUCount(C, static_cast<FUKind>(K));

  // A terminator issues no earlier than any other op of its block: the
  // DFG gives it an order edge (delay 0) from each. Those N - 1 edges are
  // not stored; the state tracks their maximum instead.
  unsigned OrderIntoLast = 0;
  if (N >= 2)
    for (unsigned E : DFG.preds(N - 1))
      OrderIntoLast += DFG.edges()[E].Kind == BlockDFG::EdgeKind::Order;
  LastWaitsForAll = N >= 2 && OrderIntoLast == N - 1;
  auto Stored = [&](const BlockDFG::Edge &Edge) {
    return !LastWaitsForAll || Edge.Kind != BlockDFG::EdgeKind::Order;
  };

  // Successor and predecessor arrays, each in the DFG's edge order.
  size_t NumEdges = DFG.edges().size() - (LastWaitsForAll ? N - 1 : 0);
  SuccOff.resize(N + 1);
  PredOff.resize(N + 1);
  SuccTo.reserve(NumEdges);
  SuccIsData.reserve(NumEdges);
  PredFrom.reserve(NumEdges);
  PredBase.reserve(NumEdges);
  PredIsData.reserve(NumEdges);
  for (unsigned I = 0; I != N; ++I) {
    SuccOff[I] = static_cast<uint32_t>(SuccTo.size());
    for (unsigned E : DFG.succs(I)) {
      const BlockDFG::Edge &Edge = DFG.edges()[E];
      if (!Stored(Edge))
        continue;
      SuccTo.push_back(Edge.To);
      SuccIsData.push_back(Edge.Kind == BlockDFG::EdgeKind::Data);
    }
    PredOff[I] = static_cast<uint32_t>(PredFrom.size());
    for (unsigned E : DFG.preds(I)) {
      const BlockDFG::Edge &Edge = DFG.edges()[E];
      if (!Stored(Edge))
        continue;
      unsigned Base = 0;
      switch (Edge.Kind) {
      case BlockDFG::EdgeKind::Data:
        Base = Latency[Edge.From];
        break;
      case BlockDFG::EdgeKind::Mem:
        Base = 1;
        break;
      case BlockDFG::EdgeKind::Order:
        Base = 0;
        break;
      }
      PredFrom.push_back(Edge.From);
      PredBase.push_back(Base);
      PredIsData.push_back(Edge.Kind == BlockDFG::EdgeKind::Data);
    }
  }
  SuccOff[N] = static_cast<uint32_t>(SuccTo.size());
  PredOff[N] = static_cast<uint32_t>(PredFrom.size());

  // Live producers: the distinct producing operations of the live-ins
  // that can need a transfer here (hoisted transfers are paid per loop
  // entry, not here; parameters cost nothing).
  std::vector<std::pair<unsigned, unsigned>> Uses; // (user, producer id)
  for (const auto &LI : DFG.liveIns())
    if (LI.DefOpId >= 0 && !LI.Hoistable)
      Uses.push_back({LI.LocalUser, static_cast<unsigned>(LI.DefOpId)});
  std::vector<unsigned> Defs;
  for (const auto &[User, Def] : Uses)
    Defs.push_back(Def);
  std::sort(Defs.begin(), Defs.end());
  Defs.erase(std::unique(Defs.begin(), Defs.end()), Defs.end());
  LiveDefId.assign(Defs.begin(), Defs.end());
  auto KeyOf = [&](unsigned Def) {
    return static_cast<uint32_t>(
        std::lower_bound(LiveDefId.begin(), LiveDefId.end(), Def) -
        LiveDefId.begin());
  };
  LiveOff.assign(N + 1, 0);
  for (const auto &[User, Def] : Uses)
    ++LiveOff[User + 1];
  prefixSum(LiveOff);
  LiveKeys.resize(Uses.size());
  {
    std::vector<uint32_t> Cursor(LiveOff.begin(), LiveOff.end() - 1);
    for (const auto &[User, Def] : Uses)
      LiveKeys[Cursor[User]++] = KeyOf(Def);
  }

  // Producers inside the region: a value defined at or after its use in
  // the same block reaches the use around the loop.
  unsigned NumKeys = static_cast<unsigned>(LiveDefId.size());
  ProducedKey.assign(N, -1);
  std::vector<int32_t> LocalOfKey(NumKeys, -1);
  if (NumKeys != 0)
    for (unsigned I = 0; I != N; ++I) {
      uint32_t K = KeyOf(OpIds[I]);
      if (K != NumKeys && LiveDefId[K] == OpIds[I]) {
        ProducedKey[I] = static_cast<int32_t>(K);
        LocalOfKey[K] = static_cast<int32_t>(I);
      }
    }
  KeyUserOff.assign(NumKeys + 1, 0);
  for (unsigned I = 0; I != N; ++I)
    for (uint32_t E = LiveOff[I]; E != LiveOff[I + 1]; ++E)
      if (LocalOfKey[LiveKeys[E]] >= 0)
        ++KeyUserOff[LiveKeys[E] + 1];
  prefixSum(KeyUserOff);
  KeyUsers.resize(KeyUserOff[NumKeys]);
  std::vector<uint32_t> Cursor(KeyUserOff.begin(), KeyUserOff.end() - 1);
  for (unsigned I = 0; I != N; ++I)
    for (uint32_t E = LiveOff[I]; E != LiveOff[I + 1]; ++E)
      if (LocalOfKey[LiveKeys[E]] >= 0)
        KeyUsers[Cursor[LiveKeys[E]]++] = I;
}

ScheduleEstimator::State::State(support::Arena *A)
    : Cl(A), LiveCl(A), KindCount(A), UsersAt(A), Start(A), Dirty(A),
      OldCl(A), StartLog(A) {}

unsigned ScheduleEstimator::State::startOf(unsigned Op) const {
  const ScheduleEstimator &E = *Est;
  unsigned C = Cl[Op];
  unsigned S = 0;
  for (uint32_t L = E.LiveOff[Op], End = E.LiveOff[Op + 1]; L != End; ++L)
    if (LiveCl[E.LiveKeys[L]] != C) {
      S = E.MoveLat;
      break;
    }
  for (uint32_t P = E.PredOff[Op], End = E.PredOff[Op + 1]; P != End; ++P) {
    unsigned From = E.PredFrom[P];
    unsigned Ready = Start[From] + E.PredBase[P];
    if (E.PredIsData[P] && Cl[From] != C)
      Ready += E.MoveLat;
    S = std::max(S, Ready);
  }
  if (E.LastWaitsForAll && Op == E.N - 1)
    S = std::max(S, LatestStart.Max);
  return S;
}

unsigned ScheduleEstimator::State::resourceBound() const {
  unsigned Bound = 0;
  for (unsigned S = 0, End = Est->NumClusters * 4; S != End; ++S) {
    if (KindCount[S] == 0)
      continue;
    unsigned Units = Est->FUCount[S];
    assert(Units > 0 && "operations assigned to cluster without units");
    Bound = std::max(Bound, ceilDiv(KindCount[S], Units));
  }
  return Bound;
}

bool ScheduleEstimator::State::RunningMax::update(unsigned Old,
                                                  unsigned New) {
  if (New > Max) {
    Max = New;
    Count = 1;
    return true;
  }
  if (New == Max) {
    ++Count;
    return false;
  }
  return Old == Max && --Count == 0;
}

void ScheduleEstimator::State::recountFinish() {
  std::tie(Finish.Max, Finish.Count) = maxWithCount(
      Est->N, [&](unsigned I) { return Start[I] + Est->Dur[I]; });
}

void ScheduleEstimator::State::recountLatestStart() {
  std::tie(LatestStart.Max, LatestStart.Count) =
      maxWithCount(Est->N - 1, [&](unsigned I) { return Start[I]; });
}

void ScheduleEstimator::State::load(const ScheduleEstimator &E,
                                    const std::vector<int> &ClusterOfOp) {
  Est = &E;
  unsigned N = E.N, NC = E.NumClusters;
  auto ClusterOfId = [&](unsigned Id) {
    int C = ClusterOfOp[Id];
    assert(C >= 0 && "estimator needs a complete assignment");
    return static_cast<unsigned>(C);
  };

  reserveFor(Cl, N);
  Cl.resize(N);
  for (unsigned I = 0; I != N; ++I)
    Cl[I] = ClusterOfId(E.OpIds[I]);
  unsigned NumKeys = static_cast<unsigned>(E.LiveDefId.size());
  reserveFor(LiveCl, NumKeys);
  LiveCl.resize(NumKeys);
  for (unsigned K = 0; K != NumKeys; ++K)
    LiveCl[K] = ClusterOfId(E.LiveDefId[K]);

  KindCount.assign(NC * 4, 0);
  for (unsigned I = 0; I != N; ++I)
    ++KindCount[Cl[I] * 4 + E.Kind[I]];

  reserveFor(UsersAt, static_cast<size_t>(N + NumKeys) * NC);
  UsersAt.assign(static_cast<size_t>(N + NumKeys) * NC, 0);
  for (unsigned I = 0; I != N; ++I) {
    for (uint32_t P = E.PredOff[I]; P != E.PredOff[I + 1]; ++P)
      if (E.PredIsData[P])
        ++UsersAt[E.PredFrom[P] * NC + Cl[I]];
    for (uint32_t L = E.LiveOff[I]; L != E.LiveOff[I + 1]; ++L)
      ++UsersAt[(N + E.LiveKeys[L]) * NC + Cl[I]];
  }
  Moves = 0;
  for (unsigned K = 0; K != N + NumKeys; ++K) {
    unsigned From = K < N ? Cl[K] : LiveCl[K - N];
    for (unsigned C = 0; C != NC; ++C)
      Moves += C != From && UsersAt[K * NC + C] != 0;
  }

  // Program order is a topological order (all region edges point
  // forward).
  reserveFor(Start, N);
  Start.resize(N);
  for (unsigned I = 0; I != N; ++I) {
    if (E.LastWaitsForAll && I == N - 1)
      recountLatestStart();
    Start[I] = startOf(I);
  }
  recountFinish();
  reserveFor(Dirty, (N + 63) / 64);
  Dirty.assign((N + 63) / 64, 0);
  Len = std::max({resourceBound(), ceilDiv(Moves, E.BW), Finish.Max});
}

void ScheduleEstimator::State::place(unsigned Op, unsigned To) {
  const ScheduleEstimator &E = *Est;
  unsigned N = E.N, NC = E.NumClusters;
  unsigned From = Cl[Op];
  --KindCount[From * 4 + E.Kind[Op]];
  ++KindCount[To * 4 + E.Kind[Op]];

  // As a producer: a destination holding consumers stops needing a
  // transfer when the producer arrives there, and the one it leaves
  // starts needing one.
  auto Reseat = [&](unsigned Key) {
    const uint32_t *Users = &UsersAt[Key * NC];
    Moves += Users[From] != 0;
    Moves -= Users[To] != 0;
  };
  Reseat(Op);
  Cl[Op] = To;
  if (int32_t K = E.ProducedKey[Op]; K >= 0) {
    Reseat(N + static_cast<unsigned>(K));
    LiveCl[static_cast<unsigned>(K)] = To;
  }

  // As a consumer: a transfer exists while its destination holds a
  // consumer away from the producer.
  auto Reroute = [&](unsigned Key, unsigned ProducerCl) {
    uint32_t *Users = &UsersAt[Key * NC];
    if (--Users[From] == 0 && From != ProducerCl)
      --Moves;
    if (Users[To]++ == 0 && To != ProducerCl)
      ++Moves;
  };
  for (uint32_t P = E.PredOff[Op], End = E.PredOff[Op + 1]; P != End; ++P)
    if (E.PredIsData[P])
      Reroute(E.PredFrom[P], Cl[E.PredFrom[P]]);
  for (uint32_t L = E.LiveOff[Op], End = E.LiveOff[Op + 1]; L != End; ++L)
    Reroute(N + E.LiveKeys[L], LiveCl[E.LiveKeys[L]]);
}

bool ScheduleEstimator::State::tryMove(const unsigned *Begin,
                                       const unsigned *End, unsigned To,
                                       unsigned Bound) {
  const ScheduleEstimator &E = *Est;
  TrialBegin = Begin;
  TrialTo = To;
  SavedLen = Len;
  SavedMoves = Moves;
  SavedFinish = Finish;
  SavedLatestStart = LatestStart;
  OldCl.clear();
  StartLog.clear();
  for (const unsigned *M = Begin; M != End; ++M) {
    OldCl.push_back(Cl[*M]);
    if (Cl[*M] != To)
      place(*M, To);
  }
  unsigned Resource = resourceBound();
  unsigned Bus = ceilDiv(Moves, E.BW);
  if (std::max(Resource, Bus) > Bound)
    return false;

  // The cone: the moved operations, the consumers whose data edge or
  // live-in from them changed, and everything after a start that changes.
  unsigned Lo = ~0u, Hi = 0;
  auto Mark = [&](unsigned Op) {
    Dirty[Op >> 6] |= uint64_t(1) << (Op & 63);
    Lo = std::min(Lo, Op >> 6);
    Hi = std::max(Hi, Op >> 6);
  };
  for (const unsigned *M = Begin; M != End; ++M) {
    if (OldCl[static_cast<size_t>(M - Begin)] == To)
      continue;
    Mark(*M);
    for (uint32_t S = E.SuccOff[*M], SEnd = E.SuccOff[*M + 1]; S != SEnd; ++S)
      if (E.SuccIsData[S])
        Mark(E.SuccTo[S]);
    if (int32_t K = E.ProducedKey[*M]; K >= 0)
      for (uint32_t U = E.KeyUserOff[static_cast<unsigned>(K)],
                    UEnd = E.KeyUserOff[static_cast<unsigned>(K) + 1];
           U != UEnd; ++U)
        Mark(E.KeyUsers[U]);
  }
  // Marks only ever land after the operation being processed, so one
  // ascending sweep visits the cone in program (topological) order.
  unsigned Last = E.N - 1;
  for (unsigned W = Lo; W <= Hi; ++W) {
    while (Dirty[W] != 0) {
      unsigned Op = W * 64 + static_cast<unsigned>(std::countr_zero(Dirty[W]));
      Dirty[W] &= Dirty[W] - 1;
      if (E.LastWaitsForAll && Op == Last && LatestStart.Count == 0)
        recountLatestStart();
      unsigned S = startOf(Op);
      if (S == Start[Op])
        continue;
      unsigned Old = Start[Op];
      StartLog.push_back({Op, Old});
      Start[Op] = S;
      // The terminator waits for the latest start.
      if (E.LastWaitsForAll && Op != Last && LatestStart.update(Old, S))
        Mark(Last);
      if (S + E.Dur[Op] > Bound) {
        std::fill(Dirty.begin() + W, Dirty.begin() + Hi + 1, 0);
        return false;
      }
      Finish.update(Old + E.Dur[Op], S + E.Dur[Op]);
      for (uint32_t Succ = E.SuccOff[Op], SEnd = E.SuccOff[Op + 1];
           Succ != SEnd; ++Succ)
        Mark(E.SuccTo[Succ]);
    }
  }
  if (Finish.Count == 0)
    recountFinish();
  Len = std::max({Resource, Bus, Finish.Max});
  return Len <= Bound;
}

void ScheduleEstimator::State::commit() {
  OldCl.clear();
  StartLog.clear();
}

void ScheduleEstimator::State::undo() {
  const ScheduleEstimator &E = *Est;
  unsigned N = E.N, NC = E.NumClusters;
  for (const auto &[Op, S] : StartLog)
    Start[Op] = S;
  for (size_t I = OldCl.size(); I-- > 0;) {
    unsigned Op = TrialBegin[I], From = OldCl[I];
    if (From == TrialTo)
      continue;
    --KindCount[TrialTo * 4 + E.Kind[Op]];
    ++KindCount[From * 4 + E.Kind[Op]];
    Cl[Op] = From;
    if (int32_t K = E.ProducedKey[Op]; K >= 0)
      LiveCl[static_cast<unsigned>(K)] = From;
    auto Back = [&](unsigned Key) {
      --UsersAt[Key * NC + TrialTo];
      ++UsersAt[Key * NC + From];
    };
    for (uint32_t P = E.PredOff[Op], End = E.PredOff[Op + 1]; P != End; ++P)
      if (E.PredIsData[P])
        Back(E.PredFrom[P]);
    for (uint32_t L = E.LiveOff[Op], End = E.LiveOff[Op + 1]; L != End; ++L)
      Back(N + E.LiveKeys[L]);
  }
  Len = SavedLen;
  Moves = SavedMoves;
  Finish = SavedFinish;
  LatestStart = SavedLatestStart;
  OldCl.clear();
  StartLog.clear();
}

//===- graph/MultilevelPartitioner.cpp - Multilevel k-way cut ---------------===//

#include "graph/MultilevelPartitioner.h"

#include "graph/CSRGraph.h"
#include "graph/GainBucket.h"
#include "support/Arena.h"
#include "support/Random.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace gdp;

double GraphPartition::maxNormalizedLoad(
    const std::vector<uint64_t> &Totals) const {
  double Worst = 0;
  unsigned NumParts = static_cast<unsigned>(PartWeights.size());
  for (unsigned P = 0; P != NumParts; ++P)
    for (unsigned C = 0; C != Totals.size(); ++C) {
      if (Totals[C] == 0)
        continue;
      double Ideal = static_cast<double>(Totals[C]) / NumParts;
      Worst = std::max(Worst, static_cast<double>(PartWeights[P][C]) / Ideal);
    }
  return Worst;
}

namespace {

/// Allowed imbalance of a constraint the caller gave no tolerance for.
constexpr double DefaultTolerance = 0.15;
/// Coarsening stops when at most this many nodes remain.
constexpr unsigned CoarsenTargetNodes = 48;
/// Refinement passes per level.
constexpr unsigned MaxRefinePasses = 6;
/// Independent initial partitions tried at the coarsest level.
constexpr unsigned NumInitialTries = 4;

/// Per-part, per-constraint capacity table.
using CapacityTable = std::vector<std::vector<uint64_t>>;

/// Event counts of one partitionGraph() call, accumulated locally and
/// flushed to telemetry once at the end (keeps the hot loops branch-free).
struct RunStats {
  uint64_t RefinePasses = 0;
  uint64_t RefineMoves = 0;
  uint64_t SwapMoves = 0;
  uint64_t BalanceMoves = 0;
};

/// Scratch buffers shared by every pass and level of one partitionGraph()
/// call: the permutation buffer is re-shuffled in place, connectivity and
/// part-weight tables are resized once per level, and the gain bucket
/// reuses its handle table. Nothing here is allocated per pass; the flat
/// buffers live on the run's arena (PW keeps nested heap vectors — its
/// rows flow out as GraphPartition::PartWeights).
struct RefineContext {
  explicit RefineContext(support::Arena *A)
      : Order(A), Conn(A), Ideal(A), NormP(A), Bucket(A), Locked(A),
        Boundary(A), Match(A) {}

  support::ArenaVector<unsigned> Order;   ///< Shuffled visit order.
  support::ArenaVector<int64_t> Conn;     ///< Per-part connectivity.
  std::vector<std::vector<uint64_t>> PW;  ///< Per-part constraint weights.
  support::ArenaVector<double> Ideal;     ///< Per-constraint ideal load.
  support::ArenaVector<double> NormP;     ///< Per-part normalized load.
  GainBucket Bucket;
  support::ArenaVector<uint8_t> Locked;   ///< Moved-this-pass node marks.
  support::ArenaVector<unsigned> Boundary;///< swapPass candidate list.
  support::ArenaVector<int> Match;        ///< coarsenMatch partner table.
};

/// Shared helpers for one partitioning run.
struct Context {
  const GraphPartitionOptions &Opt;

  double tolerance(unsigned C) const {
    return C < Opt.Tolerances.size() ? Opt.Tolerances[C] : DefaultTolerance;
  }

  /// Fraction of the total weight part \p P may hold (uniform when no
  /// capacity shares were given).
  double shareOf(unsigned P) const {
    if (Opt.PartCapacityShares.empty())
      return 1.0 / Opt.NumParts;
    double Total = 0;
    for (unsigned Q = 0; Q != Opt.NumParts; ++Q)
      Total += Q < Opt.PartCapacityShares.size()
                   ? Opt.PartCapacityShares[Q]
                   : 1.0;
    double Mine =
        P < Opt.PartCapacityShares.size() ? Opt.PartCapacityShares[P] : 1.0;
    return Total > 0 ? Mine / Total : 1.0 / Opt.NumParts;
  }

  /// Per-part, per-constraint capacities, never below the heaviest single
  /// node so that a feasible assignment always exists.
  CapacityTable maxAllowed(const CSRGraph &G) const {
    const std::vector<uint64_t> &Totals = G.totalWeights();
    CapacityTable Result(Opt.NumParts,
                         std::vector<uint64_t>(Totals.size()));
    for (unsigned C = 0; C != Totals.size(); ++C) {
      uint64_t Heaviest = 0;
      for (unsigned N = 0; N != G.getNumNodes(); ++N)
        Heaviest = std::max(Heaviest, G.nodeWeight(N, C));
      for (unsigned P = 0; P != Opt.NumParts; ++P) {
        if (Totals[C] == 0) {
          Result[P][C] = std::numeric_limits<uint64_t>::max();
          continue;
        }
        double Cap = (1.0 + tolerance(C)) *
                     static_cast<double>(Totals[C]) * shareOf(P);
        // A feasible assignment must always exist, so the capacity is
        // never below the heaviest single node — plus that node's fair
        // share of the remaining weight, so small nodes that belong with
        // a giant one aren't forced out by a sliver of slack.
        double GiantCap =
            static_cast<double>(Heaviest) +
            (1.0 + tolerance(C)) *
                static_cast<double>(Totals[C] - Heaviest) * shareOf(P);
        Result[P][C] = static_cast<uint64_t>(std::max(Cap, GiantCap));
      }
    }
    return Result;
  }
};

void computePartWeightsInto(const CSRGraph &G,
                            const std::vector<unsigned> &Assign,
                            unsigned NumParts,
                            std::vector<std::vector<uint64_t>> &PW) {
  unsigned NumC = G.getNumConstraints();
  PW.resize(NumParts);
  for (auto &Part : PW)
    Part.assign(NumC, 0);
  for (unsigned N = 0; N != G.getNumNodes(); ++N) {
    const uint64_t *NW = G.nodeWeights(N);
    for (unsigned C = 0; C != NumC; ++C)
      PW[Assign[N]][C] += NW[C];
  }
}

std::vector<std::vector<uint64_t>>
computePartWeights(const CSRGraph &G, const std::vector<unsigned> &Assign,
                   unsigned NumParts) {
  std::vector<std::vector<uint64_t>> PW;
  computePartWeightsInto(G, Assign, NumParts, PW);
  return PW;
}

double normalizedLoad(const std::vector<std::vector<uint64_t>> &PW,
                      const std::vector<uint64_t> &Totals) {
  double Worst = 0;
  for (const auto &Part : PW)
    for (unsigned C = 0; C != Totals.size(); ++C) {
      if (Totals[C] == 0)
        continue;
      double Ideal =
          static_cast<double>(Totals[C]) / static_cast<double>(PW.size());
      Worst = std::max(Worst, static_cast<double>(Part[C]) / Ideal);
    }
  return Worst;
}

/// Normalized load of one part's weight vector against the ideal loads.
double normOfPart(const std::vector<uint64_t> &Part,
                  const support::ArenaVector<double> &Ideal) {
  double Worst = 0;
  for (unsigned C = 0; C != Ideal.size(); ++C)
    if (Ideal[C] > 0)
      Worst = std::max(Worst, static_cast<double>(Part[C]) / Ideal[C]);
  return Worst;
}

/// Re-shuffles the persistent permutation buffer in place (Fisher-Yates,
/// same draw sequence as a freshly built vector).
void shuffleNodesInto(support::ArenaVector<unsigned> &Order, unsigned N,
                      Random &RNG) {
  Order.resize(N);
  for (unsigned I = 0; I != N; ++I)
    Order[I] = I;
  for (unsigned I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[RNG.nextBelow(I)]);
}

/// One heavy-edge-matching coarsening step. Writes the fine→coarse mapping
/// (coarse ids in first-appearance order of fine ids) and returns the
/// number of coarse nodes; the caller builds the coarse CSR directly from
/// the mapping — no intermediate accumulator graph.
unsigned coarsenMatch(const CSRGraph &G, Random &RNG,
                      std::vector<unsigned> &FineToCoarse,
                      RefineContext &RC) {
  unsigned N = G.getNumNodes();
  auto &Match = RC.Match;
  Match.assign(N, -1);
  shuffleNodesInto(RC.Order, N, RNG);
  for (unsigned Node : RC.Order) {
    if (Match[Node] >= 0)
      continue;
    // Heaviest-edge unmatched neighbor; ties broken by smaller id for
    // determinism.
    int Best = -1;
    uint64_t BestW = 0;
    for (uint32_t E = G.edgeBegin(Node), End = G.edgeEnd(Node); E != End;
         ++E) {
      unsigned Nbr = G.edgeTarget(E);
      uint64_t W = G.edgeWeight(E);
      if (Match[Nbr] >= 0 || Nbr == Node)
        continue;
      if (Best < 0 || W > BestW ||
          (W == BestW && Nbr < static_cast<unsigned>(Best))) {
        Best = static_cast<int>(Nbr);
        BestW = W;
      }
    }
    if (Best >= 0) {
      Match[Node] = Best;
      Match[Best] = static_cast<int>(Node);
    } else {
      Match[Node] = static_cast<int>(Node); // Self-match (unmatched).
    }
  }

  FineToCoarse.assign(N, ~0u);
  unsigned NumCoarse = 0;
  for (unsigned Node = 0; Node != N; ++Node) {
    if (FineToCoarse[Node] != ~0u)
      continue;
    unsigned Partner = static_cast<unsigned>(Match[Node]);
    unsigned Coarsened = NumCoarse++;
    FineToCoarse[Node] = Coarsened;
    if (Partner != Node)
      FineToCoarse[Partner] = Coarsened;
  }
  return NumCoarse;
}

/// Moves nodes out of overloaded parts until every part fits its capacity
/// (bounded effort).
void repairBalance(const CSRGraph &G, std::vector<unsigned> &Assign,
                   RefineContext &RC, const CapacityTable &MaxAllowed,
                   const GraphPartitionOptions &Opt, Random &RNG,
                   RunStats &RS) {
  unsigned NumParts = Opt.NumParts;
  auto &PW = RC.PW;
  for (unsigned Round = 0; Round != 4 * G.getNumNodes() + 16; ++Round) {
    // Find the most overloaded (part, constraint).
    int WorstPart = -1;
    unsigned WorstC = 0;
    double WorstRatio = 1.0;
    for (unsigned P = 0; P != NumParts; ++P)
      for (unsigned C = 0; C != MaxAllowed[P].size(); ++C) {
        if (MaxAllowed[P][C] == std::numeric_limits<uint64_t>::max() ||
            PW[P][C] <= MaxAllowed[P][C])
          continue;
        double Ratio = static_cast<double>(PW[P][C]) /
                       static_cast<double>(MaxAllowed[P][C]);
        if (Ratio > WorstRatio) {
          WorstRatio = Ratio;
          WorstPart = static_cast<int>(P);
          WorstC = C;
        }
      }
    if (WorstPart < 0)
      return; // Balanced.

    // Move the node contributing to the overload whose departure hurts the
    // cut least, to the part with the lowest load on the offending
    // constraint.
    unsigned Target = 0;
    for (unsigned P = 1; P != NumParts; ++P)
      if (PW[P][WorstC] < PW[Target][WorstC])
        Target = P;
    if (Target == static_cast<unsigned>(WorstPart))
      return; // Nothing lighter exists; give up.

    int BestNode = -1;
    int64_t BestGain = std::numeric_limits<int64_t>::min();
    shuffleNodesInto(RC.Order, G.getNumNodes(), RNG);
    for (unsigned Node : RC.Order) {
      if (Assign[Node] != static_cast<unsigned>(WorstPart) ||
          G.nodeWeight(Node, WorstC) == 0)
        continue;
      int64_t Gain = 0;
      for (uint32_t E = G.edgeBegin(Node), End = G.edgeEnd(Node); E != End;
           ++E) {
        unsigned Nbr = G.edgeTarget(E);
        if (Assign[Nbr] == Target)
          Gain += static_cast<int64_t>(G.edgeWeight(E));
        else if (Assign[Nbr] == static_cast<unsigned>(WorstPart))
          Gain -= static_cast<int64_t>(G.edgeWeight(E));
      }
      if (Gain > BestGain) {
        BestGain = Gain;
        BestNode = static_cast<int>(Node);
      }
    }
    if (BestNode < 0)
      return;
    const uint64_t *NW = G.nodeWeights(static_cast<unsigned>(BestNode));
    for (unsigned C = 0; C != MaxAllowed[0].size(); ++C) {
      PW[static_cast<unsigned>(WorstPart)][C] -= NW[C];
      PW[Target][C] += NW[C];
    }
    Assign[static_cast<unsigned>(BestNode)] = Target;
    ++RS.BalanceMoves;
  }
}

/// One bucket-based FM refinement pass; returns the number of applied
/// moves. Each free node carries its best candidate move in an
/// addressable priority structure ordered (gain desc, part asc, node
/// asc); applying a move updates only the moved node's neighborhood
/// instead of recomputing every node's gain vector. Feasibility (part
/// capacities) can go stale for non-neighbors as weights shift, so
/// entries are revalidated lazily at extraction: a popped entry whose
/// recomputed candidate differs is re-queued with the true key. Moved
/// nodes are locked for the remainder of the pass (classic FM), which
/// bounds the pass at one move per node.
unsigned refinePass(const CSRGraph &G, std::vector<unsigned> &Assign,
                    RefineContext &RC, const CapacityTable &MaxAllowed,
                    const GraphPartitionOptions &Opt) {
  unsigned NumParts = Opt.NumParts;
  unsigned N = G.getNumNodes();
  unsigned NumC = G.getNumConstraints();
  auto &PW = RC.PW;
  auto &Conn = RC.Conn;
  Conn.assign(NumParts, 0);

  // Refresh the per-part normalized loads (swap passes shift weights
  // without maintaining them).
  RC.NormP.resize(NumParts);
  for (unsigned P = 0; P != NumParts; ++P)
    RC.NormP[P] = normOfPart(PW[P], RC.Ideal);

  // Best feasible destination by gain, ties to smaller part id.
  auto bestOf = [&](unsigned Node, int64_t &GainOut,
                    unsigned &PartOut) -> bool {
    unsigned From = Assign[Node];
    std::fill(Conn.begin(), Conn.end(), int64_t{0});
    for (uint32_t E = G.edgeBegin(Node), End = G.edgeEnd(Node); E != End; ++E)
      Conn[Assign[G.edgeTarget(E)]] += static_cast<int64_t>(G.edgeWeight(E));
    const uint64_t *NW = G.nodeWeights(Node);
    int Best = -1;
    int64_t BestGain = std::numeric_limits<int64_t>::min();
    for (unsigned P = 0; P != NumParts; ++P) {
      if (P == From)
        continue;
      bool Fits = true;
      for (unsigned C = 0; C != NumC; ++C)
        if (MaxAllowed[P][C] != std::numeric_limits<uint64_t>::max() &&
            PW[P][C] + NW[C] > MaxAllowed[P][C]) {
          Fits = false;
          break;
        }
      if (!Fits)
        continue;
      int64_t Gain = Conn[P] - Conn[From];
      if (Gain > BestGain) {
        BestGain = Gain;
        Best = static_cast<int>(P);
      }
    }
    if (Best < 0)
      return false;
    GainOut = BestGain;
    PartOut = static_cast<unsigned>(Best);
    return true;
  };

  auto &Bucket = RC.Bucket;
  Bucket.reset(N);
  RC.Locked.assign(N, 0);
  for (unsigned Node = 0; Node != N; ++Node) {
    int64_t Gain;
    unsigned Part;
    if (bestOf(Node, Gain, Part))
      Bucket.insertOrUpdate(Node, Part, Gain);
  }

  unsigned Moved = 0;
  while (!Bucket.empty()) {
    GainBucket::Entry E = Bucket.top();
    int64_t Gain;
    unsigned Part;
    if (!bestOf(E.Node, Gain, Part)) {
      Bucket.erase(E.Node); // No feasible destination anymore.
      continue;
    }
    if (Gain != E.Gain || Part != E.Part) {
      Bucket.insertOrUpdate(E.Node, Part, Gain); // Stale; re-queue.
      continue;
    }
    unsigned From = Assign[E.Node];
    bool Accept = Gain > 0;
    if (!Accept && Gain == 0) {
      // Zero-gain moves accepted only if they strictly improve balance.
      // Only From and Part change, so the delta needs the two new part
      // loads plus the standing maximum of the others — no full rescan.
      const uint64_t *NW = G.nodeWeights(E.Node);
      double Before = 0, Others = 0;
      for (unsigned P = 0; P != NumParts; ++P) {
        Before = std::max(Before, RC.NormP[P]);
        if (P != From && P != Part)
          Others = std::max(Others, RC.NormP[P]);
      }
      double NewFrom = 0, NewTo = 0;
      for (unsigned C = 0; C != NumC; ++C) {
        if (RC.Ideal[C] <= 0)
          continue;
        NewFrom = std::max(
            NewFrom, static_cast<double>(PW[From][C] - NW[C]) / RC.Ideal[C]);
        NewTo = std::max(
            NewTo, static_cast<double>(PW[Part][C] + NW[C]) / RC.Ideal[C]);
      }
      double After = std::max({Others, NewFrom, NewTo});
      Accept = After + 1e-12 < Before;
    }
    if (!Accept) {
      Bucket.erase(E.Node); // Re-queued if a neighbor's move revives it.
      continue;
    }

    const uint64_t *NW = G.nodeWeights(E.Node);
    for (unsigned C = 0; C != NumC; ++C) {
      PW[From][C] -= NW[C];
      PW[Part][C] += NW[C];
    }
    RC.NormP[From] = normOfPart(PW[From], RC.Ideal);
    RC.NormP[Part] = normOfPart(PW[Part], RC.Ideal);
    Assign[E.Node] = Part;
    ++Moved;
    Bucket.erase(E.Node);
    RC.Locked[E.Node] = 1;

    // Incremental update: only the moved node's neighborhood changed.
    for (uint32_t S = G.edgeBegin(E.Node), End = G.edgeEnd(E.Node); S != End;
         ++S) {
      unsigned M = G.edgeTarget(S);
      if (RC.Locked[M])
        continue;
      int64_t MG;
      unsigned MP;
      if (bestOf(M, MG, MP))
        Bucket.insertOrUpdate(M, MP, MG);
      else
        Bucket.erase(M);
    }
  }
  return Moved;
}

/// Pairwise swap pass over boundary nodes: escapes the local minima where
/// every single move is blocked by a balance constraint but exchanging two
/// nodes across the cut is both feasible and profitable. Returns the
/// number of applied swaps.
unsigned swapPass(const CSRGraph &G, std::vector<unsigned> &Assign,
                  RefineContext &RC, const CapacityTable &MaxAllowed) {
  auto &PW = RC.PW;
  // Boundary nodes only (nodes with a cut edge), capped for cost.
  constexpr unsigned MaxBoundary = 256;
  auto &Boundary = RC.Boundary;
  Boundary.clear();
  for (unsigned N = 0; N != G.getNumNodes() && Boundary.size() < MaxBoundary;
       ++N)
    for (uint32_t E = G.edgeBegin(N), End = G.edgeEnd(N); E != End; ++E)
      if (Assign[G.edgeTarget(E)] != Assign[N]) {
        Boundary.push_back(N);
        break;
      }

  auto GainOf = [&](unsigned Node, unsigned To) {
    int64_t Gain = 0;
    for (uint32_t E = G.edgeBegin(Node), End = G.edgeEnd(Node); E != End;
         ++E) {
      unsigned Nbr = G.edgeTarget(E);
      if (Assign[Nbr] == To)
        Gain += static_cast<int64_t>(G.edgeWeight(E));
      else if (Assign[Nbr] == Assign[Node])
        Gain -= static_cast<int64_t>(G.edgeWeight(E));
    }
    return Gain;
  };

  unsigned Swapped = 0;
  for (size_t I = 0; I != Boundary.size(); ++I) {
    unsigned A = Boundary[I];
    for (size_t J = I + 1; J != Boundary.size(); ++J) {
      unsigned B = Boundary[J];
      unsigned PA = Assign[A], PB = Assign[B];
      if (PA == PB)
        continue;
      int64_t Gain = GainOf(A, PB) + GainOf(B, PA) -
                     2 * static_cast<int64_t>(G.edgeWeightBetween(A, B));
      if (Gain <= 0)
        continue;
      // Feasibility of the exchange under every constraint.
      const uint64_t *WA = G.nodeWeights(A);
      const uint64_t *WB = G.nodeWeights(B);
      bool Fits = true;
      for (unsigned C = 0; C != G.getNumConstraints() && Fits; ++C) {
        // Members' weights never exceed their part's weight, so these
        // subtractions cannot underflow.
        uint64_t NewPB = PW[PB][C] - WB[C] + WA[C];
        uint64_t NewPA = PW[PA][C] - WA[C] + WB[C];
        Fits = (MaxAllowed[PB][C] == std::numeric_limits<uint64_t>::max() ||
                NewPB <= MaxAllowed[PB][C]) &&
               (MaxAllowed[PA][C] == std::numeric_limits<uint64_t>::max() ||
                NewPA <= MaxAllowed[PA][C]);
      }
      if (!Fits)
        continue;
      for (unsigned C = 0; C != G.getNumConstraints(); ++C) {
        PW[PA][C] = PW[PA][C] - WA[C] + WB[C];
        PW[PB][C] = PW[PB][C] - WB[C] + WA[C];
      }
      Assign[A] = PB;
      Assign[B] = PA;
      ++Swapped;
      break; // A moved; continue with the next A.
    }
  }
  return Swapped;
}

void refine(const CSRGraph &G, std::vector<unsigned> &Assign,
            const GraphPartitionOptions &Opt, const Context &Ctx,
            RefineContext &RC, Random &RNG, RunStats &RS) {
  computePartWeightsInto(G, Assign, Opt.NumParts, RC.PW);
  auto MaxAllowed = Ctx.maxAllowed(G);
  const auto &Totals = G.totalWeights();
  RC.Ideal.assign(Totals.size(), 0.0);
  for (unsigned C = 0; C != Totals.size(); ++C)
    if (Totals[C] != 0)
      RC.Ideal[C] =
          static_cast<double>(Totals[C]) / static_cast<double>(Opt.NumParts);
  repairBalance(G, Assign, RC, MaxAllowed, Opt, RNG, RS);
  for (unsigned Pass = 0; Pass != MaxRefinePasses; ++Pass) {
    unsigned Moved = refinePass(G, Assign, RC, MaxAllowed, Opt);
    unsigned Swapped = swapPass(G, Assign, RC, MaxAllowed);
    ++RS.RefinePasses;
    RS.RefineMoves += Moved;
    RS.SwapMoves += Swapped;
    if (!Moved && !Swapped)
      break;
  }
}

/// Greedy initial assignment at the coarsest level.
std::vector<unsigned> initialAssign(const CSRGraph &G,
                                    const GraphPartitionOptions &Opt,
                                    const Context &Ctx, RefineContext &RC,
                                    Random &RNG) {
  unsigned NumParts = Opt.NumParts;
  unsigned NumC = G.getNumConstraints();
  std::vector<unsigned> Assign(G.getNumNodes(), 0);
  std::vector<std::vector<uint64_t>> PW(NumParts,
                                        std::vector<uint64_t>(NumC, 0));
  auto MaxAllowed = Ctx.maxAllowed(G);
  const auto &Totals = G.totalWeights();
  std::vector<bool> Placed(G.getNumNodes(), false);

  auto &Conn = RC.Conn;
  shuffleNodesInto(RC.Order, G.getNumNodes(), RNG);
  for (unsigned Node : RC.Order) {
    const uint64_t *NW = G.nodeWeights(Node);
    // Connectivity to already-placed neighbors per part.
    Conn.assign(NumParts, 0);
    for (uint32_t E = G.edgeBegin(Node), End = G.edgeEnd(Node); E != End;
         ++E) {
      unsigned Nbr = G.edgeTarget(E);
      if (Placed[Nbr])
        Conn[Assign[Nbr]] += static_cast<int64_t>(G.edgeWeight(E));
    }

    int Best = -1;
    double BestScore = -1e300;
    for (unsigned P = 0; P != NumParts; ++P) {
      bool Fits = true;
      for (unsigned C = 0; C != NumC; ++C)
        if (MaxAllowed[P][C] != std::numeric_limits<uint64_t>::max() &&
            PW[P][C] + NW[C] > MaxAllowed[P][C]) {
          Fits = false;
          break;
        }
      // Score: connectivity first, then lower normalized load. Infeasible
      // parts are heavily penalized but not excluded (a fallback must
      // always exist).
      double Load = 0;
      for (unsigned C = 0; C != NumC; ++C) {
        if (Totals[C] == 0)
          continue;
        double Ideal = static_cast<double>(Totals[C]) / NumParts;
        Load = std::max(Load,
                        static_cast<double>(PW[P][C] + NW[C]) / Ideal);
      }
      double Score = static_cast<double>(Conn[P]) - 0.25 * Load *
                     (1.0 + static_cast<double>(G.totalEdgeWeight()) /
                                std::max<uint64_t>(1, G.getNumNodes()));
      if (!Fits)
        Score -= 1e12;
      if (Score > BestScore) {
        BestScore = Score;
        Best = static_cast<int>(P);
      }
    }
    Assign[Node] = static_cast<unsigned>(Best);
    Placed[Node] = true;
    for (unsigned C = 0; C != NumC; ++C)
      PW[static_cast<unsigned>(Best)][C] += NW[C];
  }
  return Assign;
}

/// Greedy graph growing (GGGP, the METIS initial-partition family for
/// k = 2): start with everything in part 0, then grow part 1 from a seed
/// node by repeatedly pulling over the highest-gain node until part 0 fits
/// its capacity. Produces the "natural" cuts that random greedy
/// assignment misses. Only used for bisection.
std::vector<unsigned> gggpAssign(const CSRGraph &G,
                                 const CapacityTable &MaxAllowed,
                                 unsigned SeedNode) {
  unsigned N = G.getNumNodes();
  unsigned NumC = G.getNumConstraints();
  std::vector<unsigned> Assign(N, 0);
  std::vector<std::vector<uint64_t>> PW(2, std::vector<uint64_t>(NumC, 0));
  PW[0] = G.totalWeights();

  auto Part0Fits = [&]() {
    for (unsigned C = 0; C != MaxAllowed[0].size(); ++C)
      if (MaxAllowed[0][C] != std::numeric_limits<uint64_t>::max() &&
          PW[0][C] > MaxAllowed[0][C])
        return false;
    return true;
  };
  auto MoveTo1 = [&](unsigned Node) {
    Assign[Node] = 1;
    const uint64_t *NW = G.nodeWeights(Node);
    for (unsigned C = 0; C != MaxAllowed[0].size(); ++C) {
      PW[0][C] -= NW[C];
      PW[1][C] += NW[C];
    }
  };

  MoveTo1(SeedNode);
  while (!Part0Fits()) {
    int Best = -1;
    int64_t BestGain = std::numeric_limits<int64_t>::min();
    for (unsigned Node = 0; Node != N; ++Node) {
      if (Assign[Node] == 1)
        continue;
      // Part 1 must stay feasible.
      bool Fits = true;
      for (unsigned C = 0; C != MaxAllowed[1].size(); ++C)
        if (MaxAllowed[1][C] != std::numeric_limits<uint64_t>::max() &&
            PW[1][C] + G.nodeWeight(Node, C) > MaxAllowed[1][C]) {
          Fits = false;
          break;
        }
      if (!Fits)
        continue;
      int64_t Gain = 0;
      for (uint32_t E = G.edgeBegin(Node), End = G.edgeEnd(Node); E != End;
           ++E)
        Gain += Assign[G.edgeTarget(E)] == 1
                    ? static_cast<int64_t>(G.edgeWeight(E))
                    : -static_cast<int64_t>(G.edgeWeight(E));
      // Prefer to move weight-bearing nodes when growth is mandatory.
      if (Gain > BestGain) {
        BestGain = Gain;
        Best = static_cast<int>(Node);
      }
    }
    if (Best < 0)
      break; // Nothing feasible to move; leave as-is.
    MoveTo1(static_cast<unsigned>(Best));
  }
  return Assign;
}

} // namespace

GraphPartition gdp::partitionGraph(const PartitionGraph &G,
                                   const GraphPartitionOptions &Opt) {
  assert(Opt.NumParts >= 1 && "need at least one part");
  Context Ctx{Opt};
  Random RNG(Opt.Seed);
  RunStats RS;

  // All transient state — CSR levels, refinement scratch, match tables —
  // lives on the calling thread's scratch arena and is released (blocks
  // kept warm) when this call returns. Only the result escapes, on the
  // heap.
  support::ScratchArena Scope;
  support::Arena *A = &Scope.arena();
  RefineContext RC(A);

  GraphPartition Result;
  if (G.getNumNodes() == 0) {
    Result.PartWeights.assign(
        Opt.NumParts, std::vector<uint64_t>(G.getNumConstraints(), 0));
    return Result;
  }

  // --- Graph layer: one cache-linear CSR snapshot per level; the
  // edge-list PartitionGraph is only the construction-time accumulator.
  std::vector<CSRGraph> Levels;
  Levels.emplace_back(G, A);

  if (Opt.NumParts == 1) {
    Result.Assignment.assign(G.getNumNodes(), 0);
    Result.PartWeights = computePartWeights(Levels[0], Result.Assignment, 1);
    return Result;
  }

  // --- Coarsening phase.
  std::vector<std::vector<unsigned>> Mappings; // Mappings[i]: level i -> i+1
  while (Levels.back().getNumNodes() > CoarsenTargetNodes) {
    std::vector<unsigned> FineToCoarse;
    unsigned NumCoarse = coarsenMatch(Levels.back(), RNG, FineToCoarse, RC);
    // Stop if matching stalls (under 5% reduction) — decided before any
    // coarse graph is materialized.
    if (NumCoarse * 20 > Levels.back().getNumNodes() * 19)
      break;
    // Built as a named temporary: an emplace_back reading Levels.back()
    // while the vector may reallocate would be UB.
    CSRGraph Coarse(Levels.back(), FineToCoarse, NumCoarse, A);
    Mappings.push_back(std::move(FineToCoarse));
    Levels.push_back(std::move(Coarse));
  }

  // --- Initial partition at the coarsest level: best of several random
  // greedy tries plus (for bisection) greedy graph growing from the
  // heaviest seeds.
  const CSRGraph &Coarsest = Levels.back();
  std::vector<unsigned> Best;
  uint64_t BestCut = 0;
  double BestLoad = 0;
  auto Consider = [&](std::vector<unsigned> Assign) {
    refine(Coarsest, Assign, Opt, Ctx, RC, RNG, RS);
    uint64_t Cut = Coarsest.cutWeight(Assign);
    double Load = normalizedLoad(
        computePartWeights(Coarsest, Assign, Opt.NumParts),
        Coarsest.totalWeights());
    if (Best.empty() || Cut < BestCut ||
        (Cut == BestCut && Load < BestLoad)) {
      Best = std::move(Assign);
      BestCut = Cut;
      BestLoad = Load;
    }
  };
  for (unsigned Try = 0; Try != NumInitialTries; ++Try)
    Consider(initialAssign(Coarsest, Opt, Ctx, RC, RNG));
  if (Opt.NumParts == 2 && Coarsest.getNumNodes() > 1) {
    auto MaxAllowed = Ctx.maxAllowed(Coarsest);
    // Seeds: the nodes heaviest in each constraint, plus a random one.
    std::vector<unsigned> Seeds;
    for (unsigned C = 0; C != Coarsest.getNumConstraints(); ++C) {
      unsigned Heaviest = 0;
      for (unsigned Node = 1; Node != Coarsest.getNumNodes(); ++Node)
        if (Coarsest.nodeWeight(Node, C) > Coarsest.nodeWeight(Heaviest, C))
          Heaviest = Node;
      Seeds.push_back(Heaviest);
    }
    Seeds.push_back(static_cast<unsigned>(
        RNG.nextBelow(Coarsest.getNumNodes())));
    for (unsigned Seed : Seeds)
      Consider(gggpAssign(Coarsest, MaxAllowed, Seed));
  }

  // --- Uncoarsening with refinement at every level.
  bool Observed = telemetry::enabled();
  if (Observed)
    telemetry::value("partitioner.cut_trajectory",
                     static_cast<double>(Coarsest.cutWeight(Best)));
  std::vector<unsigned> Assign = std::move(Best);
  for (size_t Level = Mappings.size(); Level-- > 0;) {
    const auto &FineToCoarse = Mappings[Level];
    std::vector<unsigned> FineAssign(FineToCoarse.size());
    for (unsigned N = 0; N != FineToCoarse.size(); ++N)
      FineAssign[N] = Assign[FineToCoarse[N]];
    Assign = std::move(FineAssign);
    refine(Levels[Level], Assign, Opt, Ctx, RC, RNG, RS);
    // Cut-weight trajectory across uncoarsening (costs a graph sweep, so
    // only computed when someone is watching).
    if (Observed)
      telemetry::value("partitioner.cut_trajectory",
                       static_cast<double>(Levels[Level].cutWeight(Assign)));
  }

  Result.Assignment = std::move(Assign);
  Result.CutWeight = Levels[0].cutWeight(Result.Assignment);
  Result.PartWeights =
      computePartWeights(Levels[0], Result.Assignment, Opt.NumParts);

  if (Observed) {
    telemetry::counter("partitioner.runs");
    telemetry::counter("partitioner.coarsen_levels", Levels.size() - 1);
    telemetry::counter("partitioner.refine_passes", RS.RefinePasses);
    telemetry::counter("partitioner.refine_moves", RS.RefineMoves);
    telemetry::counter("partitioner.swap_moves", RS.SwapMoves);
    telemetry::counter("partitioner.balance_moves", RS.BalanceMoves);
    telemetry::value("partitioner.final_cut",
                     static_cast<double>(Result.CutWeight));
  }
  return Result;
}

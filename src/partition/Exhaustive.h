//===- partition/Exhaustive.h - Exhaustive placement search -----*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exhaustive enumeration of every data-object → cluster mapping for
/// 2-cluster machines (paper §4.3, Figure 9): each of the 2^N placements is
/// locked into the computation partitioner and scheduled, recording its
/// cycle count and data-size balance. Only feasible for benchmarks with a
/// small number of objects, exactly as in the paper.
///
/// The search runs on a `support::ThreadPool`. Determinism contract
/// (docs/PARALLELISM.md): the mask space is split into contiguous chunks
/// whose partial optima are reduced *in chunk order* with the tie-break
/// "lowest cycles, then lowest mask" (the lowest mask is the
/// lexicographically smallest placement in enumeration order), so the
/// result is bit-identical at any thread count. One thread runs the same
/// chunks inline, in mask order.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_PARTITION_EXHAUSTIVE_H
#define GDP_PARTITION_EXHAUSTIVE_H

#include "partition/Pipeline.h"
#include "support/Budget.h"

#include <cstdint>
#include <vector>

namespace gdp {

/// One evaluated placement.
struct ExhaustivePoint {
  uint64_t Mask = 0;      ///< Bit i = cluster of object i.
  uint64_t Cycles = 0;
  double Imbalance = 0;   ///< 0 = balanced bytes, 1 = one-sided (Figure 9's
                          ///< shading).
  bool Evaluated = false; ///< False for points a budget cut off.
};

/// The whole search plus the placements the two partitioners would pick.
struct ExhaustiveResult {
  std::vector<ExhaustivePoint> Points; ///< In mask order, 2^N entries.
  uint64_t BestCycles = 0;
  uint64_t WorstCycles = 0;
  uint64_t BestMask = 0;  ///< Lowest mask achieving BestCycles.
  uint64_t WorstMask = 0; ///< Lowest mask achieving WorstCycles.
  uint64_t GDPMask = 0;        ///< Placement chosen by GDP.
  uint64_t ProfileMaxMask = 0; ///< Placement chosen by ProfileMax.
  uint64_t NaiveMask = 0;      ///< Placement chosen by Naive.
  /// False when the search could not run at all (unprepared program, too
  /// many objects, wrong cluster count); Diags says why.
  bool Ok = true;
  /// True when a budget stopped the scan early. Best/Worst then cover the
  /// evaluated points only — which always include the three strategy
  /// anchor masks, so BestCycles is never worse than the heuristics.
  bool BudgetExhausted = false;
  uint64_t EvaluatedPoints = 0; ///< How many Points carry real data.
  std::vector<support::Diag> Diags;
};

/// Maximum object count accepted (2^N evaluations).
inline constexpr unsigned MaxExhaustiveObjects = 18;

/// Runs the search on a prepared program. \p Opt supplies the machine
/// (must have 2 clusters) and RHOP options; Opt.Strategy is ignored.
/// \p Threads is the total thread count: 1 = every chunk inline on the
/// calling thread, 0 = take `GDP_THREADS` from the environment. Results
/// are identical for every value (see the determinism contract above).
///
/// Total: an unprepared program, an object count over
/// MaxExhaustiveObjects, or a non-2-cluster machine comes back as
/// Ok=false with a diagnostic instead of asserting.
///
/// \p B (optional) bounds the search: one budget node is charged per
/// placement evaluation, and on exhaustion the scan stops with
/// best-so-far results (BudgetExhausted). A NodeLimit replays
/// bit-identically at one thread; wall-clock/deadline limits and
/// parallel budgeted runs stop at a timing-dependent point and are
/// outside the determinism contract (the anchors above still bound the
/// answer's quality).
ExhaustiveResult exhaustiveSearch(const PreparedProgram &PP,
                                  const PipelineOptions &Opt,
                                  unsigned Threads = 1,
                                  const support::Budget *B = nullptr);

} // namespace gdp

#endif // GDP_PARTITION_EXHAUSTIVE_H

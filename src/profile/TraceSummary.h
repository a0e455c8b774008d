//===- profile/TraceSummary.h - Per-block execution summary -----*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the cycle-level simulator (src/sim) needs of a profiling run: for
/// every basic block, its distinct executions and how often each occurred.
/// The interpreter builds it during the run when given a sink
/// (Interpreter::setSummary); prepareProgram keeps it for traced
/// preparations. docs/SIMULATOR.md explains why one replay per distinct
/// execution is exact.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_PROFILE_TRACESUMMARY_H
#define GDP_PROFILE_TRACESUMMARY_H

#include <cstdint>
#include <vector>

namespace gdp {

/// A run reduced to what the simulator's replay of one block execution
/// depends on besides the schedule: which block of the same function id
/// executed last, and which objects the block's memory operations touched.
/// Executions of a block that agree on both are one variant with a count.
struct TraceSummary {
  /// One distinct execution of a block and how often it occurred.
  struct Variant {
    /// The block of the same function id whose execution started last
    /// before this execution started, or -1 when this is block 0 (a fresh
    /// invocation) or no block of the function ran before: the simulator's
    /// loop-entry rule decides from it whether hoisted transfers fire.
    int32_t Pred;
    uint64_t Count;
  };

  /// The distinct executions of one block, in order of first occurrence.
  struct Block {
    uint32_t NumMemOps = 0; ///< Memory operations of the block.
    std::vector<Variant> Variants;
    /// NumMemOps object ids per variant, variant after variant: the
    /// object each memory operation touched, in program order. Heap
    /// accesses record the malloc site's object id.
    std::vector<int32_t> Objects;

    const int32_t *objectsOf(size_t V) const {
      return Objects.data() + V * NumMemOps;
    }
  };

  /// Blocks[F][B]. Empty when the summary was not built against the
  /// program.
  std::vector<std::vector<Block>> Blocks;

  uint64_t numBlockEvents() const {
    uint64_t N = 0;
    for (const auto &Fn : Blocks)
      for (const Block &B : Fn)
        for (const Variant &V : B.Variants)
          N += V.Count;
    return N;
  }
};

} // namespace gdp

#endif // GDP_PROFILE_TRACESUMMARY_H

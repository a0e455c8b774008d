//===- support/Arena.h - Bump allocation for transient state ----*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bump allocation for the partitioning hot paths. A pipeline evaluation
/// allocates thousands of short-lived buffers — coarsening levels, gain
/// buckets, region plans, estimator scratch — whose lifetimes all end
/// together when the evaluation finishes. `Arena` serves them from a few
/// monotonic blocks: allocation is a pointer bump, deallocation is free
/// (a no-op), and `reset()` rewinds the whole arena while *keeping* the
/// blocks, so a warm arena serves a steady-state evaluation with zero
/// calls into the system allocator.
///
/// Three layers:
///
///  * `Arena` — the block owner: `allocate(size, align)`, `reset()`,
///    `mark()`/`release()` for stack-like nesting, and running stats
///    (bytes served, blocks created, resets, live high-water mark).
///  * `ArenaAllocator<T>` / `ArenaVector<T>` — a std-allocator adapter so
///    standard containers can live on an arena. A default-constructed
///    allocator (null arena) falls back to the heap, letting one container
///    type serve both arena-backed hot paths and standalone uses.
///  * `ScratchArena` — RAII access to the calling thread's scratch arena
///    (one per thread: every pool worker and the submitting thread own
///    one, see threadScratchArena()). Construction marks the arena,
///    destruction releases back to the mark and publishes the arena.*
///    telemetry metrics, so nested scopes on one thread compose like a
///    stack and pool tasks on different threads never share blocks.
///
/// Determinism: `arena.bytes_allocated` counts *requested* bytes (object
/// padding included, block-boundary waste excluded), and the published
/// `arena.high_water_bytes` value is the *scope's own* peak (rebased at
/// scope entry), so both are pure functions of the allocation sequence
/// and identical at any thread count. The only warm-history-dependent
/// observation — how many system blocks currently back the arenas — is
/// the process gauge processArenaBlocks(), kept out of session stats
/// entirely.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SUPPORT_ARENA_H
#define GDP_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace gdp {
namespace support {

namespace detail {
/// Adjusts the process-wide arena block gauge (see processArenaBlocks()).
void arenaBlocksGaugeAdd(int64_t Delta);
} // namespace detail

/// Running totals of one arena's lifetime (monotonic; survive reset()).
struct ArenaStats {
  uint64_t BytesAllocated = 0; ///< Requested bytes served (incl. alignment).
  uint64_t BlocksCreated = 0;  ///< System-allocator blocks ever created.
  uint64_t Resets = 0;         ///< reset() + ScratchArena release count.
  uint64_t HighWaterBytes = 0; ///< Max live requested bytes at any point.
};

/// A bump allocator over monotonic blocks. Not thread-safe: each thread
/// uses its own arena (see ScratchArena).
class Arena {
public:
  /// \p FirstBlockBytes sizes the first block; later blocks double.
  explicit Arena(size_t FirstBlockBytes = 64 * 1024)
      : FirstBlockBytes(FirstBlockBytes ? FirstBlockBytes : 64) {}

  ~Arena() {
    for (const Block &B : Blocks)
      ::operator delete(B.Data, std::align_val_t(BlockAlign));
    detail::arenaBlocksGaugeAdd(-static_cast<int64_t>(Blocks.size()));
  }

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Returns \p Size bytes aligned to \p Align (any power of two,
  /// over-aligned types included). Never returns null; throws
  /// std::bad_alloc only if the system allocator does.
  void *allocate(size_t Size, size_t Align) {
    assert(Align != 0 && (Align & (Align - 1)) == 0 &&
           "alignment must be a power of two");
    if (Size == 0)
      Size = 1; // Distinct non-null result, like operator new.
    if (Cur < Blocks.size()) {
      const Block &B = Blocks[Cur];
      uintptr_t Base = reinterpret_cast<uintptr_t>(B.Data) + Used;
      uintptr_t Aligned = (Base + (Align - 1)) & ~(uintptr_t(Align) - 1);
      size_t NewUsed = Used + (Aligned - Base) + Size;
      if (NewUsed <= B.Size) {
        Used = NewUsed;
        account(Size);
        return reinterpret_cast<void *>(Aligned);
      }
    }
    return allocateSlow(Size, Align);
  }

  /// Typed array allocation (uninitialized storage for \p Count Ts).
  template <class T> T *allocate(size_t Count = 1) {
    return static_cast<T *>(allocate(Count * sizeof(T), alignof(T)));
  }

  /// Rewinds to empty, keeping every block for reuse.
  void reset() {
    Cur = 0;
    Used = 0;
    Live = 0;
    Peak = 0;
    ++Stats.Resets;
  }

  /// A rewind point for stack-like release (ScratchArena).
  struct Mark {
    size_t Block = 0;
    size_t Used = 0;
    uint64_t Live = 0;
  };

  Mark mark() const { return {Cur, Used, Live}; }

  /// Rewinds to \p M, keeping blocks. Everything allocated after mark()
  /// is dead; allocations made before stay live.
  void release(const Mark &M) {
    assert(M.Block <= Cur && (M.Block < Cur || M.Used <= Used) &&
           "release mark is ahead of the arena cursor");
    Cur = M.Block;
    Used = M.Used;
    Live = M.Live;
    ++Stats.Resets;
  }

  const ArenaStats &stats() const { return Stats; }
  uint64_t liveBytes() const { return Live; }
  size_t numBlocks() const { return Blocks.size(); }

  /// Max live bytes since the last rebase (ScratchArena rebases at scope
  /// entry, so a scope's peak is a pure function of its own allocations —
  /// warm-block history never leaks into it).
  uint64_t peakLiveBytes() const { return Peak; }
  void rebasePeakLiveBytes(uint64_t To) { Peak = To; }

private:
  /// Blocks are allocated at a fixed generous alignment so the first
  /// bump in a block never pads for any in-practice type.
  static constexpr size_t BlockAlign = 64;

  struct Block {
    char *Data;
    size_t Size;
  };

  void account(size_t Size) {
    Stats.BytesAllocated += Size;
    Live += Size;
    if (Live > Peak)
      Peak = Live;
    if (Live > Stats.HighWaterBytes)
      Stats.HighWaterBytes = Live;
  }

  void *allocateSlow(size_t Size, size_t Align);

  std::vector<Block> Blocks;
  size_t Cur = 0;  ///< Index of the block being bumped (== size() when none).
  size_t Used = 0; ///< Bytes consumed in Blocks[Cur].
  size_t FirstBlockBytes;
  uint64_t Live = 0;
  uint64_t Peak = 0; ///< Max Live since the last rebase (scope-relative).
  ArenaStats Stats;
};

/// std-allocator adapter. Null arena = plain heap, so containers typed on
/// ArenaAllocator work standalone (tests, default-constructed members) and
/// on an arena (hot paths) with one type.
template <class T> class ArenaAllocator {
public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  ArenaAllocator() = default;
  /*implicit*/ ArenaAllocator(Arena *A) : A(A) {}
  template <class U>
  ArenaAllocator(const ArenaAllocator<U> &O) : A(O.arena()) {}

  T *allocate(size_t N) {
    if (A)
      return static_cast<T *>(A->allocate(N * sizeof(T), alignof(T)));
    return static_cast<T *>(::operator new(N * sizeof(T)));
  }
  void deallocate(T *P, size_t) noexcept {
    if (!A)
      ::operator delete(P);
    // Arena memory dies at reset()/release(); individual frees are no-ops.
  }

  Arena *arena() const { return A; }

  friend bool operator==(const ArenaAllocator &L, const ArenaAllocator &R) {
    return L.A == R.A;
  }
  friend bool operator!=(const ArenaAllocator &L, const ArenaAllocator &R) {
    return L.A != R.A;
  }

private:
  Arena *A = nullptr;
};

/// A std::vector living on an arena (or the heap when the allocator's
/// arena is null).
template <class T> using ArenaVector = std::vector<T, ArenaAllocator<T>>;

/// The calling thread's scratch arena: created lazily, one per thread
/// (ThreadPool workers and the main thread each own theirs), destroyed at
/// thread exit. Prefer ScratchArena (RAII) over touching this directly.
Arena &threadScratchArena();

/// RAII scope over the calling thread's scratch arena. Construction takes
/// a mark; destruction releases back to it (keeping warm blocks) and, when
/// telemetry is enabled, publishes the scope's arena metrics:
///
///   arena.bytes_allocated  counter  requested bytes this scope served
///   arena.resets           counter  one per completed scope
///   arena.high_water_bytes value    the scope's own peak live bytes
///
/// All three are pure functions of the scope's allocation sequence (the
/// high-water is rebased at scope entry), so they are identical at any
/// thread count and safe for the deterministic session exposition. The
/// warm-history process gauge — total blocks backing all live arenas —
/// is exposed separately as processArenaBlocks().
///
/// Scopes nest (stack discipline) and never cross threads.
class ScratchArena {
public:
  ScratchArena()
      : A(threadScratchArena()), M(A.mark()),
        BytesBefore(A.stats().BytesAllocated), SavedPeak(A.peakLiveBytes()) {
    A.rebasePeakLiveBytes(A.liveBytes());
  }
  ~ScratchArena();

  ScratchArena(const ScratchArena &) = delete;
  ScratchArena &operator=(const ScratchArena &) = delete;

  Arena &arena() { return A; }

private:
  Arena &A;
  Arena::Mark M;
  uint64_t BytesBefore;
  uint64_t SavedPeak;
};

/// Process-wide count of system-allocator blocks currently backing
/// arenas (all threads). Warm-history/schedule dependent — a capacity
/// gauge for dashboards, never part of deterministic records or session
/// stats.
int64_t processArenaBlocks();

} // namespace support
} // namespace gdp

#endif // GDP_SUPPORT_ARENA_H

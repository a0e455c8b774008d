//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool with futures-based task submission and the two
/// bulk helpers the evaluation paths use: `parallelFor` over an index range
/// and `parallelMap` over a vector. The design rules (docs/PARALLELISM.md):
///
///  * **Determinism is the caller's problem to keep and this class's
///    problem not to break**: `parallelMap` returns results in input order
///    and both helpers rethrow the exception of the *lowest-indexed*
///    failing task, so observable behaviour never depends on which worker
///    ran what, or when.
///  * **Zero workers means inline**: `ThreadPool(0)` spawns no threads and
///    runs every task on the calling thread at submission time, in
///    submission order — exactly the serial behaviour. Callers map a user
///    request of `--threads=N` to `ThreadPool(N - 1)` because the waiting
///    thread participates in execution (below), so N is the true
///    concurrency.
///  * **No deadlock on nested submission**: a thread that blocks in
///    `wait()`/`parallelFor`/`parallelMap` drains queued tasks itself
///    while it waits ("work helping"). A task may therefore submit and
///    wait on subtasks even when every worker is busy.
///
/// Thread count selection: `threadCountFromEnv()` reads `GDP_THREADS`
/// (clamped to [1, 256]; unset/invalid = 1 = serial). The CLI and bench
/// harness let `--threads=N` override it.
///
/// Thread affinity (opt-in): when the process-wide toggle is on
/// (`--affinity` flag or `GDP_AFFINITY=1`), each pool pins worker I to
/// CPU (I + 1) mod hardware_concurrency — the submitting thread keeps
/// CPU 0 to itself on multi-core machines — so a worker's scratch arena
/// and its cache-resident working set stay on one core instead of
/// migrating. Pinning is Linux-only (pthread_setaffinity_np); elsewhere
/// the toggle is accepted and ignored. Affinity never changes *what* the
/// pool computes (the determinism contract above is scheduling-blind), it
/// only changes where tasks run — records stay byte-identical either way.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SUPPORT_THREADPOOL_H
#define GDP_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace gdp {
namespace support {

/// The largest thread count the environment or a --threads flag may ask
/// for.
constexpr unsigned MaxThreads = 256;

/// Total thread count requested through the environment: `GDP_THREADS`,
/// clamped to [1, MaxThreads]; 1 (fully serial) when unset or unparsable.
unsigned threadCountFromEnv();

/// Parses one affinity setting: "1"/"on"/"true"/"yes" enable,
/// "0"/"off"/"false"/"no" disable (ASCII case-insensitive). Returns false
/// without touching \p Enabled when \p Text is anything else — callers
/// reject that with a structured UsageError (exit 2).
bool parseAffinitySetting(const std::string &Text, bool &Enabled);

/// The `GDP_AFFINITY` environment variable: 1 enabled, 0 disabled or
/// unset, -1 set to an unparsable value (tools diagnose and exit 2; pool
/// construction treats -1 as disabled).
int threadAffinityFromEnv();

/// Overrides the process-wide affinity toggle (flags beat the
/// environment). New pools consult it at construction; running pools are
/// unaffected.
void setThreadAffinity(bool Enabled);

/// The effective process-wide toggle: the setThreadAffinity() override
/// when one was installed, else the environment (invalid = disabled).
bool threadAffinityEnabled();

/// Resolves the toggle from a CLI flag value and the environment, in that
/// precedence: \p FlagValue empty = flag absent (consult `GDP_AFFINITY`).
/// On success installs the setting and returns true; on an unparsable
/// flag or environment value fills \p Err and returns false so the caller
/// can emit a UsageError diag and exit 2.
bool resolveThreadAffinity(const std::string &FlagValue, std::string *Err);

/// Fixed worker pool. See the file comment for the guarantees.
class ThreadPool {
public:
  /// Spawns \p Workers background threads. 0 = inline execution.
  explicit ThreadPool(unsigned Workers);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned getNumWorkers() const { return NumWorkers; }

  /// True when this pool pinned its workers at construction (the toggle
  /// was on and the platform supports pinning).
  bool workersPinned() const { return Pinned; }

  /// Schedules \p Fn and returns the future of its result. With zero
  /// workers the task runs here and now; the returned future is ready.
  template <class Fn> auto submit(Fn &&F) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto Task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(F));
    std::future<R> Fut = Task->get_future();
    enqueue([Task] { (*Task)(); });
    return Fut;
  }

  /// Runs Body(I) for every I in [Begin, End), concurrently, and blocks
  /// until all complete. If tasks threw, rethrows the exception of the
  /// lowest index after everything finished.
  template <class Body>
  void parallelFor(size_t Begin, size_t End, Body &&B) {
    if (Begin >= End)
      return;
    size_t N = End - Begin;
    std::vector<std::future<void>> Futures;
    Futures.reserve(N);
    for (size_t I = Begin; I != End; ++I)
      Futures.push_back(submit([&B, I] { B(I); }));
    rethrowFirst(Futures);
  }

  /// Applies \p Fn to every element of \p Items concurrently; returns the
  /// results in input order. Rethrows the lowest-indexed task's exception
  /// after all tasks completed.
  template <class T, class Fn>
  auto parallelMap(const std::vector<T> &Items, Fn &&F)
      -> std::vector<std::invoke_result_t<Fn, const T &>> {
    using R = std::invoke_result_t<Fn, const T &>;
    std::vector<std::future<R>> Futures;
    Futures.reserve(Items.size());
    for (const T &Item : Items)
      Futures.push_back(submit([&F, &Item] { return F(Item); }));
    std::vector<R> Out;
    Out.reserve(Items.size());
    std::exception_ptr First;
    for (auto &Fut : Futures) {
      waitHelping(Fut);
      try {
        Out.push_back(Fut.get());
      } catch (...) {
        if (!First)
          First = std::current_exception();
        Out.push_back(R{}); // Keep indices aligned for the survivors.
      }
    }
    if (First)
      std::rethrow_exception(First);
    return Out;
  }

private:
  void enqueue(std::function<void()> Task);

  /// Pops and runs one queued task; false when the queue is empty.
  bool runOneTask();

  /// Blocks on \p Fut, executing queued tasks while it is not ready so a
  /// task waiting on subtasks can never deadlock the pool.
  template <class R> void waitHelping(std::future<R> &Fut) {
    while (Fut.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!runOneTask())
        Fut.wait_for(std::chrono::milliseconds(1));
    }
  }

  /// Waits on every future; rethrows the first (lowest-index) exception.
  void rethrowFirst(std::vector<std::future<void>> &Futures) {
    std::exception_ptr First;
    for (auto &Fut : Futures) {
      waitHelping(Fut);
      try {
        Fut.get();
      } catch (...) {
        if (!First)
          First = std::current_exception();
      }
    }
    if (First)
      std::rethrow_exception(First);
  }

  void workerLoop();

  unsigned NumWorkers;
  bool Pinned = false;
  std::vector<std::thread> Workers;
  std::mutex Mu;
  std::condition_variable QueueCV;
  std::deque<std::function<void()>> Queue;
  bool Stopping = false;
};

} // namespace support
} // namespace gdp

#endif // GDP_SUPPORT_THREADPOOL_H

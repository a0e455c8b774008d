//===- support/ThreadPool.cpp - Fixed-size worker pool ----------------------===//

#include "support/ThreadPool.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

using namespace gdp;
using namespace gdp::support;

unsigned gdp::support::threadCountFromEnv() {
  const char *Env = std::getenv("GDP_THREADS");
  if (!Env || !*Env)
    return 1;
  char *End = nullptr;
  long N = std::strtol(Env, &End, 10);
  if (End == Env || *End != '\0' || N < 1)
    return 1;
  return N > MaxThreads ? MaxThreads : static_cast<unsigned>(N);
}

namespace {

/// -1 = no override installed (consult the environment).
int AffinityOverride = -1;

/// Pins \p T to one CPU. No-op off Linux; failure (e.g. a restrictive
/// cpuset) is deliberately ignored — affinity is a placement hint, never
/// a correctness requirement.
void pinThreadToCpu(std::thread &T, unsigned Cpu) {
#if defined(__linux__)
  unsigned NumCpus = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu % NumCpus, &Set);
  (void)pthread_setaffinity_np(T.native_handle(), sizeof(Set), &Set);
#else
  (void)T;
  (void)Cpu;
#endif
}

} // namespace

bool gdp::support::parseAffinitySetting(const std::string &Text,
                                        bool &Enabled) {
  std::string S;
  S.reserve(Text.size());
  for (char C : Text)
    S += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  if (S == "1" || S == "on" || S == "true" || S == "yes") {
    Enabled = true;
    return true;
  }
  if (S == "0" || S == "off" || S == "false" || S == "no") {
    Enabled = false;
    return true;
  }
  return false;
}

int gdp::support::threadAffinityFromEnv() {
  const char *Env = std::getenv("GDP_AFFINITY");
  if (!Env || !*Env)
    return 0;
  bool Enabled = false;
  if (!parseAffinitySetting(Env, Enabled))
    return -1;
  return Enabled ? 1 : 0;
}

void gdp::support::setThreadAffinity(bool Enabled) {
  AffinityOverride = Enabled ? 1 : 0;
}

bool gdp::support::threadAffinityEnabled() {
  if (AffinityOverride >= 0)
    return AffinityOverride == 1;
  return threadAffinityFromEnv() == 1;
}

bool gdp::support::resolveThreadAffinity(const std::string &FlagValue,
                                         std::string *Err) {
  if (!FlagValue.empty()) {
    bool Enabled = false;
    if (!parseAffinitySetting(FlagValue, Enabled)) {
      if (Err)
        *Err = "invalid --affinity value '" + FlagValue +
               "' (expected 1/on/true or 0/off/false)";
      return false;
    }
    setThreadAffinity(Enabled);
    return true;
  }
  int FromEnv = threadAffinityFromEnv();
  if (FromEnv < 0) {
    if (Err)
      *Err = std::string("invalid GDP_AFFINITY value '") +
             std::getenv("GDP_AFFINITY") +
             "' (expected 1/on/true or 0/off/false)";
    return false;
  }
  setThreadAffinity(FromEnv == 1);
  return true;
}

ThreadPool::ThreadPool(unsigned NumThreads)
    : NumWorkers(NumThreads), Pinned(NumThreads && threadAffinityEnabled()) {
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I) {
    Workers.emplace_back([this] { workerLoop(); });
    if (Pinned)
      pinThreadToCpu(Workers.back(), I + 1);
  }
#if !defined(__linux__)
  Pinned = false; // The toggle is accepted but pinning is unavailable.
#endif
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  QueueCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
  // Inline pools (and a stopping pool with a nonempty queue) still owe the
  // queued futures a result; run the leftovers here.
  while (runOneTask())
    ;
}

void ThreadPool::enqueue(std::function<void()> Task) {
  // Capture the submitting thread's span context so the task body can
  // parent its telemetry shard onto the span that spawned it (see
  // telemetry::inheritedContext). Captured here — on the submitter — and
  // installed around the body wherever it ends up running.
  telemetry::SpanContext Ctx = telemetry::currentContext();
  auto Run = [Ctx, Task = std::move(Task)] {
    telemetry::InheritedContextScope Scope(Ctx);
    Task();
  };
  if (NumWorkers == 0) {
    // Inline mode: execute immediately, in submission order, on this
    // thread — the exact serial behaviour.
    Run();
    return;
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Queue.push_back(std::move(Run));
  }
  QueueCV.notify_one();
}

bool ThreadPool::runOneTask() {
  std::function<void()> Task;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Queue.empty())
      return false;
    Task = std::move(Queue.front());
    Queue.pop_front();
  }
  Task(); // packaged_task captures any exception in its future.
  return true;
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      QueueCV.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
  }
}

//===- partition/UnlockedRHOP.cpp - Shared unlocked RHOP results ------------===//

#include "partition/UnlockedRHOP.h"

#include <algorithm>

using namespace gdp;

std::shared_ptr<const UnlockedRHOP>
UnlockedRHOPTable::get(const MachineModel &MM, const RHOPOptions &Opt,
                       const std::function<ClusterAssignment()> &Run) {
  auto SameKey = [&](const Slot &S) { return S.Opt == Opt && S.MM == MM; };
  std::promise<std::shared_ptr<const UnlockedRHOP>> Promise;
  std::shared_future<std::shared_ptr<const UnlockedRHOP>> F;
  bool Build = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = std::find_if(Slots.begin(), Slots.end(), SameKey);
    if (It != Slots.end()) {
      Slots.splice(Slots.begin(), Slots, It);
      F = It->F;
    } else {
      F = Promise.get_future().share();
      Slots.push_front({MM, Opt, F});
      // An evicted slot still in flight completes for its waiters, who
      // hold the future.
      if (Slots.size() > Capacity)
        Slots.pop_back();
      Build = true;
    }
  }
  if (Build) {
    try {
      auto Built = std::make_shared<UnlockedRHOP>();
      {
        telemetry::ScopedSession Scope(Built->Telemetry);
        Built->Assignment = Run();
      }
      Promise.set_value(std::move(Built));
    } catch (...) {
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        Slots.remove_if(SameKey);
      }
      Promise.set_exception(std::current_exception());
    }
  }
  std::shared_ptr<const UnlockedRHOP> Result = F.get();
  if (telemetry::TelemetrySession *S = telemetry::session())
    S->stats().mergeFrom(Result->Telemetry.stats());
  return Result;
}

size_t UnlockedRHOPTable::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Slots.size();
}

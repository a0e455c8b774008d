//===- partition/PartitionTables.cpp - Once-per-preparation passes ----------===//

#include "partition/PartitionTables.h"

#include "support/Telemetry.h"

using namespace gdp;

void gdp::detail::recordSlotBuild(telemetry::StatsRegistry &Out,
                                  const std::function<void()> &Build) {
  telemetry::TelemetrySession Private;
  {
    telemetry::ScopedSession Scope(Private);
    Build();
  }
  Out.mergeFrom(Private.stats());
}

void gdp::detail::replaySlotStats(const telemetry::StatsRegistry &Stats) {
  if (telemetry::TelemetrySession *S = telemetry::session())
    S->stats().mergeFrom(Stats);
}

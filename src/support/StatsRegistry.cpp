//===- support/StatsRegistry.cpp - Named counters and histograms ------------===//

#include "support/StatsRegistry.h"

#include "support/Json.h"
#include "support/StrUtil.h"

#include <cmath>

using namespace gdp;
using namespace gdp::telemetry;
using gdp::support::json::escape;

void StatsRegistry::addCounter(const std::string &Name, uint64_t Delta) {
  std::lock_guard<std::mutex> Lock(Mu);
  Counters[Name] += Delta;
}

void StatsRegistry::recordValue(const std::string &Name, double Value) {
  std::lock_guard<std::mutex> Lock(Mu);
  Values[Name].add(Value);
  Quantiles[Name].add(Value);
}

void StatsRegistry::addTime(const std::string &Name, double Seconds) {
  std::lock_guard<std::mutex> Lock(Mu);
  Timers[Name] += Seconds;
}

uint64_t StatsRegistry::getCounter(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

double StatsRegistry::getTime(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Timers.find(Name);
  return It == Timers.end() ? 0 : It->second;
}

ValueStats StatsRegistry::getValue(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Values.find(Name);
  return It == Values.end() ? ValueStats() : It->second;
}

LogHistogram StatsRegistry::getQuantileHistogram(
    const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Quantiles.find(Name);
  return It == Quantiles.end() ? LogHistogram() : It->second;
}

double StatsRegistry::quantile(const std::string &Name, double Q) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Quantiles.find(Name);
  return It == Quantiles.end() ? 0 : It->second.quantile(Q);
}

size_t StatsRegistry::numCounters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counters.size();
}

std::map<std::string, uint64_t> StatsRegistry::counterSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counters;
}

std::map<std::string, double> StatsRegistry::timerSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Timers;
}

std::map<std::string, ValueStats> StatsRegistry::valueSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Values;
}

std::map<std::string, LogHistogram> StatsRegistry::quantileSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Quantiles;
}

void StatsRegistry::mergeFrom(const StatsRegistry &O) {
  // Copy the source under its own lock first; locking both would risk
  // deadlock if two registries merged into each other concurrently.
  std::map<std::string, uint64_t> OC;
  std::map<std::string, ValueStats> OV;
  std::map<std::string, LogHistogram> OQ;
  std::map<std::string, double> OT;
  {
    std::lock_guard<std::mutex> Lock(O.Mu);
    OC = O.Counters;
    OV = O.Values;
    OQ = O.Quantiles;
    OT = O.Timers;
  }
  std::lock_guard<std::mutex> Lock(Mu);
  for (const auto &[Name, V] : OC)
    Counters[Name] += V;
  for (const auto &[Name, V] : OV)
    Values[Name].merge(V);
  for (const auto &[Name, V] : OQ)
    Quantiles[Name].merge(V);
  for (const auto &[Name, V] : OT)
    Timers[Name] += V;
}

void StatsRegistry::mergeValue(const std::string &Name,
                               const ValueStats &V) {
  std::lock_guard<std::mutex> Lock(Mu);
  Values[Name].merge(V);
}

void StatsRegistry::mergeQuantile(const std::string &Name,
                                  const LogHistogram &H) {
  std::lock_guard<std::mutex> Lock(Mu);
  Quantiles[Name].merge(H);
}

void StatsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  Counters.clear();
  Values.clear();
  Quantiles.clear();
  Timers.clear();
}

namespace {

/// Round-trippable number rendering shared by both exports; non-finite
/// values render as 0 so neither format ever carries NaN or inf.
std::string formatNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  return formatStr("%.17g", V);
}

} // namespace

std::string StatsRegistry::toJson() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out = "{\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, V] : Counters) {
    Out += First ? "\n" : ",\n";
    Out += formatStr("    \"%s\": %llu", escape(Name).c_str(),
                     static_cast<unsigned long long>(V));
    First = false;
  }
  Out += "\n  },\n  \"values\": {";
  First = true;
  for (const auto &[Name, V] : Values) {
    Out += First ? "\n" : ",\n";
    Out += formatStr(
        "    \"%s\": {\"count\": %llu, \"sum\": %s, \"min\": %s, "
        "\"max\": %s, \"mean\": %s}",
        escape(Name).c_str(), static_cast<unsigned long long>(V.Count),
        formatNumber(V.Sum).c_str(), formatNumber(V.Min).c_str(),
        formatNumber(V.Max).c_str(), formatNumber(V.mean()).c_str());
    First = false;
  }
  Out += "\n  },\n  \"quantiles\": {";
  First = true;
  for (const auto &[Name, V] : Quantiles) {
    Out += First ? "\n" : ",\n";
    Out += formatStr(
        "    \"%s\": {\"count\": %llu, \"p50\": %s, \"p90\": %s, "
        "\"p99\": %s}",
        escape(Name).c_str(), static_cast<unsigned long long>(V.count()),
        formatNumber(V.quantile(0.5)).c_str(),
        formatNumber(V.quantile(0.9)).c_str(),
        formatNumber(V.quantile(0.99)).c_str());
    First = false;
  }
  Out += "\n  },\n  \"timers_sec\": {";
  First = true;
  for (const auto &[Name, V] : Timers) {
    Out += First ? "\n" : ",\n";
    Out += formatStr("    \"%s\": %s", escape(Name).c_str(),
                     formatNumber(V).c_str());
    First = false;
  }
  Out += "\n  }\n}\n";
  return Out;
}

std::string StatsRegistry::prometheusName(const std::string &Name) {
  std::string Out = "gdp_";
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_' || C == ':';
    Out += Ok ? C : '_';
  }
  return Out;
}

std::string StatsRegistry::toPrometheus(bool IncludeTimers) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out;
  for (const auto &[Name, V] : Counters) {
    std::string M = prometheusName(Name);
    Out += formatStr("# TYPE %s counter\n%s %llu\n", M.c_str(), M.c_str(),
                     static_cast<unsigned long long>(V));
  }
  for (const auto &[Name, V] : Values) {
    std::string M = prometheusName(Name);
    Out += formatStr("# TYPE %s summary\n", M.c_str());
    auto It = Quantiles.find(Name);
    if (It != Quantiles.end())
      for (double Q : {0.5, 0.9, 0.99})
        Out += formatStr("%s{quantile=\"%g\"} %s\n", M.c_str(), Q,
                         formatNumber(It->second.quantile(Q)).c_str());
    Out += formatStr("%s_sum %s\n%s_count %llu\n", M.c_str(),
                     formatNumber(V.Sum).c_str(), M.c_str(),
                     static_cast<unsigned long long>(V.Count));
  }
  if (IncludeTimers)
    for (const auto &[Name, V] : Timers) {
      std::string M = prometheusName(Name) + "_seconds";
      Out += formatStr("# TYPE %s counter\n%s %s\n", M.c_str(), M.c_str(),
                       formatNumber(V).c_str());
    }
  return Out;
}

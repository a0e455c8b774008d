//===- support/Telemetry.cpp - Telemetry facade -----------------------------===//

#include "support/Telemetry.h"

#include "support/StrUtil.h"

using namespace gdp;
using namespace gdp::telemetry;

constinit thread_local TelemetrySession *gdp::telemetry::detail::Current =
    nullptr;
constinit thread_local uint64_t gdp::telemetry::detail::CurrentSpanId = 0;
constinit thread_local uint64_t gdp::telemetry::detail::InheritedSpanId = 0;

TelemetrySession *gdp::telemetry::install(TelemetrySession *S) {
  TelemetrySession *Prev = detail::Current;
  detail::Current = S;
  return Prev;
}

// Attribute bodies live out of line so the header stays formatting-free;
// the disabled path returns before any of them can allocate.

Span &Span::attr(const char *Key, const char *V) {
  if (S)
    Args.push_back({Key, V, /*IsString=*/true});
  return *this;
}

Span &Span::attr(const char *Key, const std::string &V) {
  if (S)
    Args.push_back({Key, V, /*IsString=*/true});
  return *this;
}

Span &Span::attr(const char *Key, uint64_t V) {
  if (S)
    Args.push_back({Key,
                    formatStr("%llu", static_cast<unsigned long long>(V)),
                    /*IsString=*/false});
  return *this;
}

Span &Span::attr(const char *Key, int64_t V) {
  if (S)
    Args.push_back({Key, formatStr("%lld", static_cast<long long>(V)),
                    /*IsString=*/false});
  return *this;
}

Span &Span::attr(const char *Key, double V) {
  if (S)
    Args.push_back({Key, formatStr("%.17g", V), /*IsString=*/false});
  return *this;
}

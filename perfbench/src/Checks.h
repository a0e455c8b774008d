//===- perfbench/src/Checks.h - Output checks -------------------*- C++ -*-===//
//
// The checks every benchmark output must pass. Each returns an empty
// string when the output is correct and a one-line reason otherwise, so
// the caller can count the failing operation against its attempts.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "Bench.h"

#include <string>

namespace gdp {
class ProfileData;
class Program;
struct SimResult;
} // namespace gdp

namespace perfbench {

/// A compile cell must have produced a usable result.
std::string checkCellOk(const gdp::PipelineResult &R);

/// Under GDP, ProfileMax and Naive every memory operation must sit on its
/// home cluster (DataPlacement::homeOfOp) and every malloc on its site's
/// home. Unified places no data and passes trivially.
std::string checkPlacement(const gdp::Program &P, const gdp::ProfileData &Prof,
                           const gdp::PipelineResult &R);

/// The simulator extends, never undercuts, the static estimate.
std::string checkSim(const gdp::PipelineResult &R,
                     const gdp::SimResult &S);

/// A cell must give the same cycles and moves on every pass.
std::string checkRepeat(const CellOutcome &First, const CellOutcome &Now);

/// Extracts cycles and moves from a gdpd partition response body. False
/// when a field is missing or malformed.
bool parseServeBody(const std::string &Body, CellOutcome &Out);

/// An Ok serve response must carry exactly the reference cycles and moves
/// of an in-process runStrategy on the same (spec, strategy, latency).
std::string checkServeBody(const std::string &Body, const CellOutcome &Ref);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H

//===- perfbench/src/Compile.cpp - suite_matrix ---------------------------===//
//
// The compile workload runs on one thread. Every pass builds and prepares
// fresh Programs with prepareProgram (never through PreparedProgramCache:
// preparation mutates the program, and a cache hit would skip the work
// being measured), evaluates every cell with runStrategy and replays
// every cell through the cycle simulator.
//
// A "request" of the compile workload is one cell, (program, strategy,
// latency): the same triple a gdpd partition request names. Cells whose
// program is already prepared in the pass are the warm requests (p50_ms,
// p99_ms); the first cell of each program pays build + prepare and is
// the cold one (miss_p50_ms), as a never-seen spec is for gdpd.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"

#include "sim/Simulator.h"
#include "support/StrUtil.h"

#include <map>
#include <tuple>

using namespace gdp;

namespace perfbench {

namespace {

/// The move latencies of the Figure 7/8 matrix.
const std::vector<unsigned> kLats = {1, 5, 10};

/// One set-up repetition: the suite programs, each built and prepared
/// once.
double setupInputs(std::vector<Source> &Programs) {
  auto T0 = Clock::now();
  Programs = suiteSources();
  for (const Source &S : Programs) {
    auto P = S.build();
    if (P)
      (void)prepareProgram(*P, 200000000ULL, /*CaptureTrace=*/true);
  }
  return secondsSince(T0);
}

} // namespace

Report runCompileWorkload(const Options &Opt) {
  Report R;
  // Set-up, kSetupReps times: build and prepare each program once (the
  // warm-up). setup_s is the median.
  std::vector<Source> Programs;
  std::vector<double> Setups;
  for (int I = 0; I != kSetupReps; ++I)
    Setups.push_back(setupInputs(Programs));

  const auto &Strategies = allStrategies();
  std::map<std::tuple<size_t, size_t, size_t>, CellOutcome> FirstPass;
  std::map<std::pair<size_t, size_t>, std::pair<uint64_t, uint64_t>>
      UnifiedGdp; // (program, lat) -> (Unified, GDP) cycles
  // Per pass: compile and simulation seconds (each metric is the median
  // over passes). Cell latencies are pooled over the whole run: the
  // slowest few cells of a pass straddle the 99th percentile of one pass,
  // so a per-pass p99 jumps between them.
  std::vector<double> CompileS, SimS, WarmMs, MissMs;
  uint64_t OkCells = 0;

  // At least three passes; after that, a pass starts only if it should
  // end within half a pass of the deadline.
  std::vector<double> PassWall;
  auto T0 = Clock::now();
  for (unsigned Pass = 0;
       Pass < 3 || secondsSince(T0) + median(PassWall) / 2 < Opt.Seconds;
       ++Pass) {
    auto TPass = Clock::now();
    double Compile = 0, Sim = 0;
    for (size_t PI = 0; PI != Programs.size(); ++PI) {
      const Source &Src = Programs[PI];
      auto TB = Clock::now();
      auto Prog = Src.build();
      PreparedProgram PP;
      if (Prog)
        PP = prepareProgram(*Prog, 200000000ULL, /*CaptureTrace=*/true);
      double BuildPrep = secondsSince(TB);
      Compile += BuildPrep;
      bool Cold = true;
      for (size_t LI = 0; LI != kLats.size(); ++LI)
        for (size_t SI = 0; SI != Strategies.size(); ++SI) {
          if (!Prog || !PP.Ok) {
            R.T.record(Src.Label + ": preparation failed: " + PP.Error);
            continue;
          }
          PipelineOptions PO;
          PO.Strategy = Strategies[SI];
          PO.MoveLatency = kLats[LI];
          auto TC = Clock::now();
          PipelineResult Res = runStrategy(PP, PO);
          double CellS = secondsSince(TC);
          Compile += CellS;
          (Cold ? MissMs : WarmMs).push_back((Cold ? BuildPrep + CellS
                                                   : CellS) *
                                             1e3);
          Cold = false;

          std::string Why = checkCellOk(Res);
          if (Why.empty())
            Why = checkPlacement(*Prog, PP.Prof, Res);
          if (Why.empty()) {
            auto TS = Clock::now();
            SimResult SR = simulateStrategy(PP, Res, PO);
            Sim += secondsSince(TS);
            Why = checkSim(Res, SR);
          }
          CellOutcome Out = outcomeOf(Res);
          auto Key = std::make_tuple(PI, LI, SI);
          if (Why.empty()) {
            auto [It, Fresh] = FirstPass.emplace(Key, Out);
            if (!Fresh)
              Why = checkRepeat(It->second, Out);
          }
          if (Pass == 0 && Res.Degraded)
            ++R.T.Degraded;
          if (Pass == 0 && Why.empty()) {
            auto &UG = UnifiedGdp[{PI, LI}];
            if (Strategies[SI] == StrategyKind::Unified)
              UG.first = Res.Cycles;
            if (Strategies[SI] == StrategyKind::GDP)
              UG.second = Res.Cycles;
          }
          if (!Why.empty())
            Why = formatStr("%s %s lat%u: ", Src.Label.c_str(),
                            strategyName(Strategies[SI]), kLats[LI]) +
                  Why;
          else
            ++OkCells;
          R.T.record(Why);
        }
    }
    CompileS.push_back(Compile);
    SimS.push_back(Sim);
    PassWall.push_back(secondsSince(TPass));
  }
  double Wall = secondsSince(T0);

  std::vector<double> Ratios;
  for (auto &[Key, UG] : UnifiedGdp)
    if (UG.first && UG.second)
      Ratios.push_back(static_cast<double>(UG.first) /
                       static_cast<double>(UG.second));

  R.add("setup_s", median(Setups), Setups.size());
  R.add("compile_s", median(CompileS), CompileS.size());
  R.add("sim_s", median(SimS), SimS.size());
  R.add("gdp_rel_perf", geomean(Ratios), Ratios.size());
  R.add("peak_rss_mb", peakRssMb(), 1);
  R.add("rps", static_cast<double>(OkCells) / Wall, OkCells);
  R.add("p50_ms", percentile(WarmMs, 0.5), WarmMs.size());
  R.add("p99_ms", percentile(WarmMs, 0.99), WarmMs.size());
  R.add("miss_p50_ms", percentile(MissMs, 0.5), MissMs.size());
  std::string PassList;
  for (double C : CompileS)
    PassList += formatStr(" %.3f", C);
  R.Notes.push_back(formatStr("%zu passes in %.2fs; compile_s per pass:%s",
                              CompileS.size(), Wall, PassList.c_str()));
  return R;
}

} // namespace perfbench

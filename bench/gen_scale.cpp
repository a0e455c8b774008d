//===- bench/gen_scale.cpp - Generated-program compile-time scaling -----------===//
//
// Stretches the compile-time pipeline over seeded generated programs far
// larger than the bundled workload suite: generation, preparation (via the
// process-wide PreparedProgramCache, cold then warm, so cache behaviour is
// part of the record), and the full four-strategy evaluation matrix on a
// thread pool at several thread counts. Emits BENCH_gen.json:
//
//   gen_scale [--out=FILE] [--sizes=N,N,...] [--threads-list=N,N,...]
//             [--lat=N] [--deterministic]
//
// Defaults: sizes 1000,10000,100000 · threads 1,2,8 · BENCH_gen.json.
//
// Every record is deterministic apart from *_sec wall-clock fields
// (zeroed under --deterministic); the phase seconds are the timers of each
// evaluation's telemetry shard (sim/Evaluate.h). The binary
// self-checks the determinism contract: for each program size, the
// per-strategy results (cycles, moves, rhop runs) must be byte-identical
// at every thread count; a violation prints the failing program's
// one-line repro and exits 1.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "gen/Generator.h"
#include "partition/PreparedCache.h"
#include "partition/PartitionTables.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

using namespace gdp;
using namespace gdp::bench;

namespace {

double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string jsonDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

std::string u64(uint64_t V) {
  return formatStr("%llu", static_cast<unsigned long long>(V));
}

/// One strategy evaluated at one thread count.
struct StrategyCell {
  const char *Name;
  PipelineResult R;
  double PartitionSec = 0;
  double DataPartitionSec = 0;
  double RhopSec = 0;
  double ScheduleSec = 0;
  /// The deterministic summary compared across thread counts.
  std::string fingerprint() const {
    return formatStr("%s cycles=%llu dyn=%llu static=%llu rhop=%u ok=%d",
                     Name, static_cast<unsigned long long>(R.Cycles),
                     static_cast<unsigned long long>(R.DynamicMoves),
                     static_cast<unsigned long long>(R.StaticMoves),
                     R.RHOPRuns, R.ok() ? 1 : 0);
  }
};

struct ThreadRun {
  unsigned Threads = 1;
  double MatrixWallSec = 0;
  std::vector<StrategyCell> Cells;
};

struct SizeRecord {
  unsigned Ops = 0;
  uint64_t Seed = 0;
  unsigned StaticOps = 0;
  unsigned Objects = 0;
  double GenSec = 0;
  double PrepareSec = 0;
  uint64_t CacheColdMisses = 0;
  uint64_t CacheWarmHits = 0;
  std::string Repro;
  std::vector<ThreadRun> Runs;
  bool DeterministicAcrossThreads = true;
};

/// Parses a comma-separated list of positive integers into \p Out.
bool parseList(const std::string &V, std::vector<unsigned> &Out) {
  Out.clear();
  for (size_t Pos = 0;;) {
    size_t Comma = V.find(',', Pos);
    if (!parsePositive(V.substr(Pos, Comma - Pos), Out.emplace_back()))
      return false;
    if (Comma == std::string::npos)
      return true;
    Pos = Comma + 1;
  }
}

std::string renderJson(const std::vector<SizeRecord> &Records,
                       unsigned Latency, bool Deterministic) {
  auto Sec = [&](double V) { return jsonDouble(Deterministic ? 0 : V); };
  std::string S = "{\n  \"schema\": \"gdp-gen-scale-v1\",\n";
  S += "  \"move_latency\": " + std::to_string(Latency) + ",\n";
  S += "  \"deterministic\": " +
       std::string(Deterministic ? "true" : "false") + ",\n";
  S += "  \"records\": [";
  for (size_t I = 0; I != Records.size(); ++I) {
    const SizeRecord &R = Records[I];
    S += I ? ",\n    {" : "\n    {";
    S += "\n      \"ops\": " + std::to_string(R.Ops) + ",";
    S += "\n      \"seed\": " + u64(R.Seed) + ",";
    S += "\n      \"static_ops\": " + std::to_string(R.StaticOps) + ",";
    S += "\n      \"objects\": " + std::to_string(R.Objects) + ",";
    S += "\n      \"gen_sec\": " + Sec(R.GenSec) + ",";
    S += "\n      \"prepare_sec\": " + Sec(R.PrepareSec) + ",";
    S += "\n      \"cache_cold_misses\": " + u64(R.CacheColdMisses) + ",";
    S += "\n      \"cache_warm_hits\": " + u64(R.CacheWarmHits) + ",";
    S += "\n      \"deterministic_across_threads\": " +
         std::string(R.DeterministicAcrossThreads ? "true" : "false") + ",";
    S += "\n      \"repro\": \"" + R.Repro + "\",";
    S += "\n      \"thread_runs\": [";
    for (size_t T = 0; T != R.Runs.size(); ++T) {
      const ThreadRun &TR = R.Runs[T];
      S += T ? ",\n        {" : "\n        {";
      S += " \"threads\": " + std::to_string(TR.Threads) + ",";
      S += " \"matrix_wall_sec\": " + Sec(TR.MatrixWallSec) + ",";
      S += " \"strategies\": [";
      for (size_t C = 0; C != TR.Cells.size(); ++C) {
        const StrategyCell &Cell = TR.Cells[C];
        S += C ? ", {" : " {";
        S += " \"strategy\": \"" + std::string(Cell.Name) + "\",";
        S += " \"cycles\": " + u64(Cell.R.Cycles) + ",";
        S += " \"dyn_moves\": " + u64(Cell.R.DynamicMoves) + ",";
        S += " \"static_moves\": " + u64(Cell.R.StaticMoves) + ",";
        S += " \"rhop_runs\": " + std::to_string(Cell.R.RHOPRuns) + ",";
        S += " \"partition_sec\": " + Sec(Cell.PartitionSec) + ",";
        S += " \"data_partition_sec\": " + Sec(Cell.DataPartitionSec) + ",";
        S += " \"rhop_sec\": " + Sec(Cell.RhopSec) + ",";
        S += " \"schedule_sec\": " + Sec(Cell.ScheduleSec) + " }";
      }
      S += " ] }";
    }
    S += "\n      ]";
    S += "\n    }";
  }
  S += "\n  ]\n}\n";
  return S;
}

} // namespace

int main(int argc, char **argv) {
  initBench(argc, argv);

  std::string OutPath = "BENCH_gen.json";
  std::vector<unsigned> Sizes = {1000, 10000, 100000};
  std::vector<unsigned> ThreadCounts = {1, 2, 8};
  unsigned Latency = 5;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    bool Ok = true;
    if (Arg.rfind("--out=", 0) == 0)
      OutPath = Arg.substr(6);
    else if (Arg.rfind("--sizes=", 0) == 0)
      Ok = parseList(Arg.substr(8), Sizes);
    else if (Arg.rfind("--threads-list=", 0) == 0)
      Ok = parseList(Arg.substr(15), ThreadCounts);
    else if (Arg.rfind("--lat=", 0) == 0)
      Ok = parsePositive(Arg.substr(6), Latency);
    else
      Ok = false;
    if (!Ok)
      usageError(Arg, "gen_scale [--out=FILE] [--sizes=N,N,...]\n"
                      "                 [--threads-list=N,N,...] [--lat=N]\n"
                      "                 [--deterministic]");
  }

  banner(formatStr("Generated-program compile-time scaling (%zu sizes, "
                   "latency %u)",
                   Sizes.size(), Latency),
         "tooling benchmark; generator corpus, not a paper figure");

  const StrategyKind Kinds[] = {StrategyKind::Unified, StrategyKind::GDP,
                                StrategyKind::ProfileMax,
                                StrategyKind::Naive};

  std::vector<SizeRecord> Records;
  bool AllDeterministic = true;
  for (size_t SI = 0; SI != Sizes.size(); ++SI) {
    SizeRecord Rec;
    Rec.Ops = Sizes[SI];
    Rec.Seed = 101 + SI; // Fixed per-size seeds: records are comparable
                         // across runs and machines.
    gen::GenOptions GO = gen::GenOptions::scale(Rec.Seed, Rec.Ops);
    Rec.Repro = gen::reproCommand(GO);

    double GenBegin = nowSec();
    std::unique_ptr<Program> Probe = gen::generateProgram(GO);
    Rec.GenSec = nowSec() - GenBegin;
    if (!Probe) {
      std::fprintf(stderr, "error: generation failed (%s)\n",
                   Rec.Repro.c_str());
      return 1;
    }
    Rec.StaticOps = Probe->getNumOps();
    Rec.Objects = Probe->getNumObjects();

    // Preparation through the shared cache: the first get is a cold miss
    // (builds + profiles), the second a warm hit. Both counters go into
    // the record — the cache-behaviour axis of this bench.
    telemetry::TelemetrySession CacheSession;
    {
      telemetry::ScopedSession Scope(CacheSession);
      std::string Key = "gen_scale:" + Rec.Repro;
      auto Build = [&GO](std::vector<support::Diag> &) {
        return gen::generateProgram(GO);
      };
      auto Cold = PreparedProgramCache::global().get(
          Key, /*CaptureTrace=*/false, Build);
      if (!Cold->Prog || !Cold->PP.Ok) {
        std::fprintf(stderr, "error: preparation failed (%s): %s\n",
                     Rec.Repro.c_str(), Cold->PP.Error.c_str());
        return 1;
      }
      Rec.PrepareSec = Cold->PP.PrepareSeconds;
      PreparedProgramCache::global().get(Key, false, Build);
    }
    Rec.CacheColdMisses =
        CacheSession.stats().getCounter("prepared_cache.misses");
    Rec.CacheWarmHits =
        CacheSession.stats().getCounter("prepared_cache.hits");

    auto Cached = PreparedProgramCache::global().get(
        "gen_scale:" + Rec.Repro, false,
        [&GO](std::vector<support::Diag> &) {
          return gen::generateProgram(GO);
        });
    const PreparedProgram &PP = Cached->PP;

    // The four-strategy matrix at each thread count. Results must be
    // identical at every count (docs/PARALLELISM.md); wall time is the
    // scalability signal.
    std::string Spec = formatStr("gen:%llu:%u",
                                 static_cast<unsigned long long>(Rec.Seed),
                                 Rec.Ops);
    for (unsigned T : ThreadCounts) {
      ThreadRun TR;
      TR.Threads = T;
      // Each thread count starts from fresh partition tables, so its wall
      // time does not reuse passes an earlier count made.
      PreparedProgram Fresh = PP;
      Fresh.Tables = std::make_shared<PartitionTables>();
      std::vector<EvalCell> Cells(std::size(Kinds));
      for (size_t C = 0; C != Cells.size(); ++C) {
        Cells[C].PP = &Fresh;
        Cells[C].Opt.Strategy = Kinds[C];
        Cells[C].Opt.MoveLatency = Latency;
        Cells[C].Scope = Spec + "|" + strategyName(Kinds[C]) + "|lat" +
                         std::to_string(Latency);
      }
      double Begin = nowSec();
      std::vector<CellResult> Results =
          evaluateCells(Cells, T, support::FaultPlan::fromEnv());
      TR.MatrixWallSec = nowSec() - Begin;
      for (size_t C = 0; C != Cells.size(); ++C) {
        const telemetry::StatsRegistry &Stats = Results[C].Shard->stats();
        StrategyCell Cell{strategyName(Kinds[C]), std::move(Results[C].R)};
        Cell.PartitionSec = partitionSeconds(Stats);
        Cell.DataPartitionSec = Stats.getTime("pipeline.data_partition");
        Cell.RhopSec = Stats.getTime("pipeline.rhop");
        Cell.ScheduleSec = Stats.getTime("pipeline.schedule");
        TR.Cells.push_back(std::move(Cell));
      }
      Rec.Runs.push_back(std::move(TR));
    }

    // Self-check: per-strategy fingerprints byte-identical across counts.
    for (size_t T = 1; T < Rec.Runs.size(); ++T)
      for (size_t C = 0; C != Rec.Runs[T].Cells.size(); ++C)
        if (Rec.Runs[T].Cells[C].fingerprint() !=
            Rec.Runs[0].Cells[C].fingerprint()) {
          Rec.DeterministicAcrossThreads = false;
          std::fprintf(
              stderr,
              "error: nondeterministic result at %u threads vs %u:\n"
              "  %s\n  vs %s\n  repro: %s\n",
              Rec.Runs[T].Threads, Rec.Runs[0].Threads,
              Rec.Runs[T].Cells[C].fingerprint().c_str(),
              Rec.Runs[0].Cells[C].fingerprint().c_str(),
              Rec.Repro.c_str());
        }
    AllDeterministic &= Rec.DeterministicAcrossThreads;
    Records.push_back(std::move(Rec));
  }

  TextTable Table({"ops", "static ops", "objects", "gen ms", "prepare ms",
                   "gdp partition ms", "matrix ms (1t)",
                   formatStr("matrix ms (%ut)", ThreadCounts.back())});
  for (const SizeRecord &R : Records) {
    double GdpPart = 0;
    for (const StrategyCell &C : R.Runs.front().Cells)
      if (std::string(C.Name) == "GDP")
        GdpPart = C.PartitionSec;
    Table.addRow({std::to_string(R.Ops), std::to_string(R.StaticOps),
                  std::to_string(R.Objects),
                  formatDouble(R.GenSec * 1e3, 2),
                  formatDouble(R.PrepareSec * 1e3, 2),
                  formatDouble(GdpPart * 1e3, 2),
                  formatDouble(R.Runs.front().MatrixWallSec * 1e3, 2),
                  formatDouble(R.Runs.back().MatrixWallSec * 1e3, 2)});
  }
  std::printf("%s\n", Table.render().c_str());

  std::string Json = renderJson(Records, Latency, deterministicRecords());
  std::ofstream Out(OutPath);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  Out << Json;
  std::printf("wrote %s\n", OutPath.c_str());

  if (!AllDeterministic) {
    std::fprintf(stderr,
                 "error: determinism self-check failed (see above)\n");
    return 1;
  }
  return 0;
}

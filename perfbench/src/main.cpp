//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--spans-out FILE]
//
// Runs one workload (suite_matrix, serve_mixed). --trace 0
// measures the end-to-end metrics; --trace 1 is the separate traced run
// that times direct calls into each layer and writes its spans to
// --spans-out. The last stdout line is the JSON result object; the exit
// code is 0 whenever a result was printed (its "correct" and "failed"
// fields carry the verdict) and 1 on a usage or internal error.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Serve.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans-out FILE]\n",
               Why);
  return 1;
}

bool parseUnsigned(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.find_first_not_of("0123456789") != std::string::npos)
    return false;
  Out = std::strtoull(S.c_str(), nullptr, 10);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I], Val;
    size_t Eq = Arg.find('=');
    if (Eq != std::string::npos) {
      Val = Arg.substr(Eq + 1);
      Arg = Arg.substr(0, Eq);
    } else if (I + 1 < Argc) {
      Val = Argv[++I];
    } else {
      return usage(("missing value for " + Arg).c_str());
    }
    uint64_t N = 0;
    if (Arg == "--workload") {
      Opt.Workload = Val;
    } else if (Arg == "--seed") {
      if (!parseUnsigned(Val, Opt.Seed))
        return usage("--seed takes a non-negative integer");
    } else if (Arg == "--seconds") {
      if (!parseUnsigned(Val, N) || N == 0 || N > 3600)
        return usage("--seconds takes an integer in [1, 3600]");
      Opt.Seconds = static_cast<double>(N);
    } else if (Arg == "--trace") {
      if (Val != "0" && Val != "1")
        return usage("--trace takes 0 or 1");
      Opt.Trace = Val == "1";
    } else if (Arg == "--spans-out") {
      Opt.SpansOut = Val;
    } else {
      return usage(("unknown option " + Arg).c_str());
    }
  }
  const auto &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), Opt.Workload) == Names.end())
    return usage("--workload must be suite_matrix or serve_mixed");

  // serve_mixed, traced or not, runs on one CPU (Serve.h, README.md).
  if (Opt.Workload == "serve_mixed" && !pinToOneCpu()) {
    std::fprintf(stderr, "perfbench: cannot restrict the run to one CPU\n");
    return 1;
  }

  Report R = Opt.Trace                        ? runTracedWorkload(Opt)
             : Opt.Workload == "serve_mixed" ? runServeWorkload(Opt)
                                              : runCompileWorkload(Opt);
  return printReport(Opt, R);
}

//===- bench/bench_state_engine.cpp - State engine throughput bench --------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// Measures the sequential state engine (exec/StateVec.h + verify/
// Visited.h) on the heaviest verifier-bound Figure 9 rows (dinphilo
// N=5,T=3 and barrier1 N=3,B=3; --smoke swaps in the light rows CI can
// afford): one run-to-exhaustion check of each row's reference
// candidate (falsifier off, so the exhaustive search is the whole
// measurement) under the copy-per-successor DFS and the undo-log DFS.
// Reports states/sec and visited-key bytes/state, plus both ratios
// against the copy DFS.
//
// Flags: --smoke (light rows — the CI configuration), --json[=path]
// (rows to BENCH_state_engine.json, provenance row first).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "desugar/Flatten.h"
#include "verify/ModelChecker.h"

#include <chrono>
#include <cstring>

using namespace psketch;
using namespace psketch::bench;
using namespace psketch::verify;

namespace {

/// Finds one suite row by family and test label.
SuiteEntry findRow(const std::string &Family, const std::string &Test) {
  for (const SuiteEntry &E : paperSuite(Family))
    if (E.Test == Test)
      return E;
  std::fprintf(stderr, "error: no suite row %s %s\n", Family.c_str(),
               Test.c_str());
  std::exit(2);
}

/// The row's reference candidate (all-zeros when it has none).
ir::HoleAssignment referenceCandidate(const SuiteEntry &E,
                                      const ir::Program &P) {
  if (E.Reference)
    return E.Reference(P);
  return ir::HoleAssignment(P.holes().size(), 0);
}

struct EngineConfig {
  const char *Label;
  bool UseUndoLog;
};

struct Measurement {
  CheckResult R;
  double Seconds = 0.0;
};

Measurement timeCheck(const exec::Machine &M, const CheckerConfig &Cfg) {
  Measurement Out;
  auto T0 = std::chrono::steady_clock::now();
  Out.R = checkCandidate(M, Cfg);
  auto T1 = std::chrono::steady_clock::now();
  Out.Seconds = std::chrono::duration<double>(T1 - T0).count();
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts =
      parseBenchOptions(Argc, Argv, "state_engine", {"--smoke"});
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;

  std::vector<SuiteEntry> Rows;
  if (Smoke) {
    Rows.push_back(findRow("barrier1", "N=3,B=2"));
    Rows.push_back(findRow("dinphilo", "N=3,T=5"));
  } else {
    Rows.push_back(findRow("barrier1", "N=3,B=3"));
    Rows.push_back(findRow("dinphilo", "N=5,T=3"));
  }

  // The copy DFS first: the ratios are against it.
  const EngineConfig Configs[] = {
      {"exact+copy", false},
      {"exact+undo", true},
  };

  JsonReport Json(Opts);
  Json.add(provenanceJson(Opts.Jobs));

  std::printf("State engine microbenchmark%s\n\n", Smoke ? " [smoke]" : "");
  std::printf("Sequential run-to-exhaustion, reference candidate, "
              "falsifier off\n");
  std::printf("%-9s %-9s %-11s | %8s %9s %11s %8s | %8s %8s\n", "sketch",
              "test", "engine", "time(s)", "states", "states/s", "bytes/st",
              "xstates/s", "xbytes");
  std::printf("--------------------------------------------------------------"
              "----------------------\n");

  for (const SuiteEntry &E : Rows) {
    auto P = E.Build();
    flat::FlatProgram FP = flat::flatten(*P);
    exec::Machine M(FP, referenceCandidate(E, *P));

    double BaseRate = 0.0, BaseBytes = 0.0;
    for (const EngineConfig &C : Configs) {
      CheckerConfig Cfg;
      Cfg.UseRandomFalsifier = false; // measure the exhaustive phase only
      Cfg.UseUndoLog = C.UseUndoLog;
      Measurement Me = timeCheck(M, Cfg);
      double Rate =
          Me.Seconds > 0.0 ? Me.R.StatesExplored / Me.Seconds : 0.0;
      double BytesPerState =
          Me.R.StatesExplored
              ? static_cast<double>(Me.R.VisitedBytes) / Me.R.StatesExplored
              : 0.0;
      if (!C.UseUndoLog) {
        BaseRate = Rate;
        BaseBytes = BytesPerState;
      }
      double XRate = BaseRate > 0.0 ? Rate / BaseRate : 0.0;
      double XBytes = BaseBytes > 0.0 ? BytesPerState / BaseBytes : 0.0;
      std::printf("%-9s %-9s %-11s | %8.3f %9llu %11.0f %8.1f | %7.2fx "
                  "%7.2fx\n",
                  E.Sketch.c_str(), E.Test.c_str(), C.Label, Me.Seconds,
                  static_cast<unsigned long long>(Me.R.StatesExplored), Rate,
                  BytesPerState, XRate, XBytes);
      std::fflush(stdout);

      JsonObject O;
      O.field("kind", "micro")
          .field("sketch", E.Sketch)
          .field("test", E.Test)
          .field("engine", C.Label)
          .field("seconds", Me.Seconds)
          .field("states", Me.R.StatesExplored)
          .field("states_per_sec", Rate)
          .field("bytes_per_state", BytesPerState)
          .field("speedup_vs_exact_copy", XRate)
          .field("bytes_ratio_vs_exact_copy", XBytes)
          .field("ok", Me.R.Ok)
          .field("exhausted", Me.R.Exhausted)
          .field("smoke", Smoke);
      Json.add(O);
    }
  }

  Json.write();
  return 0;
}

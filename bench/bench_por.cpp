//===- bench/bench_por.cpp - Ample-set POR microbenchmark ------------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// Measures the ample-set partial-order reduction (CheckerConfig::Por,
// docs/POR.md) on the heaviest verifier-bound Figure 9 rows (dinphilo
// N=5,T=3 and barrier1 N=3,B=3; --smoke swaps in the light rows CI can
// afford). Two parts:
//
//  * Part A, reduction: one sequential run-to-exhaustion check of each
//    row's reference candidate (falsifier off) under Off, Local, and
//    Ample. Reports states, time, the Ample observability counters, and
//    the state-reduction ratio of each mode against Off — the number the
//    EXPERIMENTS.md table quotes.
//
//  * Part B, end to end: CEGIS per row under Off, Local, and Ample at 1,
//    2, and 4 workers. Three gates: Resolvable must match Off's
//    everywhere; Ample must be trajectory-identical to Local at the same
//    worker count (same iterations, same final assignment — Ample
//    observations are Local-canonical by construction, docs/POR.md);
//    and every Ample final assignment must re-verify Ok under an
//    Off-mode exhaustive check (the differential soundness gate — an
//    unsound reduction converging on a wrong candidate would be caught
//    here). Off's own final assignment may legitimately differ when a
//    sketch has several correct resolutions: Off-mode falsifier traces
//    schedule every micro-step, so its observations differ from
//    Local/Ample's and the SAT enumeration can surface another solution.
//
// Per-candidate verdict and counterexample agreement across Por modes,
// symmetry and worker counts is tests/test_oracle.cpp's.
//
// Flags: --smoke (light rows — the CI configuration), --json[=path]
// (rows to BENCH_por.json).
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

const char *porName(PorMode Por) {
  switch (Por) {
  case PorMode::Off:
    return "off";
  case PorMode::Local:
    return "local";
  case PorMode::Ample:
    return "ample";
  }
  return "?";
}

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

std::string assignmentStr(const ir::HoleAssignment &A) {
  std::string Out = "[";
  for (size_t I = 0; I < A.size(); ++I)
    Out += (I ? "," : "") + std::to_string(A[I]);
  return Out + "]";
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseBenchOptions(Argc, Argv, "por", {"--smoke"});
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

  const PorMode Modes[] = {PorMode::Off, PorMode::Local, PorMode::Ample};
  JsonReport Json(Opts);
  bool Gate = true; // flipped on any cross-mode disagreement

  std::printf("Partial-order reduction microbenchmark%s\n\n",
              Smoke ? " [smoke]" : "");
  std::printf("Part A: sequential run-to-exhaustion, reference candidate, "
              "falsifier off\n");
  std::printf("%-9s %-9s %-6s | %8s %9s %8s %8s %8s | %9s\n", "sketch",
              "test", "por", "time(s)", "states", "ample", "full", "sleep",
              "red.vs-off");
  std::printf("--------------------------------------------------------------"
              "--------------------\n");

  for (const SuiteEntry &E : Rows) {
    auto P = E.Build();
    flat::FlatProgram FP = flat::flatten(*P);
    exec::Machine M(FP, referenceCandidate(E, *P));

    uint64_t OffStates = 0;
    for (PorMode Por : Modes) {
      CheckerConfig Cfg;
      Cfg.UseRandomFalsifier = false; // measure the exhaustive phase only
      Cfg.Por = Por;
      Measurement Me = timeCheck(M, Cfg);
      if (Por == PorMode::Off)
        OffStates = Me.R.StatesExplored;
      double Reduction = Me.R.StatesExplored
                             ? static_cast<double>(OffStates) /
                                   static_cast<double>(Me.R.StatesExplored)
                             : 0.0;
      std::printf("%-9s %-9s %-6s | %8.3f %9llu %8llu %8llu %8llu | %8.2fx\n",
                  E.Sketch.c_str(), E.Test.c_str(), porName(Por), Me.Seconds,
                  static_cast<unsigned long long>(Me.R.StatesExplored),
                  static_cast<unsigned long long>(Me.R.AmpleStates),
                  static_cast<unsigned long long>(Me.R.FullExpansions),
                  static_cast<unsigned long long>(Me.R.SleepSkips),
                  Reduction);
      std::fflush(stdout);

      JsonObject O;
      O.field("kind", "reduction")
          .field("sketch", E.Sketch)
          .field("test", E.Test)
          .field("por", porName(Por))
          .field("seconds", Me.Seconds)
          .field("states", Me.R.StatesExplored)
          .field("ample_states", Me.R.AmpleStates)
          .field("full_expansions", Me.R.FullExpansions)
          .field("sleep_skips", Me.R.SleepSkips)
          .field("reduction_vs_off", Reduction)
          .field("ok", Me.R.Ok)
          .field("exhausted", Me.R.Exhausted)
          .field("smoke", Smoke);
      Json.add(O);
    }
  }

  std::printf("\nPart B: end-to-end CEGIS (gates: verdict == off; ample "
              "trajectory == local;\n         ample answer re-verifies "
              "under off)\n");
  std::printf("%-9s %-9s %-6s %3s | %-4s %5s | %-9s\n", "sketch", "test",
              "por", "W", "res", "itns", "gates");
  std::printf("------------------------------------------------------\n");

  for (const SuiteEntry &E : Rows) {
    auto RunCegis = [&](PorMode Por, unsigned W) {
      auto P = E.Build();
      cegis::CegisConfig Cfg;
      Cfg.MaxIterations = 500;
      Cfg.TimeLimitSeconds = 600;
      Cfg.Checker.Por = Por;
      Cfg.Checker.NumThreads = W;
      cegis::ConcurrentCegis C(*P, Cfg);
      return C.run();
    };
    // Re-verifies a final assignment with an exhaustive Off-mode check.
    auto VerifiesUnderOff = [&](const ir::HoleAssignment &A) {
      auto P = E.Build();
      flat::FlatProgram FP = flat::flatten(*P);
      exec::Machine M(FP, A);
      CheckerConfig Cfg;
      Cfg.UseRandomFalsifier = false;
      Cfg.Por = PorMode::Off;
      CheckResult R = checkCandidate(M, Cfg);
      return R.Ok && !R.Exhausted;
    };

    cegis::CegisResult Base = RunCegis(PorMode::Off, 1);
    std::printf("%-9s %-9s %-6s %3u | %-4s %5u | %-9s\n", E.Sketch.c_str(),
                E.Test.c_str(), "off", 1,
                Base.Stats.Resolvable ? "yes" : "NO", Base.Stats.Iterations,
                "(base)");
    std::fflush(stdout);
    for (unsigned W : {1u, 2u, 4u}) {
      cegis::CegisResult RL = RunCegis(PorMode::Local, W);
      cegis::CegisResult R = RunCegis(PorMode::Ample, W);
      bool VerdictAgree = R.Stats.Resolvable == Base.Stats.Resolvable &&
                          RL.Stats.Resolvable == Base.Stats.Resolvable;
      bool TrajectoryAgree = R.Stats.Iterations == RL.Stats.Iterations &&
                             R.Candidate == RL.Candidate;
      bool CrossVerifies =
          !R.Stats.Resolvable || VerifiesUnderOff(R.Candidate);
      bool Agree = VerdictAgree && TrajectoryAgree && CrossVerifies;
      Gate = Gate && Agree;
      std::printf("%-9s %-9s %-6s %3u | %-4s %5u | %-9s\n", E.Sketch.c_str(),
                  E.Test.c_str(), "ample", W,
                  R.Stats.Resolvable ? "yes" : "NO", R.Stats.Iterations,
                  Agree ? "yes" : "DISAGREE");
      std::fflush(stdout);

      JsonObject O;
      O.field("kind", "cegis")
          .field("sketch", E.Sketch)
          .field("test", E.Test)
          .field("por", "ample")
          .field("workers", W)
          .field("resolvable", R.Stats.Resolvable)
          .field("base_resolvable", Base.Stats.Resolvable)
          .field("iterations", static_cast<uint64_t>(R.Stats.Iterations))
          .field("local_iterations",
                 static_cast<uint64_t>(RL.Stats.Iterations))
          .field("base_iterations",
                 static_cast<uint64_t>(Base.Stats.Iterations))
          .field("assignment", assignmentStr(R.Candidate))
          .field("local_assignment", assignmentStr(RL.Candidate))
          .field("base_assignment", assignmentStr(Base.Candidate))
          .field("ample_states", R.Stats.AmpleStates)
          .field("full_expansions", R.Stats.FullExpansions)
          .field("sleep_skips", R.Stats.SleepSkips)
          .field("verdict_agrees", VerdictAgree)
          .field("trajectory_matches_local", TrajectoryAgree)
          .field("cross_verifies_under_off", CrossVerifies)
          .field("agrees", Agree)
          .field("smoke", Smoke);
      Json.add(O);
    }
  }

  Json.write();
  if (!Gate) {
    std::fprintf(stderr, "error: cross-mode disagreement (see DISAGREE "
                         "rows)\n");
    return 1;
  }
  std::printf("\nall cells agree across Off/Local/Ample and worker counts\n");
  return 0;
}

//===- bench/bench_sat_incremental.cpp - warm-started solver gate ----------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// Measures and gates the warm-started incremental SAT core
// (sat::Solver::setWarmStart, docs/SOLVER.md). Every row runs the full
// CEGIS loop twice — warm start off (the from-scratch trajectory every
// prior PR shipped) and on (trail-reusing re-solves + replay, persistent
// Luby round, between-solve inprocessing, scoped enumeration) — and
// gates:
//
//  * Verdict agreement (hard gate, all modes): Resolvable must be
//    identical. The warm instance is equisatisfiable with the cold one
//    at every step (trail repair, replay, and inprocessing all preserve
//    the clause set up to entailed strengthenings), so a verdict flip is
//    a solver bug, full stop.
//
//  * Candidate validity (hard gate, all modes): each mode's resolved
//    candidate is INDEPENDENTLY re-verified by the model checker here.
//    Note this is deliberately not byte-equality of the candidate
//    sequences: a CDCL model is an accident of the search path, and warm
//    start exists precisely to take a cheaper path, so the two modes can
//    legitimately walk through different (equally correct) candidates —
//    the same way a different random seed would. The solver-level
//    equivalence (same clauses => same SAT/UNSAT, models satisfy every
//    clause) is gated exhaustively by test_sat_incremental's randomized
//    property instead.
//
//  * Iteration sanity (hard gate, all modes): warm iterations must stay
//    within 1.5x + 2 of cold — divergence is allowed, pathological
//    candidate quality is not. (In practice warm often needs FEWER
//    iterations: trail reuse keeps consecutive candidates close, so
//    counterexample learning transfers better.)
//
//  * Speedup (hard gate in full mode only): summed over the three
//    ROADMAP rows (queueDE2 ed(ed|ed), barrier2 N=2,B=3, fineset2
//    ar(arar|arar)), total Ssolve — the seconds of every solve — must
//    be >= 1.15x lower warm than cold, and total CEGIS seconds must not
//    be higher warm. Each row reports both totals, warm against cold.
//    Totals, not per-solve averages: the solves after abstractly
//    refuted candidates are cheap and numerous, so a per-solve average
//    rewards making more of them. --smoke runs lighter rows and reports
//    the ratios without enforcing them (CI boxes are too noisy for a
//    timing gate).
//
// Flags: --smoke, --jobs N, --json[=path].
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "desugar/Flatten.h"
#include "verify/ModelChecker.h"

#include <cstring>

using namespace psketch;
using namespace psketch::bench;

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

cegis::CegisResult runRow(const SuiteEntry &E, bool WarmStart,
                          unsigned Jobs) {
  auto P = E.Build();
  cegis::CegisConfig Cfg;
  Cfg.MaxIterations = 500;
  Cfg.TimeLimitSeconds = 600.0;
  Cfg.Checker.NumThreads = Jobs;
  Cfg.SolverWarmStart = WarmStart;
  cegis::ConcurrentCegis C(*P, Cfg);
  return C.run();
}

double solveSeconds(const cegis::CegisResult &R) {
  double S = 0.0;
  for (const synth::SolveRecord &Rec : R.Stats.SolveLog)
    S += Rec.Seconds;
  return S;
}

/// Cold over warm seconds: above 1 when warm start is faster.
double ratio(double Cold, double Warm) {
  return Warm > 0.0 ? Cold / Warm : 1.0;
}

uint64_t solveConflicts(const cegis::CegisResult &R) {
  uint64_t C = 0;
  for (const synth::SolveRecord &Rec : R.Stats.SolveLog)
    C += Rec.Conflicts;
  return C;
}

/// Re-verifies a resolved candidate from scratch: fresh flatten, fresh
/// Machine, default checker. \returns true when the candidate passes
/// (or the row was reported unresolvable, which the verdict gate covers).
bool reverify(const SuiteEntry &E, const cegis::CegisResult &R) {
  if (!R.Stats.Resolvable)
    return true;
  auto P = E.Build();
  flat::FlatProgram FP = flat::flatten(*P);
  exec::Machine M(FP, R.Candidate);
  verify::CheckerConfig Cfg;
  return verify::checkCandidate(M, Cfg).Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts =
      parseBenchOptions(Argc, Argv, "sat_incremental", {"--smoke"});
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;

  JsonReport Json(Opts);
  Json.add(provenanceJson(Opts.Jobs ? Opts.Jobs : 1));

  struct RowSpec {
    const char *Family;
    const char *Test;
  };
  // Full mode runs the three ROADMAP Ssolve rows; smoke runs each
  // family's light sibling so CI exercises the same three instance
  // shapes in seconds, not minutes.
  std::vector<RowSpec> Specs =
      Smoke ? std::vector<RowSpec>{{"queueDE1", "ed(ed|ed)"},
                                   {"barrier1", "N=3,B=2"},
                                   {"fineset1", "ar(ar|ar)"}}
            : std::vector<RowSpec>{{"queueDE2", "ed(ed|ed)"},
                                   {"barrier2", "N=2,B=3"},
                                   {"fineset2", "ar(arar|arar)"}};

  std::printf("Warm-started incremental SAT core: warm vs from-scratch per "
              "row%s\n",
              Smoke ? " [smoke]" : "");
  std::printf("%-9s %-14s | %-9s %-9s | %9s %9s %7s | %9s %9s | %9s %9s | "
              "%-5s\n",
              "sketch", "test", "resolv.", "itns", "Ssolve", "Ssolve", "ratio",
              "total", "total", "conflicts", "conflicts", "agree");
  std::printf("%-9s %-14s | %-9s %-9s | %9s %9s %7s | %9s %9s | %9s %9s | "
              "%-5s\n",
              "", "", "cold/warm", "cold/warm", "cold(s)", "warm(s)", "",
              "cold(s)", "warm(s)", "cold", "warm", "");
  std::printf("--------------------------------------------------------------"
              "--------------------------------------------------------\n");

  unsigned Disagreements = 0;
  double SumColdS = 0.0, SumWarmS = 0.0, SumColdTotal = 0.0,
         SumWarmTotal = 0.0;
  for (const RowSpec &Spec : Specs) {
    SuiteEntry E = findRow(Spec.Family, Spec.Test);
    cegis::CegisResult Cold = runRow(E, /*WarmStart=*/false, Opts.Jobs);
    cegis::CegisResult Warm = runRow(E, /*WarmStart=*/true, Opts.Jobs);

    // The agreement gates: same verdict, both answers independently
    // re-verified, iteration count within the sanity bound.
    bool VerdictAgree = !Cold.Stats.Aborted && !Warm.Stats.Aborted &&
                        Cold.Stats.Resolvable == Warm.Stats.Resolvable;
    bool ColdValid = reverify(E, Cold);
    bool WarmValid = reverify(E, Warm);
    unsigned ItnsBound = Cold.Stats.Iterations +
                         Cold.Stats.Iterations / 2 + 2;
    bool ItnsSane = Warm.Stats.Iterations <= ItnsBound;
    bool Agree = VerdictAgree && ColdValid && WarmValid && ItnsSane;
    if (!Agree)
      ++Disagreements;

    double ColdS = solveSeconds(Cold), WarmS = solveSeconds(Warm);
    double ColdTotal = Cold.Stats.TotalSeconds;
    double WarmTotal = Warm.Stats.TotalSeconds;
    SumColdS += ColdS;
    SumWarmS += WarmS;
    SumColdTotal += ColdTotal;
    SumWarmTotal += WarmTotal;

    std::printf("%-9s %-14s | %3s / %-3s %4u / %-4u | %9.3f %9.3f %6.2fx | "
                "%9.3f %9.3f | %9llu %9llu | %-5s%s\n",
                E.Sketch.c_str(), E.Test.c_str(),
                Cold.Stats.Resolvable ? "yes" : "NO",
                Warm.Stats.Resolvable ? "yes" : "NO", Cold.Stats.Iterations,
                Warm.Stats.Iterations, ColdS, WarmS, ratio(ColdS, WarmS),
                ColdTotal, WarmTotal,
                static_cast<unsigned long long>(solveConflicts(Cold)),
                static_cast<unsigned long long>(solveConflicts(Warm)),
                Agree ? "yes" : "NO!",
                (Cold.Stats.Aborted || Warm.Stats.Aborted) ? " [ABORTED]"
                                                           : "");
    std::fflush(stdout);

    JsonObject Perf;
    Perf.field("kind", "sat_incremental")
        .field("sketch", E.Sketch)
        .field("test", E.Test)
        .field("iterations", static_cast<uint64_t>(Warm.Stats.Iterations))
        .field("cold_ssolve_s", ColdS)
        .field("warm_ssolve_s", WarmS)
        .field("cold_total_s", ColdTotal)
        .field("warm_total_s", WarmTotal)
        .field("cold_conflicts", solveConflicts(Cold))
        .field("warm_conflicts", solveConflicts(Warm))
        .field("solver_probes", Warm.Stats.SolverProbes)
        .field("smoke", Smoke);
    Json.add(Perf);

    JsonObject Agreement;
    Agreement.field("kind", "sat_agreement")
        .field("sketch", E.Sketch)
        .field("test", E.Test)
        .field("cold_resolvable", Cold.Stats.Resolvable)
        .field("warm_resolvable", Warm.Stats.Resolvable)
        .field("cold_iterations",
               static_cast<uint64_t>(Cold.Stats.Iterations))
        .field("warm_iterations",
               static_cast<uint64_t>(Warm.Stats.Iterations))
        .field("cold_candidate_valid", ColdValid)
        .field("warm_candidate_valid", WarmValid)
        .field("agrees", Agree)
        .field("smoke", Smoke);
    Json.add(Agreement);
  }

  double SsolveSpeedup = ratio(SumColdS, SumWarmS);
  double TotalSpeedup = ratio(SumColdTotal, SumWarmTotal);
  std::printf("%-24s | %-19s | %9.3f %9.3f %6.2fx | %9.3f %9.3f %6.2fx\n",
              "sum over rows", "", SumColdS, SumWarmS, SsolveSpeedup,
              SumColdTotal, SumWarmTotal, TotalSpeedup);

  JsonObject Total;
  Total.field("kind", "sat_incremental_total")
      .field("rows", static_cast<uint64_t>(Specs.size()))
      .field("cold_ssolve_s", SumColdS)
      .field("warm_ssolve_s", SumWarmS)
      .field("cold_total_s", SumColdTotal)
      .field("warm_total_s", SumWarmTotal)
      .field("ssolve_total_speedup", SsolveSpeedup)
      .field("total_speedup", TotalSpeedup)
      .field("smoke", Smoke);
  Json.add(Total);
  Json.write();

  if (Disagreements != 0) {
    std::fprintf(stderr,
                 "error: warm start broke %u row gate(s) — verdict flip, "
                 "invalid candidate, or iteration blow-up (see NO! rows)\n",
                 Disagreements);
    return 1;
  }
  std::printf("\nall rows agree (verdict, re-verified candidates, sane "
              "iterations); total Ssolve %.2fx, total time %.2fx, cold "
              "over warm\n",
              SsolveSpeedup, TotalSpeedup);
  if (!Smoke && (SsolveSpeedup < 1.15 || TotalSpeedup < 1.0)) {
    std::fprintf(stderr,
                 "error: over the %zu rows warm start must cut total Ssolve "
                 "by >= 1.15x (got %.2fx) and not lengthen total time (got "
                 "%.2fx)\n",
                 Specs.size(), SsolveSpeedup, TotalSpeedup);
    return 1;
  }
  return 0;
}

//===- bench/bench_parallel_scaling.cpp - Checker worker-count sweep -------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// Sweeps the parallel verification engine over worker counts on the
// heaviest Figure 9 rows (queueDE2 ed(ed|ed), barrier1 N=3,B=3, dinphilo
// N=5,T=3; --smoke swaps in each family's lightest row) and reports, per
// (row, W):
//
//   * total / Vsolve wall-clock and the speedup relative to the sweep's
//     first worker count (run --workers 1,... to get speedup over one
//     worker),
//   * agreement with that first run on verdict, iterations and final
//     candidate: the reproducibility contract of verify/ModelChecker.h
//     makes every worker count follow the same CEGIS trajectory,
//   * states explored, donations (the steals column), and the per-worker
//     state split.
//
// Exit status is nonzero when any row disagrees with its first run, so CI
// smoke runs double as a correctness check. Wall-clock speedup needs
// real cores: on a 1-core container every W collapses onto one CPU and
// only the agreement/stats columns are meaningful.
//
// Flags: --workers 1,2,4,8 (comma list, default), --smoke (lightest row
// per family + workers 1,2 — the CI configuration), --json[=path].
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

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

std::vector<unsigned> parseWorkerList(const char *Text) {
  std::vector<unsigned> Workers;
  const char *P = Text;
  while (*P) {
    char *End = nullptr;
    unsigned long V = std::strtoul(P, &End, 10);
    if (End == P || V == 0 || V > 1024) {
      std::fprintf(stderr, "error: --workers: bad list '%s'\n", Text);
      std::exit(2);
    }
    Workers.push_back(static_cast<unsigned>(V));
    P = *End == ',' ? End + 1 : End;
    if (End == P && *End != '\0') {
      std::fprintf(stderr, "error: --workers: bad list '%s'\n", Text);
      std::exit(2);
    }
  }
  if (Workers.empty()) {
    std::fprintf(stderr, "error: --workers: empty list\n");
    std::exit(2);
  }
  return Workers;
}

struct Measurement {
  cegis::CegisResult R;
  double Seconds = 0.0;
};

Measurement runOnce(const SuiteEntry &E, unsigned Workers,
                    double TimeLimitSeconds) {
  auto P = E.Build();
  cegis::CegisConfig Cfg;
  Cfg.MaxIterations = 500;
  Cfg.TimeLimitSeconds = TimeLimitSeconds;
  Cfg.Checker.NumThreads = Workers;
  cegis::ConcurrentCegis C(*P, Cfg);
  Measurement M;
  M.R = C.run();
  M.Seconds = M.R.Stats.TotalSeconds;
  return M;
}

std::string perWorkerStr(const std::vector<uint64_t> &S) {
  if (S.empty())
    return "-";
  std::string Out;
  for (size_t I = 0; I < S.size(); ++I)
    Out += (I ? "/" : "") +
           format("%llu", static_cast<unsigned long long>(S[I]));
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseBenchOptions(Argc, Argv, "parallel_scaling",
                                        {"--workers", "--smoke"});
  std::vector<unsigned> Workers = {1, 2, 4, 8};
  bool Smoke = false, WorkersGiven = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--workers") == 0 && I + 1 < Argc) {
      Workers = parseWorkerList(Argv[++I]);
      WorkersGiven = true;
    } else if (std::strncmp(Argv[I], "--workers=", 10) == 0) {
      Workers = parseWorkerList(Argv[I] + 10);
      WorkersGiven = true;
    } else if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
  }
  if (Smoke && !WorkersGiven)
    Workers = {1, 2};

  // The heaviest verifier-bound Figure 9 rows; --smoke swaps in a light
  // row from each benchmark area so CI finishes in seconds.
  std::vector<SuiteEntry> Rows;
  if (Smoke) {
    Rows.push_back(findRow("queueDE1", "ed(ee|dd)"));
    Rows.push_back(findRow("barrier1", "N=3,B=2"));
    Rows.push_back(findRow("dinphilo", "N=3,T=5"));
  } else {
    Rows.push_back(findRow("queueDE2", "ed(ed|ed)"));
    Rows.push_back(findRow("barrier1", "N=3,B=3"));
    Rows.push_back(findRow("dinphilo", "N=5,T=3"));
  }
  double TimeLimit = Smoke ? 120.0 : 600.0;

  std::printf("Parallel checker scaling sweep (workers:");
  for (unsigned W : Workers)
    std::printf(" %u", W);
  std::printf(")%s\n\n", Smoke ? " [smoke]" : "");
  std::printf("%-9s %-11s %3s | %9s %8s %7s %7s | %-5s %4s | %9s %7s %s\n",
              "sketch", "test", "W", "total(s)", "Vsolve", "xTotal", "xVsolve",
              "ok", "itns", "states", "steals", "per-worker");
  std::printf("--------------------------------------------------------------"
              "--------------------------------------\n");

  JsonReport Json(Opts);
  bool Agree = true;
  for (const SuiteEntry &E : Rows) {
    Measurement Base;
    for (size_t WI = 0; WI < Workers.size(); ++WI) {
      unsigned W = Workers[WI];
      Measurement M = runOnce(E, W, TimeLimit);
      if (WI == 0)
        Base = M;
      bool RowAgrees = M.R.Stats.Resolvable == Base.R.Stats.Resolvable &&
                       M.R.Stats.Iterations == Base.R.Stats.Iterations &&
                       M.R.Candidate == Base.R.Candidate;
      Agree = Agree && RowAgrees;
      double XTotal = M.Seconds > 0.0 ? Base.Seconds / M.Seconds : 0.0;
      double XVsolve = M.R.Stats.VsolveSeconds > 0.0
                           ? Base.R.Stats.VsolveSeconds /
                                 M.R.Stats.VsolveSeconds
                           : 0.0;
      std::printf(
          "%-9s %-11s %3u | %9.2f %8.2f %6.2fx %6.2fx | %-5s %4u | %9llu "
          "%7llu %s%s\n",
          E.Sketch.c_str(), E.Test.c_str(), W, M.Seconds,
          M.R.Stats.VsolveSeconds, XTotal, XVsolve,
          RowAgrees ? (M.R.Stats.Resolvable ? "yes" : "no") : "DISAGREE",
          M.R.Stats.Iterations,
          static_cast<unsigned long long>(M.R.Stats.StatesExplored),
          static_cast<unsigned long long>(M.R.Stats.CheckerSteals),
          perWorkerStr(M.R.Stats.PerWorkerStates).c_str(),
          M.R.Stats.Aborted ? "  [ABORTED]" : "");
      std::fflush(stdout);

      JsonObject O;
      O.field("sketch", E.Sketch)
          .field("test", E.Test)
          .field("workers", W)
          .field("total_s", M.Seconds)
          .field("vsolve_s", M.R.Stats.VsolveSeconds)
          .field("speedup_total", XTotal)
          .field("speedup_vsolve", XVsolve)
          .field("resolvable", M.R.Stats.Resolvable)
          .field("iterations", static_cast<uint64_t>(M.R.Stats.Iterations))
          .field("agrees", RowAgrees)
          .field("states", M.R.Stats.StatesExplored)
          .field("checker_workers", M.R.Stats.CheckerWorkers)
          .field("checker_steals", M.R.Stats.CheckerSteals)
          .field("per_worker_states", M.R.Stats.PerWorkerStates)
          .field("aborted", M.R.Stats.Aborted)
          .field("smoke", Smoke);
      Json.add(O);
    }
  }
  Json.write();
  if (!Agree) {
    std::fprintf(stderr, "error: verdict/iteration/candidate disagreement "
                         "across worker counts (see DISAGREE rows)\n");
    return 1;
  }
  std::printf("\nall worker counts agree on verdicts, iteration counts and "
              "candidates\n");
  return 0;
}

//===- bench_suite/bench_suite.cpp - End-to-end CEGIS benchmark ------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs full CEGIS loops (cegis::ConcurrentCegis::run) over one workload
/// of Workloads.h in a closed loop: one row after another in this process,
/// pass after pass, each pass in an order the seed shuffles, until the
/// time budget is spent. Prints every end-to-end metric by name with its
/// unit and checks every answer: against the row's known verdict, against
/// the row's first run, and by re-checking each resolved candidate on the
/// least-optimised checker configuration. With --trace 1 more passes run
/// through TracedCegis for the per-layer metrics. README.md defines every
/// metric.
///
///   bench_suite --workload suite|verify|verify_w4|small [--seed S]
///               [--seconds T] [--trace 0|1] [--smoke]
///               [--json-dir DIR] [--trace-file PATH]
///
/// The last line of stdout is one JSON object with the keys correct,
/// attempted, failed and metrics. Exit status: 0 when every answer is
/// right, 1 on a wrong answer or a disagreement, 2 on bad usage or input.
///
//===----------------------------------------------------------------------===//

#include "TracedCegis.h"
#include "Workloads.h"

#include "cegis/Cegis.h"
#include "desugar/Flatten.h"
#include "exec/Machine.h"
#include "support/Hash.h"
#include "support/MemUsage.h"
#include "support/Rng.h"
#include "support/StrUtil.h"
#include "support/Timer.h"
#include "verify/ModelChecker.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace psketch;
using namespace psketch::suite;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20.0; ///< measured time; at least three passes run
  bool Trace = false;
  /// One timed pass, the traced passes and the re-check: the answer and
  /// agreement checks without the timing.
  bool Smoke = false;
  std::string JsonDir;   ///< where to write the full report, if set
  std::string TraceFile; ///< where to write the Chrome trace, if set
};

[[noreturn]] void usage(const std::string &Error) {
  std::fprintf(stderr,
               "bench_suite: %s\n"
               "usage: bench_suite --workload suite|verify|verify_w4|small "
               "[--seed S] [--seconds T] [--trace 0|1] [--smoke] "
               "[--json-dir DIR] [--trace-file PATH]\n",
               Error.c_str());
  std::exit(2);
}

Options parseOptions(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--smoke") {
      O.Smoke = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(Flag + " needs a value");
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Value;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (Value.empty() || *End != '\0')
        usage("bad --seed '" + Value + "'");
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
      if (Value.empty() || *End != '\0' || !(O.Seconds >= 0.0) ||
          O.Seconds > 3600.0)
        usage("bad --seconds '" + Value + "'");
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace takes 0 or 1");
      O.Trace = Value == "1";
    } else if (Flag == "--json-dir") {
      O.JsonDir = Value;
    } else if (Flag == "--trace-file") {
      O.TraceFile = Value;
    } else {
      usage("unknown flag '" + Flag + "'");
    }
  }
  if (O.Workload.empty())
    usage("--workload is required");
  if (O.Smoke)
    O.Trace = true;
  return O;
}

double cpuSeconds() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-6;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  if (N == 0)
    return 0.0;
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// What one CEGIS run answered, and its work counters.
struct Outcome {
  bool Resolvable = false;
  bool Aborted = false;
  ir::HoleAssignment Candidate;
  unsigned Iterations = 0;
  uint64_t SolveCalls = 0;
  uint64_t Prunes = 0;
  uint64_t States = 0;
  uint64_t Conflicts = 0;
  uint64_t Gates = 0;
  uint64_t Clauses = 0;
};

Outcome outcomeOf(const cegis::CegisResult &R) {
  Outcome O;
  O.Resolvable = R.Stats.Resolvable;
  O.Aborted = R.Stats.Aborted;
  O.Candidate = R.Candidate;
  O.Iterations = R.Stats.Iterations;
  O.SolveCalls = R.Stats.SolveLog.size();
  O.Prunes = R.Stats.IntervalPrunes;
  O.States = R.Stats.StatesExplored;
  for (const synth::SolveRecord &S : R.Stats.SolveLog)
    O.Conflicts += S.Conflicts;
  O.Gates = R.Stats.GateCount;
  O.Clauses = R.Stats.ClauseCount;
  return O;
}

/// \returns the first field on which \p A and \p B differ, or "" when
/// they agree. The checker's state count depends on worker timing, so it
/// is compared only when \p WithStates (one worker).
std::string difference(const Outcome &A, const Outcome &B, bool WithStates) {
  if (A.Resolvable != B.Resolvable)
    return "verdict";
  if (A.Candidate != B.Candidate)
    return "candidate";
  if (A.Iterations != B.Iterations)
    return format("iterations (%u vs %u)", A.Iterations, B.Iterations);
  if (A.SolveCalls != B.SolveCalls)
    return "solver calls";
  if (A.Prunes != B.Prunes)
    return "interval prunes";
  if (A.Conflicts != B.Conflicts)
    return "conflicts";
  if (A.Gates != B.Gates || A.Clauses != B.Clauses)
    return "circuit size";
  if (WithStates && A.States != B.States)
    return "states explored";
  return "";
}

/// One timed run of a row.
struct Sample {
  double Setup = 0.0;   ///< sketch build or parse, plus the flatten
  double Flatten = 0.0; ///< the ConcurrentCegis constructor alone
  double Wall = 0.0;    ///< ConcurrentCegis::run()
  double Cpu = 0.0;     ///< process user+sys CPU during run()
  // The program's own phase split (CegisStats).
  double Ssolve = 0.0;
  double Vsolve = 0.0;
  double Sprune = 0.0;
  double Vmodel = 0.0;
};

struct RowLog {
  std::vector<Sample> Samples;
  Outcome First;
  bool HaveFirst = false;
};

struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void fail(const std::string &Row, const std::string &Why) {
    ++Failed;
    std::fprintf(stderr, "bench_suite: FAIL %s: %s\n", Row.c_str(),
                 Why.c_str());
  }
};

cegis::CegisConfig configFor(const Workload &W) {
  cegis::CegisConfig Cfg;
  Cfg.MaxIterations = 500;
  // A regression that stalls a row ends as a failed row, not a hung run.
  Cfg.TimeLimitSeconds = 60.0;
  Cfg.Checker.NumThreads = W.Workers;
  return Cfg;
}

/// Set-up runs this many times per row run, and its median is kept: at
/// well under a millisecond per row, one sample is mostly noise.
constexpr int SetupRepeats = 5;

Sample runRow(const Row &R, const cegis::CegisConfig &Cfg, Outcome &Out) {
  Sample S;
  std::vector<double> Setups, Flattens;
  std::unique_ptr<ir::Program> P;
  std::unique_ptr<cegis::ConcurrentCegis> C;
  for (int I = 0; I < SetupRepeats; ++I) {
    C.reset(); // C refers to the program, so it goes first
    P.reset();
    WallTimer Setup;
    P = R.Build();
    double Built = Setup.seconds();
    C = std::make_unique<cegis::ConcurrentCegis>(*P, Cfg);
    Setups.push_back(Setup.seconds());
    Flattens.push_back(Setups.back() - Built);
  }
  S.Setup = median(Setups);
  S.Flatten = median(Flattens);
  double Cpu = cpuSeconds();
  WallTimer Wall;
  cegis::CegisResult Result = C->run();
  S.Wall = Wall.seconds();
  S.Cpu = cpuSeconds() - Cpu;
  S.Ssolve = Result.Stats.SsolveSeconds;
  S.Vsolve = Result.Stats.VsolveSeconds;
  S.Sprune = Result.Stats.SpruneSeconds;
  S.Vmodel = Result.Stats.VmodelSeconds;
  Out = outcomeOf(Result);
  return S;
}

/// Counts one run of a row and checks its answer: the known verdict, no
/// budget abort, and the same answer and work as the row's first run.
void checkRun(const Row &R, const Outcome &O, RowLog &Log, bool WithStates,
              const char *What, Tally &T) {
  ++T.Attempted;
  if (O.Aborted)
    T.fail(R.Name, format("%s aborted at a budget", What));
  else if (O.Resolvable != R.Resolvable)
    T.fail(R.Name, format("%s answered %s, the known answer is %s", What,
                          O.Resolvable ? "resolvable" : "unresolvable",
                          R.Resolvable ? "resolvable" : "unresolvable"));
  else if (Log.HaveFirst) {
    std::string D = difference(Log.First, O, WithStates);
    if (!D.empty())
      T.fail(R.Name, format("%s differs from the first run in %s", What,
                            D.c_str()));
  }
  if (!Log.HaveFirst) {
    Log.First = O;
    Log.HaveFirst = true;
  }
}

std::vector<size_t> shuffledOrder(size_t N, Rng &Random) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[Random.below(I)]);
  return Order;
}

/// First and third quartiles by the method of Python's
/// statistics.quantiles(V, n=4), which compare.py also uses.
void quartiles(std::vector<double> V, double &Q1, double &Q3) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  if (N < 2) {
    Q1 = Q3 = N ? V[0] : 0.0;
    return;
  }
  auto Cut = [&](size_t I) {
    size_t M = N + 1;
    size_t J = std::clamp<size_t>(I * M / 4, 1, N - 1);
    double Delta = static_cast<double>(I * M) - static_cast<double>(J * 4);
    return (V[J - 1] * (4.0 - Delta) + V[J] * Delta) / 4.0;
  };
  Q1 = Cut(1);
  Q3 = Cut(3);
}

/// One reported metric.
struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
  /// End-to-end metrics only: quartiles and median of the per-pass sums.
  double Q1 = 0.0, Median = 0.0, Q3 = 0.0;
  bool HasSpread = false;
};

/// The sum over rows of each row's median sample of \p Field.
double sumOfMedians(const std::vector<RowLog> &Logs, double Sample::*Field) {
  double Sum = 0.0;
  for (const RowLog &L : Logs) {
    std::vector<double> Values;
    for (const Sample &S : L.Samples)
      Values.push_back(S.*Field);
    Sum += median(Values);
  }
  return Sum;
}

/// A row-summed timing, with the spread of the per-pass sums (every pass
/// runs every row once).
Metric rowSummed(const char *Name, const std::vector<RowLog> &Logs,
                 double Sample::*Field) {
  Metric M{Name, "s", sumOfMedians(Logs, Field)};
  size_t Passes = Logs.empty() ? 0 : Logs[0].Samples.size();
  std::vector<double> PassSums(Passes, 0.0);
  for (const RowLog &L : Logs)
    for (size_t P = 0; P < Passes; ++P)
      PassSums[P] += L.Samples[P].*Field;
  M.Median = median(PassSums);
  quartiles(PassSums, M.Q1, M.Q3);
  M.HasSpread = true;
  return M;
}

/// Per-span-name totals over a trace: calls, seconds, and self seconds
/// (each span's duration minus the part its children cover).
struct SpanTotal {
  uint64_t Calls = 0;
  double Seconds = 0.0;
  double Self = 0.0;
};

std::map<std::string, SpanTotal> spanTotals(const std::vector<Span> &Spans) {
  std::vector<double> ChildSeconds(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildSeconds[S.Parent] += S.End - S.Start;
  std::map<std::string, SpanTotal> Totals;
  for (size_t I = 0; I < Spans.size(); ++I) {
    SpanTotal &T = Totals[Spans[I].Name];
    double Duration = Spans[I].End - Spans[I].Start;
    ++T.Calls;
    T.Seconds += Duration;
    T.Self += Duration - ChildSeconds[I];
  }
  return Totals;
}

/// Counters the traced passes read from each row's result.
struct LayerCounts {
  uint64_t Bans = 0, Prunes = 0, Iterations = 0;
  uint64_t Conflicts = 0, Decisions = 0, Propagations = 0, Restarts = 0;
  uint64_t Learnts = 0, Gates = 0, Clauses = 0;
  uint64_t States = 0, VisitedBytes = 0, AmpleStates = 0, FullExpansions = 0;
  uint64_t CanonHits = 0, Steals = 0;
  std::vector<uint64_t> PerWorkerStates;
  double ProjectSeconds = 0.0;

  void add(const cegis::CegisResult &R, const TracedCegis &C) {
    const cegis::CegisStats &S = R.Stats;
    Bans += S.PrunedHoleValues + S.ExclusionConstraints;
    Prunes += S.IntervalPrunes;
    Iterations += S.Iterations;
    for (const synth::SolveRecord &Rec : S.SolveLog) {
      Conflicts += Rec.Conflicts;
      Decisions += Rec.Decisions;
      Propagations += Rec.Propagations;
      Restarts += Rec.Restarts;
    }
    if (!S.SolveLog.empty())
      Learnts += S.SolveLog.back().LearntClauses;
    Gates += S.GateCount;
    Clauses += S.ClauseCount;
    States += S.StatesExplored;
    VisitedBytes += C.visitedBytes();
    AmpleStates += S.AmpleStates;
    FullExpansions += S.FullExpansions;
    CanonHits += S.CanonHits;
    Steals += S.CheckerSteals;
    if (PerWorkerStates.size() < S.PerWorkerStates.size())
      PerWorkerStates.resize(S.PerWorkerStates.size(), 0);
    for (size_t I = 0; I < S.PerWorkerStates.size(); ++I)
      PerWorkerStates[I] += S.PerWorkerStates[I];
    ProjectSeconds += C.projectSeconds();
  }
};

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

/// The per-layer metrics of README.md: totals over the traced passes,
/// divided by their number \p Passes.
std::vector<Metric> layerMetrics(const std::map<std::string, SpanTotal> &Spans,
                                 const LayerCounts &C, unsigned Passes,
                                 double UntracedWall) {
  const double N = Passes;
  auto Sec = [&](const char *Name) {
    auto It = Spans.find(Name);
    return It == Spans.end() ? 0.0 : It->second.Seconds / N;
  };
  auto Calls = [&](const char *Name) {
    auto It = Spans.find(Name);
    return It == Spans.end() ? 0.0 : static_cast<double>(It->second.Calls) / N;
  };
  auto Self = [&](const char *Name) {
    auto It = Spans.find(Name);
    return It == Spans.end() ? 0.0 : It->second.Self / N;
  };
  double Imbalance = 1.0;
  if (!C.PerWorkerStates.empty()) {
    uint64_t Max = 0, Sum = 0;
    for (uint64_t S : C.PerWorkerStates) {
      Max = std::max(Max, S);
      Sum += S;
    }
    Imbalance = ratio(static_cast<double>(Max) * C.PerWorkerStates.size(),
                      static_cast<double>(Sum));
  }
  auto D = [&](uint64_t V) { return static_cast<double>(V) / N; };
  return {
      {"frontend.parse_s", "s", Sec("frontend.parse")},
      {"benchmarks.build_s", "s", Sec("benchmarks.build")},
      {"desugar.flatten_s", "s", Sec("desugar.flatten")},
      {"analysis.prescreen_s", "s", Sec("analysis.prescreen")},
      {"analysis.prescreen_bans", "count", D(C.Bans)},
      {"analysis.screen_s", "s", Sec("analysis.screen")},
      {"analysis.screen_calls", "count", Calls("analysis.screen")},
      {"analysis.refuted", "count", D(C.Prunes)},
      {"analysis.refute_ratio", "ratio",
       ratio(D(C.Prunes), Calls("analysis.screen"))},
      {"synth.init_s", "s", Sec("synth.init")},
      {"synth.solve_s", "s", Sec("synth.solve")},
      {"synth.solve_calls", "count", Calls("synth.solve")},
      {"synth.useful_solve_ratio", "ratio",
       ratio(D(C.Iterations), Calls("synth.solve"))},
      {"synth.learn_s", "s", Sec("synth.learn")},
      {"synth.learn_calls", "count", Calls("synth.learn")},
      {"synth.exclude_s", "s", Sec("synth.exclude")},
      {"synth.project_s", "s", C.ProjectSeconds / N},
      {"sat.conflicts", "count", D(C.Conflicts)},
      {"sat.decisions", "count", D(C.Decisions)},
      {"sat.propagations", "count", D(C.Propagations)},
      {"sat.restarts", "count", D(C.Restarts)},
      {"sat.learnts", "count", D(C.Learnts)},
      {"circuit.gates", "count", D(C.Gates)},
      {"circuit.clauses", "count", D(C.Clauses)},
      {"exec.machine_s", "s", Sec("exec.machine")},
      {"exec.machine_calls", "count", Calls("exec.machine")},
      {"verify.check_s", "s", Sec("verify.check")},
      {"verify.check_calls", "count", Calls("verify.check")},
      {"verify.states", "count", D(C.States)},
      {"verify.states_per_s", "1/s", ratio(D(C.States), Sec("verify.check"))},
      {"verify.bytes_per_state", "B", ratio(D(C.VisitedBytes), D(C.States))},
      {"verify.ample_ratio", "ratio",
       ratio(D(C.AmpleStates), D(C.AmpleStates + C.FullExpansions))},
      {"verify.canon_hits", "count", D(C.CanonHits)},
      {"verify.steals", "count", D(C.Steals)},
      {"verify.worker_imbalance", "ratio", Imbalance},
      {"cegis.iterations", "count", D(C.Iterations)},
      {"cegis.self_s", "s", Self("cegis.run")},
      {"trace_overhead", "ratio", ratio(Sec("cegis.run"), UntracedWall) - 1.0},
  };
}

/// A traced layer's share of the traced loop time against the program's
/// own phase's share of the untraced loop time. The two come from
/// separate runs of the same work, so shares are compared rather than
/// seconds: a slowdown of the whole machine during one run moves both
/// parts of a share alike. They must agree within 10% of the program's
/// share, plus one percentage point for phases near zero.
struct PhaseCheck {
  const char *Layer;
  const char *Phase;
  double TracedShare;
  double ProgramShare;
  bool ok() const {
    return std::fabs(TracedShare - ProgramShare) <= 0.10 * ProgramShare + 0.01;
  }
};

std::string num(double V) {
  return format("%.17g", std::isfinite(V) ? V : 0.0);
}

std::string metricsJson(const std::vector<Metric> &Metrics, bool Spread) {
  std::string Out = "{";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    Out += format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"", I ? ", " : "",
                  M.Name.c_str(), num(M.Value).c_str(), M.Unit.c_str());
    if (Spread && M.HasSpread)
      Out += format(", \"pass_q1\": %s, \"pass_median\": %s, \"pass_q3\": %s",
                    num(M.Q1).c_str(), num(M.Median).c_str(),
                    num(M.Q3).c_str());
    Out += "}";
  }
  return Out + "}";
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? "" : trim(Line.substr(Colon + 1));
    }
  return "";
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts = parseOptions(Argc, Argv);
  Workload W;
  std::string Error;
  if (!makeWorkload(Opts.Workload, BENCH_SUITE_INPUTS, W, Error))
    usage(Error);
  const cegis::CegisConfig Cfg = configFor(W);
  const bool WithStates = W.Workers == 1;
  Tally Runs;

  // Untimed warm-up: lazy set-up and allocator growth are paid here.
  for (size_t I = 0; I < std::min<size_t>(3, W.Rows.size()); ++I) {
    Outcome Ignored;
    runRow(W.Rows[I], Cfg, Ignored);
  }

  std::vector<RowLog> Logs(W.Rows.size());
  Rng Random(Opts.Seed);
  WallTimer Clock;
  unsigned Passes = 0;
  const unsigned MinPasses = Opts.Smoke ? 1 : 3;
  while (Passes < MinPasses ||
         (!Opts.Smoke && Clock.seconds() < Opts.Seconds)) {
    for (size_t I : shuffledOrder(W.Rows.size(), Random)) {
      Outcome O;
      Logs[I].Samples.push_back(runRow(W.Rows[I], Cfg, O));
      checkRun(W.Rows[I], O, Logs[I], WithStates, "run", Runs);
    }
    ++Passes;
  }
  const double MeasuredSeconds = Clock.seconds();
  const double PeakRss = peakRSSMiB();

  const Metric Wall = rowSummed("wall_s", Logs, &Sample::Wall);
  std::vector<Metric> EndToEnd = {
      Wall,
      rowSummed("cpu_s", Logs, &Sample::Cpu),
      rowSummed("setup_s", Logs, &Sample::Setup),
      {"peak_rss_mib", "MiB", PeakRss},
  };

  // Reference re-check of every resolved candidate: fresh flatten,
  // untuned Machine, local-only POR, no symmetry, one worker.
  WallTimer RecheckClock;
  for (size_t I = 0; I < W.Rows.size(); ++I) {
    if (!Logs[I].HaveFirst || !Logs[I].First.Resolvable)
      continue;
    std::unique_ptr<ir::Program> P = W.Rows[I].Build();
    flat::FlatProgram FP = flat::flatten(*P);
    exec::Machine M(FP, Logs[I].First.Candidate);
    verify::CheckerConfig Ref;
    Ref.Por = verify::PorMode::Local;
    Ref.Symmetry = verify::SymmetryMode::Off;
    Ref.NumThreads = 1;
    verify::CheckResult Check = verify::checkCandidate(M, Ref);
    if (!Check.Ok || Check.Exhausted)
      Runs.fail(W.Rows[I].Name, Check.Exhausted
                                     ? "re-check hit the state budget"
                                     : "resolved candidate fails the re-check");
  }
  const double RecheckSeconds = RecheckClock.seconds();

  std::vector<Metric> PerLayer;
  unsigned TracedPasses = 0;
  std::vector<PhaseCheck> Phases;
  std::map<std::string, SpanTotal> Spans;
  if (Opts.Trace) {
    // Traced passes repeat for at least MinTracedSeconds, so that the
    // phase shares below are not read off a fraction of a second.
    constexpr double MinTracedSeconds = 4.0;
    Tracer T;
    LayerCounts Counts;
    WallTimer TraceClock;
    do {
      for (size_t I : shuffledOrder(W.Rows.size(), Random)) {
        const Row &R = W.Rows[I];
        T.setTraceId(static_cast<unsigned>(I));
        std::unique_ptr<ir::Program> P;
        {
          ScopedSpan S(T, R.Parsed ? "frontend.parse" : "benchmarks.build");
          P = R.Build();
        }
        TracedCegis C(*P, Cfg, T);
        cegis::CegisResult Result = C.run();
        Counts.add(Result, C);
        checkRun(R, outcomeOf(Result), Logs[I], WithStates, "traced run",
                 Runs);
        if (C.exhausted())
          Runs.fail(R.Name, "a check hit the state budget");
      }
      ++TracedPasses;
    } while (TraceClock.seconds() < MinTracedSeconds);
    Spans = spanTotals(T.spans());
    PerLayer = layerMetrics(Spans, Counts, TracedPasses, Wall.Value);

    // Vmodel includes the flatten, which runs before ConcurrentCegis::run,
    // so both loop totals include it too.
    auto Sec = [&](const char *Name) { return Spans[Name].Seconds; };
    const double TracedLoop = Sec("cegis.run") + Sec("desugar.flatten");
    const double ProgramLoop =
        Wall.Value + sumOfMedians(Logs, &Sample::Flatten);
    auto Program = [&](double Sample::*F) {
      return ratio(sumOfMedians(Logs, F), ProgramLoop);
    };
    auto Traced = [&](double Seconds) { return ratio(Seconds, TracedLoop); };
    Phases = {
        {"synth.solve", "Ssolve", Traced(Sec("synth.solve")),
         Program(&Sample::Ssolve)},
        {"verify.check", "Vsolve", Traced(Sec("verify.check")),
         Program(&Sample::Vsolve)},
        {"analysis.prescreen", "Sprune", Traced(Sec("analysis.prescreen")),
         Program(&Sample::Sprune)},
        {"desugar.flatten+exec.machine", "Vmodel",
         Traced(Sec("desugar.flatten") + Sec("exec.machine")),
         Program(&Sample::Vmodel)},
    };
    for (const PhaseCheck &P : Phases)
      if (!P.ok())
        Runs.fail(W.Name, format("traced %s takes %.1f%% of the loop, the "
                                  "program's %s %.1f%%",
                                  P.Layer, 100 * P.TracedShare, P.Phase,
                                  100 * P.ProgramShare));

    if (!Opts.TraceFile.empty()) {
      std::vector<std::string> Names;
      for (const Row &R : W.Rows)
        Names.push_back(R.Name);
      if (!T.writeChromeTrace(Opts.TraceFile, Names))
        usage("cannot write " + Opts.TraceFile);
    }
  }

  const bool Correct = Runs.Failed == 0;
  std::printf("bench_suite: workload %s, seed %llu, %u pass(es) of %zu rows "
              "in %.1f s, %u checker worker(s); re-check %.2f s; %u traced "
              "pass(es)\n",
              W.Name.c_str(), static_cast<unsigned long long>(Opts.Seed),
              Passes, W.Rows.size(), MeasuredSeconds, W.Workers,
              RecheckSeconds, TracedPasses);
  for (const Metric &M : EndToEnd)
    if (M.HasSpread)
      std::printf("  %-14s %12.6f %-5s per-pass q1 %.6f median %.6f q3 %.6f\n",
                  M.Name.c_str(), M.Value, M.Unit.c_str(), M.Q1, M.Median,
                  M.Q3);
    else
      std::printf("  %-14s %12.6f %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
  for (const Metric &M : PerLayer)
    std::printf("  %-26s %16.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  for (const PhaseCheck &P : Phases)
    std::printf("  share of loop: %-28s %5.1f%%, program's %s %5.1f%%  %s\n",
                P.Layer, 100 * P.TracedShare, P.Phase, 100 * P.ProgramShare,
                P.ok() ? "ok" : "MISMATCH");

  if (!Opts.JsonDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(Opts.JsonDir, Ec);
    std::string Path =
        format("%s/%s-seed%llu-trace%d.json", Opts.JsonDir.c_str(),
               W.Name.c_str(), static_cast<unsigned long long>(Opts.Seed),
               Opts.Trace ? 1 : 0);
    std::ofstream Out(Path);
    Out << "{\"workload\": " << jsonString(W.Name)
        << ", \"seed\": " << Opts.Seed << ", \"passes\": " << Passes
        << ", \"traced_passes\": " << TracedPasses
        << ", \"correct\": " << (Correct ? "true" : "false")
        << ", \"attempted\": " << Runs.Attempted
        << ", \"failed\": " << Runs.Failed << ",\n \"provenance\": {"
        << "\"cpu_model\": " << jsonString(cpuModel())
        << ", \"simd\": " << jsonString(simdMode())
        << ", \"build_type\": " << jsonString(BENCH_SUITE_BUILD_TYPE)
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"workers\": " << W.Workers << "},\n \"metrics\": "
        << metricsJson(EndToEnd, true)
        << ",\n \"per_layer\": " << metricsJson(PerLayer, false)
        << ",\n \"spans\": {";
    bool First = true;
    for (const auto &[Name, S] : Spans) {
      Out << (First ? "" : ", ") << jsonString(Name) << ": {\"calls\": "
          << S.Calls << ", \"seconds\": " << num(S.Seconds)
          << ", \"self_seconds\": " << num(S.Self) << "}";
      First = false;
    }
    Out << "},\n \"rows\": [";
    for (size_t I = 0; I < W.Rows.size(); ++I) {
      const Outcome &O = Logs[I].First;
      std::vector<double> Walls;
      for (const Sample &S : Logs[I].Samples)
        Walls.push_back(S.Wall);
      Out << (I ? ",\n  " : "\n  ") << "{\"row\": "
          << jsonString(W.Rows[I].Name)
          << ", \"resolvable\": " << (O.Resolvable ? "true" : "false")
          << ", \"wall_s\": " << num(median(Walls))
          << ", \"iterations\": " << O.Iterations
          << ", \"solve_calls\": " << O.SolveCalls
          << ", \"interval_prunes\": " << O.Prunes
          << ", \"states\": " << O.States << ", \"conflicts\": " << O.Conflicts
          << ", \"gates\": " << O.Gates << ", \"clauses\": " << O.Clauses
          << "}";
    }
    Out << "]}\n";
    if (!Out)
      usage("cannot write " + Path);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Runs.Attempted),
              static_cast<unsigned long long>(Runs.Failed),
              metricsJson(Opts.Trace ? PerLayer : EndToEnd, false).c_str());
  return Correct ? 0 : 1;
}

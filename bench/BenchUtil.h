//===- bench/BenchUtil.h - Shared Figure 9 harness --------------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The row runner shared by every Figure 9 reproduction binary: runs CEGIS
/// on one suite entry and prints our measurement next to the paper's
/// reported value. Absolute times are not expected to match (2008 SPIN +
/// 2 GHz Core 2 Duo vs this substrate); the comparison columns are the
/// verdict (Resolvable) and the iteration count, plus the time breakdown
/// shape (Ssolve/Smodel/Vsolve/Vmodel).
///
/// Every bench built on this header accepts:
///   --jobs N        model-checker workers (0 = hardware concurrency)
///   --json[=path]   additionally write machine-readable rows to
///                   BENCH_<name>.json (or the given path), so the perf
///                   trajectory is trackable across PRs
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_BENCH_BENCHUTIL_H
#define PSKETCH_BENCH_BENCHUTIL_H

#include "benchmarks/Suite.h"
#include "cegis/Cegis.h"
#include "support/Hash.h"
#include "support/MemUsage.h"
#include "support/StrUtil.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace psketch {
namespace bench {

/// Options common to every bench binary.
struct BenchOptions {
  unsigned Jobs = 1;    ///< checker workers (0 = hardware concurrency)
  bool Json = false;    ///< write a machine-readable report
  std::string JsonPath; ///< defaults to BENCH_<name>.json
};

/// Parses the common bench flags; exits with usage on anything unknown.
/// \p Extra names bench-specific flags for the usage line; flags it
/// lists are left for the caller to handle (they are skipped here along
/// with one value argument when written as --flag=value or --flag).
inline BenchOptions parseBenchOptions(int Argc, char **Argv,
                                      const std::string &BenchName,
                                      const std::vector<std::string> &Known =
                                          {}) {
  BenchOptions Opts;
  Opts.JsonPath = "BENCH_" + BenchName + ".json";
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--jobs" && I + 1 < Argc) {
      char *End = nullptr;
      unsigned long V = std::strtoul(Argv[++I], &End, 10);
      if (*End != '\0' || V > 1024) {
        std::fprintf(stderr, "error: --jobs: bad value '%s'\n", Argv[I]);
        std::exit(2);
      }
      Opts.Jobs = static_cast<unsigned>(V);
    } else if (Arg == "--json") {
      Opts.Json = true;
    } else if (Arg.rfind("--json=", 0) == 0) {
      Opts.Json = true;
      Opts.JsonPath = Arg.substr(7);
    } else {
      bool Recognised = false;
      for (const std::string &K : Known)
        if (Arg == K || Arg.rfind(K + "=", 0) == 0) {
          Recognised = true;
          if (Arg == K && I + 1 < Argc && Argv[I + 1][0] != '-')
            ++I; // skip the flag's value argument
          break;
        }
      if (!Recognised) {
        std::fprintf(stderr,
                     "usage: bench_%s [--jobs N] [--json[=path]]%s%s\n",
                     BenchName.c_str(), Known.empty() ? "" : " ",
                     Known.empty() ? ""
                                   : "(see the bench source for its flags)");
        std::exit(2);
      }
    }
  }
  return Opts;
}

/// A flat JSON object under construction (no nesting needed here beyond
/// one array-valued field).
class JsonObject {
public:
  JsonObject &field(const char *Key, const std::string &Value) {
    add(Key, '"' + escape(Value) + '"');
    return *this;
  }
  JsonObject &field(const char *Key, const char *Value) {
    return field(Key, std::string(Value));
  }
  JsonObject &field(const char *Key, double Value) {
    add(Key, format("%.6f", Value));
    return *this;
  }
  JsonObject &field(const char *Key, uint64_t Value) {
    add(Key, format("%llu", static_cast<unsigned long long>(Value)));
    return *this;
  }
  JsonObject &field(const char *Key, unsigned Value) {
    return field(Key, static_cast<uint64_t>(Value));
  }
  JsonObject &field(const char *Key, int Value) {
    add(Key, format("%d", Value));
    return *this;
  }
  JsonObject &field(const char *Key, bool Value) {
    add(Key, Value ? "true" : "false");
    return *this;
  }
  JsonObject &field(const char *Key, const std::vector<uint64_t> &Values) {
    std::string Array = "[";
    for (size_t I = 0; I < Values.size(); ++I)
      Array += (I ? "," : "") +
               format("%llu", static_cast<unsigned long long>(Values[I]));
    add(Key, Array + "]");
    return *this;
  }
  JsonObject &field(const char *Key, const std::vector<double> &Values) {
    std::string Array = "[";
    for (size_t I = 0; I < Values.size(); ++I)
      Array += (I ? "," : "") + format("%.6f", Values[I]);
    add(Key, Array + "]");
    return *this;
  }

  std::string str() const { return "{" + Buf + "}"; }

private:
  std::string Buf;

  static std::string escape(const std::string &S) {
    std::string Out;
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += '\\';
      if (static_cast<unsigned char>(C) < 0x20) {
        Out += format("\\u%04x", C);
        continue;
      }
      Out += C;
    }
    return Out;
  }
  void add(const char *Key, const std::string &Rendered) {
    if (!Buf.empty())
      Buf += ',';
    Buf += '"';
    Buf += Key;
    Buf += "\":";
    Buf += Rendered;
  }
};

/// Reads the CPU model name and the interesting ISA flags from
/// /proc/cpuinfo (best effort: both come back empty off Linux).
inline void cpuInfo(std::string &Model, std::string &Flags) {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Colon = Line.find(':');
    if (Colon == std::string::npos)
      continue;
    std::string Key = Line.substr(0, Line.find('\t'));
    std::string Value =
        Line.substr(Colon + 1 < Line.size() ? Colon + 2 : Colon + 1);
    if (Model.empty() && Key == "model name")
      Model = Value;
    if (Flags.empty() && Key == "flags") {
      // Keep only the vector-ISA flags; the full flag list is ~1 KiB of
      // noise.
      std::istringstream Words(Value);
      std::string W;
      while (Words >> W)
        if (W == "sse4_2" || W == "avx" || W == "avx2" || W == "avx512f")
          Flags += (Flags.empty() ? "" : " ") + W;
    }
    if (!Model.empty() && !Flags.empty())
      break;
  }
}

/// One provenance row describing the machine and engine configuration
/// the measurements came from. Benches add it as the first row of their
/// JSON report so regression tooling can refuse cross-machine or
/// cross-configuration comparisons (scripts/check_bench_regression.py).
/// peak_rss_mib records the process's peak resident set at emission
/// time.
inline JsonObject provenanceJson(unsigned Workers) {
  std::string Model, Flags;
  cpuInfo(Model, Flags);
  JsonObject O;
  O.field("kind", "provenance")
      .field("cpu_model", Model)
      .field("cpu_flags", Flags)
      .field("simd", psketch::simdMode())
      .field("workers", Workers)
      .field("peak_rss_mib", peakRSSMiB());
  return O;
}

/// Accumulates JSON rows and writes them as one array. Disabled unless
/// the bench got --json.
class JsonReport {
public:
  explicit JsonReport(const BenchOptions &Opts)
      : Enabled(Opts.Json), Path(Opts.JsonPath) {}

  void add(const JsonObject &Row) {
    if (Enabled)
      Rows.push_back(Row.str());
  }

  /// Writes the report (if enabled) and tells the user where it went.
  void write() const {
    if (!Enabled)
      return;
    std::ofstream Out(Path);
    Out << "[\n";
    for (size_t I = 0; I < Rows.size(); ++I)
      Out << "  " << Rows[I] << (I + 1 < Rows.size() ? ",\n" : "\n");
    Out << "]\n";
    std::printf("wrote %zu row(s) to %s\n", Rows.size(), Path.c_str());
  }

private:
  bool Enabled;
  std::string Path;
  std::vector<std::string> Rows;
};

/// One Figure 9 measurement as a JSON row.
inline JsonObject fig9Json(const SuiteEntry &E, const cegis::CegisResult &R,
                           unsigned Jobs) {
  JsonObject O;
  O.field("sketch", E.Sketch)
      .field("test", E.Test)
      .field("jobs", Jobs)
      .field("resolvable", R.Stats.Resolvable)
      .field("paper_resolvable", E.PaperResolvable)
      .field("aborted", R.Stats.Aborted)
      .field("iterations", static_cast<uint64_t>(R.Stats.Iterations))
      .field("paper_iterations", static_cast<uint64_t>(E.PaperItns))
      .field("total_s", R.Stats.TotalSeconds)
      .field("ssolve_s", R.Stats.SsolveSeconds)
      .field("smodel_s", R.Stats.SmodelSeconds)
      .field("vsolve_s", R.Stats.VsolveSeconds)
      .field("vmodel_s", R.Stats.VmodelSeconds)
      .field("sprune_s", R.Stats.SpruneSeconds)
      .field("peak_mem_mib", R.Stats.PeakMemoryMiB)
      .field("states", R.Stats.StatesExplored)
      .field("interval_prunes", R.Stats.IntervalPrunes)
      .field("gates", static_cast<uint64_t>(R.Stats.GateCount))
      .field("clauses", static_cast<uint64_t>(R.Stats.ClauseCount))
      .field("checker_workers", R.Stats.CheckerWorkers)
      .field("checker_steals", R.Stats.CheckerSteals)
      .field("per_worker_states", R.Stats.PerWorkerStates);
  // Per-iteration solver telemetry (CegisStats::SolveLog): one entry per
  // candidate-proposing SAT solve, so warm-start effects are visible per
  // iteration instead of only in the Ssolve aggregate.
  std::vector<double> SolveSeconds;
  std::vector<uint64_t> SolveConflicts, SolveDecisions, SolvePropagations,
      SolveRestarts, SolveLearnts;
  for (const synth::SolveRecord &Rec : R.Stats.SolveLog) {
    SolveSeconds.push_back(Rec.Seconds);
    SolveConflicts.push_back(Rec.Conflicts);
    SolveDecisions.push_back(Rec.Decisions);
    SolvePropagations.push_back(Rec.Propagations);
    SolveRestarts.push_back(Rec.Restarts);
    SolveLearnts.push_back(Rec.LearntClauses);
  }
  O.field("solver_solves", static_cast<uint64_t>(R.Stats.SolveLog.size()))
      .field("solver_probes", R.Stats.SolverProbes)
      .field("ssolve_per_solve_s", SolveSeconds)
      .field("solve_conflicts", SolveConflicts)
      .field("solve_decisions", SolveDecisions)
      .field("solve_propagations", SolvePropagations)
      .field("solve_restarts", SolveRestarts)
      .field("solve_learnts", SolveLearnts);
  return O;
}

inline void printFig9Header() {
  std::printf("%-9s %-14s | %-11s %-11s | %9s %8s %8s %8s %8s %7s %8s\n",
              "sketch", "test", "resolvable", "itns", "total(s)", "Ssolve",
              "Smodel", "Vsolve", "Vmodel", "mem", "states");
  std::printf("%-9s %-14s | %-11s %-11s | %9s %8s %8s %8s %8s %7s %8s\n", "",
              "", "ours/paper", "ours/paper", "", "", "", "", "", "(MiB)",
              "");
  std::printf("--------------------------------------------------------------"
              "-----------------------------------------------\n");
}

inline cegis::CegisResult runFig9Row(const SuiteEntry &E,
                                     double TimeLimitSeconds = 600.0,
                                     const BenchOptions *Opts = nullptr,
                                     JsonReport *Json = nullptr) {
  auto P = E.Build();
  cegis::CegisConfig Cfg;
  Cfg.MaxIterations = 500;
  Cfg.TimeLimitSeconds = TimeLimitSeconds;
  if (Opts)
    Cfg.Checker.NumThreads = Opts->Jobs;
  cegis::ConcurrentCegis C(*P, Cfg);
  cegis::CegisResult R = C.run();
  std::string Extra;
  if (R.Stats.CheckerWorkers > 1)
    Extra = format("  [W=%u steals=%llu]", R.Stats.CheckerWorkers,
                   static_cast<unsigned long long>(R.Stats.CheckerSteals));
  std::printf(
      "%-9s %-14s | %3s / %-5s %4u / %-4u | %9.2f %8.2f %8.2f %8.2f %8.2f "
      "%7.0f %8llu%s%s\n",
      E.Sketch.c_str(), E.Test.c_str(), R.Stats.Resolvable ? "yes" : "NO",
      E.PaperResolvable ? "yes" : "NO", R.Stats.Iterations, E.PaperItns,
      R.Stats.TotalSeconds, R.Stats.SsolveSeconds, R.Stats.SmodelSeconds,
      R.Stats.VsolveSeconds, R.Stats.VmodelSeconds, R.Stats.PeakMemoryMiB,
      static_cast<unsigned long long>(R.Stats.StatesExplored),
      R.Stats.Aborted ? "  [ABORTED]" : "", Extra.c_str());
  std::fflush(stdout);
  if (Json)
    Json->add(fig9Json(E, R, Opts ? Opts->Jobs : 1));
  return R;
}

inline void runFamily(const std::string &Family,
                      const BenchOptions *Opts = nullptr,
                      JsonReport *Json = nullptr) {
  printFig9Header();
  for (const SuiteEntry &E : paperSuite(Family))
    runFig9Row(E, 600.0, Opts, Json);
}

} // namespace bench
} // namespace psketch

#endif // PSKETCH_BENCH_BENCHUTIL_H

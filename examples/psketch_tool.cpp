//===- examples/psketch_tool.cpp - a CLI driver for .psk files -------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// Usage: psketch_tool [--lint] [--no-prescreen] [--jobs N] [--seed S]
//                     [--por off|local|ample]
//                     [--symmetry on|off] [--absint on|off]
//                     [--shape on|off] [--warm-start on|off]
//                     [--dump-cnf path] [--stats] [file.psk ...]
//
// Default mode parses one mini-PSketch source file, prints its lint
// warnings and errors, runs concurrent CEGIS (with the analyzer's
// pre-pass unless --no-prescreen), and prints the resolved
// implementation. With no file it runs the bundled lock-free-enqueue
// demo equivalent to examples/enqueue.psk.
//
// --jobs N runs the model checker with N workers (0 = hardware
// concurrency, default 1 = the sequential checker); --seed S seeds the
// random-schedule falsifier (see the reproducibility contract in
// verify/ModelChecker.h); --por picks the checker's
// partial-order reduction (off, local, or the default ample — see
// docs/POR.md; verdicts are identical in all three modes); --symmetry
// toggles symmetry reduction (on, the default, proves thread orbits
// statically and canonicalizes states — see docs/SYMMETRY.md; verdicts
// are identical either way); --absint toggles the per-candidate
// thread-modular abstract interpreter (on, the default, interval-refutes
// candidates without verifier calls and tunes the Machine with proven
// bounds and locksets — see docs/ANALYSIS.md; verdicts are identical
// either way); --shape toggles the per-candidate allocation-site
// points-to pass (on, the default, overridable via PSKETCH_SHAPE=off:
// splits the Machine's heap footprint into per-(site, field) bits for
// site-aware POR — see docs/ANALYSIS.md Pass 5; verdicts are identical
// either way); --warm-start toggles the synthesizer's warm-started
// incremental SAT core (on, the default, continues one CDCL search
// across CEGIS iterations — see docs/SOLVER.md; off reproduces the
// from-scratch solver trajectory; the verdict is identical either way);
// --dump-cnf writes the live incremental SAT instance as DIMACS (with a
// hole-variable comment map) when the run finishes, for offline triage;
// --stats prints the checker's observability counters and the
// per-iteration solver telemetry in one aligned block after the run.
// Bad values are typed diagnostics with a nonzero exit, like every
// other usage error.
//
// --lint runs the frontend validator and analysis::lint() over every
// given file, prints the diagnostics, and skips synthesis. Exit status:
// 0 clean, 1 on any error-severity diagnostic or unreadable / unparsable
// input.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "cegis/Cegis.h"
#include "desugar/Flatten.h"
#include "frontend/Parser.h"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace psketch;

/// The demo sketch: the Section 2 Enqueue, in the textual language.
static const char *DemoSource = R"(
// Lock-free queue Enqueue, sketched (cf. Figure 1 of the paper).
pool 3;
struct Node { Node next; int stored; int taken; }
global Node prevHead;
global Node tail;

prologue {
  var Node dummy;
  dummy = new;
  dummy.taken = 1;
  prevHead = dummy;
  tail = dummy;
}

fork (i, 2) {
  var Node newEntry;
  var Node tmp;
  newEntry = new;
  newEntry.stored = i + 1;
  tmp = AtomicSwap(tail, newEntry);
  {| tmp.next | tail.next |} = {| newEntry | tmp |};
}

epilogue {
  // Structural integrity: both nodes linked behind the dummy, tail last.
  assert prevHead != null : "head";
  assert tail != null : "tail";
  assert tail.next == null : "tail is last";
  assert prevHead.next != null : "first enqueue linked";
  assert prevHead.next.next != null : "second enqueue linked";
  assert prevHead.next.next == tail : "tail reachable";
}
)";

namespace {

void printDiag(const analysis::Diagnostic &D, std::FILE *Out = stderr) {
  std::fprintf(Out, "%s\n", analysis::render(D).c_str());
}

/// Reads \p Path (or the demo when null). \returns false on I/O error,
/// after printing it to \p DiagOut.
bool readSource(const char *Path, std::string &Out,
                std::FILE *DiagOut = stderr) {
  if (!Path) {
    Out = DemoSource;
    return true;
  }
  std::ifstream File(Path);
  if (!File) {
    printDiag({analysis::Severity::Error, "frontend",
               std::string("cannot open ") + Path, ""},
              DiagOut);
    return false;
  }
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  Out = Buffer.str();
  return true;
}

/// Parses and validates one source. \returns null after printing
/// diagnostics to \p DiagOut when the program is unusable.
std::unique_ptr<ir::Program> loadProgram(const char *Path,
                                         const std::string &Source,
                                         std::FILE *DiagOut = stderr) {
  frontend::ParseResult Parsed = frontend::parseProgram(Source);
  if (!Parsed.ok()) {
    printDiag({analysis::Severity::Error, "frontend", Parsed.Error,
               Path ? Path : "<demo>"},
              DiagOut);
    return nullptr;
  }
  std::vector<analysis::Diagnostic> Bad =
      analysis::validateProgram(*Parsed.Program);
  if (!Bad.empty()) {
    for (const analysis::Diagnostic &D : Bad)
      printDiag(D, DiagOut);
    return nullptr;
  }
  return std::move(Parsed.Program);
}

/// --lint over one file: its header, its findings (or why it does not
/// load) and its summary, all on stdout so a batch reads in file order.
/// \returns the number of error diagnostics (or 1 when the file does not
/// even load).
unsigned lintFile(const char *Path) {
  std::printf("== %s ==\n", Path ? Path : "<demo>");
  std::string Source;
  if (!readSource(Path, Source, stdout))
    return 1;
  std::unique_ptr<ir::Program> P = loadProgram(Path, Source, stdout);
  if (!P)
    return 1;

  flat::FlatProgram FP = flat::flatten(*P);
  std::vector<analysis::Diagnostic> Diags = analysis::lint(*P, FP);
  unsigned Errors = 0;
  for (const analysis::Diagnostic &D : Diags) {
    printDiag(D, stdout);
    if (D.Sev == analysis::Severity::Error)
      ++Errors;
  }
  std::printf("%zu finding(s): %u error(s)\n", Diags.size(), Errors);
  return Errors;
}

/// Parses the unsigned integer argument of \p Flag. \returns false after
/// printing a typed diagnostic when the value is missing or malformed.
bool parseUnsigned(const char *Flag, const char *Text, uint64_t Max,
                   uint64_t &Out) {
  if (!Text || !*Text) {
    printDiag({analysis::Severity::Error, "cli",
               std::string(Flag) + " requires a non-negative integer", ""});
    return false;
  }
  char *End = nullptr;
  errno = 0;
  unsigned long long Value = std::strtoull(Text, &End, 10);
  if (errno != 0 || *End != '\0' || Value > Max ||
      !std::isdigit(static_cast<unsigned char>(Text[0]))) {
    printDiag({analysis::Severity::Error, "cli",
               std::string(Flag) + ": bad value '" + Text + "'", ""});
    return false;
  }
  Out = Value;
  return true;
}

/// Parses the --por mode argument. \returns false after printing a typed
/// diagnostic when the value is missing or not a known mode.
bool parsePor(const char *Text, verify::PorMode &Out) {
  if (Text && std::strcmp(Text, "off") == 0) {
    Out = verify::PorMode::Off;
    return true;
  }
  if (Text && std::strcmp(Text, "local") == 0) {
    Out = verify::PorMode::Local;
    return true;
  }
  if (Text && std::strcmp(Text, "ample") == 0) {
    Out = verify::PorMode::Ample;
    return true;
  }
  printDiag({analysis::Severity::Error, "cli",
             std::string("--por: bad value '") + (Text ? Text : "") +
                 "' (expected 'off', 'local' or 'ample')",
             ""});
  return false;
}

/// Parses the --symmetry mode argument. \returns false after printing a
/// typed diagnostic when the value is missing or not a known mode.
bool parseSymmetry(const char *Text, verify::SymmetryMode &Out) {
  if (Text && std::strcmp(Text, "on") == 0) {
    Out = verify::SymmetryMode::Orbit;
    return true;
  }
  if (Text && std::strcmp(Text, "off") == 0) {
    Out = verify::SymmetryMode::Off;
    return true;
  }
  printDiag({analysis::Severity::Error, "cli",
             std::string("--symmetry: bad value '") + (Text ? Text : "") +
                 "' (expected 'on' or 'off')",
             ""});
  return false;
}

/// Parses the --absint mode argument. \returns false after printing a
/// typed diagnostic when the value is missing or not a known mode.
bool parseAbsInt(const char *Text, bool &Out) {
  if (Text && std::strcmp(Text, "on") == 0) {
    Out = true;
    return true;
  }
  if (Text && std::strcmp(Text, "off") == 0) {
    Out = false;
    return true;
  }
  printDiag({analysis::Severity::Error, "cli",
             std::string("--absint: bad value '") + (Text ? Text : "") +
                 "' (expected 'on' or 'off')",
             ""});
  return false;
}

/// Parses the --shape mode argument. \returns false after printing a
/// typed diagnostic when the value is missing or not a known mode.
bool parseShape(const char *Text, bool &Out) {
  if (Text && std::strcmp(Text, "on") == 0) {
    Out = true;
    return true;
  }
  if (Text && std::strcmp(Text, "off") == 0) {
    Out = false;
    return true;
  }
  printDiag({analysis::Severity::Error, "cli",
             std::string("--shape: bad value '") + (Text ? Text : "") +
                 "' (expected 'on' or 'off')",
             ""});
  return false;
}

/// Parses the --warm-start mode argument. \returns false after printing
/// a typed diagnostic when the value is missing or not a known mode.
bool parseWarmStart(const char *Text, bool &Out) {
  if (Text && std::strcmp(Text, "on") == 0) {
    Out = true;
    return true;
  }
  if (Text && std::strcmp(Text, "off") == 0) {
    Out = false;
    return true;
  }
  printDiag({analysis::Severity::Error, "cli",
             std::string("--warm-start: bad value '") + (Text ? Text : "") +
                 "' (expected 'on' or 'off')",
             ""});
  return false;
}

/// --stats: the checker/CEGIS observability counters, one aligned block.
void printStats(const cegis::CegisStats &S) {
  std::printf("stats:\n");
  std::printf("  %-20s %llu\n", "StatesExplored",
              static_cast<unsigned long long>(S.StatesExplored));
  std::printf("  %-20s %llu\n", "AmpleStates",
              static_cast<unsigned long long>(S.AmpleStates));
  std::printf("  %-20s %llu\n", "FullExpansions",
              static_cast<unsigned long long>(S.FullExpansions));
  std::printf("  %-20s %llu\n", "SleepSkips",
              static_cast<unsigned long long>(S.SleepSkips));
  std::printf("  %-20s %u\n", "SymmetryOrbits", S.SymmetryOrbits);
  std::printf("  %-20s %llu\n", "CanonHits",
              static_cast<unsigned long long>(S.CanonHits));
  std::printf("  %-20s %.4fs\n", "CanonTime", S.CanonTime);
  std::printf("  %-20s %llu\n", "IntervalPrunes",
              static_cast<unsigned long long>(S.IntervalPrunes));
  std::printf("  %-20s %u\n", "TightenedBits", S.TightenedBits);
  std::printf("  %-20s %llu\n", "LockIndepPairs",
              static_cast<unsigned long long>(S.LockIndepPairs));
  std::printf("  %-20s %u\n", "ShapeSites", S.ShapeSites);
  std::printf("  %-20s %llu\n", "MustNotAliasPairs",
              static_cast<unsigned long long>(S.MustNotAliasPairs));
  std::printf("  %-20s %llu\n", "SiteIndepPairs",
              static_cast<unsigned long long>(S.SiteIndepPairs));
  std::printf("  %-20s %llu\n", "ShapeFalsePrunes",
              static_cast<unsigned long long>(S.ShapeFalsePrunes));
  std::printf("  %-20s %zu\n", "SolverSolves", S.SolveLog.size());
  std::printf("  %-20s %llu\n", "SolverProbes",
              static_cast<unsigned long long>(S.SolverProbes));
  uint64_t Conflicts = 0, Propagations = 0, Restarts = 0;
  for (const synth::SolveRecord &Rec : S.SolveLog) {
    Conflicts += Rec.Conflicts;
    Propagations += Rec.Propagations;
    Restarts += Rec.Restarts;
  }
  std::printf("  %-20s %llu\n", "SolverConflicts",
              static_cast<unsigned long long>(Conflicts));
  std::printf("  %-20s %llu\n", "SolverPropagations",
              static_cast<unsigned long long>(Propagations));
  std::printf("  %-20s %llu\n", "SolverRestarts",
              static_cast<unsigned long long>(Restarts));
  std::printf("  %-20s %zu\n", "CircuitGates", S.GateCount);
  std::printf("  %-20s %zu\n", "CnfClauses", S.ClauseCount);
  std::printf("  %-20s %zu\n", "SynthBytes", S.SynthBytes);
  if (!S.SolveLog.empty()) {
    std::printf("  per-solve Ssolve (s / conflicts / decisions / "
                "propagations / restarts / learnts / result):\n");
    for (size_t I = 0; I < S.SolveLog.size(); ++I) {
      const synth::SolveRecord &Rec = S.SolveLog[I];
      std::printf("    #%-3zu %8.4f %8llu %9llu %10llu %5llu %8zu %s\n", I,
                  Rec.Seconds, static_cast<unsigned long long>(Rec.Conflicts),
                  static_cast<unsigned long long>(Rec.Decisions),
                  static_cast<unsigned long long>(Rec.Propagations),
                  static_cast<unsigned long long>(Rec.Restarts),
                  Rec.LearntClauses, Rec.Sat ? "sat" : "unsat");
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  bool Lint = false, Prescreen = true, Stats = false, AbsInt = true;
  bool Shape = analysis::defaultShape();
  bool WarmStart = synth::defaultWarmStart();
  std::string DumpCnfPath;
  uint64_t Jobs = 1, Seed = 1;
  verify::PorMode Por = verify::PorMode::Ample;
  verify::SymmetryMode Symmetry = verify::SymmetryMode::Orbit;
  std::vector<const char *> Files;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--lint") == 0)
      Lint = true;
    else if (std::strcmp(Argv[I], "--no-prescreen") == 0)
      Prescreen = false;
    else if (std::strcmp(Argv[I], "--jobs") == 0) {
      if (!parseUnsigned("--jobs", I + 1 < Argc ? Argv[++I] : nullptr,
                         1u << 10, Jobs))
        return 1;
    } else if (std::strcmp(Argv[I], "--seed") == 0) {
      if (!parseUnsigned("--seed", I + 1 < Argc ? Argv[++I] : nullptr,
                         UINT64_MAX, Seed))
        return 1;
    } else if (std::strcmp(Argv[I], "--por") == 0) {
      if (!parsePor(I + 1 < Argc ? Argv[++I] : nullptr, Por))
        return 1;
    } else if (std::strncmp(Argv[I], "--por=", 6) == 0) {
      if (!parsePor(Argv[I] + 6, Por))
        return 1;
    } else if (std::strcmp(Argv[I], "--symmetry") == 0) {
      if (!parseSymmetry(I + 1 < Argc ? Argv[++I] : nullptr, Symmetry))
        return 1;
    } else if (std::strncmp(Argv[I], "--symmetry=", 11) == 0) {
      if (!parseSymmetry(Argv[I] + 11, Symmetry))
        return 1;
    } else if (std::strcmp(Argv[I], "--absint") == 0) {
      if (!parseAbsInt(I + 1 < Argc ? Argv[++I] : nullptr, AbsInt))
        return 1;
    } else if (std::strncmp(Argv[I], "--absint=", 9) == 0) {
      if (!parseAbsInt(Argv[I] + 9, AbsInt))
        return 1;
    } else if (std::strcmp(Argv[I], "--shape") == 0) {
      if (!parseShape(I + 1 < Argc ? Argv[++I] : nullptr, Shape))
        return 1;
    } else if (std::strncmp(Argv[I], "--shape=", 8) == 0) {
      if (!parseShape(Argv[I] + 8, Shape))
        return 1;
    } else if (std::strcmp(Argv[I], "--warm-start") == 0) {
      if (!parseWarmStart(I + 1 < Argc ? Argv[++I] : nullptr, WarmStart))
        return 1;
    } else if (std::strncmp(Argv[I], "--warm-start=", 13) == 0) {
      if (!parseWarmStart(Argv[I] + 13, WarmStart))
        return 1;
    } else if (std::strcmp(Argv[I], "--dump-cnf") == 0) {
      if (I + 1 >= Argc || !*Argv[I + 1]) {
        printDiag({analysis::Severity::Error, "cli",
                   "--dump-cnf requires an output path", ""});
        return 1;
      }
      DumpCnfPath = Argv[++I];
    } else if (std::strncmp(Argv[I], "--dump-cnf=", 11) == 0) {
      DumpCnfPath = Argv[I] + 11;
      if (DumpCnfPath.empty()) {
        printDiag({analysis::Severity::Error, "cli",
                   "--dump-cnf requires an output path", ""});
        return 1;
      }
    } else if (std::strcmp(Argv[I], "--stats") == 0) {
      Stats = true;
    } else if (std::strncmp(Argv[I], "--", 2) == 0) {
      std::fprintf(stderr,
                   "usage: psketch_tool [--lint] [--no-prescreen] "
                   "[--jobs N] [--seed S] "
                   "[--por off|local|ample] "
                   "[--symmetry on|off] [--absint on|off] "
                   "[--shape on|off] "
                   "[--warm-start on|off] [--dump-cnf path] [--stats] "
                   "[file.psk ...]\n");
      return 1;
    } else
      Files.push_back(Argv[I]);
  }

  if (Lint) {
    if (Files.empty())
      Files.push_back(nullptr); // lint the demo
    unsigned Errors = 0;
    for (const char *Path : Files)
      Errors += lintFile(Path);
    return Errors == 0 ? 0 : 1;
  }

  if (Files.size() > 1) {
    std::fprintf(stderr,
                 "error: synthesis mode takes one file (use --lint for "
                 "batches)\n");
    return 1;
  }
  const char *Path = Files.empty() ? nullptr : Files.front();
  if (!Path)
    std::printf("(no input file: running the bundled enqueue demo; see "
                "examples/enqueue.psk)\n\n");
  std::string Source;
  if (!readSource(Path, Source))
    return 1;
  std::unique_ptr<ir::Program> Loaded = loadProgram(Path, Source);
  if (!Loaded)
    return 1;
  ir::Program &P = *Loaded;
  std::printf("parsed: %u thread(s), %zu hole(s), |C| = %s\n", P.numThreads(),
              P.holes().size(), P.candidateSpaceSize().str().c_str());

  cegis::CegisConfig Cfg;
  Cfg.Prescreen = Prescreen;
  Cfg.Checker.NumThreads = static_cast<unsigned>(Jobs);
  Cfg.Checker.Seed = Seed;
  Cfg.Checker.Por = Por;
  if (Por != verify::PorMode::Ample)
    std::printf("checker: partial-order reduction %s (default: ample)\n",
                Por == verify::PorMode::Off ? "off" : "local-only");
  Cfg.Checker.Symmetry = Symmetry;
  if (Symmetry == verify::SymmetryMode::Off)
    std::printf("checker: symmetry reduction off (default: on)\n");
  Cfg.AbsInt = AbsInt;
  Cfg.Analysis.AbsInt = AbsInt;
  if (!AbsInt)
    std::printf("cegis: abstract-interpretation screen off (default: on)\n");
  Cfg.Shape = Shape;
  if (!Shape)
    std::printf("cegis: points-to/shape pass off (default: on)\n");
  Cfg.SolverWarmStart = WarmStart;
  if (!WarmStart)
    std::printf("synth: warm-started solver off (default: on) — "
                "from-scratch solves\n");
  Cfg.DumpCnfPath = DumpCnfPath;
  Cfg.Log = [](const std::string &Message) {
    std::printf("  %s\n", Message.c_str());
  };
  unsigned Workers = verify::resolvedNumThreads(Cfg.Checker);
  if (Workers > 1)
    std::printf("checker: %u workers (seed %llu)\n", Workers,
                static_cast<unsigned long long>(Seed));
  cegis::ConcurrentCegis C(P, Cfg);
  for (const analysis::Diagnostic &D : analysis::lint(P, C.flatProgram()))
    if (D.Sev != analysis::Severity::Note)
      printDiag(D);
  cegis::CegisResult R = C.run();
  if (!R.Stats.Resolvable) {
    std::printf("UNRESOLVABLE after %u iterations (%.2fs)%s\n",
                R.Stats.Iterations, R.Stats.TotalSeconds,
                R.Stats.Aborted ? " [budget hit]" : "");
    if (Stats)
      printStats(R.Stats);
    return 2;
  }
  std::printf("resolved in %u iterations (%.2fs)\n\n%s", R.Stats.Iterations,
              R.Stats.TotalSeconds, C.printResolved(R).c_str());
  if (Stats)
    printStats(R.Stats);
  return 0;
}

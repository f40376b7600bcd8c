//===- bench/bench_spill.cpp - Out-of-core visited store bench -------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// Measures the disk-backed visited tier (CheckerConfig::Store ==
// VisitedStore::Spill; verify/SpillStore.h, docs/SPILL.md) against the
// in-memory store on the heaviest verifier-bound Figure 9 rows (--smoke
// swaps in the light rows CI can afford). Two parts:
//
//  * Part A, out-of-core capability + footprint: one sequential
//    run-to-exhaustion check of each row's reference candidate
//    (fingerprint visited, POR off, symmetry off, falsifier off — every
//    visited entry is a mask-0 8-byte fingerprint, i.e. spill-eligible)
//    under four store configs:
//      mem/unlimited    Memory store, no budget — the baseline.
//      spill/unlimited  Spill store, no budget — the tier is armed but
//                       idle; its slowdown vs the baseline is the
//                       sequential overhead gate (<= 1.3x, enforced
//                       outside --smoke).
//      mem/capped       Memory store at a budget of 1/4 the baseline's
//                       visited bytes. MUST abort on the budget
//                       watermark (CheckResult::BudgetAborted): this is
//                       the bound no in-memory config at the cap can
//                       touch.
//      spill/capped     Spill store at the same budget. MUST finish the
//                       same exhaustive search (same state count as the
//                       baseline) with SpilledStates > 0, i.e. genuinely
//                       out of core.
//    Every row reports end-to-end bytes/state: (VisitedBytes [RAM,
//    including the spill tier's filters] + SpillBytes [disk]) / states.
//    The capped-spill rows' bytes/state are capped by
//    bench/baselines/spill.json (max_bytes_per_state ceiling rows;
//    scripts/check_bench_regression.py).
//
//  * Part B, agreement: Memory vs Spill (at the derived cap, so
//    eviction really runs) on the reference and the all-zeros candidate
//    across workers {1,2,4} x POR {off,ample} x symmetry {off,on},
//    exact visited, DeterministicCex on. Gates: identical verdict,
//    byte-identical counterexample, no I/O fallback, and (sequential
//    cells) identical explored-state counts — the disk tier answers a
//    probe exactly like the in-RAM entry it evicted, so the searches
//    must not diverge. Any disagreement makes the exit status nonzero.
//
// Flags: --smoke (light rows, overhead gate reported but not enforced —
// the CI configuration; the capability and agreement gates ARE
// enforced), --json[=path] (rows to BENCH_spill.json, provenance row
// first).
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

/// Byte-identical counterexample comparison: same presence, same step
/// sequence, same violation kind/label/location, same deadlock set.
bool cexEqual(const CheckResult &A, const CheckResult &B) {
  if (A.Cex.has_value() != B.Cex.has_value())
    return false;
  if (!A.Cex)
    return true;
  const Counterexample &X = *A.Cex, &Y = *B.Cex;
  if (X.Steps.size() != Y.Steps.size() ||
      X.DeadlockSet.size() != Y.DeadlockSet.size())
    return false;
  for (size_t I = 0; I < X.Steps.size(); ++I)
    if (X.Steps[I].Thread != Y.Steps[I].Thread ||
        X.Steps[I].Pc != Y.Steps[I].Pc)
      return false;
  for (size_t I = 0; I < X.DeadlockSet.size(); ++I)
    if (X.DeadlockSet[I].Thread != Y.DeadlockSet[I].Thread ||
        X.DeadlockSet[I].Pc != Y.DeadlockSet[I].Pc)
      return false;
  return X.V.VKind == Y.V.VKind && X.V.Label == Y.V.Label &&
         X.Where == Y.Where;
}

/// End-to-end bytes per state: RAM-resident visited bytes (which under
/// Spill already include the tier's in-memory filters) plus the live
/// on-disk run bytes, over the states the search deduplicated.
double bytesPerState(const CheckResult &R) {
  return R.StatesExplored ? static_cast<double>(R.VisitedBytes + R.SpillBytes) /
                                static_cast<double>(R.StatesExplored)
                          : 0.0;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseBenchOptions(Argc, Argv, "spill", {"--smoke"});
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

  JsonReport Json(Opts);
  Json.add(provenanceJson(Opts.Jobs, "spill"));

  std::printf("Out-of-core visited store benchmark%s\n\n",
              Smoke ? " [smoke]" : "");
  std::printf("Part A: sequential run-to-exhaustion, reference candidate, "
              "fingerprint visited, POR/symmetry off\n");
  std::printf("%-9s %-9s %-15s | %8s %9s %11s %8s | %9s %9s %6s\n", "sketch",
              "test", "store", "time(s)", "states", "states/s", "bytes/st",
              "spilled", "diskMiB", "merges");
  std::printf("--------------------------------------------------------------"
              "------------------------------------\n");

  // Single runs wobble on a busy host; non-smoke overhead cells run
  // twice per side and keep the faster run.
  const int Reps = Smoke ? 1 : 2;
  auto BestOf = [&](const exec::Machine &M, const CheckerConfig &Cfg) {
    Measurement Best = timeCheck(M, Cfg);
    for (int R = 1; R < Reps; ++R) {
      Measurement Again = timeCheck(M, Cfg);
      if (Again.Seconds < Best.Seconds)
        Best = Again;
    }
    return Best;
  };

  bool Failed = false;
  double WorstPenalty = 0.0;
  for (const SuiteEntry &E : Rows) {
    auto P = E.Build();
    flat::FlatProgram FP = flat::flatten(*P);
    exec::Machine M(FP, referenceCandidate(E, *P));

    CheckerConfig Base;
    Base.UseRandomFalsifier = false; // measure the exhaustive phase only
    Base.Visited = VisitedMode::Fingerprint;
    Base.Por = PorMode::Off;
    Base.Symmetry = SymmetryMode::Off;

    struct Cell {
      const char *Label;
      VisitedStore Store;
      bool Capped;
    };
    const Cell Cells[] = {
        {"mem/unlimited", VisitedStore::Memory, false},
        {"spill/unlimited", VisitedStore::Spill, false},
        {"mem/capped", VisitedStore::Memory, true},
        {"spill/capped", VisitedStore::Spill, true},
    };

    double BaseRate = 0.0;
    uint64_t BaseStates = 0, Cap = 0;
    for (const Cell &C : Cells) {
      CheckerConfig Cfg = Base;
      Cfg.Store = C.Store;
      Cfg.VisitedBudgetBytes = C.Capped ? Cap : 0;
      Measurement Me = BestOf(M, Cfg);
      double Rate = Me.Seconds > 0.0 ? Me.R.StatesExplored / Me.Seconds : 0.0;
      if (!C.Capped && C.Store == VisitedStore::Memory) {
        BaseRate = Rate;
        BaseStates = Me.R.StatesExplored;
        // The cap no in-memory config can finish under: a quarter of
        // what the baseline's visited tier actually needed (floored so
        // tiny smoke rows still evict instead of never filling a page).
        Cap = Me.R.VisitedBytes / 4 > 4096 ? Me.R.VisitedBytes / 4 : 4096;
      }
      std::printf("%-9s %-9s %-15s | %8.3f %9llu %11.0f %8.1f | %9llu %9.2f "
                  "%6llu%s%s%s\n",
                  E.Sketch.c_str(), E.Test.c_str(), C.Label, Me.Seconds,
                  static_cast<unsigned long long>(Me.R.StatesExplored), Rate,
                  bytesPerState(Me.R),
                  static_cast<unsigned long long>(Me.R.SpilledStates),
                  Me.R.SpillBytes / (1024.0 * 1024.0),
                  static_cast<unsigned long long>(Me.R.RunMerges),
                  Me.R.BudgetAborted ? "  [BUDGET-ABORT]" : "",
                  Me.R.SpillFallback ? "  [IO-FALLBACK]" : "",
                  Me.R.Exhausted && !Me.R.BudgetAborted ? "  [MAXSTATES]"
                                                        : "");
      std::fflush(stdout);

      JsonObject O;
      O.field("kind", "spill")
          .field("sketch", E.Sketch)
          .field("test", E.Test)
          .field("engine", C.Label)
          .field("seconds", Me.Seconds)
          .field("states", Me.R.StatesExplored)
          .field("states_per_sec", Rate)
          .field("bytes_per_state", bytesPerState(Me.R))
          .field("budget_bytes", C.Capped ? Cap : uint64_t{0})
          .field("spilled_states", Me.R.SpilledStates)
          .field("spill_bytes", Me.R.SpillBytes)
          .field("run_merges", Me.R.RunMerges)
          .field("filter_false_hits", Me.R.FilterFalseHits)
          .field("ok", Me.R.Ok)
          .field("budget_aborted", Me.R.BudgetAborted)
          .field("spill_fallback", Me.R.SpillFallback)
          .field("smoke", Smoke);
      Json.add(O);

      // Capability gates (enforced in --smoke too: they are correctness,
      // not timing).
      if (C.Store == VisitedStore::Spill && Me.R.SpillFallback) {
        std::fprintf(stderr, "error: %s %s %s fell back to the in-RAM store "
                             "(I/O failure)\n",
                     E.Sketch.c_str(), E.Test.c_str(), C.Label);
        Failed = true;
      }
      if (C.Capped && C.Store == VisitedStore::Memory &&
          !Me.R.BudgetAborted) {
        std::fprintf(stderr,
                     "error: %s %s mem/capped finished under a budget of %llu "
                     "bytes — the cap is not binding, the bench proves "
                     "nothing\n",
                     E.Sketch.c_str(), E.Test.c_str(),
                     static_cast<unsigned long long>(Cap));
        Failed = true;
      }
      if (C.Capped && C.Store == VisitedStore::Spill) {
        if (Me.R.BudgetAborted || Me.R.StatesExplored != BaseStates) {
          std::fprintf(stderr,
                       "error: %s %s spill/capped explored %llu states vs the "
                       "baseline's %llu under the same cap\n",
                       E.Sketch.c_str(), E.Test.c_str(),
                       static_cast<unsigned long long>(Me.R.StatesExplored),
                       static_cast<unsigned long long>(BaseStates));
          Failed = true;
        }
        if (Me.R.SpilledStates == 0) {
          std::fprintf(stderr,
                       "error: %s %s spill/capped never spilled — the cap did "
                       "not exercise the disk tier\n",
                       E.Sketch.c_str(), E.Test.c_str());
          Failed = true;
        }
      }
      if (!C.Capped && C.Store == VisitedStore::Spill && BaseRate > 0.0 &&
          Rate > 0.0) {
        double Penalty = BaseRate / Rate;
        WorstPenalty = Penalty > WorstPenalty ? Penalty : WorstPenalty;
      }
    }
  }

  if (WorstPenalty > 1.3) {
    if (Smoke) {
      std::printf("\nspill/unlimited overhead %.2fx (gate not enforced in "
                  "--smoke)\n",
                  WorstPenalty);
    } else {
      std::fprintf(stderr,
                   "error: spill store overhead on an in-RAM workload is "
                   "%.2fx (gate: <= 1.3x)\n",
                   WorstPenalty);
      Failed = true;
    }
  }

  // Part B: Memory vs Spill agreement under eviction pressure. The
  // Memory side doubles as the budget probe: the Spill side reruns at a
  // quarter of whatever the Memory search's visited tier held.
  std::printf("\nPart B: Memory vs Spill agreement (exact visited, "
              "deterministic cex)\n");
  std::printf("%-9s %-9s %-5s %3s %-9s | %-6s %-6s %-9s\n", "sketch", "test",
              "cand", "W", "por/sym", "mem", "spill", "agree");
  std::printf("--------------------------------------------------------------"
              "--\n");

  struct ShapeConfig {
    const char *Label;
    PorMode Por;
    SymmetryMode Symmetry;
  };
  const ShapeConfig Shapes[] = {
      {"off/off", PorMode::Off, SymmetryMode::Off},
      {"off/sym", PorMode::Off, SymmetryMode::Orbit},
      {"ample/off", PorMode::Ample, SymmetryMode::Off},
      {"ample/sym", PorMode::Ample, SymmetryMode::Orbit},
  };

  unsigned Cells = 0, Agreed = 0;
  for (const SuiteEntry &E : Rows) {
    auto P = E.Build();
    flat::FlatProgram FP = flat::flatten(*P);
    ir::HoleAssignment Ref = referenceCandidate(E, *P);
    ir::HoleAssignment Zero(P->holes().size(), 0);
    struct Cand {
      const char *Label;
      const ir::HoleAssignment *A;
    } Cands[] = {{"ref", &Ref}, {"zero", &Zero}};
    for (const Cand &Ca : Cands) {
      exec::Machine M(FP, *Ca.A);
      for (unsigned W : {1u, 2u, 4u}) {
        for (const ShapeConfig &C : Shapes) {
          CheckerConfig Cfg;
          Cfg.NumThreads = W;
          Cfg.Por = C.Por;
          Cfg.Symmetry = C.Symmetry;
          CheckResult RM = checkCandidate(M, Cfg);
          Cfg.Store = VisitedStore::Spill;
          Cfg.VisitedBudgetBytes =
              RM.VisitedBytes / 4 > 4096 ? RM.VisitedBytes / 4 : 4096;
          CheckResult RS = checkCandidate(M, Cfg);
          // Worker counts > 1 race to the first violation, so the
          // explored-state count is only pinned sequentially.
          bool Agree = RM.Ok == RS.Ok && cexEqual(RM, RS) &&
                       !RS.SpillFallback && !RS.BudgetAborted &&
                       (W > 1 || RM.StatesExplored == RS.StatesExplored);
          ++Cells;
          Agreed += Agree;
          std::printf("%-9s %-9s %-5s %3u %-9s | %-6s %-6s %-9s\n",
                      E.Sketch.c_str(), E.Test.c_str(), Ca.Label, W, C.Label,
                      RM.Ok ? "ok" : "fail", RS.Ok ? "ok" : "fail",
                      Agree ? "yes" : "DISAGREE");
          std::fflush(stdout);

          JsonObject O;
          O.field("kind", "spill_agreement")
              .field("sketch", E.Sketch)
              .field("test", E.Test)
              .field("candidate", Ca.Label)
              .field("workers", W)
              .field("shape", C.Label)
              .field("mem_ok", RM.Ok)
              .field("spill_ok", RS.Ok)
              .field("agrees", Agree)
              .field("spilled_states", RS.SpilledStates)
              .field("spill_fallback", RS.SpillFallback)
              .field("smoke", Smoke);
          Json.add(O);
        }
      }
    }
  }

  Json.write();

  if (Agreed != Cells) {
    std::fprintf(stderr,
                 "error: %u/%u Memory-vs-Spill cells disagree (see DISAGREE "
                 "rows)\n",
                 Cells - Agreed, Cells);
    Failed = true;
  }
  if (Failed)
    return 1;
  std::printf("\n%u/%u Memory-vs-Spill agreement; out-of-core capability "
              "proven on %zu row(s); worst in-RAM overhead %.2fx\n",
              Agreed, Cells, Rows.size(), WorstPenalty);
  return 0;
}

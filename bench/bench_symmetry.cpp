//===- bench/bench_symmetry.cpp - Symmetry reduction microbenchmark --------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// Measures the orbit-canonicalization symmetry reduction
// (CheckerConfig::Symmetry, docs/SYMMETRY.md): run-to-verdict checks
// (falsifier off) of symmetric workloads under Symmetry Off vs Orbit at
// 1, 2, and 4 workers. Rows: a fully Sym(N)-symmetric counter (the
// reduction ceiling case), the barrier ring at N=3 and N=4 (a C_N group —
// the Burnside bound caps the ratio strictly below N!, and POR
// compounding pushes it past |C_N| at N=4), the dining table under its
// symmetric take-right-first policy (rotations + a deadlock verdict;
// value maps relabel the stick owner ids), and the honest 1.0x row: the
// asymmetric dining reference, which the inference refuses. Ratios are
// gated at W=1: counter >= 3x, barrier N=3 >= 2.5x, and (full mode)
// barrier N=4 ratio > N=3 ratio. Multi-worker cells on the violating
// workloads are race-dependent (the run ends when any worker reaches the
// deadlock) and reported for observability only — the ratio gates read
// the deterministic W=1 cells. Every cell also gates Off/Orbit verdict
// equality.
//
// Verdict and counterexample agreement on the suite rows across workers
// and POR modes is tests/test_oracle.cpp's.
//
// Unlike the other benches this one ALWAYS writes its JSON artifact
// (BENCH_symmetry.json unless --json=path overrides it): the reduction
// ratios are acceptance numbers, not just perf telemetry.
//
// Flags: --smoke (light rows — the CI configuration), --json[=path].
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "desugar/Flatten.h"
#include "benchmarks/Barrier.h"
#include "benchmarks/Dining.h"
#include "ir/Program.h"
#include "verify/ModelChecker.h"

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>

using namespace psketch;
using namespace psketch::bench;
using namespace psketch::verify;

namespace {

/// A fully Sym(N)-symmetric workload: N identical threads each adding 1
/// to a shared counter \p Rounds times, an epilogue asserting the sum.
/// Thread identity is unobservable, so the inference proves the full
/// symmetric group and the orbit reduction approaches its ceiling.
std::unique_ptr<ir::Program> buildCounter(unsigned N, unsigned Rounds) {
  auto P = std::make_unique<ir::Program>();
  unsigned G = P->addGlobal("g", ir::Type::Int, 0);
  for (unsigned T = 0; T < N; ++T) {
    unsigned Id = P->addThread("t");
    std::vector<ir::StmtRef> Body;
    for (unsigned R = 0; R < Rounds; ++R)
      Body.push_back(
          P->assign(P->locGlobal(G), P->add(P->global(G), P->constInt(1))));
    P->setRoot(ir::BodyId::thread(Id), P->seq(Body));
  }
  P->setRoot(ir::BodyId::epilogue(),
             P->assertS(P->eq(P->global(G),
                              P->constInt(static_cast<int64_t>(N) * Rounds)),
                        "sum"));
  return P;
}

/// One workload: a program, a candidate, and the POR mode it is
/// measured under (Off where tractable; Ample where the unreduced graph
/// would blow the state budget, which also shows the POR x symmetry
/// composition).
struct ReductionRow {
  std::string Name;
  std::string Note; ///< one-word expectation shown in the table
  std::function<std::unique_ptr<ir::Program>()> Build;
  std::function<ir::HoleAssignment(const ir::Program &)> Candidate;
  PorMode Por = PorMode::Off;
  double GateMinRatio = 0.0; ///< W=1 gate; 0 = ungated (honest rows)
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

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseBenchOptions(Argc, Argv, "symmetry", {"--smoke"});
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
  // The reduction ratios are acceptance numbers: always emit the
  // artifact, --json=path only redirects it.
  Opts.Json = true;

  std::vector<ReductionRow> Rows;
  // The ceiling case: Sym(4) proves 23 non-identity automorphisms; the
  // state space is small enough for unreduced Por=Off even in smoke.
  Rows.push_back({"counter", "Sym(4)",
                  [] { return buildCounter(4, 3); },
                  [](const ir::Program &P) {
                    return ir::HoleAssignment(P.holes().size(), 0);
                  },
                  PorMode::Off, 3.0});
  {
    // The ring case: C_3 caps the Por=Off ratio at exactly 3; under
    // Ample the measured ratio reflects POR-canonical exploration.
    BarrierOptions O;
    O.Threads = 3;
    Rows.push_back({"barrier1 N=3", "C_3",
                    [O] { return buildBarrier(O); },
                    [O](const ir::Program &P) {
                      return barrierReferenceCandidate(P, O);
                    },
                    PorMode::Ample, 2.5});
  }
  if (!Smoke) {
    BarrierOptions O;
    O.Threads = 4;
    Rows.push_back({"barrier1 N=4", "C_4",
                    [O] { return buildBarrier(O); },
                    [O](const ir::Program &P) {
                      return barrierReferenceCandidate(P, O);
                    },
                    PorMode::Ample, 0.0});
  }
  {
    // The value-map case: the all-zeros assignment resolves every
    // policy hole to take-right-first — symmetric (rotations whose
    // value maps relabel the stick owner ids) and deadlocking, so this
    // measures states-to-verdict on a violation.
    DiningOptions O;
    O.Philosophers = Smoke ? 3u : 4u;
    O.Meals = 2;
    Rows.push_back({Smoke ? "dinphilo N=3" : "dinphilo N=4", "deadlock",
                    [O] { return buildDining(O); },
                    [](const ir::Program &P) {
                      return ir::HoleAssignment(P.holes().size(), 0);
                    },
                    PorMode::Off, 0.0});
  }
  if (!Smoke) {
    DiningOptions O;
    O.Philosophers = 5;
    O.Meals = 2;
    Rows.push_back({"dinphilo N=5", "deadlock",
                    [O] { return buildDining(O); },
                    [](const ir::Program &P) {
                      return ir::HoleAssignment(P.holes().size(), 0);
                    },
                    PorMode::Off, 0.0});
  }
  {
    // The honest row: the asymmetric dining reference is refused by the
    // inference, so Orbit degrades to Off and the ratio is 1.0x.
    DiningOptions O;
    O.Philosophers = 3;
    O.Meals = 2;
    Rows.push_back({"dinphilo ref", "refused",
                    [O] { return buildDining(O); },
                    [O](const ir::Program &P) {
                      return diningReferenceCandidate(P, O);
                    },
                    PorMode::Off, 0.0});
  }

  JsonReport Json(Opts);
  bool Gate = true;

  std::printf("Symmetry reduction microbenchmark%s\n\n",
              Smoke ? " [smoke]" : "");
  std::printf("Run-to-verdict, falsifier off, Symmetry off vs orbit\n");
  std::printf("%-13s %-9s %-5s %3s | %9s %9s %6s %9s | %9s %-6s\n", "workload",
              "note", "por", "W", "off-st", "orbit-st", "orbits", "canhits",
              "red.ratio", "gate");
  std::printf("--------------------------------------------------------------"
              "----------------------\n");

  for (const ReductionRow &Row : Rows) {
    auto P = Row.Build();
    flat::FlatProgram FP = flat::flatten(*P);
    exec::Machine M(FP, Row.Candidate(*P));

    for (unsigned W : {1u, 2u, 4u}) {
      CheckerConfig Base;
      Base.UseRandomFalsifier = false;
      Base.DeterministicCex = false; // states-to-verdict, not trace shape
      Base.Por = Row.Por;
      Base.NumThreads = W;

      CheckerConfig Off = Base;
      Off.Symmetry = SymmetryMode::Off;
      CheckerConfig Orbit = Base;
      Orbit.Symmetry = SymmetryMode::Orbit;

      Measurement MOff = timeCheck(M, Off);
      Measurement MOrb = timeCheck(M, Orbit);
      double Ratio = MOrb.R.StatesExplored
                         ? static_cast<double>(MOff.R.StatesExplored) /
                               static_cast<double>(MOrb.R.StatesExplored)
                         : 0.0;
      bool Gated = Row.GateMinRatio > 0.0 && W == 1;
      bool RowOk = !Gated || Ratio >= Row.GateMinRatio;
      Gate = Gate && RowOk;
      std::printf(
          "%-13s %-9s %-5s %3u | %9llu %9llu %6u %9llu | %8.2fx %-6s\n",
          Row.Name.c_str(), Row.Note.c_str(), porName(Row.Por), W,
          static_cast<unsigned long long>(MOff.R.StatesExplored),
          static_cast<unsigned long long>(MOrb.R.StatesExplored),
          MOrb.R.SymmetryOrbits,
          static_cast<unsigned long long>(MOrb.R.CanonHits),
          Ratio,
          !Gated ? "-" : (RowOk ? "pass" : "FAIL"));
      std::fflush(stdout);

      JsonObject O;
      O.field("kind", "reduction")
          .field("workload", Row.Name)
          .field("note", Row.Note)
          .field("por", porName(Row.Por))
          .field("workers", W)
          .field("off_states", MOff.R.StatesExplored)
          .field("orbit_states", MOrb.R.StatesExplored)
          .field("orbits", MOrb.R.SymmetryOrbits)
          .field("canon_hits", MOrb.R.CanonHits)
          .field("canon_seconds", MOrb.R.CanonTime)
          .field("off_seconds", MOff.Seconds)
          .field("orbit_seconds", MOrb.Seconds)
          .field("reduction_vs_off", Ratio)
          .field("off_ok", MOff.R.Ok)
          .field("orbit_ok", MOrb.R.Ok)
          .field("gate_min_ratio", Row.GateMinRatio)
          .field("gate_pass", RowOk)
          .field("smoke", Smoke);
      Json.add(O);

      // Verdict equality is part of the soundness gate.
      if (MOff.R.Ok != MOrb.R.Ok) {
        std::fprintf(stderr, "error: %s W=%u verdict disagreement\n",
                     Row.Name.c_str(), W);
        Gate = false;
      }
    }
  }

  // Full mode: the N=4 ring must out-reduce the N=3 ring (larger group,
  // more collapsing) — checked on the W=1 cells.
  if (!Smoke) {
    auto RatioAt1 = [&](const char *Name) {
      for (const ReductionRow &Row : Rows)
        if (Row.Name == Name) {
          auto P = Row.Build();
          flat::FlatProgram FP = flat::flatten(*P);
          exec::Machine M(FP, Row.Candidate(*P));
          CheckerConfig Cfg;
          Cfg.UseRandomFalsifier = false;
          Cfg.DeterministicCex = false;
          Cfg.Por = Row.Por;
          CheckerConfig Off = Cfg;
          Off.Symmetry = SymmetryMode::Off;
          CheckResult RO = checkCandidate(M, Off);
          CheckResult RS = checkCandidate(M, Cfg);
          return RS.StatesExplored ? static_cast<double>(RO.StatesExplored) /
                                         static_cast<double>(RS.StatesExplored)
                                   : 0.0;
        }
      return 0.0;
    };
    double R3 = RatioAt1("barrier1 N=3");
    double R4 = RatioAt1("barrier1 N=4");
    bool Trend = R4 > R3;
    Gate = Gate && Trend;
    std::printf("\nbarrier ring trend: N=4 ratio %.2fx %s N=3 ratio %.2fx "
                "(%s)\n",
                R4, Trend ? ">" : "<=", R3, Trend ? "pass" : "FAIL");
    JsonObject O;
    O.field("kind", "trend")
        .field("n3_ratio", R3)
        .field("n4_ratio", R4)
        .field("gate_pass", Trend)
        .field("smoke", Smoke);
    Json.add(O);
  }

  Json.write();
  if (!Gate) {
    std::fprintf(stderr, "error: symmetry gate failure (see FAIL/DISAGREE "
                         "rows)\n");
    return 1;
  }
  std::printf("\nall gates pass: reductions hold and Orbit agrees with Off "
              "on every verdict\n");
  return 0;
}

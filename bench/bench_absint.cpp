//===- bench/bench_absint.cpp - Abstract-interpretation microbenchmark ----===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// Measures the thread-modular abstract interpreter (analysis/AbsInt.h,
// analysis/Lockset.h, docs/ANALYSIS.md) and gates its soundness. Two
// parts:
//
//  * Part A, CEGIS deltas: whole runs with the screen on vs off, per
//    row reporting the verifier-call and states-explored deltas. Rows:
//    a refutation-heavy hole space (most candidates die in the abstract
//    without a verifier call), a lock-disciplined counter (no prunes —
//    the win is Machine tuning: packed keys + the protectedBy POR
//    channel), and the honest row: the dining table, whose policy-
//    guarded fork acquires the lockset analysis refuses, so tuning is
//    empty and the ratio is 1.0. Gated on verdict equality per row,
//    prunes > 0 on the refutation row, and states-on <= states-off on
//    the locked row.
//
//  * Part B, the audit gate: CEGIS with AbsIntAudit on the refutation
//    row — every interval refutation is re-checked by the concrete
//    verifier; one contradicted refutation (AbsIntFalsePrunes != 0)
//    fails the bench.
//
// Tuned-vs-plain verdict, counterexample and packed-key state-count
// agreement is tests/test_oracle.cpp's.
//
// Unlike most benches this one ALWAYS writes its JSON artifact
// (BENCH_absint.json unless --json=path overrides it): the deltas and
// audit bits are acceptance numbers, not just perf telemetry.
//
// Flags: --smoke (light rows — the CI configuration), --json[=path].
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "benchmarks/Dining.h"
#include "ir/Program.h"

#include <cstring>
#include <functional>
#include <memory>

using namespace psketch;
using namespace psketch::bench;
using namespace psketch::verify;

namespace {

/// The refutation-heavy workload: \p Threads threads each store one
/// generator value into a private global, the epilogue asserts every
/// slot equals its only passing alternative. The abstract interpreter
/// refutes every candidate that picks a wrong alternative anywhere —
/// the concrete verifier is only ever called on survivors.
std::unique_ptr<ir::Program> buildRefuteFarm(unsigned Threads,
                                             unsigned Choices) {
  auto P = std::make_unique<ir::Program>();
  std::vector<unsigned> Slots;
  for (unsigned T = 0; T < Threads; ++T)
    Slots.push_back(P->addGlobal("s" + std::to_string(T), ir::Type::Int, 0));
  for (unsigned T = 0; T < Threads; ++T) {
    unsigned Id = P->addThread("t");
    std::vector<ir::ExprRef> Alts;
    for (unsigned C = 0; C < Choices; ++C)
      Alts.push_back(P->constInt(static_cast<int64_t>(C + 1)));
    P->setRoot(ir::BodyId::thread(Id),
               P->assign(P->locGlobal(Slots[T]),
                         P->choose("v", std::move(Alts))));
  }
  std::vector<ir::StmtRef> Asserts;
  for (unsigned T = 0; T < Threads; ++T)
    Asserts.push_back(P->assertS(
        P->eq(P->global(Slots[T]),
              P->constInt(static_cast<int64_t>(Choices))),
        "slot" + std::to_string(T)));
  P->setRoot(ir::BodyId::epilogue(), P->seq(std::move(Asserts)));
  return P;
}

/// The lock-disciplined workload: \p Threads threads, each taking a
/// scalar owner lock (free = -1), bumping the shared counter by a
/// generator amount \p Rounds times, releasing. The epilogue assert
/// only passes when every pick is 1, so CEGIS has real work; the
/// analysis proves the lock discipline and tight bounds, and tuning
/// (protectedBy POR + packed keys) shrinks exploration.
std::unique_ptr<ir::Program> buildLockFarm(unsigned Threads,
                                           unsigned Rounds) {
  auto P = std::make_unique<ir::Program>();
  unsigned LK = P->addGlobal("lk", ir::Type::Int, -1);
  unsigned X = P->addGlobal("x", ir::Type::Int, 0);
  for (unsigned T = 0; T < Threads; ++T) {
    unsigned Id = P->addThread("t");
    std::vector<ir::StmtRef> Body;
    Body.push_back(P->lock(P->locGlobal(LK), P->global(LK),
                           P->constInt(static_cast<int64_t>(T))));
    for (unsigned R = 0; R < Rounds; ++R)
      Body.push_back(P->assign(
          P->locGlobal(X),
          P->add(P->global(X),
                 P->choose("amt", {P->constInt(1), P->constInt(2)}))));
    Body.push_back(P->unlock(P->locGlobal(LK), P->global(LK),
                             P->constInt(static_cast<int64_t>(T)), "owner"));
    P->setRoot(ir::BodyId::thread(Id), P->seq(std::move(Body)));
  }
  P->setRoot(
      ir::BodyId::epilogue(),
      P->assertS(P->eq(P->global(X),
                       P->constInt(static_cast<int64_t>(Threads) * Rounds)),
                 "sum"));
  return P;
}

/// One Part A row.
struct CegisRow {
  std::string Name;
  std::string Note;
  std::function<std::unique_ptr<ir::Program>()> Build;
  bool GatePrunes = false;      ///< require IntervalPrunes > 0 with on
  bool GateStatesShrink = false;///< require states-on <= states-off
};

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseBenchOptions(Argc, Argv, "absint", {"--smoke"});
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
  // The deltas and audit bits are acceptance numbers: always emit
  // the artifact, --json=path only redirects it.
  Opts.Json = true;

  JsonReport Json(Opts);
  bool Gate = true;

  std::printf("Abstract-interpretation microbenchmark%s\n\n",
              Smoke ? " [smoke]" : "");

  //===------------------------------------------------------------------===//
  // Part A: CEGIS with the screen on vs off.
  //===------------------------------------------------------------------===//

  std::vector<CegisRow> Rows;
  Rows.push_back({"refute-farm", "prunes",
                  [&] { return buildRefuteFarm(Smoke ? 3u : 4u, 4); },
                  /*GatePrunes=*/true, /*GateStatesShrink=*/false});
  Rows.push_back({"lock-farm", "tuning",
                  [&] { return buildLockFarm(2, Smoke ? 2u : 3u); },
                  /*GatePrunes=*/false, /*GateStatesShrink=*/true});
  {
    DiningOptions O;
    O.Philosophers = 3;
    O.Meals = 2;
    Rows.push_back({"dinphilo", "refused",
                    [O] { return buildDining(O); },
                    /*GatePrunes=*/false, /*GateStatesShrink=*/false});
  }

  std::printf("Part A: CEGIS verifier-call and state deltas, screen on "
              "vs off\n");
  std::printf("%-12s %-8s | %7s %7s | %9s %9s | %6s %5s %5s | %-5s\n",
              "workload", "note", "itns-off", "itns-on", "st-off", "st-on",
              "prunes", "bits", "locks", "gate");
  std::printf("--------------------------------------------------------------"
              "------------------------\n");

  for (const CegisRow &Row : Rows) {
    auto RunOne = [&](bool AbsInt) {
      auto P = Row.Build();
      cegis::CegisConfig Cfg;
      Cfg.MaxIterations = 2000;
      Cfg.Checker.NumThreads = Opts.Jobs;
      Cfg.AbsInt = AbsInt;
      Cfg.Analysis.AbsInt = AbsInt;
      cegis::ConcurrentCegis C(*P, Cfg);
      return C.run();
    };
    cegis::CegisResult Off = RunOne(false);
    cegis::CegisResult On = RunOne(true);

    bool RowOk = !Off.Stats.Aborted && !On.Stats.Aborted &&
                 Off.Stats.Resolvable == On.Stats.Resolvable &&
                 On.Stats.AbsIntFalsePrunes == 0;
    if (Row.GatePrunes)
      RowOk = RowOk && On.Stats.IntervalPrunes > 0 &&
              On.Stats.Iterations <= Off.Stats.Iterations;
    if (Row.GateStatesShrink)
      RowOk = RowOk && On.Stats.StatesExplored <= Off.Stats.StatesExplored &&
              On.Stats.LockIndepPairs > 0 && On.Stats.TightenedBits > 0;
    Gate = Gate && RowOk;

    std::printf("%-12s %-8s | %8u %7u | %9llu %9llu | %6llu %5u %5llu | "
                "%-5s\n",
                Row.Name.c_str(), Row.Note.c_str(), Off.Stats.Iterations,
                On.Stats.Iterations,
                static_cast<unsigned long long>(Off.Stats.StatesExplored),
                static_cast<unsigned long long>(On.Stats.StatesExplored),
                static_cast<unsigned long long>(On.Stats.IntervalPrunes),
                On.Stats.TightenedBits,
                static_cast<unsigned long long>(On.Stats.LockIndepPairs),
                RowOk ? "pass" : "FAIL");
    std::fflush(stdout);

    JsonObject O;
    O.field("kind", "cegis_delta")
        .field("workload", Row.Name)
        .field("note", Row.Note)
        .field("off_resolvable", Off.Stats.Resolvable)
        .field("on_resolvable", On.Stats.Resolvable)
        .field("off_iterations", static_cast<uint64_t>(Off.Stats.Iterations))
        .field("on_iterations", static_cast<uint64_t>(On.Stats.Iterations))
        .field("off_states", Off.Stats.StatesExplored)
        .field("on_states", On.Stats.StatesExplored)
        .field("interval_prunes", On.Stats.IntervalPrunes)
        .field("tightened_bits", On.Stats.TightenedBits)
        .field("lock_indep_pairs", On.Stats.LockIndepPairs)
        .field("pack_escapes", On.Stats.PackEscapes)
        .field("absint_seconds", On.Stats.AbsIntSeconds)
        .field("false_prunes", On.Stats.AbsIntFalsePrunes)
        .field("gate_pass", RowOk)
        .field("smoke", Smoke);
    Json.add(O);
  }

  //===------------------------------------------------------------------===//
  // Part B: the audit gate — zero contradicted refutations.
  //===------------------------------------------------------------------===//

  std::printf("\nPart B: audit — every interval refutation re-checked "
              "concretely\n");
  {
    auto P = buildRefuteFarm(Smoke ? 3u : 4u, 4);
    cegis::CegisConfig Cfg;
    Cfg.MaxIterations = 5000;
    Cfg.Prescreen = false; // force every candidate through the screen
    Cfg.AbsIntAudit = true;
    cegis::ConcurrentCegis C(*P, Cfg);
    cegis::CegisResult R = C.run();
    bool AuditOk = !R.Stats.Aborted && R.Stats.Resolvable &&
                   R.Stats.IntervalPrunes > 0 &&
                   R.Stats.AbsIntFalsePrunes == 0;
    Gate = Gate && AuditOk;
    std::printf("  %llu refutations audited, %llu contradicted: %s\n",
                static_cast<unsigned long long>(R.Stats.IntervalPrunes),
                static_cast<unsigned long long>(R.Stats.AbsIntFalsePrunes),
                AuditOk ? "pass" : "FAIL");

    JsonObject O;
    O.field("kind", "audit")
        .field("audited_prunes", R.Stats.IntervalPrunes)
        .field("false_prunes", R.Stats.AbsIntFalsePrunes)
        .field("resolvable", R.Stats.Resolvable)
        .field("gate_pass", AuditOk)
        .field("smoke", Smoke);
    Json.add(O);
  }

  Json.write();
  if (!Gate) {
    std::fprintf(stderr,
                 "error: absint gate failure (see FAIL/DISAGREE rows)\n");
    return 1;
  }
  std::printf("\nall gates pass: refutations audited clean, screen on/off "
              "verdicts agree\n");
  return 0;
}

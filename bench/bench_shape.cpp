//===- bench/bench_shape.cpp - Points-to/shape partition microbenchmark ---===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// Measures the allocation-site heap partition (analysis/PointsTo.h,
// analysis/Shape.h, docs/ANALYSIS.md Pass 5) and gates its soundness.
// Two parts:
//
//  * Part A, the audit gate: CEGIS with ShapeAudit on a heap refutation
//    farm (plus the DList row in full mode) — every failing verdict
//    produced under the partition is re-checked by the untuned
//    verifier; one disagreement (ShapeFalsePrunes != 0) fails the
//    bench.
//
//  * Part B, reduction: two synthetic heap-heavy rows where the class
//    footprint serializes everything and the partition proves the
//    threads independent — disjoint writers over prologue-published
//    nodes, and private allocators. Gated on >= 1.2x states-explored
//    reduction per row; states/sec is reported alongside.
//
// Partition on/off verdict and counterexample agreement on the linked
// suite rows (DList i(i|i), LazySet, FineSet) is tests/test_oracle.cpp's:
// its tuned Machine carries the heap partition.
//
// Like bench_absint this one ALWAYS writes its JSON artifact
// (BENCH_shape.json unless --json=path overrides it): the audit and
// reduction bits are acceptance numbers, not just perf telemetry.
//
// Flags: --smoke (light rows — the CI configuration), --json[=path].
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "analysis/AbsInt.h"
#include "analysis/PointsTo.h"
#include "benchmarks/DList.h"
#include "desugar/Flatten.h"
#include "ir/Program.h"
#include "verify/ModelChecker.h"

#include <chrono>
#include <cstring>
#include <memory>

using namespace psketch;
using namespace psketch::bench;
using namespace psketch::verify;

namespace {

/// Disjoint writers: the prologue allocates one node per thread into a
/// distinct global root; thread i writes \p Writes fields of node i.
/// Every cross-thread step pair conflicts under the per-field class
/// footprint and commutes under the per-(site, field) partition.
std::unique_ptr<ir::Program> buildDisjointWriters(unsigned Threads,
                                                  unsigned Writes) {
  auto P = std::make_unique<ir::Program>();
  unsigned Val = P->addField("val", ir::Type::Int);
  unsigned Aux = P->addField("aux", ir::Type::Int);
  P->setPoolSize(Threads);
  std::vector<unsigned> Roots;
  std::vector<ir::StmtRef> Pro;
  for (unsigned T = 0; T < Threads; ++T) {
    Roots.push_back(
        P->addGlobal("g" + std::to_string(T), ir::Type::Ptr, 0));
    Pro.push_back(P->alloc(P->locGlobal(Roots.back())));
  }
  P->setRoot(ir::BodyId::prologue(), P->seq(std::move(Pro)));
  for (unsigned T = 0; T < Threads; ++T) {
    unsigned Id = P->addThread("t");
    std::vector<ir::StmtRef> Body;
    for (unsigned W = 0; W < Writes; ++W)
      Body.push_back(
          P->assign(P->locField(P->global(Roots[T]), W % 2 ? Aux : Val),
                    P->constInt(static_cast<int64_t>(W + 1))));
    P->setRoot(ir::BodyId::thread(Id), P->seq(std::move(Body)));
  }
  // The last val write is the largest even index W, storing W + 1.
  int64_t FinalVal = static_cast<int64_t>(((Writes - 1) & ~1u) + 1);
  std::vector<ir::StmtRef> Asserts;
  for (unsigned T = 0; T < Threads; ++T)
    Asserts.push_back(P->assertS(
        P->eq(P->field(P->global(Roots[T]), Val), P->constInt(FinalVal)),
        "node" + std::to_string(T)));
  P->setRoot(ir::BodyId::epilogue(), P->seq(std::move(Asserts)));
  return P;
}

/// Private allocators: each thread allocates its own node and writes
/// \p Writes fields through its local. The allocation steps still
/// conflict on the pool counter; the field writes resolve to the
/// thread's own site and commute only under the partition.
std::unique_ptr<ir::Program> buildPrivateAllocators(unsigned Threads,
                                                    unsigned Writes) {
  auto P = std::make_unique<ir::Program>();
  unsigned Val = P->addField("val", ir::Type::Int);
  unsigned Aux = P->addField("aux", ir::Type::Int);
  P->setPoolSize(Threads);
  for (unsigned T = 0; T < Threads; ++T) {
    unsigned Id = P->addThread("t");
    ir::BodyId B = ir::BodyId::thread(Id);
    unsigned L = P->addLocal(B, "n", ir::Type::Ptr, 0);
    std::vector<ir::StmtRef> Body;
    Body.push_back(P->alloc(P->locLocal(L)));
    for (unsigned W = 0; W < Writes; ++W)
      Body.push_back(P->assign(
          P->locField(P->local(L, ir::Type::Ptr), W % 2 ? Aux : Val),
          P->constInt(static_cast<int64_t>(W + 1))));
    P->setRoot(B, P->seq(std::move(Body)));
  }
  P->setRoot(ir::BodyId::epilogue(), P->nop());
  return P;
}

/// Heap refutation farm for the audit: thread i stores a generator value
/// into node i's val field; the epilogue asserts neighbouring nodes
/// agree, so every mismatched candidate fails a concrete check under
/// the partition and the audit re-verifies each failure untuned.
/// With \p Mismatch the threads draw from disjoint value ranges, so no
/// candidate can satisfy the equality chain: every candidate fails a
/// concrete check and the audit re-verifies each one.
std::unique_ptr<ir::Program> buildHeapRefuteFarm(unsigned Threads,
                                                 unsigned Choices,
                                                 bool Mismatch = false) {
  auto P = std::make_unique<ir::Program>();
  unsigned Val = P->addField("val", ir::Type::Int);
  P->setPoolSize(Threads);
  std::vector<unsigned> Roots;
  std::vector<ir::StmtRef> Pro;
  for (unsigned T = 0; T < Threads; ++T) {
    Roots.push_back(
        P->addGlobal("g" + std::to_string(T), ir::Type::Ptr, 0));
    Pro.push_back(P->alloc(P->locGlobal(Roots.back())));
  }
  P->setRoot(ir::BodyId::prologue(), P->seq(std::move(Pro)));
  for (unsigned T = 0; T < Threads; ++T) {
    unsigned Id = P->addThread("t");
    std::vector<ir::ExprRef> Alts;
    for (unsigned C = 0; C < Choices; ++C)
      Alts.push_back(P->constInt(static_cast<int64_t>(
          (Mismatch ? T * Choices : 0) + C + 1)));
    P->setRoot(ir::BodyId::thread(Id),
               P->assign(P->locField(P->global(Roots[T]), Val),
                         P->choose("v", std::move(Alts))));
  }
  // Chained equality between neighbouring nodes: the per-site intervals
  // always overlap at 0, so the screen cannot refute a mismatched pick
  // — every failing candidate reaches the checker under the partition
  // and the audit re-verifies its counterexample untuned.
  std::vector<ir::StmtRef> Asserts;
  for (unsigned T = 0; T + 1 < Threads; ++T)
    Asserts.push_back(P->assertS(
        P->eq(P->field(P->global(Roots[T]), Val),
              P->field(P->global(Roots[T + 1]), Val)),
        "eq" + std::to_string(T)));
  P->setRoot(ir::BodyId::epilogue(), P->seq(std::move(Asserts)));
  return P;
}

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseBenchOptions(Argc, Argv, "shape", {"--smoke"});
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
  // The audit and reduction bits are acceptance numbers: always emit the
  // artifact, --json=path only redirects it.
  Opts.Json = true;

  JsonReport Json(Opts);
  Json.add(provenanceJson(Opts.Jobs));
  bool Gate = true;

  std::printf("Allocation-site heap-partition microbenchmark%s\n\n",
              Smoke ? " [smoke]" : "");

  //===------------------------------------------------------------------===//
  // Part A: the audit gate — zero contradicted partition verdicts.
  //===------------------------------------------------------------------===//

  std::printf("Part A: audit — every failing partition-tuned verdict "
              "re-checked untuned\n");
  {
    struct AuditRow {
      std::string Name;
      std::unique_ptr<ir::Program> P;
      bool NeedSites;
      bool ExpectResolvable = true;
      unsigned MinIterations = 1;
    };
    std::vector<AuditRow> Audits;
    {
      AuditRow A;
      A.Name = "heap-refute-farm";
      A.P = buildHeapRefuteFarm(3, Smoke ? 3u : 4u);
      A.NeedSites = true;
      Audits.push_back(std::move(A));
    }
    {
      // Disjoint value ranges: unresolvable, so every checked candidate
      // fails concretely and the audit provably re-verifies at least one
      // failing verdict untuned (a resolvable farm can succeed on
      // iteration 1 without ever auditing a failure).
      AuditRow A;
      A.Name = "heap-mismatch-farm";
      A.P = buildHeapRefuteFarm(3, 2, /*Mismatch=*/true);
      A.NeedSites = true;
      A.ExpectResolvable = false;
      Audits.push_back(std::move(A));
    }
    if (!Smoke) {
      AuditRow A;
      A.Name = "DList i(i|i)";
      A.P = buildDList(parseWorkload("i(i|i)"), DListOptions());
      A.NeedSites = false; // the walk's derefs may refuse: sites optional
      Audits.push_back(std::move(A));
    }
    for (AuditRow &A : Audits) {
      cegis::CegisConfig Cfg;
      Cfg.MaxIterations = 5000;
      Cfg.Checker.NumThreads = Opts.Jobs;
      Cfg.Prescreen = false; // force candidates through the checker
      Cfg.Shape = true;
      Cfg.ShapeAudit = true;
      cegis::ConcurrentCegis C(*A.P, Cfg);
      cegis::CegisResult R = C.run();
      bool AuditOk = !R.Stats.Aborted &&
                     R.Stats.Resolvable == A.ExpectResolvable &&
                     R.Stats.ShapeFalsePrunes == 0 &&
                     R.Stats.Iterations >= A.MinIterations &&
                     (!A.NeedSites || R.Stats.ShapeSites > 0);
      Gate = Gate && AuditOk;
      std::printf("  %-16s %u sites, %llu false prunes over %u itns: %s\n",
                  A.Name.c_str(), R.Stats.ShapeSites,
                  static_cast<unsigned long long>(R.Stats.ShapeFalsePrunes),
                  R.Stats.Iterations, AuditOk ? "pass" : "FAIL");

      JsonObject O;
      O.field("kind", "shape_audit")
          .field("workload", A.Name)
          .field("shape_sites", R.Stats.ShapeSites)
          .field("must_not_alias_pairs", R.Stats.MustNotAliasPairs)
          .field("site_indep_pairs", R.Stats.SiteIndepPairs)
          .field("false_prunes", R.Stats.ShapeFalsePrunes)
          .field("iterations", static_cast<uint64_t>(R.Stats.Iterations))
          .field("resolvable", R.Stats.Resolvable)
          .field("gate_pass", AuditOk)
          .field("smoke", Smoke);
      Json.add(O);
    }
  }

  //===------------------------------------------------------------------===//
  // Part B: reduction on heap-heavy synthetic rows.
  //===------------------------------------------------------------------===//

  std::printf("\nPart B: states-explored reduction under Por=Ample "
              "(gate: >= 1.2x per row)\n");
  std::printf("%-18s | %9s %9s | %6s | %10s %10s | %-5s\n", "workload",
              "st-off", "st-on", "ratio", "st/s-off", "st/s-on", "gate");
  std::printf("----------------------------------------------------------------"
              "------------\n");
  {
    struct ReduceRow {
      std::string Name;
      std::unique_ptr<ir::Program> P;
    };
    std::vector<ReduceRow> Rows;
    Rows.push_back(
        {"disjoint-writers", buildDisjointWriters(Smoke ? 3u : 4u, 3)});
    Rows.push_back(
        {"private-alloc", buildPrivateAllocators(Smoke ? 3u : 4u, 3)});

    for (ReduceRow &Row : Rows) {
      flat::FlatProgram FP = flat::flatten(*Row.P);
      ir::HoleAssignment Cand(Row.P->holes().size(), 0);
      analysis::CandidateFacts Facts =
          analysis::analyzeCandidate(*Row.P, FP, Cand);
      exec::MachineTuning TunOn, TunOff;
      TunOn.Locks = &Facts.Locks;
      TunOn.Bounds = &Facts.Bounds;
      if (!Facts.Heap.empty())
        TunOn.Heap = &Facts.Heap;
      TunOff.Locks = &Facts.Locks;
      TunOff.Bounds = &Facts.Bounds;
      exec::Machine MOn(FP, Cand, TunOn);
      exec::Machine MOff(FP, Cand, TunOff);

      CheckerConfig Cfg;
      Cfg.Por = PorMode::Ample;
      Cfg.UseRandomFalsifier = false; // measure the exhaustive search
      auto T0 = std::chrono::steady_clock::now();
      CheckResult ROff = checkCandidate(MOff, Cfg);
      double SecOff = secondsSince(T0);
      T0 = std::chrono::steady_clock::now();
      CheckResult ROn = checkCandidate(MOn, Cfg);
      double SecOn = secondsSince(T0);

      double Ratio = ROn.StatesExplored
                         ? static_cast<double>(ROff.StatesExplored) /
                               static_cast<double>(ROn.StatesExplored)
                         : 0.0;
      double RateOff = SecOff > 0 ? ROff.StatesExplored / SecOff : 0.0;
      double RateOn = SecOn > 0 ? ROn.StatesExplored / SecOn : 0.0;
      bool RowOk = ROff.Ok == ROn.Ok && ROff.Ok && Ratio >= 1.2;
      Gate = Gate && RowOk;
      std::printf("%-18s | %9llu %9llu | %5.2fx | %10.0f %10.0f | %-5s\n",
                  Row.Name.c_str(),
                  static_cast<unsigned long long>(ROff.StatesExplored),
                  static_cast<unsigned long long>(ROn.StatesExplored), Ratio,
                  RateOff, RateOn, RowOk ? "pass" : "FAIL");

      JsonObject O;
      O.field("kind", "shape_reduction")
          .field("workload", Row.Name)
          .field("off_states", ROff.StatesExplored)
          .field("on_states", ROn.StatesExplored)
          .field("reduction_ratio", Ratio)
          .field("off_states_per_sec", RateOff)
          .field("on_states_per_sec", RateOn)
          .field("shape_sites", MOn.shapeSites())
          .field("site_indep_pairs", MOn.siteIndepPairs())
          .field("gate_pass", RowOk)
          .field("smoke", Smoke);
      Json.add(O);
    }
  }

  Json.write();
  if (!Gate) {
    std::fprintf(stderr,
                 "error: shape gate failure (see FAIL/DISAGREE rows)\n");
    return 1;
  }
  std::printf("\nall gates pass: audits clean, reductions hold\n");
  return 0;
}

//===- cegis/Cegis.h - Counterexample-guided inductive synthesis -*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CEGIS drivers (Figure 8 of the paper). Figure 8 is one algorithm,
/// and Cegis.cpp writes it once: every driver runs the same loop, which
/// checks the budgets, asks the synthesizer for a candidate, hands it to
/// the driver's verify step, and acts on what the step decided:
///
///  * Pass — the candidate is correct: the run ends resolved (enumeration
///    records it, excludes it and goes on; cegis/Enumerate.h);
///  * Exclude — refuted without a verifier call (an interval refutation):
///    the candidate is excluded and no iteration is counted;
///  * Learn — a counterexample trace: the synthesizer learns it (or only
///    excludes the candidate when CegisConfig::LearnFromTraces is off);
///  * LearnInput — a failing test input: the synthesizer learns it;
///  * Abort — "Ok" only up to the checker's state budget, which proves
///    nothing: the run ends unanswered.
///
/// The drivers differ only in their verify step, i.e. in the observation:
///
///  * ConcurrentCegis — observations are counterexample *traces* from the
///    model checker (Section 6). The step screens the candidate with the
///    abstract interpreter, tunes a Machine from the proven facts,
///    model-checks it over all interleavings and runs the audits.
///  * SequentialCegis — observations are counterexample *inputs*
///    (Section 5, the original SKETCH algorithm used for `implements`
///    specifications); the step runs the candidate on a set of concrete
///    inputs.
///
/// All report the statistics of the paper's Figure 9: Resolvable, Itns,
/// Ssolve, Smodel, Vsolve, Vmodel, total time and peak memory.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_CEGIS_CEGIS_H
#define PSKETCH_CEGIS_CEGIS_H

#include "analysis/Analyzer.h"
#include "analysis/Shape.h"
#include "desugar/Flatten.h"
#include "ir/HoleAssignment.h"
#include "ir/Program.h"
#include "synth/InductiveSynth.h"
#include "verify/ModelChecker.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace psketch {
namespace cegis {

/// Driver configuration.
struct CegisConfig {
  verify::CheckerConfig Checker;
  unsigned MaxIterations = 1000;   ///< verifier-call budget
  double TimeLimitSeconds = 0.0;   ///< 0 = unlimited
  /// When false, a failing candidate is merely excluded instead of its
  /// counterexample trace being projected and learned — the naive
  /// generate-and-test baseline the paper's CEGIS improves on. Used by
  /// the observation-ablation bench.
  bool LearnFromTraces = true;
  /// When true (the default), the analyzer's pre-pass (analysis::analyze)
  /// runs once before the loop; its unit bans and exclusion constraints
  /// are asserted into the synthesizer, and a proof of unresolvability
  /// short-circuits the loop with zero verifier calls. The pre-pass is
  /// sound, so verdicts are unchanged — only iterations and solver work
  /// can shrink. Opt out for ablation measurements. Diagnostics come from
  /// analysis::lint(), never from the loop.
  bool Prescreen = true;
  /// The pre-pass's one setting (the whole-space interval refutation).
  analysis::AnalysisConfig Analysis;
  /// When true (the default), every proposed candidate runs the
  /// thread-modular abstract interpreter (analysis/AbsInt.h) before the
  /// model checker: an interval-refuted candidate is excluded without a
  /// verifier call, and for the rest the proven value bounds and lockset
  /// annotations tune the Machine (packed visited keys, lock-aware POR).
  /// Sound — refutations are proofs and the tunings preserve verdict and
  /// canonical counterexample — so only iterations and state counts can
  /// shrink. Opt out for ablation. Concurrent driver only: sequential
  /// `implements` runs override initial globals per test, which
  /// invalidates interval facts computed from the declared initializers.
  bool AbsInt = true;
  /// Audit mode: an interval-refuted candidate is *also* model-checked;
  /// a passing verdict increments CegisStats::AbsIntFalsePrunes (a
  /// soundness bug) and the candidate is handled per the concrete
  /// verdict. Used by the bench_absint gate.
  bool AbsIntAudit = false;
  /// When true (the default, overridable via PSKETCH_SHAPE=off), the
  /// allocation-site points-to analysis (analysis/PointsTo.h) runs per
  /// candidate alongside the abstract interpreter: the proven heap
  /// partition splits the Machine's per-field footprint bits into
  /// per-(site, field) bits (POR discounts disjoint-site conflicts) and
  /// refines the interval heap to per-site cells (tighter packed keys).
  /// Sound — verdict and canonical counterexample are preserved — and a
  /// no-op when CegisConfig::AbsInt is off (the facts ride the same
  /// per-candidate analysis call). Opt out for ablation.
  bool Shape = analysis::defaultShape();
  /// Audit mode for the shape tuning: every failing shape-tuned check is
  /// re-run untuned; a disagreement in verdict or counterexample
  /// increments CegisStats::ShapeFalsePrunes (a soundness bug). Used by
  /// the bench_shape gate.
  bool ShapeAudit = false;
  /// When true (the default, overridable via PSKETCH_WARM_START=off),
  /// the synthesizer's SAT solver runs warm-started: consecutive solves
  /// continue one search (trail reuse + replay, persistent Luby round,
  /// between-solve inprocessing; docs/SOLVER.md), and enumeration routes
  /// its exclusions through an assumption scope instead of permanent
  /// clauses. Off reproduces the from-scratch solver trajectory
  /// bit-identically. Verdicts never depend on this flag — only solver
  /// work does (gated by bench_sat_incremental).
  bool SolverWarmStart = synth::defaultWarmStart();
  /// When nonempty, the live incremental SAT instance is dumped as
  /// DIMACS (with a hole-variable comment map) to this path when the run
  /// finishes — psketch_tool --dump-cnf.
  std::string DumpCnfPath;
  /// Optional progress sink (iteration summaries).
  std::function<void(const std::string &)> Log;
};

/// The Figure 9 measurement row.
struct CegisStats {
  bool Resolvable = false;
  bool Aborted = false;     ///< hit an iteration, time or state budget
  unsigned Iterations = 0;  ///< verifier calls (the paper's Itns)
  double TotalSeconds = 0.0;
  double SsolveSeconds = 0.0; ///< SAT solving
  double SmodelSeconds = 0.0; ///< projection + circuit/clause building
  double VsolveSeconds = 0.0; ///< model checking / testing
  double VmodelSeconds = 0.0; ///< flattening + per-candidate machine setup
  double PeakMemoryMiB = 0.0;
  uint64_t StatesExplored = 0; ///< total checker states across iterations
  size_t GateCount = 0;
  size_t ClauseCount = 0;
  /// Bytes the synthesizer's solver and gate graph hold at the end of
  /// the run (synth::InductiveSynth::memoryBytes); deterministic, since
  /// the capacities follow from the search trajectory.
  size_t SynthBytes = 0;
  double SpruneSeconds = 0.0;  ///< Sprune: the static pre-screen analyzer
  size_t PrunedHoleValues = 0; ///< unit bans asserted by the analyzer
  size_t ExclusionConstraints = 0; ///< subspace exclusions asserted
  /// log10 shrink of |C| from the analyzer's bans/canonicalizations
  /// (<= 0); bench_table1 reports |C| plus this as the pruned space.
  double SpaceLog10Delta = 0.0;
  /// Parallel-verifier observability (CheckerConfig::NumThreads): the
  /// resolved worker count, total donations between checker workers
  /// across all verifier calls, and per-worker explored states summed
  /// across calls (empty when the checker ran with one worker).
  unsigned CheckerWorkers = 1;
  uint64_t CheckerSteals = 0;
  std::vector<uint64_t> PerWorkerStates;
  /// POR observability summed across all verifier calls (nonzero only
  /// under CheckerConfig::Por == PorMode::Ample; see CheckResult).
  uint64_t AmpleStates = 0;
  uint64_t FullExpansions = 0;
  uint64_t SleepSkips = 0;
  /// Symmetry observability (CheckerConfig::Symmetry == Orbit; see
  /// CheckResult): the min orbit count across verifier calls where
  /// inference ran, i.e. the strongest symmetry any candidate proved
  /// (inference reruns per candidate — holes resolve Choice steps, so
  /// different candidates can prove different groups, and a refused
  /// candidate reports numThreads, which min keeps from masking real
  /// reductions), canonical-probe hits summed across calls, and
  /// inference + compile seconds summed.
  unsigned SymmetryOrbits = 0;
  uint64_t CanonHits = 0;
  double CanonTime = 0.0;
  /// Abstract-interpretation observability (CegisConfig::AbsInt).
  /// Candidates excluded by interval refutation without a verifier call;
  /// the max key-bits shed / lock-independent step pairs any candidate's
  /// Machine achieved; time spent in per-candidate abstract runs; and
  /// audit-mode refutations the concrete checker contradicted (must be
  /// zero — a nonzero value is an analysis soundness bug surfaced by the
  /// bench gate).
  uint64_t IntervalPrunes = 0;
  unsigned TightenedBits = 0;
  uint64_t LockIndepPairs = 0;
  uint64_t PackEscapes = 0;
  double AbsIntSeconds = 0.0;
  uint64_t AbsIntFalsePrunes = 0;
  /// Shape observability (CegisConfig::Shape). ShapeSites and
  /// SiteIndepPairs follow the SymmetryOrbits min-where-ran policy: the
  /// weakest partition any candidate's Machine actually ran with (0 when
  /// the pass was off or refused everywhere); MustNotAliasPairs is the
  /// min across candidates where points-to ran. ShapeFalsePrunes counts
  /// audit-mode disagreements between a shape-tuned check and its
  /// untuned re-run (must be zero — enforced by the bench_shape gate).
  unsigned ShapeSites = 0;
  uint64_t MustNotAliasPairs = 0;
  uint64_t SiteIndepPairs = 0;
  uint64_t ShapeFalsePrunes = 0;
  /// Per-iteration solver telemetry: one record per candidate-proposing
  /// SAT solve (synth::SolveRecord — seconds, conflicts, decisions,
  /// restarts, learnt-DB size). psketch_tool --stats prints these and the
  /// fig9/table1 JSON rows carry them, so the warm-start win is visible
  /// per iteration, not just in aggregate.
  std::vector<synth::SolveRecord> SolveLog;
  uint64_t SolverProbes = 0; ///< assumption-only what-if queries
};

/// Folds one checker verdict's observability counters into a run's
/// aggregate stats, applying each counter's accumulation policy (sums,
/// maxima, and the min-where-ran rules for SymmetryOrbits and the shape
/// counters). Exposed so tests can pin the policies directly.
void accumulateCheckerStats(CegisStats &Stats,
                            const verify::CheckResult &Check);

/// A finished run.
struct CegisResult {
  CegisStats Stats;
  ir::HoleAssignment Candidate; ///< meaningful when Stats.Resolvable
};

/// CEGIS for concurrent sketches: the paper's main algorithm.
class ConcurrentCegis {
public:
  /// Flattens \p P (which must outlive the driver and must not have been
  /// flattened elsewhere).
  explicit ConcurrentCegis(ir::Program &P, CegisConfig Cfg = CegisConfig());

  /// Runs the loop to an answer (or budget exhaustion).
  CegisResult run();

  /// The flat program (for printing traces or reusing the machine).
  const flat::FlatProgram &flatProgram() const { return FP; }

  /// Renders the resolved implementation of a finished run.
  std::string printResolved(const CegisResult &R) const;

private:
  ir::Program &P;
  CegisConfig Cfg;
  flat::FlatProgram FP;
  double FlattenSeconds = 0.0;
};

/// CEGIS for sequential `implements` sketches. The caller provides the
/// test inputs: each is a set of initial-global overrides that pins the
/// inputs *and* the expected outputs (computed by the reference
/// implementation); the sketch's own asserts compare them.
class SequentialCegis {
public:
  SequentialCegis(ir::Program &P, std::vector<synth::GlobalOverrides> Tests,
                  CegisConfig Cfg = CegisConfig());

  CegisResult run();

  const flat::FlatProgram &flatProgram() const { return FP; }
  std::string printResolved(const CegisResult &R) const;

private:
  ir::Program &P;
  std::vector<synth::GlobalOverrides> Tests;
  CegisConfig Cfg;
  flat::FlatProgram FP;
  double FlattenSeconds = 0.0;
};

} // namespace cegis
} // namespace psketch

#endif // PSKETCH_CEGIS_CEGIS_H

//===- cegis/Cegis.cpp -----------------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "cegis/Cegis.h"

#include "analysis/AbsInt.h"
#include "analysis/Util.h"
#include "exec/Machine.h"
#include "ir/Printer.h"
#include "support/MemUsage.h"
#include "support/StrUtil.h"
#include "support/Timer.h"

#include <fstream>

using namespace psketch;
using namespace psketch::cegis;
using exec::Machine;
using exec::State;
using exec::Violation;

namespace {

/// Runs the static analyzer once and asserts its findings into the
/// synthesizer. \returns true when the analyzer already proved the
/// sketch unresolvable (the caller skips the loop: zero verifier calls).
bool applyPrescreen(ir::Program &P, const flat::FlatProgram &FP,
                    const CegisConfig &Cfg, synth::InductiveSynth &Synth,
                    CegisResult &R) {
  if (!Cfg.Prescreen)
    return false;
  WallTimer Watch;
  analysis::AnalysisResult A = analysis::analyze(P, FP, Cfg.Analysis);
  for (const analysis::HoleValueBan &B : A.Bans)
    Synth.banHoleValue(B.HoleId, B.Value);
  for (ir::ExprRef E : A.Exclusions)
    Synth.assertHoleConstraint(E);
  R.Stats.PrunedHoleValues = A.Bans.size();
  R.Stats.ExclusionConstraints = A.Exclusions.size();
  R.Stats.SpaceLog10Delta = A.SpaceLog10Delta;
  R.Stats.SpruneSeconds = Watch.seconds();
  if (Cfg.Log && (!A.Bans.empty() || !A.Exclusions.empty()))
    Cfg.Log(format("prescreen: %zu unit bans, %zu exclusion constraints "
                   "(|C| shrink: 10^%.2f)",
                   A.Bans.size(), A.Exclusions.size(), A.SpaceLog10Delta));
  if (A.ProvedUnresolvable) {
    if (Cfg.Log)
      Cfg.Log("prescreen: proved unresolvable (" + A.UnresolvableWhy + ")");
    R.Stats.Resolvable = false;
    return true;
  }
  return false;
}

} // namespace

void cegis::accumulateCheckerStats(CegisStats &Stats,
                                   const verify::CheckResult &Check) {
  Stats.StatesExplored += Check.StatesExplored;
  if (Check.WorkersUsed > Stats.CheckerWorkers)
    Stats.CheckerWorkers = Check.WorkersUsed;
  Stats.CheckerSteals += Check.Steals;
  Stats.AmpleStates += Check.AmpleStates;
  Stats.FullExpansions += Check.FullExpansions;
  Stats.SleepSkips += Check.SleepSkips;
  // Minimum over calls where inference ran (0 = Symmetry Off): a refused
  // candidate reports numThreads (all-singleton orbits), so max-ing would
  // let one refusal permanently mask the symmetry other candidates proved.
  if (Check.SymmetryOrbits != 0 &&
      (Stats.SymmetryOrbits == 0 ||
       Check.SymmetryOrbits < Stats.SymmetryOrbits))
    Stats.SymmetryOrbits = Check.SymmetryOrbits;
  Stats.CanonHits += Check.CanonHits;
  Stats.CanonTime += Check.CanonTime;
  // Max across calls: the strongest tuning any candidate's facts bought
  // (different candidates prove different intervals and locksets).
  if (Check.TightenedBits > Stats.TightenedBits)
    Stats.TightenedBits = Check.TightenedBits;
  if (Check.LockIndepPairs > Stats.LockIndepPairs)
    Stats.LockIndepPairs = Check.LockIndepPairs;
  // Min over calls where the heap partition was actually applied
  // (ShapeSites != 0), mirroring the SymmetryOrbits policy: a candidate
  // whose partition was refused must not mask the refinement other
  // candidates' Machines genuinely ran with.
  if (Check.ShapeSites != 0) {
    bool First = Stats.ShapeSites == 0;
    if (First || Check.ShapeSites < Stats.ShapeSites)
      Stats.ShapeSites = Check.ShapeSites;
    if (First || Check.SiteIndepPairs < Stats.SiteIndepPairs)
      Stats.SiteIndepPairs = Check.SiteIndepPairs;
  }
  Stats.PackEscapes += Check.PackEscapes;
  if (Stats.PerWorkerStates.size() < Check.PerWorkerStates.size())
    Stats.PerWorkerStates.resize(Check.PerWorkerStates.size(), 0);
  for (size_t I = 0; I < Check.PerWorkerStates.size(); ++I)
    Stats.PerWorkerStates[I] += Check.PerWorkerStates[I];
}

namespace {

/// Writes the live SAT instance as annotated DIMACS when the caller
/// asked for it (CegisConfig::DumpCnfPath / psketch_tool --dump-cnf).
void maybeDumpCnf(const CegisConfig &Cfg, synth::InductiveSynth &Synth) {
  if (Cfg.DumpCnfPath.empty())
    return;
  std::ofstream Out(Cfg.DumpCnfPath);
  if (!Out) {
    if (Cfg.Log)
      Cfg.Log("dump-cnf: cannot open " + Cfg.DumpCnfPath);
    return;
  }
  Out << Synth.dumpDimacs();
  if (Cfg.Log)
    Cfg.Log("dump-cnf: wrote " + Cfg.DumpCnfPath);
}

} // namespace

ConcurrentCegis::ConcurrentCegis(ir::Program &P, CegisConfig Cfg)
    : P(P), Cfg(std::move(Cfg)) {
  WallTimer Watch;
  FP = flat::flatten(P);
  FlattenSeconds = Watch.seconds();
}

CegisResult ConcurrentCegis::run() {
  WallTimer Total;
  CegisResult R;
  R.Stats.VmodelSeconds += FlattenSeconds;

  synth::SynthOptions SynthOpts;
  SynthOpts.WarmStart = Cfg.SolverWarmStart;
  synth::InductiveSynth Synth(FP, SynthOpts);
  bool Proved = applyPrescreen(P, FP, Cfg, Synth, R);
  bool SeenPts = false; ///< MustNotAliasPairs min-where-ran latch

  while (!Proved) {
    // Budget checks.
    if (R.Stats.Iterations >= Cfg.MaxIterations ||
        (Cfg.TimeLimitSeconds > 0.0 &&
         Total.seconds() > Cfg.TimeLimitSeconds)) {
      R.Stats.Aborted = true;
      break;
    }

    // Inductive step: propose a candidate consistent with all traces.
    ir::HoleAssignment Candidate;
    if (!Synth.solve(Candidate)) {
      R.Stats.Resolvable = false; // proven: no candidate satisfies the spec
      break;
    }

    // Abstract screen: interval-refute the candidate without a verifier
    // call, or collect Machine tunings (value bounds, lock annotations).
    analysis::CandidateFacts Facts;
    bool HaveFacts = false;
    if (Cfg.AbsInt) {
      WallTimer AbsWatch;
      Facts = analysis::analyzeCandidate(P, FP, Candidate,
                                         analysis::AbsIntConfig(), Cfg.Shape);
      R.Stats.AbsIntSeconds += AbsWatch.seconds();
      HaveFacts = true;
      if (Facts.Pts.Ran) {
        // Min across candidates where points-to ran (the weakest
        // must-not-alias evidence any tuned Machine rested on).
        uint64_t Pairs = Facts.Pts.mustNotAliasPairs();
        if (!SeenPts || Pairs < R.Stats.MustNotAliasPairs)
          R.Stats.MustNotAliasPairs = Pairs;
        SeenPts = true;
      }
    }
    bool Refuted = HaveFacts && Facts.Refuted;
    if (Refuted && !Cfg.AbsIntAudit) {
      ++R.Stats.IntervalPrunes;
      if (Cfg.Log) {
        const analysis::Refutation &At = Facts.RefutedAt;
        Cfg.Log(format("absint: pruned candidate (%s at %s), %llu prunes",
                       At.why().c_str(),
                       analysis::stepWhere(FP, At.Ctx, At.Pc).c_str(),
                       static_cast<unsigned long long>(
                           R.Stats.IntervalPrunes)));
      }
      Synth.excludeCandidate(Candidate);
      // Prunes are free of verifier calls, so they bypass MaxIterations;
      // exclusion makes the loop finite regardless, but a hard cap keeps
      // a pathological refuted subspace from spinning unbudgeted.
      if (R.Stats.IntervalPrunes >= (uint64_t(1) << 20)) {
        R.Stats.Aborted = true;
        break;
      }
      continue;
    }

    // Verification step. A refuted candidate reaching here is the audit
    // path: check it untuned so the concrete verdict is ground truth.
    WallTimer VModel;
    exec::MachineTuning Tuning;
    if (HaveFacts && !Refuted) {
      Tuning.Locks = &Facts.Locks;
      Tuning.Bounds = &Facts.Bounds;
      if (Cfg.Shape && !Facts.Heap.empty())
        Tuning.Heap = &Facts.Heap;
    }
    Machine M(FP, Candidate, Tuning);
    R.Stats.VmodelSeconds += VModel.seconds();

    WallTimer VSolve;
    verify::CheckResult Check = verify::checkCandidate(M, Cfg.Checker);
    R.Stats.VsolveSeconds += VSolve.seconds();
    accumulateCheckerStats(R.Stats, Check);
    ++R.Stats.Iterations;

    // Shape audit: re-check without the heap partition and demand the
    // identical verdict and counterexample. Disagreement means the
    // partition licensed an unsound POR discount — surfaced, not hidden.
    if (Cfg.ShapeAudit && Tuning.Heap) {
      exec::MachineTuning Plain = Tuning;
      Plain.Heap = nullptr;
      Machine Untuned(FP, Candidate, Plain);
      verify::CheckResult Ref = verify::checkCandidate(Untuned, Cfg.Checker);
      bool Agree = Ref.Ok == Check.Ok;
      if (Agree && !Check.Ok)
        Agree = Check.Cex && Ref.Cex && Check.Cex->Where == Ref.Cex->Where &&
                Check.Cex->Steps == Ref.Cex->Steps &&
                Check.Cex->V.Label == Ref.Cex->V.Label;
      if (!Agree)
        ++R.Stats.ShapeFalsePrunes;
    }

    if (Refuted) {
      if (Check.Ok)
        ++R.Stats.AbsIntFalsePrunes; // soundness bug: surfaced, not hidden
      else
        ++R.Stats.IntervalPrunes; // audited and confirmed
    }

    if (Check.Ok && Check.Exhausted) {
      // The search stopped at MaxStates: "Ok up to the budget" proves
      // nothing, so the run ends without an answer.
      if (Cfg.Log)
        Cfg.Log(format("iter %u: state budget hit before the check ended",
                       R.Stats.Iterations));
      R.Stats.Aborted = true;
      break;
    }
    if (Check.Ok) {
      R.Stats.Resolvable = true;
      R.Candidate = std::move(Candidate);
      break;
    }

    if (Cfg.Log)
      Cfg.Log(format("iter %u: candidate failed (%s), %llu states",
                     R.Stats.Iterations, Check.Cex->V.Label.c_str(),
                     static_cast<unsigned long long>(Check.StatesExplored)));
    if (Cfg.LearnFromTraces)
      Synth.addTrace(*Check.Cex);
    else
      Synth.excludeCandidate(Candidate);
  }

  R.Stats.SsolveSeconds = Synth.stats().SolveSeconds;
  R.Stats.SmodelSeconds = Synth.stats().ModelSeconds;
  R.Stats.GateCount = Synth.stats().GateCount;
  R.Stats.ClauseCount = Synth.stats().ClauseCount;
  R.Stats.SolveLog = Synth.stats().Solves;
  R.Stats.SolverProbes = Synth.stats().Probes;
  maybeDumpCnf(Cfg, Synth);
  R.Stats.TotalSeconds = Total.seconds();
  R.Stats.PeakMemoryMiB = peakRSSMiB();
  return R;
}

std::string ConcurrentCegis::printResolved(const CegisResult &R) const {
  if (!R.Stats.Resolvable)
    return "<unresolvable sketch>\n";
  ir::Printer Pr(P, &R.Candidate);
  return Pr.program();
}

//===----------------------------------------------------------------------===//
// Sequential (`implements`) CEGIS.
//===----------------------------------------------------------------------===//

SequentialCegis::SequentialCegis(ir::Program &P,
                                 std::vector<synth::GlobalOverrides> Tests,
                                 CegisConfig Cfg)
    : P(P), Tests(std::move(Tests)), Cfg(std::move(Cfg)) {
  // Interval facts are computed from the declared global initializers,
  // which `implements` tests override per input — both the per-candidate
  // screen and the analyzer's whole-space interval pass would be unsound
  // here, so they are forced off (CegisConfig doc). The per-candidate
  // heap partition rides the same screen, so it goes too.
  this->Cfg.AbsInt = false;
  this->Cfg.Analysis.AbsInt = false;
  this->Cfg.Shape = false;
  WallTimer Watch;
  FP = flat::flatten(P);
  FlattenSeconds = Watch.seconds();
}

CegisResult SequentialCegis::run() {
  WallTimer Total;
  CegisResult R;
  R.Stats.VmodelSeconds += FlattenSeconds;

  synth::SynthOptions SynthOpts;
  SynthOpts.WarmStart = Cfg.SolverWarmStart;
  synth::InductiveSynth Synth(FP, SynthOpts);
  bool Proved = applyPrescreen(P, FP, Cfg, Synth, R);

  while (!Proved) {
    if (R.Stats.Iterations >= Cfg.MaxIterations ||
        (Cfg.TimeLimitSeconds > 0.0 &&
         Total.seconds() > Cfg.TimeLimitSeconds)) {
      R.Stats.Aborted = true;
      break;
    }

    ir::HoleAssignment Candidate;
    if (!Synth.solve(Candidate)) {
      R.Stats.Resolvable = false;
      break;
    }

    // Verify: run the candidate on every test input.
    WallTimer VSolve;
    const synth::GlobalOverrides *FailedInput = nullptr;
    {
      WallTimer VModel;
      Machine M(FP, Candidate);
      R.Stats.VmodelSeconds += VModel.seconds();
      for (const synth::GlobalOverrides &Input : Tests) {
        State S = M.initialState();
        for (const auto &[Id, Value] : Input)
          S.setGlobal(M.globalOffset(Id), P.wrap(Value, P.globals()[Id].Ty));
        Violation V;
        bool Ok = M.runToCompletion(S, M.prologueCtx(), V);
        for (unsigned T = 0; Ok && T < M.numThreads(); ++T)
          Ok = M.runToCompletion(S, T, V);
        if (Ok)
          Ok = M.runToCompletion(S, M.epilogueCtx(), V);
        if (!Ok) {
          FailedInput = &Input;
          break;
        }
      }
    }
    R.Stats.VsolveSeconds += VSolve.seconds();
    ++R.Stats.Iterations;

    if (!FailedInput) {
      R.Stats.Resolvable = true;
      R.Candidate = std::move(Candidate);
      break;
    }
    if (Cfg.Log)
      Cfg.Log(format("iter %u: candidate failed on a test input",
                     R.Stats.Iterations));
    Synth.addInputObservation(*FailedInput);
  }

  R.Stats.SsolveSeconds = Synth.stats().SolveSeconds;
  R.Stats.SmodelSeconds = Synth.stats().ModelSeconds;
  R.Stats.GateCount = Synth.stats().GateCount;
  R.Stats.ClauseCount = Synth.stats().ClauseCount;
  R.Stats.SolveLog = Synth.stats().Solves;
  R.Stats.SolverProbes = Synth.stats().Probes;
  maybeDumpCnf(Cfg, Synth);
  R.Stats.TotalSeconds = Total.seconds();
  R.Stats.PeakMemoryMiB = peakRSSMiB();
  return R;
}

std::string SequentialCegis::printResolved(const CegisResult &R) const {
  if (!R.Stats.Resolvable)
    return "<unresolvable sketch>\n";
  ir::Printer Pr(P, &R.Candidate);
  return Pr.program();
}

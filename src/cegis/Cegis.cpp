//===- cegis/Cegis.cpp -----------------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "cegis/Cegis.h"

#include "analysis/AbsInt.h"
#include "analysis/Util.h"
#include "cegis/Enumerate.h"
#include "exec/Machine.h"
#include "ir/Printer.h"
#include "support/MemUsage.h"
#include "support/StrUtil.h"
#include "support/Timer.h"

#include <algorithm>
#include <fstream>
#include <optional>

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

/// What a verify step decided about one candidate. The loop acts on it;
/// the step itself never touches the synthesizer.
struct Verdict {
  enum KindT {
    Pass,       ///< the candidate is correct
    Exclude,    ///< refuted without a verifier call (not an iteration)
    Learn,      ///< failed with the counterexample trace Cex
    LearnInput, ///< failed on the test input *Input
    Abort,      ///< Ok only up to the state budget: proves nothing
  };
  Verdict(KindT Kind) : Kind(Kind) {}
  KindT Kind;
  std::optional<verify::Counterexample> Cex;
  uint64_t States = 0; ///< Learn: states the failing check explored
  const synth::GlobalOverrides *Input = nullptr;
};

/// Section 6's verify step: screen the candidate abstractly, tune a
/// Machine from the proven facts, model-check it over all interleavings,
/// and run the soundness audits the config asks for. \p SeenPts latches
/// the MustNotAliasPairs min-where-ran policy across candidates.
Verdict verifyConcurrent(ir::Program &P, const flat::FlatProgram &FP,
                         const CegisConfig &Cfg,
                         const ir::HoleAssignment &Candidate,
                         CegisStats &Stats, bool &SeenPts) {
  // Abstract screen: interval-refute the candidate without a verifier
  // call, or collect Machine tunings (value bounds, lock annotations).
  analysis::CandidateFacts Facts;
  bool HaveFacts = false;
  if (Cfg.AbsInt) {
    WallTimer AbsWatch;
    Facts = analysis::analyzeCandidate(P, FP, Candidate,
                                       analysis::AbsIntConfig(), Cfg.Shape);
    Stats.AbsIntSeconds += AbsWatch.seconds();
    HaveFacts = true;
    if (Facts.Pts.Ran) {
      // Min across candidates where points-to ran (the weakest
      // must-not-alias evidence any tuned Machine rested on).
      uint64_t Pairs = Facts.Pts.mustNotAliasPairs();
      if (!SeenPts || Pairs < Stats.MustNotAliasPairs)
        Stats.MustNotAliasPairs = Pairs;
      SeenPts = true;
    }
  }
  bool Refuted = HaveFacts && Facts.Refuted;
  if (Refuted && !Cfg.AbsIntAudit) {
    ++Stats.IntervalPrunes;
    if (Cfg.Log) {
      const analysis::Refutation &At = Facts.RefutedAt;
      Cfg.Log(format("absint: pruned candidate (%s at %s), %llu prunes",
                     At.why().c_str(),
                     analysis::stepWhere(FP, At.Ctx, At.Pc).c_str(),
                     static_cast<unsigned long long>(Stats.IntervalPrunes)));
    }
    return Verdict::Exclude;
  }

  // Verification. A refuted candidate reaching here is the audit path:
  // check it untuned so the concrete verdict is ground truth.
  WallTimer VModel;
  exec::MachineTuning Tuning;
  if (HaveFacts && !Refuted) {
    Tuning.Locks = &Facts.Locks;
    Tuning.Bounds = &Facts.Bounds;
    if (Cfg.Shape && !Facts.Heap.empty())
      Tuning.Heap = &Facts.Heap;
  }
  Machine M(FP, Candidate, Tuning);
  Stats.VmodelSeconds += VModel.seconds();

  WallTimer VSolve;
  verify::CheckResult Check = verify::checkCandidate(M, Cfg.Checker);
  Stats.VsolveSeconds += VSolve.seconds();
  accumulateCheckerStats(Stats, Check);

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
      ++Stats.ShapeFalsePrunes;
  }

  if (Refuted) {
    if (Check.Ok)
      ++Stats.AbsIntFalsePrunes; // soundness bug: surfaced, not hidden
    else
      ++Stats.IntervalPrunes; // audited and confirmed
  }

  if (Check.Ok)
    return Check.Exhausted ? Verdict::Abort : Verdict::Pass;
  Verdict V = Verdict::Learn;
  V.Cex = std::move(Check.Cex);
  V.States = Check.StatesExplored;
  return V;
}

/// Section 5's verify step: run the candidate on every test input.
Verdict verifySequential(const ir::Program &P, const flat::FlatProgram &FP,
                         const std::vector<synth::GlobalOverrides> &Tests,
                         const ir::HoleAssignment &Candidate,
                         CegisStats &Stats) {
  WallTimer VSolve;
  WallTimer VModel;
  Machine M(FP, Candidate);
  Stats.VmodelSeconds += VModel.seconds();
  const synth::GlobalOverrides *Failed = nullptr;
  for (const synth::GlobalOverrides &Input : Tests) {
    State S = M.initialState();
    for (const auto &[Id, Value] : Input)
      S.setGlobal(M.globalOffset(Id), P.wrap(Value, P.globals()[Id].Ty));
    Violation Why;
    bool Ok = M.runToCompletion(S, M.prologueCtx(), Why);
    for (unsigned T = 0; Ok && T < M.numThreads(); ++T)
      Ok = M.runToCompletion(S, T, Why);
    if (Ok)
      Ok = M.runToCompletion(S, M.epilogueCtx(), Why);
    if (!Ok) {
      Failed = &Input;
      break;
    }
  }
  Stats.VsolveSeconds += VSolve.seconds();
  if (!Failed)
    return Verdict::Pass;
  Verdict V = Verdict::LearnInput;
  V.Input = Failed;
  return V;
}

/// The one CEGIS loop (Figure 8): check the budget, ask the synthesizer
/// for a candidate, let \p Verify decide on it (a callable
/// `Verdict(const ir::HoleAssignment &, CegisStats &)`), and act on the
/// verdict. With \p Enum null a Pass ends the run. Otherwise every
/// verified candidate is measured, appended to Enum->Solutions and
/// excluded, until \p MaxSolutions are found, a budget is hit, or no
/// candidate is left (Enum->Exhausted).
template <typename VerifyFn>
CegisResult runLoop(ir::Program &P, const flat::FlatProgram &FP,
                    const CegisConfig &Cfg, double FlattenSeconds,
                    VerifyFn Verify, EnumerateResult *Enum = nullptr,
                    unsigned MaxSolutions = 0) {
  WallTimer Total;
  CegisResult R;
  R.Stats.VmodelSeconds += FlattenSeconds;

  synth::SynthOptions SynthOpts;
  SynthOpts.WarmStart = Cfg.SolverWarmStart;
  synth::InductiveSynth Synth(FP, SynthOpts);
  bool Proved = applyPrescreen(P, FP, Cfg, Synth, R);

  // With warm start on, enumeration's exclusions live in an assumption
  // scope: they bind like permanent clauses while it is open, and leave
  // the instance clean once it closes (docs/SOLVER.md). The scope opens
  // at the first exclusion, so until then enumeration runs the very
  // search ConcurrentCegis runs.
  int Scope = -1;
  auto ExcludeCandidate = [&](const ir::HoleAssignment &Candidate) {
    if (Enum && Cfg.SolverWarmStart && Scope < 0)
      Scope = static_cast<int>(Synth.openScope());
    Synth.excludeCandidate(Candidate, Scope);
  };
  uint64_t Excluded = 0;

  while (!Proved && !(Enum && Enum->Solutions.size() >= MaxSolutions)) {
    if (R.Stats.Iterations >= Cfg.MaxIterations ||
        (Cfg.TimeLimitSeconds > 0.0 &&
         Total.seconds() > Cfg.TimeLimitSeconds)) {
      R.Stats.Aborted = true;
      break;
    }

    // Inductive step: propose a candidate consistent with all
    // observations. None left proves the (remaining) space wrong.
    ir::HoleAssignment Candidate;
    if (!Synth.solve(Candidate)) {
      if (Enum)
        Enum->Exhausted = true;
      break;
    }

    Verdict V = Verify(Candidate, R.Stats);
    if (V.Kind == Verdict::Exclude) {
      ExcludeCandidate(Candidate);
      // Exclusions are free of verifier calls, so they bypass
      // MaxIterations; each one shrinks the space, but a hard cap keeps a
      // pathological refuted subspace from spinning unbudgeted.
      if (++Excluded >= (uint64_t(1) << 20)) {
        R.Stats.Aborted = true;
        break;
      }
      continue;
    }
    ++R.Stats.Iterations;

    if (V.Kind == Verdict::Abort) {
      if (Cfg.Log)
        Cfg.Log(format("iter %u: state budget hit before the check ended",
                       R.Stats.Iterations));
      R.Stats.Aborted = true;
      break;
    }
    if (V.Kind == Verdict::Pass) {
      if (!Enum) {
        R.Stats.Resolvable = true;
        R.Candidate = std::move(Candidate);
        break;
      }
      Solution S;
      S.Cost = measureCandidate(FP, Candidate);
      if (Cfg.Log)
        Cfg.Log(format("solution %zu found (cost %llu)",
                       Enum->Solutions.size() + 1,
                       static_cast<unsigned long long>(S.Cost)));
      ExcludeCandidate(Candidate);
      S.Candidate = std::move(Candidate);
      Enum->Solutions.push_back(std::move(S));
    } else if (V.Kind == Verdict::LearnInput) {
      if (Cfg.Log)
        Cfg.Log(format("iter %u: candidate failed on a test input",
                       R.Stats.Iterations));
      Synth.addInputObservation(*V.Input);
    } else {
      if (Cfg.Log)
        Cfg.Log(format("iter %u: candidate failed (%s), %llu states",
                       R.Stats.Iterations, V.Cex->V.Label.c_str(),
                       static_cast<unsigned long long>(V.States)));
      if (Cfg.LearnFromTraces)
        Synth.addTrace(*V.Cex);
      else
        ExcludeCandidate(Candidate);
    }
  }

  if (Scope >= 0)
    Synth.closeScope(static_cast<unsigned>(Scope));
  if (Enum)
    R.Stats.Resolvable = !Enum->Solutions.empty();
  const synth::SynthStats &SS = Synth.stats();
  R.Stats.SsolveSeconds = SS.SolveSeconds;
  R.Stats.SmodelSeconds = SS.ModelSeconds;
  R.Stats.GateCount = SS.GateCount;
  R.Stats.ClauseCount = SS.ClauseCount;
  R.Stats.SynthBytes = Synth.memoryBytes();
  R.Stats.SolveLog = SS.Solves;
  R.Stats.SolverProbes = SS.Probes;
  maybeDumpCnf(Cfg, Synth);
  R.Stats.TotalSeconds = Total.seconds();
  R.Stats.PeakMemoryMiB = peakRSSMiB();
  return R;
}

std::string printResolved(const ir::Program &P, const CegisResult &R) {
  return R.Stats.Resolvable ? ir::Printer(P, &R.Candidate).program()
                            : "<unresolvable sketch>\n";
}

CegisResult runConcurrent(ir::Program &P, const flat::FlatProgram &FP,
                          const CegisConfig &Cfg, double FlattenSeconds,
                          EnumerateResult *Enum = nullptr,
                          unsigned MaxSolutions = 0) {
  bool SeenPts = false;
  auto Verify = [&](const ir::HoleAssignment &Candidate, CegisStats &Stats) {
    return verifyConcurrent(P, FP, Cfg, Candidate, Stats, SeenPts);
  };
  return runLoop(P, FP, Cfg, FlattenSeconds, Verify, Enum, MaxSolutions);
}

} // namespace

ConcurrentCegis::ConcurrentCegis(ir::Program &P, CegisConfig Cfg)
    : P(P), Cfg(std::move(Cfg)) {
  WallTimer Watch;
  FP = flat::flatten(P);
  FlattenSeconds = Watch.seconds();
}

CegisResult ConcurrentCegis::run() {
  return runConcurrent(P, FP, Cfg, FlattenSeconds);
}

std::string ConcurrentCegis::printResolved(const CegisResult &R) const {
  return ::printResolved(P, R);
}

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
  auto Verify = [&](const ir::HoleAssignment &Candidate, CegisStats &Stats) {
    return verifySequential(P, FP, Tests, Candidate, Stats);
  };
  return runLoop(P, FP, Cfg, FlattenSeconds, Verify);
}

std::string SequentialCegis::printResolved(const CegisResult &R) const {
  return ::printResolved(P, R);
}

EnumerateResult cegis::enumerateSolutions(ir::Program &P,
                                          unsigned MaxSolutions,
                                          CegisConfig Cfg) {
  // Why both are off: the file comment of cegis/Enumerate.h.
  Cfg.Prescreen = false;
  Cfg.AbsInt = false;
  WallTimer Watch;
  flat::FlatProgram FP = flat::flatten(P);
  EnumerateResult R;
  R.Stats = runConcurrent(P, FP, Cfg, Watch.seconds(), &R, MaxSolutions).Stats;
  std::sort(R.Solutions.begin(), R.Solutions.end(),
            [](const Solution &A, const Solution &B) {
              return A.Cost < B.Cost;
            });
  return R;
}

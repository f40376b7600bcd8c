//===- cegis/Enumerate.cpp -------------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "cegis/Enumerate.h"

#include "exec/Machine.h"
#include "support/MemUsage.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "support/StrUtil.h"
#include "support/Timer.h"

#include <algorithm>
#include <limits>

using namespace psketch;
using namespace psketch::cegis;
using exec::ExecOutcome;
using exec::Machine;
using exec::State;
using exec::StepResult;
using exec::Violation;

namespace {

/// One schedule's cost: executed steps plus blocked attempts (lock/wait
/// contention shows up as blocking, so candidates that hold locks longer
/// or spin more score worse). \p Init is the machine's initial state,
/// built once by the caller and copied per schedule (a flat memcpy).
/// Returns UINT64_MAX on any failure.
uint64_t scheduleCost(const Machine &M, const State &Init, Rng *R) {
  State S = Init;
  Violation V;
  uint64_t Cost = 0;

  auto RunSequential = [&](unsigned Ctx) {
    for (;;) {
      ExecOutcome Out = M.execStep(S, Ctx, V);
      if (Out.Result == StepResult::Ok) {
        ++Cost;
        continue;
      }
      return Out.Result == StepResult::Finished;
    }
  };

  if (!RunSequential(M.prologueCtx()))
    return std::numeric_limits<uint64_t>::max();

  // Parallel phase: round-robin, or a seeded random pick among the
  // unfinished threads; blocked attempts are charged as waiting time.
  for (uint64_t Guard = 0;; ++Guard) {
    if (Guard > 1u << 20)
      return std::numeric_limits<uint64_t>::max(); // livelocked schedule
    std::vector<unsigned> Unfinished;
    for (unsigned T = 0; T < M.numThreads(); ++T)
      if (!M.isFinished(S, T))
        Unfinished.push_back(T);
    if (Unfinished.empty())
      break;
    bool Moved = false;
    unsigned First = R ? static_cast<unsigned>(R->below(Unfinished.size()))
                       : 0;
    for (size_t I = 0; I < Unfinished.size(); ++I) {
      unsigned T = Unfinished[(First + I) % Unfinished.size()];
      ExecOutcome Out = M.execStep(S, T, V);
      if (Out.Result == StepResult::Ok) {
        ++Cost;
        Moved = true;
        break;
      }
      if (Out.Result == StepResult::Violated)
        return std::numeric_limits<uint64_t>::max();
      ++Cost; // a blocked attempt costs a step of waiting
    }
    if (!Moved && Unfinished.size() == 1)
      return std::numeric_limits<uint64_t>::max(); // stuck
    if (!Moved)
      continue; // all probed threads blocked this instant; retry
  }

  if (!RunSequential(M.epilogueCtx()))
    return std::numeric_limits<uint64_t>::max();
  return Cost;
}

} // namespace

uint64_t psketch::cegis::measureCandidate(const flat::FlatProgram &FP,
                                          const ir::HoleAssignment &Candidate) {
  Machine M(FP, Candidate);
  const State Init = M.initialState(); // shared by all four schedules
  uint64_t Total = scheduleCost(M, Init, nullptr); // deterministic RR
  if (Total == std::numeric_limits<uint64_t>::max())
    return Total;
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    Rng R(Seed * 0x9e3779b9u);
    uint64_t Cost = scheduleCost(M, Init, &R);
    if (Cost == std::numeric_limits<uint64_t>::max())
      return Cost;
    Total += Cost;
  }
  return Total;
}

namespace {

/// Folds one checker verdict's parallel-engine counters into the
/// aggregate stats.
void foldCheck(CegisStats &Stats, const verify::CheckResult &Check) {
  Stats.StatesExplored += Check.StatesExplored;
  if (Check.WorkersUsed > Stats.CheckerWorkers)
    Stats.CheckerWorkers = Check.WorkersUsed;
  Stats.CheckerSteals += Check.Steals;
  if (Stats.PerWorkerStates.size() < Check.PerWorkerStates.size())
    Stats.PerWorkerStates.resize(Check.PerWorkerStates.size(), 0);
  for (size_t I = 0; I < Check.PerWorkerStates.size(); ++I)
    Stats.PerWorkerStates[I] += Check.PerWorkerStates[I];
}

/// The original strictly-serial loop: propose, verify, learn, repeat.
/// Kept as the exact Jobs == 1 behaviour.
void enumerateSerial(const flat::FlatProgram &FP, synth::InductiveSynth &Synth,
                     unsigned MaxSolutions, const CegisConfig &Cfg, int Scope,
                     const WallTimer &Total, EnumerateResult &R) {
  while (R.Solutions.size() < MaxSolutions) {
    if (R.Stats.Iterations >= Cfg.MaxIterations ||
        (Cfg.TimeLimitSeconds > 0.0 &&
         Total.seconds() > Cfg.TimeLimitSeconds)) {
      R.Stats.Aborted = true;
      break;
    }
    ir::HoleAssignment Candidate;
    if (!Synth.solve(Candidate)) {
      R.Exhausted = true; // no further correct candidates exist
      break;
    }

    WallTimer VSolve;
    Machine M(FP, Candidate);
    verify::CheckResult Check = verify::checkCandidate(M, Cfg.Checker);
    R.Stats.VsolveSeconds += VSolve.seconds();
    ++R.Stats.Iterations;
    foldCheck(R.Stats, Check);

    if (Check.Ok && Check.Exhausted) {
      R.Stats.Aborted = true; // "Ok up to MaxStates" is no proof
      break;
    }
    if (Check.Ok) {
      Solution S;
      S.Candidate = Candidate;
      S.Cost = measureCandidate(FP, Candidate);
      if (Cfg.Log)
        Cfg.Log(format("solution %zu found (cost %llu)",
                       R.Solutions.size() + 1,
                       static_cast<unsigned long long>(S.Cost)));
      R.Solutions.push_back(std::move(S));
      Synth.excludeCandidate(Candidate, Scope);
      continue;
    }
    if (Cfg.LearnFromTraces)
      Synth.addTrace(*Check.Cex);
    else
      Synth.excludeCandidate(Candidate, Scope);
  }
}

/// The batched loop for Jobs >= 2: propose up to Jobs distinct
/// candidates, verify them concurrently (one checker worker each), fold
/// the verdicts back in proposal order, and measure the batch's verified
/// solutions concurrently (the autotune fan-out).
///
/// Pre-excluding each proposal is what makes the batch distinct, and it
/// is sound: in the serial loop every candidate ends up permanently
/// excluded anyway (correct ones explicitly, failing ones by their
/// learned trace), so run to exhaustion both loops enumerate exactly the
/// correct-candidate set. Only the proposal ORDER (and hence iteration
/// counts) may differ, because a batch is proposed before the traces of
/// its failing members are learned.
void enumerateBatched(const flat::FlatProgram &FP,
                      synth::InductiveSynth &Synth, unsigned MaxSolutions,
                      const CegisConfig &Cfg, unsigned Jobs, int Scope,
                      const WallTimer &Total, EnumerateResult &R) {
  verify::CheckerConfig PerCandidate = Cfg.Checker;
  PerCandidate.NumThreads = 1; // one worker per in-flight candidate

  bool SpaceDry = false;
  while (!SpaceDry && R.Solutions.size() < MaxSolutions) {
    if (R.Stats.Iterations >= Cfg.MaxIterations ||
        (Cfg.TimeLimitSeconds > 0.0 &&
         Total.seconds() > Cfg.TimeLimitSeconds)) {
      R.Stats.Aborted = true;
      break;
    }

    unsigned Want = static_cast<unsigned>(MaxSolutions - R.Solutions.size());
    unsigned Budget = Cfg.MaxIterations - R.Stats.Iterations;
    unsigned Batch = std::min(Jobs, std::min(Want, Budget));
    std::vector<ir::HoleAssignment> Candidates;
    for (unsigned I = 0; I < Batch; ++I) {
      ir::HoleAssignment C;
      if (!Synth.solve(C)) {
        SpaceDry = true;
        break;
      }
      Synth.excludeCandidate(C, Scope);
      Candidates.push_back(std::move(C));
    }
    if (Candidates.empty())
      break;

    std::vector<verify::CheckResult> Checks(Candidates.size());
    WallTimer VSolve;
    parallelFor(Jobs, Candidates.size(), [&](size_t I) {
      Machine M(FP, Candidates[I]);
      Checks[I] = verify::checkCandidate(M, PerCandidate);
    });
    R.Stats.VsolveSeconds += VSolve.seconds();

    std::vector<size_t> Verified;
    for (size_t I = 0; I < Candidates.size(); ++I) {
      ++R.Stats.Iterations;
      foldCheck(R.Stats, Checks[I]);
      if (Checks[I].Ok && Checks[I].Exhausted)
        R.Stats.Aborted = true; // "Ok up to MaxStates" is no proof
      else if (Checks[I].Ok)
        Verified.push_back(I);
      else if (Cfg.LearnFromTraces)
        Synth.addTrace(*Checks[I].Cex);
    }

    std::vector<uint64_t> Costs(Verified.size());
    parallelFor(Jobs, Verified.size(), [&](size_t I) {
      Costs[I] = measureCandidate(FP, Candidates[Verified[I]]);
    });
    for (size_t I = 0; I < Verified.size(); ++I) {
      Solution S;
      S.Candidate = std::move(Candidates[Verified[I]]);
      S.Cost = Costs[I];
      if (Cfg.Log)
        Cfg.Log(format("solution %zu found (cost %llu)",
                       R.Solutions.size() + 1,
                       static_cast<unsigned long long>(S.Cost)));
      R.Solutions.push_back(std::move(S));
    }
    if (R.Stats.Aborted)
      return;
  }
  if (SpaceDry)
    R.Exhausted = true; // the whole space has been enumerated
}

} // namespace

EnumerateResult psketch::cegis::enumerateSolutions(ir::Program &P,
                                                   unsigned MaxSolutions,
                                                   CegisConfig Cfg) {
  WallTimer Total;
  EnumerateResult R;

  flat::FlatProgram FP = flat::flatten(P);
  synth::SynthOptions SynthOpts;
  SynthOpts.WarmStart = Cfg.SolverWarmStart;
  synth::InductiveSynth Synth(FP, SynthOpts);

  // With warm start on, enumeration exclusions live in an activation-
  // literal scope: every solve assumes the scope's literal, so the
  // exclusions bind exactly like permanent clauses, but the instance is
  // left clean for other users (and the guarded clauses are swept once
  // the scope closes). Run to exhaustion the enumerated set is the same
  // either way — the exclusions are semantically identical while the
  // scope is open (test_sat_incremental gates this).
  int Scope = Cfg.SolverWarmStart ? static_cast<int>(Synth.openScope()) : -1;

  unsigned Jobs = verify::resolvedNumThreads(Cfg.Checker);
  if (Jobs <= 1)
    enumerateSerial(FP, Synth, MaxSolutions, Cfg, Scope, Total, R);
  else
    enumerateBatched(FP, Synth, MaxSolutions, Cfg, Jobs, Scope, Total, R);

  if (Scope >= 0)
    Synth.closeScope(static_cast<unsigned>(Scope));

  std::sort(R.Solutions.begin(), R.Solutions.end(),
            [](const Solution &A, const Solution &B) {
              return A.Cost < B.Cost;
            });
  R.Stats.Resolvable = !R.Solutions.empty();
  R.Stats.SsolveSeconds = Synth.stats().SolveSeconds;
  R.Stats.SmodelSeconds = Synth.stats().ModelSeconds;
  R.Stats.SolveLog = Synth.stats().Solves;
  R.Stats.SolverProbes = Synth.stats().Probes;
  R.Stats.TotalSeconds = Total.seconds();
  R.Stats.PeakMemoryMiB = peakRSSMiB();
  return R;
}

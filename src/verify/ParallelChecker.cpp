//===- verify/ParallelChecker.cpp - Work-stealing parallel search ----------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-threaded verification engine behind CheckerConfig::NumThreads
/// (docs/PARALLEL.md has the full design argument). Structure:
///
///  * Phase 2 (random falsification) runs the configured burst across all
///    workers. Run r always draws from an independent SplitMix64 stream
///    derived from (Seed, r), and the reported counterexample is the one
///    with the smallest failing run index, so the outcome is a pure
///    function of the config — which worker executed which run never
///    matters.
///
///  * Phase 3 (exhaustive search) first grows a frontier of disjoint
///    subtree roots sequentially, then hands them to per-worker deques.
///    Owners pop LIFO (depth-first, bounded memory); a drained worker
///    steals the shallowest unit (FIFO end) from a victim — the classic
///    work-stealing discipline, which hands thieves the largest subtrees.
///    Deduplication goes through a mutex-striped shard table keyed by the
///    state hash. The first violation cooperatively cancels all workers.
///
///  * A violation's trace is then re-derived by the deterministic
///    sequential engine (CheckerConfig::DeterministicCex, default on) so
///    the counterexample CEGIS learns from is canonical regardless of
///    worker timing; only the *verdict* comes from the parallel phase.
///
//===----------------------------------------------------------------------===//

#include "verify/Canon.h"
#include "verify/ModelChecker.h"
#include "verify/SearchCore.h"
#include "verify/Visited.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

using namespace psketch;
using namespace psketch::verify;
using exec::ExecOutcome;
using exec::Machine;
using exec::State;
using exec::StepResult;
using exec::Violation;

namespace {

/// One search node: a state reached by Path that has not yet been
/// entered (local chain, dedup, classification).
struct Unit {
  State S;
  std::vector<TraceStep> Path;
};

/// A worker's deque of pending units. The owner pushes/pops at the back
/// (LIFO: depth-first); thieves take from the front (the shallowest,
/// largest-subtree unit).
struct alignas(64) WorkDeque {
  std::mutex Mu;
  std::deque<Unit> Q;

  void push(Unit U) {
    std::lock_guard<std::mutex> Lock(Mu);
    Q.push_back(std::move(U));
  }
  bool popBack(Unit &Out) {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Q.empty())
      return false;
    Out = std::move(Q.back());
    Q.pop_back();
    return true;
  }
  bool stealFront(Unit &Out) {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Q.empty())
      return false;
    Out = std::move(Q.front());
    Q.pop_front();
    return true;
  }
};

/// Everything the workers share.
struct SearchShared {
  const Machine &M;
  const CheckerConfig &Cfg;

  /// Symmetry canonicalizer (null when off or the inference refused);
  /// declared before Visited, which aliases it. Canonicalization happens
  /// outside the shard locks (verify/Visited.h), so workers share one.
  std::unique_ptr<Canonicalizer> Canon;
  detail::ShardedVisited Visited;
  std::atomic<uint64_t> StatesExplored{0};
  std::atomic<uint64_t> StatesDeduped{0};
  std::atomic<uint64_t> Pending{0}; ///< queued + in-flight units
  std::atomic<bool> Stop{false};
  std::atomic<bool> Exhausted{false};
  std::atomic<uint64_t> AmpleCount{0}; ///< CheckResult::AmpleStates
  std::atomic<uint64_t> FullCount{0};  ///< CheckResult::FullExpansions

  std::mutex CexMu;
  std::optional<Counterexample> BestCex; ///< canonical-min among found

  explicit SearchShared(const Machine &M, const CheckerConfig &Cfg)
      : M(M), Cfg(Cfg),
        Canon(Cfg.Symmetry == SymmetryMode::Orbit
                  ? std::make_unique<Canonicalizer>(M)
                  : nullptr),
        Visited(&hashWords, Canon && Canon->active() ? Canon.get() : nullptr) {}

  /// Records a violation (keeping the canonical-minimal trace) and
  /// cancels the search.
  void report(Counterexample Cex) {
    std::lock_guard<std::mutex> Lock(CexMu);
    if (!BestCex || detail::cexLess(Cex, *BestCex))
      BestCex = std::move(Cex);
    Stop.store(true);
  }

  /// Enters and expands one unit: POR chain, dedup, classification,
  /// terminal checks, then one child unit per ready thread handed to
  /// \p Push. \p WorkerStates is the caller's private explored counter.
  void processUnit(Unit U, uint64_t &WorkerStates,
                   const std::function<void(Unit)> &Push) {
    Counterexample Cex;
    if (!detail::advanceLocal(M, Cfg.Por, U.S, U.Path, Cex)) {
      report(std::move(Cex));
      return;
    }
    if (!Visited.insert(M, U.S)) {
      StatesDeduped.fetch_add(1);
      return;
    }
    ++WorkerStates;
    if (StatesExplored.fetch_add(1) + 1 >= Cfg.MaxStates) {
      Exhausted.store(true);
      Stop.store(true);
      return;
    }
    std::vector<unsigned> Ready;
    std::vector<TraceStep> Blocked;
    if (!detail::classifyAll(M, U.S, Ready, Blocked, U.Path, Cex)) {
      report(std::move(Cex));
      return;
    }
    if (Ready.empty()) {
      if (!Blocked.empty()) {
        Cex.Steps = U.Path;
        Cex.V.VKind = Violation::Kind::Deadlock;
        Cex.V.Label = "deadlock: all live threads blocked";
        Cex.Where = Counterexample::Phase::Parallel;
        Cex.DeadlockSet = Blocked;
        report(std::move(Cex));
        return;
      }
      if (!detail::checkEpilogue(M, U.S, U.Path, Cex))
        report(std::move(Cex));
      return;
    }
    // Ample reduction: expand a singleton-independent context alone,
    // unless the resulting child is already in the visited table — the
    // frontier-membership cycle proviso (C2). Insertion happens-before
    // expansion (shard mutex), so on any cycle closed entirely through
    // reduced states the last state to probe sees its successor inserted
    // and expands in full (docs/POR.md).
    if (Cfg.Por == PorMode::Ample && Ready.size() >= 2) {
      int AI = detail::selectAmple(M, U.S, Ready);
      if (AI >= 0) {
        unsigned Ctx = Ready[AI];
        Unit Child;
        Child.S = U.S;
        Violation V;
        ExecOutcome Out = M.execStep(Child.S, Ctx, V);
        if (Out.Result == StepResult::Violated) {
          Cex.Steps = U.Path;
          Cex.Steps.push_back(TraceStep{Ctx, Out.ExecutedPc});
          Cex.V = V;
          Cex.Where = Counterexample::Phase::Parallel;
          report(std::move(Cex));
          return;
        }
        assert(Out.Result == StepResult::Ok && "ready thread must step");
        Child.Path = U.Path;
        Child.Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
        // Advance the local chain before probing: the table stores
        // post-chain states (the child unit's own advanceLocal is then an
        // idempotent no-op).
        if (!detail::advanceLocal(M, Cfg.Por, Child.S, Child.Path, Cex)) {
          report(std::move(Cex));
          return;
        }
        if (!Visited.contains(M, Child.S)) {
          AmpleCount.fetch_add(1);
          Push(std::move(Child));
          return;
        }
        FullCount.fetch_add(1); // proviso hit: expand every ready context
      } else {
        FullCount.fetch_add(1);
      }
    }
    // Expand in reverse so a LIFO owner explores the first ready thread
    // first, like the sequential DFS.
    for (size_t I = Ready.size(); I-- > 0;) {
      if (Stop.load())
        return;
      unsigned Ctx = Ready[I];
      Unit Child;
      Child.S = U.S;
      Violation V;
      ExecOutcome Out = M.execStep(Child.S, Ctx, V);
      if (Out.Result == StepResult::Violated) {
        Cex.Steps = U.Path;
        Cex.Steps.push_back(TraceStep{Ctx, Out.ExecutedPc});
        Cex.V = V;
        Cex.Where = Counterexample::Phase::Parallel;
        report(std::move(Cex));
        return;
      }
      assert(Out.Result == StepResult::Ok && "ready thread must step");
      Child.Path = U.Path;
      Child.Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
      Push(std::move(Child));
    }
  }
};

/// The per-worker search loop: drain the own deque depth-first, steal
/// when dry, exit when the whole search has no pending work.
void workerLoop(SearchShared &Shared, std::vector<WorkDeque> &Deques,
                unsigned Id, uint64_t &WorkerStates, uint64_t &WorkerSteals) {
  const unsigned W = static_cast<unsigned>(Deques.size());
  auto Push = [&](Unit U) {
    Shared.Pending.fetch_add(1);
    Deques[Id].push(std::move(U));
  };
  for (;;) {
    if (Shared.Stop.load() || Shared.Pending.load() == 0)
      return;
    Unit U;
    bool Got = Deques[Id].popBack(U);
    if (!Got) {
      for (unsigned I = 1; I < W && !Got; ++I)
        Got = Deques[(Id + I) % W].stealFront(U);
      if (Got)
        ++WorkerSteals;
    }
    if (!Got) {
      std::this_thread::yield();
      continue;
    }
    Shared.processUnit(std::move(U), WorkerStates, Push);
    Shared.Pending.fetch_sub(1);
  }
}

/// Parallel random falsification: the runs of the burst are claimed in
/// index order; run r is a pure function of (Seed, r); the smallest
/// failing index wins. \returns true when a counterexample was found and
/// stored into \p Result.
bool parallelFalsify(const Machine &M, const CheckerConfig &Cfg,
                     unsigned Workers, const State &S0, CheckResult &Result) {
  std::atomic<uint64_t> NextRun{0};
  std::atomic<uint64_t> MinFail{UINT64_MAX};
  std::mutex BestMu;
  Counterexample BestCex;

  auto Run = [&]() {
    for (;;) {
      uint64_t R = NextRun.fetch_add(1);
      if (R >= Cfg.RandomRuns || R > MinFail.load())
        return;
      Rng Stream(detail::deriveStreamSeed(Cfg.Seed, R));
      Counterexample Cex;
      if (!detail::randomRun(M, Cfg.Por, S0, Stream, Cex)) {
        std::lock_guard<std::mutex> Lock(BestMu);
        if (R < MinFail.load()) {
          MinFail.store(R);
          BestCex = std::move(Cex);
        }
      }
    }
  };

  std::vector<std::thread> Threads;
  for (unsigned I = 1; I < Workers; ++I)
    Threads.emplace_back(Run);
  Run();
  for (std::thread &T : Threads)
    T.join();

  uint64_t Fail = MinFail.load();
  if (Fail == UINT64_MAX) {
    Result.RandomRunsUsed = Cfg.RandomRuns;
    return false;
  }
  // The canonical count: every run before the winner completed cleanly.
  Result.RandomRunsUsed = Fail + 1;
  Result.Ok = false;
  Result.Cex = std::move(BestCex);
  return true;
}

} // namespace

CheckResult psketch::verify::detail::checkCandidateParallel(
    const Machine &M, const CheckerConfig &Cfg, unsigned Workers) {
  assert(Workers >= 2 && "sequential engine handles one worker");
  CheckResult Result;
  Result.WorkersUsed = Workers;
  Result.PerWorkerStates.assign(Workers, 0);

  // Phase 1: the deterministic prologue.
  State S0 = M.initialState();
  {
    Violation V;
    if (!M.runToCompletion(S0, M.prologueCtx(), V)) {
      Counterexample Cex;
      Cex.Where = Counterexample::Phase::Prologue;
      Cex.V = V;
      Result.Ok = false;
      Result.Cex = std::move(Cex);
      return Result;
    }
  }

  // Phase 2: the falsifier burst, fanned out across all workers.
  if (Cfg.UseRandomFalsifier && Cfg.RandomRuns > 0)
    if (parallelFalsify(M, Cfg, Workers, S0, Result))
      return Result;

  // Phase 3a: grow the initial frontier sequentially until there are
  // enough disjoint subtrees to keep every worker busy.
  SearchShared Shared(M, Cfg);
  std::deque<Unit> Frontier;
  {
    const size_t Target = static_cast<size_t>(Workers) * 8;
    auto Push = [&](Unit U) { Frontier.push_back(std::move(U)); };
    Frontier.push_back(Unit{S0, {}});
    while (!Frontier.empty() && Frontier.size() < Target &&
           !Shared.Stop.load()) {
      Unit U = std::move(Frontier.front());
      Frontier.pop_front();
      Shared.processUnit(std::move(U), Result.PerWorkerStates[0], Push);
    }
  }

  // Phase 3b: hand the frontier to the per-worker deques and search.
  if (!Shared.Stop.load() && !Frontier.empty()) {
    std::vector<WorkDeque> Deques(Workers);
    for (size_t I = 0; !Frontier.empty(); ++I) {
      Shared.Pending.fetch_add(1);
      Deques[I % Workers].push(std::move(Frontier.front()));
      Frontier.pop_front();
    }
    std::vector<uint64_t> Steals(Workers, 0);
    std::vector<std::thread> Threads;
    for (unsigned I = 1; I < Workers; ++I)
      Threads.emplace_back([&Shared, &Deques, &Result, &Steals, I]() {
        workerLoop(Shared, Deques, I, Result.PerWorkerStates[I], Steals[I]);
      });
    workerLoop(Shared, Deques, 0, Result.PerWorkerStates[0], Steals[0]);
    for (std::thread &T : Threads)
      T.join();
    for (uint64_t S : Steals)
      Result.Steals += S;
  }

  Result.StatesExplored = Shared.StatesExplored.load();
  Result.StatesDeduped = Shared.StatesDeduped.load();
  Result.AmpleStates = Shared.AmpleCount.load();
  Result.FullExpansions = Shared.FullCount.load();
  Result.Exhausted = Shared.Exhausted.load();
  Result.VisitedBytes = Shared.Visited.keyBytes();
  if (Shared.Canon) {
    Result.SymmetryOrbits = Shared.Canon->numOrbits();
    Result.CanonHits = Shared.Canon->canonHits();
    Result.CanonTime = Shared.Canon->buildSeconds();
  }

  std::optional<Counterexample> Found = std::move(Shared.BestCex);
  if (!Found) {
    Result.Ok = true; // exhaustive (or up to the budget): no violation
    return Result;
  }

  Result.Ok = false;
  if (Cfg.DeterministicCex) {
    // Re-derive the canonical trace with the deterministic sequential
    // engine (falsifier off: phase 2 already cleared, and its stream
    // policy differs). A violation exists, so the sequential search
    // finds its canonical first one — the same for any worker count.
    // Ample is demoted to Local for the rerun: ample traces are
    // artifacts of the reduced graph, and the Local rerun is exactly
    // what the sequential ample engine itself re-derives with, so the
    // canonical trace is also independent of the reduction (docs/POR.md).
    // Symmetry is switched off for the same reason: canonical merging
    // changes which violation the search reaches first, and the rerun
    // over the raw graph makes the trace independent of the quotient
    // (docs/SYMMETRY.md).
    CheckerConfig ReCfg = Cfg;
    if (ReCfg.Por == PorMode::Ample)
      ReCfg.Por = PorMode::Local;
    ReCfg.Symmetry = SymmetryMode::Off;
    CheckResult Seq = detail::checkCandidateSequential(M, ReCfg, false);
    Result.StatesExplored += Seq.StatesExplored;
    Result.StatesDeduped += Seq.StatesDeduped;
    Result.VisitedBytes += Seq.VisitedBytes;
    if (!Seq.Ok && Seq.Cex) {
      Result.Cex = std::move(Seq.Cex);
      return Result;
    }
    // Unreachable unless the sequential rerun hit the state budget
    // before the violation; fall back to the parallel-found trace.
    Result.Exhausted = Result.Exhausted || Seq.Exhausted;
  }
  Result.Cex = std::move(*Found);
  return Result;
}

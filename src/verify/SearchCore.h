//===- verify/SearchCore.h - Shared search step semantics -------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal header: the search semantics shared by every engine of the
/// checker — thread readiness, the POR local-step chain, frontier
/// classification, epilogue checking, one random-schedule falsifier run,
/// the ample/sleep decisions, and the undo-log DFS core that one worker
/// (ModelChecker.cpp) and each worker of a parallel search
/// (ParallelChecker.cpp) run. Keeping these in one place is what
/// guarantees the engines can never disagree about what a schedule does.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_VERIFY_SEARCHCORE_H
#define PSKETCH_VERIFY_SEARCHCORE_H

#include "support/Rng.h"
#include "verify/ModelChecker.h"
#include "verify/Visited.h"

#include <cassert>
#include <vector>

namespace psketch {
namespace verify {
namespace detail {

/// Thread readiness at a state.
enum class Readiness : uint8_t { Finished, Ready, Blocked, WaitViolation };

inline Readiness readiness(const exec::Machine &M, exec::State &S,
                           unsigned Ctx, exec::Violation &V) {
  uint32_t Pc = M.normalizePc(S, Ctx);
  const flat::FlatBody &B = M.bodyOf(Ctx);
  if (Pc >= B.Steps.size())
    return Readiness::Finished;
  const flat::Step &St = B.Steps[Pc];
  if (St.DynGuard) {
    int64_t Guard = M.eval(S, Ctx, St.DynGuard, V);
    if (V.isViolation())
      return Readiness::WaitViolation;
    if (Guard == 0)
      return Readiness::Ready; // dynamic no-op: always runnable
  }
  if (St.WaitCond) {
    int64_t Wait = M.eval(S, Ctx, St.WaitCond, V);
    if (V.isViolation())
      return Readiness::WaitViolation;
    if (Wait == 0)
      return Readiness::Blocked;
  }
  return Readiness::Ready;
}

/// Runs every pending thread-local step (the Local layer of the POR;
/// no-op under PorMode::Off). \returns false and fills \p Cex on a
/// violation inside a local step.
inline bool advanceLocal(const exec::Machine &M, PorMode Por, exec::State &S,
                         std::vector<TraceStep> &Path, Counterexample &Cex) {
  if (Por == PorMode::Off)
    return true;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (unsigned Ctx = 0; Ctx < M.numThreads(); ++Ctx) {
      while (M.nextStepIsLocal(S, Ctx)) {
        exec::Violation V;
        exec::ExecOutcome Out = M.execStep(S, Ctx, V);
        if (Out.Result == exec::StepResult::Violated) {
          Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
          Cex.Steps = Path;
          Cex.V = V;
          Cex.Where = Counterexample::Phase::Parallel;
          return false;
        }
        assert(Out.Result == exec::StepResult::Ok && "local step must run");
        Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
        Progress = true;
      }
    }
  }
  return true;
}

/// Classifies all threads. Fills \p ReadyOut, \p BlockedOut. \returns
/// false and fills \p Cex if evaluating some wait condition violates
/// memory safety.
inline bool classifyAll(const exec::Machine &M, exec::State &S,
                        std::vector<unsigned> &ReadyOut,
                        std::vector<TraceStep> &BlockedOut,
                        const std::vector<TraceStep> &Path,
                        Counterexample &Cex) {
  ReadyOut.clear();
  BlockedOut.clear();
  for (unsigned Ctx = 0; Ctx < M.numThreads(); ++Ctx) {
    exec::Violation V;
    switch (readiness(M, S, Ctx, V)) {
    case Readiness::Finished:
      break;
    case Readiness::Ready:
      ReadyOut.push_back(Ctx);
      break;
    case Readiness::Blocked:
      BlockedOut.push_back(TraceStep{Ctx, S.pc(Ctx)});
      break;
    case Readiness::WaitViolation:
      Cex.Steps = Path;
      Cex.Steps.push_back(TraceStep{Ctx, S.pc(Ctx)});
      Cex.V = V;
      Cex.Where = Counterexample::Phase::Parallel;
      return false;
    }
  }
  return true;
}

/// Checks the epilogue from a fully-finished parallel state. \returns
/// true if the run is clean.
inline bool checkEpilogue(const exec::Machine &M, const exec::State &S,
                          const std::vector<TraceStep> &Path,
                          Counterexample &Cex) {
  exec::State Copy = S;
  exec::Violation V;
  if (M.runToCompletion(Copy, M.epilogueCtx(), V))
    return true;
  Cex.Steps = Path;
  Cex.V = V;
  Cex.Where = Counterexample::Phase::Epilogue;
  return false;
}

/// One random schedule from \p Start. \returns true if it completed
/// cleanly; otherwise fills \p Cex. The ample reduction never applies
/// here (a single schedule explores no alternatives), so Local and Ample
/// falsifier runs are identical.
inline bool randomRun(const exec::Machine &M, PorMode Por,
                      const exec::State &Start, Rng &R, Counterexample &Cex) {
  exec::State S = Start;
  std::vector<TraceStep> Path;
  std::vector<unsigned> Ready;
  std::vector<TraceStep> Blocked;
  for (;;) {
    if (!advanceLocal(M, Por, S, Path, Cex))
      return false;
    if (!classifyAll(M, S, Ready, Blocked, Path, Cex))
      return false;
    if (Ready.empty()) {
      if (Blocked.empty())
        return checkEpilogue(M, S, Path, Cex);
      // All live threads blocked: deadlock.
      Cex.Steps = Path;
      Cex.V.VKind = exec::Violation::Kind::Deadlock;
      Cex.V.Label = "deadlock: all live threads blocked";
      Cex.Where = Counterexample::Phase::Parallel;
      Cex.DeadlockSet = Blocked;
      return false;
    }
    unsigned Ctx = Ready[R.below(Ready.size())];
    exec::Violation V;
    exec::ExecOutcome Out = M.execStep(S, Ctx, V);
    if (Out.Result == exec::StepResult::Violated) {
      Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
      Cex.Steps = Path;
      Cex.V = V;
      Cex.Where = Counterexample::Phase::Parallel;
      return false;
    }
    assert(Out.Result == exec::StepResult::Ok && "ready thread must step");
    Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
  }
}

//===----------------------------------------------------------------------===//
// Ample-set selection and sleep sets (PorMode::Ample; docs/POR.md).
// Shared by all engines so the undo-log DFS, the BFS and the parallel
// workers make the same reduction decisions at the same states.
//===----------------------------------------------------------------------===//

/// Picks a singleton ample set at a state with \p Ready contexts (pcs
/// normalized): the first ready context whose next step is independent
/// of every other thread's remaining steps. Such a singleton satisfies
/// C0 (nonempty subset of the enabled set) and C1 (no dependent action
/// can fire before it — the persistent-set argument, docs/POR.md); C2
/// needs no proviso because the state graph is acyclic (docs/POR.md
/// §3). A pure function of the state, so every engine reduces
/// identically. \returns the index into \p Ready, or -1 when no
/// singleton qualifies or fewer than two contexts are ready (full
/// expansion — reducing a single-choice state would change nothing).
inline int selectAmple(const exec::Machine &M, exec::State &S,
                       const std::vector<unsigned> &Ready) {
  if (Ready.size() < 2)
    return -1;
  for (size_t I = 0; I < Ready.size(); ++I)
    if (M.singletonIndependent(S, Ready[I]))
      return static_cast<int>(I);
  return -1;
}

/// Builds the sleep mask a child inherits after executing \p Ctx's step
/// at \p Pc: of the contexts slept or already branched at the parent
/// (\p Prior), those whose pending step commutes with the executed one
/// stay asleep — their step still leads into an already-covered
/// subtree; a dependent step is woken. \p S is the parent state (pcs
/// normalized; \p Ctx's own pc having advanced is harmless — it is
/// excluded anyway, its pending transition changed).
inline uint64_t sleepAfter(const exec::Machine &M, const exec::State &S,
                           unsigned Ctx, uint32_t Pc, uint64_t Prior) {
  uint64_t Out = 0;
  for (unsigned U = 0; U < M.numThreads() && U < MaxSleepThreads; ++U) {
    if (U == Ctx || !(Prior & (1ull << U)))
      continue;
    if (M.commutes(Ctx, Pc, U, S.pc(U)))
      Out |= 1ull << U;
  }
  return Out;
}

/// The canonical "smaller counterexample" order used when several workers
/// each find one before cancellation: shorter trace first, then lexicographic
/// on the (thread, pc) step sequence — a total order independent of
/// which worker found which trace.
inline bool cexLess(const Counterexample &A, const Counterexample &B) {
  if (A.Steps.size() != B.Steps.size())
    return A.Steps.size() < B.Steps.size();
  for (size_t I = 0; I < A.Steps.size(); ++I) {
    if (A.Steps[I].Thread != B.Steps[I].Thread)
      return A.Steps[I].Thread < B.Steps[I].Thread;
    if (A.Steps[I].Pc != B.Steps[I].Pc)
      return A.Steps[I].Pc < B.Steps[I].Pc;
  }
  return false;
}

/// POR bookkeeping of one undo-log DFS frame.
struct PorFrame {
  uint64_t Sleep = 0;          ///< sleep mask the state was entered with
  uint64_t Branched = 0;       ///< choices already expanded from this frame
  std::vector<unsigned> Ready; ///< the state's ready contexts
};

/// Decides what a freshly-entered state explores: a singleton ample set
/// when one qualifies, the full ready set otherwise, minus slept
/// contexts; or, for a Wake revisit, exactly the woken contexts. Reads
/// the ready set from F.Ready, sets F.Sleep, writes the choice list into
/// \p Choices (reusing its buffer); bumps the POR counters on \p R.
inline void planChoicesInto(const exec::Machine &M, exec::State &S,
                            bool Ample, uint64_t Sleep, bool IsWake,
                            uint64_t Wake, PorFrame &F,
                            std::vector<unsigned> &Choices, CheckResult &R) {
  const std::vector<unsigned> &Ready = F.Ready;
  Choices.clear();
  F.Sleep = Sleep;
  if (IsWake) {
    // Re-expansion of a partially-covered state: only the transitions a
    // prior visit slept through, as a plain (non-ample) frame.
    for (unsigned C : Ready)
      if (Wake & (1ull << C))
        Choices.push_back(C);
    return;
  }
  int AmpleIdx = Ample ? selectAmple(M, S, Ready) : -1;
  if (AmpleIdx >= 0) {
    ++R.AmpleStates;
    Choices.push_back(Ready[AmpleIdx]);
  } else {
    Choices.assign(Ready.begin(), Ready.end());
    if (Ample && Ready.size() >= 2)
      ++R.FullExpansions;
  }
  if (Sleep) {
    size_t Kept = 0;
    for (unsigned C : Choices) {
      if (Sleep & (1ull << C))
        ++R.SleepSkips;
      else
        Choices[Kept++] = C;
    }
    Choices.resize(Kept);
  }
}

//===----------------------------------------------------------------------===//
// The undo-log DFS core.
//===----------------------------------------------------------------------===//

/// Work a busy parallel worker hands to an idle one: the untried choices
/// of one DFS frame, the trace that reaches the frame's state from the
/// post-prologue state S0 (the receiver rebuilds the state by replaying
/// it — execStep is deterministic), and the mask the remaining choices
/// branch under (the frame's Sleep | Branched).
struct Donation {
  std::vector<TraceStep> Prefix;
  std::vector<unsigned> Choices;
  uint64_t Sleep = 0;
};

/// Exhaustive DFS over ONE state mutated in place: each scheduling choice
/// is applied with an attached undo log and reverted on backtrack, so a
/// step costs O(changed words) instead of a full state copy. Frames are
/// pooled: Depth is the live stack height, and frames above it keep
/// their ready and choice buffers for the next push, so the search
/// allocates nothing per state once the pool has grown.
///
/// Generalized over its visited table: a VisitedTable for one worker,
/// the ShardedVisited that W workers share. \p Driver supplies what
/// differs between the two:
///  * `template <class Core> bool onFrame(Core &)`, called once per frame
///    iteration: false stops the search (state budget, or another
///    worker's violation); a parallel worker donates work from here;
///  * `void onExplored()`, called once per fresh state after it is
///    counted: enforces CheckerConfig::MaxStates.
/// Every counter goes to the core's own CheckResult; a parallel search
/// merges its workers' results once at the end.
template <class Table, class Driver> class UndoDfs {
public:
  UndoDfs(const exec::Machine &M, const CheckerConfig &Cfg, Table &Visited,
          Driver &D, CheckResult &R)
      : M(M), Cfg(Cfg), Visited(Visited), D(D), R(R),
        Ample(Cfg.Por == PorMode::Ample && M.numThreads() <= MaxSleepThreads) {
  }

  /// Searches from \p Start, entered with an empty sleep set. \returns
  /// false and fills \p Cex on a violation; true when the search ran out
  /// of choices or the driver stopped it.
  bool search(const exec::State &Start, Counterexample &Cex) {
    S = Start;
    Path.clear();
    attach();
    return enter(0, Cex) && run(Cex);
  }

  /// Searches the donated frame \p Don from post-prologue state \p S0;
  /// returns as search() does.
  bool resume(const exec::State &S0, Donation &Don, Counterexample &Cex) {
    S = S0;
    for (const TraceStep &T : Don.Prefix) {
      exec::Violation V;
      [[maybe_unused]] exec::ExecOutcome Out = M.execStep(S, T.Thread, V);
      assert(Out.Result == exec::StepResult::Ok && Out.ExecutedPc == T.Pc &&
             "replay must follow the donor's trace");
    }
    // The donor entered the frame's state through classifyAll, which
    // normalizes every pc; normalization is idempotent, so the replayed
    // state is the donor's word for word.
    for (unsigned Ctx = 0; Ctx < M.numThreads(); ++Ctx)
      M.normalizePc(S, Ctx);
    Path = std::move(Don.Prefix);
    attach();
    Frame &F = frameAt(0);
    F.Choices = std::move(Don.Choices);
    F.Por.Sleep = Don.Sleep;
    F.Por.Branched = 0;
    open(F);
    return run(Cex);
  }

  /// Moves the untried choices of the shallowest frame below the top
  /// into \p Out (the top frame's are the ones this worker is about to
  /// run). \returns false when no such frame has any.
  bool donate(Donation &Out) {
    for (size_t I = 0; I + 1 < Depth; ++I) {
      Frame &F = Stack[I];
      if (F.NextChoice >= F.Choices.size())
        continue;
      Out.Prefix.assign(Path.begin(), Path.begin() + F.PathLen);
      Out.Choices.assign(F.Choices.begin() + F.NextChoice, F.Choices.end());
      Out.Sleep = F.Por.Sleep | F.Por.Branched;
      F.NextChoice = F.Choices.size();
      return true;
    }
    return false;
  }

private:
  /// A frame carries no state: the single search state S is reverted to
  /// the frame's log mark before each of its scheduling choices.
  struct Frame {
    std::vector<unsigned> Choices;
    size_t NextChoice = 0;
    size_t PathLen = 0;
    exec::UndoLog::Mark Mark = 0;
    PorFrame Por;
  };

  void attach() {
    Depth = 0;
    Log.clear();
    S.attachLog(&Log);
  }

  /// The pooled frame at height \p I (not live until open() bumps Depth).
  Frame &frameAt(size_t I) {
    if (I == Stack.size())
      Stack.emplace_back();
    return Stack[I];
  }

  /// Makes \p F, the frame at Depth holding its choices, the live top.
  /// The mark is taken after the local chain and pc normalization, so
  /// reverting to it lands exactly on the entered (deduped) state.
  void open(Frame &F) {
    F.NextChoice = 0;
    F.PathLen = Path.size();
    F.Mark = Log.mark();
    ++Depth;
  }

  /// Enters S in place: local chain, one probe, dedup, classification,
  /// terminal handling; pushes a frame when there are scheduling choices.
  /// Returns false if a counterexample was found.
  bool enter(uint64_t Sleep, Counterexample &Cex) {
    if (!advanceLocal(M, Cfg.Por, S, Path, Cex))
      return false;
    uint64_t Wake = 0;
    InsertOutcome Ins = Ample ? Visited.insertMask(M, S, Sleep, Wake)
                              : (Visited.insert(M, S) ? InsertOutcome::Fresh
                                                      : InsertOutcome::Prune);
    if (Ins == InsertOutcome::Prune) {
      ++R.StatesDeduped;
      return true; // already explored; not a counterexample
    }
    bool IsWake = Ins == InsertOutcome::Wake;
    if (IsWake) {
      ++R.StatesDeduped; // partially-covered revisit
    } else {
      ++R.StatesExplored;
      D.onExplored();
    }

    Frame &F = frameAt(Depth);
    if (!classifyAll(M, S, F.Por.Ready, Blocked, Path, Cex))
      return false;
    if (F.Por.Ready.empty()) {
      if (!Blocked.empty()) {
        Cex.Steps = Path;
        Cex.V.VKind = exec::Violation::Kind::Deadlock;
        Cex.V.Label = "deadlock: all live threads blocked";
        Cex.Where = Counterexample::Phase::Parallel;
        Cex.DeadlockSet = Blocked;
        return false;
      }
      // checkEpilogue snapshots S; the copy does not inherit the log.
      return checkEpilogue(M, S, Path, Cex);
    }
    F.Por.Branched = 0;
    planChoicesInto(M, S, Ample, Sleep, IsWake, Wake, F.Por, F.Choices, R);
    if (F.Choices.empty())
      return true; // every transition here is covered elsewhere (sleep)
    open(F);
    return true;
  }

  bool run(Counterexample &Cex) {
    while (Depth > 0) {
      if (!D.onFrame(*this))
        return true;
      Frame &Top = Stack[Depth - 1];
      if (Top.NextChoice >= Top.Choices.size()) {
        S.revertTo(Top.Mark);
        --Depth;
        if (Depth > 0)
          Path.resize(Stack[Depth - 1].PathLen);
        continue;
      }
      S.revertTo(Top.Mark); // undo the previous choice's subtree
      Path.resize(Top.PathLen);
      unsigned Ctx = Top.Choices[Top.NextChoice++];
      uint64_t ChildSleep = 0;
      if (Ample) {
        ChildSleep = sleepAfter(M, S, Ctx, S.pc(Ctx),
                                Top.Por.Sleep | Top.Por.Branched);
        Top.Por.Branched |= 1ull << Ctx;
      }
      exec::Violation V;
      exec::ExecOutcome Out = M.execStep(S, Ctx, V);
      if (Out.Result == exec::StepResult::Violated) {
        Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
        Cex.Steps = Path;
        Cex.V = V;
        Cex.Where = Counterexample::Phase::Parallel;
        return false;
      }
      assert(Out.Result == exec::StepResult::Ok && "chosen thread must step");
      Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
      if (!enter(ChildSleep, Cex))
        return false;
    }
    return true;
  }

  const exec::Machine &M;
  const CheckerConfig &Cfg;
  Table &Visited;
  Driver &D;
  CheckResult &R;
  const bool Ample;

  std::vector<Frame> Stack;
  size_t Depth = 0;
  std::vector<TraceStep> Path;
  std::vector<TraceStep> Blocked;
  exec::UndoLog Log;
  exec::State S;
};

/// The exhaustive phase of a search with \p Workers >= 2 workers
/// (ParallelChecker.cpp): that many UndoDfs cores from \p S0 over one
/// ShardedVisited keyed through \p Canon (null: no symmetry), balanced
/// by donation. Adds the counters and Steals to \p R, fills its
/// PerWorkerStates (sized to \p Workers by the caller), VisitedBytes and
/// Exhausted. \returns false and fills \p Cex on a
/// violation: the cexLess-minimal trace among those the workers found
/// before cancellation.
bool parallelDfs(const exec::Machine &M, const CheckerConfig &Cfg,
                 unsigned Workers, const exec::State &S0,
                 const Canonicalizer *Canon, CheckResult &R,
                 Counterexample &Cex);

} // namespace detail
} // namespace verify
} // namespace psketch

#endif // PSKETCH_VERIFY_SEARCHCORE_H

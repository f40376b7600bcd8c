//===- verify/ModelChecker.cpp ---------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "verify/ModelChecker.h"

#include "support/Rng.h"
#include "support/StrUtil.h"
#include "verify/Canon.h"
#include "verify/SearchCore.h"
#include "verify/Visited.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <thread>
#include <unordered_map>

using namespace psketch;
using namespace psketch::verify;
using exec::ExecOutcome;
using exec::Machine;
using exec::State;
using exec::StepResult;
using exec::Violation;

std::string Counterexample::describe(const Machine &M) const {
  std::string Out = format("violation: %s (phase %d)\n", V.Label.c_str(),
                           static_cast<int>(Where));
  for (const TraceStep &S : Steps) {
    const flat::Step &St = M.bodyOf(S.Thread).Steps[S.Pc];
    Out += format("  T%u#%u: %s\n", S.Thread, S.Pc, St.Label.c_str());
  }
  for (const TraceStep &S : DeadlockSet)
    Out += format("  blocked T%u#%u\n", S.Thread, S.Pc);
  return Out;
}

unsigned psketch::verify::resolvedNumThreads(const CheckerConfig &Cfg) {
  if (Cfg.NumThreads != 0)
    return Cfg.NumThreads;
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

namespace {

class Checker {
public:
  Checker(const Machine &M, const CheckerConfig &Cfg, bool UseFalsifier)
      : M(M), Cfg(Cfg), UseFalsifier(UseFalsifier), Canon(makeCanon(M, Cfg)),
        Visited(&hashWords, Canon && Canon->active() ? Canon.get() : nullptr) {}

  CheckResult run();

private:
  /// The three search phases; run() wraps it to stamp the symmetry
  /// counters onto whichever Result it produced.
  CheckResult runSearch();

  /// Symmetry setup: under SymmetryMode::Orbit the canonicalizer is
  /// built per candidate (inference + table compilation, the cost
  /// surfaced as CanonTime); it is attached to the visited table only
  /// when a non-trivial orbit was proven.
  static std::unique_ptr<Canonicalizer> makeCanon(const Machine &M,
                                                  const CheckerConfig &Cfg) {
    if (Cfg.Symmetry != SymmetryMode::Orbit)
      return nullptr;
    return std::make_unique<Canonicalizer>(M);
  }

  /// Canonical state fingerprint for the DFS OnStack set. Under an
  /// active symmetry the cycle proviso must run in quotient-graph
  /// coordinates: a reduced expansion whose successor is a symmetric
  /// image of a stack state closes a quotient cycle even though the raw
  /// states differ, so the OnStack key has to be the canonical
  /// fingerprint the visited table deduped on (docs/SYMMETRY.md).
  uint64_t stateFp(const State &S) const {
    if (Canon && Canon->active()) {
      unsigned PermIdx = Canonicalizer::IdentityPerm;
      return M.fingerprintWords(Canon->canonicalize(S.words(), PermIdx));
    }
    return M.fingerprintState(S);
  }

  const Machine &M;
  const CheckerConfig &Cfg;
  bool UseFalsifier;
  CheckResult Result;
  std::unique_ptr<Canonicalizer> Canon; ///< before Visited: it aliases this
  detail::VisitedTable Visited;

  /// Exhaustive DFS, legacy copy-per-successor loop (UseUndoLog=false).
  /// \returns true if no violation is reachable (within the budget).
  bool dfs(const State &Start, Counterexample &Cex);

  /// Exhaustive DFS over ONE state mutated in place: each scheduling
  /// choice is applied with an attached undo log and reverted on
  /// backtrack, so a step costs O(changed words) instead of a full state
  /// copy. Operation order (local chain, dedup, classify, frame push) is
  /// identical to dfs(), so verdict, counterexample, and state counts
  /// match it exactly — tested by test_state_engine.cpp.
  bool dfsUndo(const State &Start, Counterexample &Cex);

  /// Exhaustive BFS with state dedup: finds shortest counterexamples.
  /// Keeps per-node copies (parent links need live states).
  bool bfs(const State &Start, Counterexample &Cex);

};

bool Checker::bfs(const State &Start, Counterexample &Cex) {
  // Search nodes keep parent links so counterexample paths can be
  // reconstructed without storing a path per node.
  struct Node {
    State S;
    int Parent = -1;
    std::vector<TraceStep> Steps; ///< steps taken from the parent
  };
  std::vector<Node> Nodes;

  const bool Ample = Cfg.Por == PorMode::Ample;

  auto ReconstructTo = [&](int Index, std::vector<TraceStep> &Out) {
    std::vector<int> Chain;
    for (int I = Index; I >= 0; I = Nodes[I].Parent)
      Chain.push_back(I);
    Out.clear();
    for (auto It = Chain.rbegin(); It != Chain.rend(); ++It)
      Out.insert(Out.end(), Nodes[*It].Steps.begin(),
                 Nodes[*It].Steps.end());
  };

  // Enters a state: runs its local chain, dedups, appends a node.
  // Returns false if a counterexample was found.
  auto Enter = [&](State S, int Parent,
                   std::vector<TraceStep> Prefix) -> bool {
    std::vector<TraceStep> Chain = std::move(Prefix);
    Counterexample Local;
    std::vector<TraceStep> Scratch;
    if (!detail::advanceLocal(M, Cfg.Por, S, Scratch, Local)) {
      // Violation inside the local chain.
      ReconstructTo(Parent, Cex.Steps);
      Cex.Steps.insert(Cex.Steps.end(), Chain.begin(), Chain.end());
      Cex.Steps.insert(Cex.Steps.end(), Local.Steps.begin(),
                       Local.Steps.end());
      Cex.V = Local.V;
      Cex.Where = Local.Where;
      Cex.DeadlockSet = Local.DeadlockSet;
      return false;
    }
    Chain.insert(Chain.end(), Scratch.begin(), Scratch.end());
    if (!Visited.insert(M, S)) {
      ++Result.StatesDeduped;
      return true;
    }
    ++Result.StatesExplored;
    if (Result.StatesExplored >= Cfg.MaxStates)
      Result.Exhausted = true;
    Node N;
    N.S = std::move(S);
    N.Parent = Parent;
    N.Steps = std::move(Chain);
    Nodes.push_back(std::move(N));
    return true;
  };

  if (!Enter(Start, -1, {}))
    return false;

  for (size_t Head = 0; Head < Nodes.size() && !Result.Exhausted; ++Head) {
    std::vector<unsigned> Ready;
    std::vector<TraceStep> Blocked;
    std::vector<TraceStep> Path; // only needed on failure
    if (!detail::classifyAll(M, Nodes[Head].S, Ready, Blocked, Path, Cex)) {
      std::vector<TraceStep> Extra = std::move(Cex.Steps);
      ReconstructTo(static_cast<int>(Head), Cex.Steps);
      Cex.Steps.insert(Cex.Steps.end(), Extra.begin(), Extra.end());
      return false;
    }
    if (Ready.empty()) {
      if (!Blocked.empty()) {
        ReconstructTo(static_cast<int>(Head), Cex.Steps);
        Cex.V.VKind = Violation::Kind::Deadlock;
        Cex.V.Label = "deadlock: all live threads blocked";
        Cex.Where = Counterexample::Phase::Parallel;
        Cex.DeadlockSet = Blocked;
        return false;
      }
      ReconstructTo(static_cast<int>(Head), Path);
      if (!detail::checkEpilogue(M, Nodes[Head].S, Path, Cex))
        return false;
      continue;
    }
    // Ample reduction with the BFS cycle proviso (C2): expand the
    // singleton alone only when its locally-advanced successor has NOT
    // been visited — on any cycle of the reduced graph the last state
    // expanded finds its successor in the table and expands fully, so no
    // thread is deferred forever around the cycle (docs/POR.md).
    if (Ample && Ready.size() >= 2) {
      int AI = detail::selectAmple(M, Nodes[Head].S, Ready);
      if (AI >= 0) {
        unsigned Ctx = Ready[AI];
        State Next = Nodes[Head].S; // copy: Enter() may reallocate Nodes
        Violation V;
        ExecOutcome Out = M.execStep(Next, Ctx, V);
        if (Out.Result == StepResult::Violated) {
          ReconstructTo(static_cast<int>(Head), Cex.Steps);
          Cex.Steps.push_back(TraceStep{Ctx, Out.ExecutedPc});
          Cex.V = V;
          Cex.Where = Counterexample::Phase::Parallel;
          return false;
        }
        assert(Out.Result == StepResult::Ok && "ready thread must step");
        std::vector<TraceStep> Prefix{TraceStep{Ctx, Out.ExecutedPc}};
        Counterexample Local;
        if (!detail::advanceLocal(M, Cfg.Por, Next, Prefix, Local)) {
          ReconstructTo(static_cast<int>(Head), Cex.Steps);
          Cex.Steps.insert(Cex.Steps.end(), Local.Steps.begin(),
                           Local.Steps.end());
          Cex.V = Local.V;
          Cex.Where = Local.Where;
          Cex.DeadlockSet = Local.DeadlockSet;
          return false;
        }
        if (!Visited.contains(M, Next)) {
          ++Result.AmpleStates;
          // Next is already in normal form, so Enter's own local chain
          // is a no-op and Prefix carries the full step sequence.
          if (!Enter(std::move(Next), static_cast<int>(Head),
                     std::move(Prefix)))
            return false;
          continue;
        }
        ++Result.FullExpansions; // proviso hit: fall through, expand all
      } else {
        ++Result.FullExpansions;
      }
    }
    // Copy the head out once: Enter() appends to Nodes and may
    // reallocate it.
    State S = Nodes[Head].S;
    for (unsigned Ctx : Ready) {
      State Next = S;
      Violation V;
      ExecOutcome Out = M.execStep(Next, Ctx, V);
      if (Out.Result == StepResult::Violated) {
        ReconstructTo(static_cast<int>(Head), Cex.Steps);
        Cex.Steps.push_back(TraceStep{Ctx, Out.ExecutedPc});
        Cex.V = V;
        Cex.Where = Counterexample::Phase::Parallel;
        return false;
      }
      assert(Out.Result == StepResult::Ok && "ready thread must step");
      if (!Enter(std::move(Next), static_cast<int>(Head),
                 {TraceStep{Ctx, Out.ExecutedPc}}))
        return false;
    }
  }
  return true;
}

// The DFS engines share their ample/sleep decision logic through this
// helper so dfs (copy) and dfsUndo (in-place) behave identically — the
// equivalence test of test_state_engine.cpp covers the reduced modes too.
namespace {

/// Per-frame POR bookkeeping common to both DFS engines.
struct PorFrame {
  uint64_t Sleep = 0;    ///< sleep mask the state was entered with
  uint64_t Branched = 0; ///< choices already expanded from this frame
  bool Reduced = false;  ///< singleton ample frame (C2 may upgrade it)
  std::vector<unsigned> Ready; ///< full ready set (kept for the upgrade)
  uint64_t Fp = 0;             ///< on-stack key for the cycle proviso
};

/// Decides what a freshly-entered state explores: a singleton ample set
/// when one qualifies, the full ready set otherwise, minus slept
/// contexts; or, for a Wake revisit, exactly the woken contexts. Reads
/// the ready set from F.Ready, sets F.Sleep/F.Reduced, writes the choice
/// list into \p Choices (reusing its buffer); bumps the POR counters on
/// \p R.
void planChoicesInto(const Machine &M, State &S, bool Ample, uint64_t Sleep,
                     bool IsWake, uint64_t Wake, PorFrame &F,
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
  int AmpleIdx = Ample ? detail::selectAmple(M, S, Ready) : -1;
  if (AmpleIdx >= 0) {
    F.Reduced = true;
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

/// planChoicesInto for callers that build a fresh frame per state: moves
/// \p Ready into \p F and returns the choice list.
std::vector<unsigned> planChoices(const Machine &M, State &S, bool Ample,
                                  std::vector<unsigned> Ready,
                                  uint64_t Sleep, bool IsWake, uint64_t Wake,
                                  PorFrame &F, CheckResult &R) {
  F.Ready = std::move(Ready);
  std::vector<unsigned> Choices;
  planChoicesInto(M, S, Ample, Sleep, IsWake, Wake, F, Choices, R);
  return Choices;
}

/// The C2 cycle-proviso upgrade: the reduced frame's successor closed a
/// DFS-stack cycle, so the deferred contexts could be ignored forever
/// around it — append the rest of the (unslept) ready set after the
/// already-running singleton. (The thread-phase state graph is acyclic —
/// every Ok step advances some pc and normalization only increases them
/// — so this never fires in practice; it is kept because the reduction's
/// soundness must not depend on that structural accident.)
void upgradeToFull(PorFrame &F, std::vector<unsigned> &Choices,
                   CheckResult &R) {
  F.Reduced = false;
  --R.AmpleStates;
  ++R.FullExpansions;
  for (unsigned C : F.Ready) {
    if (C == Choices[0])
      continue;
    if (F.Sleep & (1ull << C))
      ++R.SleepSkips;
    else
      Choices.push_back(C);
  }
}

} // namespace

bool Checker::dfs(const State &Start, Counterexample &Cex) {
  struct Frame {
    State S;
    std::vector<unsigned> Choices;
    size_t NextChoice = 0;
    size_t PathLen = 0;
    PorFrame Por;
  };

  const bool Ample =
      Cfg.Por == PorMode::Ample && M.numThreads() <= detail::MaxSleepThreads;

  std::vector<Frame> Stack;
  std::vector<TraceStep> Path;
  std::unordered_map<uint64_t, unsigned> OnStack; ///< fp -> frames (Ample)

  // Pushes a state after running its local chain; handles terminal states.
  // Returns false if a counterexample was found.
  auto PushState = [&](State S, uint64_t Sleep) -> bool {
    if (!detail::advanceLocal(M, Cfg.Por, S, Path, Cex))
      return false;
    uint64_t Fp = 0;
    if (Ample) {
      Fp = stateFp(S);
      if (!Stack.empty() && Stack.back().Por.Reduced && OnStack.count(Fp))
        upgradeToFull(Stack.back().Por, Stack.back().Choices, Result);
    }
    uint64_t Wake = 0;
    detail::InsertOutcome Ins =
        Ample ? Visited.insertMask(M, S, Sleep, Wake)
              : (Visited.insert(M, S) ? detail::InsertOutcome::Fresh
                                      : detail::InsertOutcome::Prune);
    if (Ins == detail::InsertOutcome::Prune) {
      ++Result.StatesDeduped;
      return true; // already explored; not a counterexample
    }
    bool IsWake = Ins == detail::InsertOutcome::Wake;
    if (IsWake) {
      ++Result.StatesDeduped; // partially-covered revisit
    } else {
      ++Result.StatesExplored;
      if (Result.StatesExplored >= Cfg.MaxStates)
        Result.Exhausted = true;
    }

    std::vector<unsigned> Ready;
    std::vector<TraceStep> Blocked;
    if (!detail::classifyAll(M, S, Ready, Blocked, Path, Cex))
      return false;
    if (Ready.empty()) {
      if (!Blocked.empty()) {
        Cex.Steps = Path;
        Cex.V.VKind = Violation::Kind::Deadlock;
        Cex.V.Label = "deadlock: all live threads blocked";
        Cex.Where = Counterexample::Phase::Parallel;
        Cex.DeadlockSet = Blocked;
        return false;
      }
      return detail::checkEpilogue(M, S, Path, Cex); // leaf: phase done
    }
    Frame F;
    F.Por.Fp = Fp;
    F.Choices = planChoices(M, S, Ample, std::move(Ready), Sleep, IsWake,
                            Wake, F.Por, Result);
    if (F.Choices.empty())
      return true; // every transition here is covered elsewhere (sleep)
    F.S = std::move(S);
    F.PathLen = Path.size();
    if (Ample)
      ++OnStack[F.Por.Fp];
    Stack.push_back(std::move(F));
    return true;
  };

  if (!PushState(Start, 0))
    return false;

  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.NextChoice >= Top.Choices.size() || Result.Exhausted) {
      if (Ample) {
        auto It = OnStack.find(Top.Por.Fp);
        if (--It->second == 0)
          OnStack.erase(It);
      }
      Stack.pop_back();
      if (!Stack.empty())
        Path.resize(Stack.back().PathLen);
      continue;
    }
    Path.resize(Top.PathLen);
    unsigned Ctx = Top.Choices[Top.NextChoice++];
    uint64_t ChildSleep = 0;
    if (Ample) {
      ChildSleep = detail::sleepAfter(M, Top.S, Ctx, Top.S.pc(Ctx),
                                      Top.Por.Sleep | Top.Por.Branched);
      Top.Por.Branched |= 1ull << Ctx;
    }
    State Next = Top.S;
    Violation V;
    ExecOutcome Out = M.execStep(Next, Ctx, V);
    if (Out.Result == StepResult::Violated) {
      Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
      Cex.Steps = Path;
      Cex.V = V;
      Cex.Where = Counterexample::Phase::Parallel;
      return false;
    }
    assert(Out.Result == StepResult::Ok && "chosen thread must step");
    Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
    if (!PushState(std::move(Next), ChildSleep))
      return false;
  }
  return true;
}

bool Checker::dfsUndo(const State &Start, Counterexample &Cex) {
  // A frame carries no state: the single search state S is reverted to
  // the frame's log mark before each of its scheduling choices. Frames
  // are pooled: Depth is the live stack height, and frames above it keep
  // their ready and choice buffers for the next push, so the search
  // allocates nothing per state once the pool has grown.
  struct Frame {
    std::vector<unsigned> Choices;
    size_t NextChoice = 0;
    size_t PathLen = 0;
    exec::UndoLog::Mark Mark = 0;
    PorFrame Por;
  };

  const bool Ample =
      Cfg.Por == PorMode::Ample && M.numThreads() <= detail::MaxSleepThreads;

  std::vector<Frame> Stack;
  size_t Depth = 0;
  // The live frames' on-stack keys, bottom first (Ample only). Stacks
  // stay about a hundred frames deep, so the cycle-proviso lookup is a
  // linear scan of contiguous words and pushes and pops never allocate.
  std::vector<uint64_t> OnStack;
  std::vector<TraceStep> Path;
  std::vector<TraceStep> Blocked;
  exec::UndoLog Log;
  State S = Start;
  S.attachLog(&Log);

  // Enters S in place: local chain, one probe (shared by the cycle
  // proviso and the visited table), dedup, classification, terminal
  // handling; pushes a frame when there are scheduling choices. The
  // frame's mark is taken AFTER the local chain and pc normalization, so
  // reverting to it lands exactly on the entered (deduped) state.
  // Returns false if a counterexample was found.
  auto Enter = [&](uint64_t Sleep) -> bool {
    if (!detail::advanceLocal(M, Cfg.Por, S, Path, Cex))
      return false;
    // The probe's fingerprint is the on-stack key stateFp would compute.
    detail::StateProbe Probe = Visited.probe(M, S);
    uint64_t Fp = Probe.Key.Fp;
    if (Ample) {
      if (Depth > 0 && Stack[Depth - 1].Por.Reduced &&
          std::find(OnStack.begin(), OnStack.end(), Fp) != OnStack.end())
        upgradeToFull(Stack[Depth - 1].Por, Stack[Depth - 1].Choices,
                      Result);
    }
    uint64_t Wake = 0;
    detail::InsertOutcome Ins =
        Ample ? Visited.insertMask(M, Probe, Sleep, Wake)
              : (Visited.insert(M, Probe) ? detail::InsertOutcome::Fresh
                                          : detail::InsertOutcome::Prune);
    if (Ins == detail::InsertOutcome::Prune) {
      ++Result.StatesDeduped;
      return true; // already explored; not a counterexample
    }
    bool IsWake = Ins == detail::InsertOutcome::Wake;
    if (IsWake) {
      ++Result.StatesDeduped; // partially-covered revisit
    } else {
      ++Result.StatesExplored;
      if (Result.StatesExplored >= Cfg.MaxStates)
        Result.Exhausted = true;
    }

    if (Depth == Stack.size())
      Stack.emplace_back();
    Frame &F = Stack[Depth]; // not live until Depth is bumped below
    if (!detail::classifyAll(M, S, F.Por.Ready, Blocked, Path, Cex))
      return false;
    if (F.Por.Ready.empty()) {
      if (!Blocked.empty()) {
        Cex.Steps = Path;
        Cex.V.VKind = Violation::Kind::Deadlock;
        Cex.V.Label = "deadlock: all live threads blocked";
        Cex.Where = Counterexample::Phase::Parallel;
        Cex.DeadlockSet = Blocked;
        return false;
      }
      // checkEpilogue snapshots S; the copy does not inherit the log.
      return detail::checkEpilogue(M, S, Path, Cex);
    }
    F.Por.Branched = 0;
    F.Por.Reduced = false;
    planChoicesInto(M, S, Ample, Sleep, IsWake, Wake, F.Por, F.Choices,
                    Result);
    if (F.Choices.empty())
      return true; // every transition here is covered elsewhere (sleep)
    F.NextChoice = 0;
    F.PathLen = Path.size();
    F.Mark = Log.mark();
    if (Ample)
      OnStack.push_back(Fp);
    ++Depth;
    return true;
  };

  if (!Enter(0))
    return false;

  while (Depth > 0) {
    Frame &Top = Stack[Depth - 1];
    if (Top.NextChoice >= Top.Choices.size() || Result.Exhausted) {
      S.revertTo(Top.Mark);
      if (Ample)
        OnStack.pop_back();
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
      ChildSleep = detail::sleepAfter(M, S, Ctx, S.pc(Ctx),
                                      Top.Por.Sleep | Top.Por.Branched);
      Top.Por.Branched |= 1ull << Ctx;
    }
    Violation V;
    ExecOutcome Out = M.execStep(S, Ctx, V);
    if (Out.Result == StepResult::Violated) {
      Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
      Cex.Steps = Path;
      Cex.V = V;
      Cex.Where = Counterexample::Phase::Parallel;
      return false;
    }
    assert(Out.Result == StepResult::Ok && "chosen thread must step");
    Path.push_back(TraceStep{Ctx, Out.ExecutedPc});
    if (!Enter(ChildSleep))
      return false;
  }
  return true;
}

CheckResult Checker::run() {
  runSearch();
  if (Canon) {
    Result.SymmetryOrbits = Canon->numOrbits();
    Result.CanonHits = Canon->canonHits();
    Result.CanonTime = Canon->buildSeconds();
  }
  return Result;
}

CheckResult Checker::runSearch() {
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

  // Phase 2: cheap random falsification (one stream: the legacy
  // single-threaded behaviour the reproducibility contract pins).
  if (UseFalsifier) {
    Rng R(Cfg.Seed);
    for (unsigned I = 0; I < Cfg.RandomRuns; ++I) {
      ++Result.RandomRunsUsed;
      Counterexample Cex;
      if (!detail::randomRun(M, Cfg.Por, S0, R, Cex)) {
        Result.Ok = false;
        Result.Cex = std::move(Cex);
        return Result;
      }
    }
  }

  // Phase 3: exhaustive search.
  Counterexample Cex;
  bool Clean = Cfg.Order == SearchOrder::Bfs ? bfs(S0, Cex)
               : Cfg.UseUndoLog              ? dfsUndo(S0, Cex)
                                             : dfs(S0, Cex);
  Result.VisitedBytes = Visited.keyBytes();
  if (!Clean) {
    Result.Ok = false;
    Result.Cex = std::move(Cex);
    // An ample-mode trace is an artifact of the reduced graph, and an
    // active symmetry can likewise change which violation the search
    // reaches first (orbit merging prunes subtrees); re-derive the
    // canonical trace with both reductions relaxed so every mode reports
    // the same counterexample (reproducibility contract; docs/POR.md and
    // docs/SYMMETRY.md). The falsifier phase needs no re-run: single
    // schedules are identical under Local and Ample, and it ran before
    // this search anyway.
    bool SymActive = Canon && Canon->active();
    if ((Cfg.Por == PorMode::Ample || SymActive) && Cfg.DeterministicCex) {
      CheckerConfig ReCfg = Cfg;
      if (ReCfg.Por == PorMode::Ample)
        ReCfg.Por = PorMode::Local;
      ReCfg.Symmetry = SymmetryMode::Off;
      CheckResult Seq = detail::checkCandidateSequential(M, ReCfg, false);
      Result.StatesExplored += Seq.StatesExplored;
      Result.StatesDeduped += Seq.StatesDeduped;
      Result.VisitedBytes += Seq.VisitedBytes;
      if (!Seq.Ok && Seq.Cex)
        Result.Cex = std::move(Seq.Cex);
      else
        // The Local search hit its budget before reaching any violation:
        // keep the ample trace (still a real execution) and surface the
        // budget caveat.
        Result.Exhausted = Result.Exhausted || Seq.Exhausted;
    }
    return Result;
  }
  Result.Ok = true;
  return Result;
}

} // namespace

CheckResult psketch::verify::detail::checkCandidateSequential(
    const Machine &M, const CheckerConfig &Cfg, bool UseFalsifier) {
  Checker C(M, Cfg, UseFalsifier);
  return C.run();
}

CheckResult psketch::verify::checkCandidate(const Machine &M,
                                            const CheckerConfig &Cfg) {
  unsigned Workers = resolvedNumThreads(Cfg);
  CheckResult Res =
      Workers <= 1
          ? detail::checkCandidateSequential(M, Cfg, Cfg.UseRandomFalsifier)
          : detail::checkCandidateParallel(M, Cfg, Workers);
  // Analysis-tuning observability lives on the Machine; stamp it here so
  // every engine (sequential, parallel, re-derivation) reports it.
  Res.TightenedBits = M.tightenedBits();
  Res.LockIndepPairs = M.lockIndepPairs();
  Res.PackEscapes = M.packEscapes();
  Res.ShapeSites = M.shapeSites();
  Res.SiteIndepPairs = M.siteIndepPairs();
  return Res;
}

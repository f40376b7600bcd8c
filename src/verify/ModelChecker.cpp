//===- verify/ModelChecker.cpp ---------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "verify/ModelChecker.h"

#include "support/Rng.h"
#include "support/StrUtil.h"
#include "verify/Canon.h"
#include "verify/FrontierBatch.h"
#include "verify/SearchCore.h"
#include "verify/Visited.h"

#include <algorithm>
#include <cassert>
#include <deque>
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
        Spill(Cfg.Store == VisitedStore::Spill
                  ? std::make_unique<detail::SpillStore>(Cfg.SpillDir)
                  : nullptr),
        Visited(Cfg, &hashWords,
                Canon && Canon->active() ? Canon.get() : nullptr,
                // A failed store (unwritable spill dir) is still handed
                // over: the cells see !ok() and waive the budget, so the
                // check degrades to Memory mode with no abort watermark
                // (CheckResult::SpillFallback) rather than failing.
                Spill.get()) {}

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
  std::unique_ptr<detail::SpillStore> Spill; ///< before Visited: aliased too
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

  /// Exhaustive DFS over SoA successor batches (BatchWidth >= 2;
  /// docs/BATCHING.md). Same reduction decisions and sleep protocol as
  /// dfs()/dfsUndo(); sibling successors are generated, canonicalized,
  /// fingerprinted and probed as one batch, so the visited table fills
  /// eagerly and the search-tree shape (hence which violation is found
  /// first, and the dedup-attribution split of the state counts) can
  /// differ from the scalar engines — the verdict cannot, and
  /// DeterministicCex restores the scalar trace.
  bool dfsBatched(const State &Start, Counterexample &Cex);
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
  const Canonicalizer *Cn = Canon && Canon->active() ? Canon.get() : nullptr;
  detail::FrontierBatch Batch; ///< BatchWidth >= 2: batched full expansion

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
    if (Result.StatesExplored >= Cfg.MaxStates || Visited.overBudget())
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

  // Cross-parent successor pooling (BatchWidth >= 2): one parent yields
  // at most numThreads() children, far below a SIMD-profitable width on
  // the paper's 2-5-thread benchmarks, so full expansions are queued as
  // (parent, ctx) lanes and flushed through the SoA pipeline in
  // full-width batches spanning many parents. Lanes flush in FIFO
  // order, so children enter the visited table and the frontier in
  // exactly scalar BFS's order — the explored set, dedup decisions, and
  // node numbering are unchanged; only the moment a child enters the
  // table moves (docs/BATCHING.md).
  std::vector<std::pair<int, unsigned>> Pending;
  std::vector<const State *> PoolParents;
  std::vector<unsigned> PoolCtxs;

  // Flushes pooled lanes in batch-width sub-batches; a non-final flush
  // keeps the ragged tail pooled so only full-width batches run.
  auto Flush = [&](bool Final) -> bool {
    size_t At = 0;
    while (!Result.Exhausted &&
           (Pending.size() - At >= Cfg.BatchWidth ||
            (Final && At < Pending.size()))) {
      unsigned NGen = static_cast<unsigned>(
          std::min<size_t>(Cfg.BatchWidth, Pending.size() - At));
      PoolParents.resize(NGen);
      PoolCtxs.resize(NGen);
      for (unsigned I = 0; I < NGen; ++I) {
        PoolParents[I] = &Nodes[Pending[At + I].first].S;
        PoolCtxs[I] = Pending[At + I].second;
      }
      Counterexample GenCex;
      unsigned FailLane = 0;
      if (!Batch.generateMulti(M, Cfg.Por, PoolParents.data(),
                               PoolCtxs.data(), NGen, GenCex, FailLane)) {
        std::vector<TraceStep> Extra = std::move(GenCex.Steps);
        ReconstructTo(Pending[At + FailLane].first, Cex.Steps);
        Cex.Steps.insert(Cex.Steps.end(), Extra.begin(), Extra.end());
        Cex.V = GenCex.V;
        Cex.Where = GenCex.Where;
        Cex.DeadlockSet = GenCex.DeadlockSet;
        return false;
      }
      Batch.fingerprint(M, Cn, Visited.hashFn());
      Batch.probeMask(M, Visited);
      for (unsigned K = 0; K < NGen; ++K) {
        if (Batch.ins(K) != detail::InsertOutcome::Fresh) {
          ++Result.StatesDeduped;
          continue;
        }
        ++Result.StatesExplored;
        if (Result.StatesExplored >= Cfg.MaxStates || Visited.overBudget())
          Result.Exhausted = true;
        Node Child;
        Child.S = std::move(Batch.state(K));
        Child.Parent = Pending[At + K].first;
        Child.Steps = Batch.suffix(K);
        Nodes.push_back(std::move(Child));
      }
      At += NGen;
    }
    Pending.erase(Pending.begin(), Pending.begin() + At);
    return true;
  };

  for (size_t Head = 0; !Result.Exhausted; ++Head) {
    if (Head == Nodes.size()) {
      // Frontier drained; the pooled tail may extend it.
      if (Pending.empty())
        break;
      if (!Flush(/*Final=*/true))
        return false;
      if (Head == Nodes.size())
        break; // every pooled lane was a dup
    }
    std::vector<unsigned> Ready;
    std::vector<TraceStep> Blocked;
    std::vector<TraceStep> Path; // only needed on failure
    // Classify the STORED node: classifyAll normalizes every thread's pc
    // in place, and the pooled lanes expand from Nodes[Head].S later —
    // they must step from exactly the normalized state the scalar paths
    // step from, or children pick up differently-encoded pcs and the
    // visited keys (hence the explored set) diverge.
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
    if (Cfg.BatchWidth >= 2) {
      // Batched full expansion (docs/BATCHING.md): queue the ready
      // children as pooled lanes and flush whole batches — one
      // transpose, one (optional) orbit canonicalization, one
      // fingerprint sweep, one visited call per full-width batch.
      // Sleep masks are all zero in BFS, so the mask probe degenerates
      // to exactly Enter()'s Fresh/Prune dedup.
      for (unsigned Ctx : Ready)
        Pending.push_back({static_cast<int>(Head), Ctx});
      if (Pending.size() >= Cfg.BatchWidth && !Flush(/*Final=*/false))
        return false;
      continue;
    }
    // Scalar expansion copies the head out once: Enter() appends to
    // Nodes and may reallocate it. The pooled path above never needs a
    // copy at all — lanes read Nodes[Head].S by index at flush time.
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
      if (Result.StatesExplored >= Cfg.MaxStates || Visited.overBudget())
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
  // The probe's fingerprint is the on-stack key stateFp would compute,
  // unless the table hashes with an injected function.
  const bool ProbeFpIsStateFp = Visited.hashFn() == &hashWords;

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
    // stateFp runs before the probe: it reuses the scratch the probe's
    // key bytes live in.
    uint64_t Fp = Ample && !ProbeFpIsStateFp ? stateFp(S) : 0;
    detail::StateProbe Probe = Visited.probe(M, S);
    if (Ample) {
      if (ProbeFpIsStateFp)
        Fp = Probe.Key.Fp;
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
      if (Result.StatesExplored >= Cfg.MaxStates || Visited.overBudget())
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

// The batched frontier engine (CheckerConfig::BatchWidth >= 2;
// docs/BATCHING.md). Structurally a dfs() whose per-choice work is
// regrouped: up to BatchWidth pending choices of the top frame are
// generated into one FrontierBatch (SoA transpose -> batched orbit
// canonicalization -> batched fingerprint -> one batched visited probe),
// then descended into one by one in choice order. The OnStack cycle
// proviso and the sleep protocol are the scalar DFS's; the canonical
// fingerprints the batch computed serve both the on-stack keys and the
// table probe, as the scalar undo-log engine's single probe does.
// Sub-batching — at most
// BatchWidth lanes per generation round — keeps a C2 upgrade's appended
// choices flowing through the same machinery and bounds per-frame
// memory; every generated lane is descended into before the next round,
// which is what keeps the Wake protocol's commitment (a Wake probe
// shrinks the stored mask, promising the woken transitions run).
bool Checker::dfsBatched(const State &Start, Counterexample &Cex) {
  struct BFrame {
    State S;
    std::vector<unsigned> Choices;
    size_t NextGen = 0; ///< next choice to generate
    size_t PathLen = 0;
    PorFrame Por;
    std::vector<uint8_t> Verdicts; ///< per-thread readiness cache
    detail::FrontierBatch Batch;
    unsigned NextLane = 0; ///< next generated lane to descend into
  };

  const bool Ample =
      Cfg.Por == PorMode::Ample && M.numThreads() <= detail::MaxSleepThreads;
  const unsigned Width = std::max(2u, Cfg.BatchWidth);
  const Canonicalizer *Cn = Canon && Canon->active() ? Canon.get() : nullptr;

  // Frames are pooled: Depth is the live stack height, frames above it
  // keep their buffers (state, choice list, batch lanes) for reuse. A
  // deque keeps frame references stable while a child is acquired
  // mid-descent.
  std::deque<BFrame> Stack;
  size_t Depth = 0;
  std::vector<TraceStep> Path;
  std::unordered_map<uint64_t, unsigned> OnStack; ///< fp -> frames (Ample)

  std::vector<unsigned> Ready;
  std::vector<TraceStep> Blocked;
  std::vector<uint8_t> Verdicts;
  std::vector<unsigned> GenCtx;
  std::vector<uint64_t> GenSleep;

  // Descends into live lane K of B (Path already carries its suffix):
  // memoized classification, terminal handling, choice planning, frame
  // push — the post-insert half of the scalar PushState.
  auto EnterLane = [&](detail::FrontierBatch &B, unsigned K,
                       const uint8_t *ParentV) -> bool {
    if (!B.classify(K, M, ParentV, Ready, Blocked, Verdicts, Path, Cex))
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
      return detail::checkEpilogue(M, B.state(K), Path, Cex);
    }
    if (Depth == Stack.size())
      Stack.emplace_back();
    BFrame &F = Stack[Depth];
    F.Por = PorFrame();
    F.Por.Fp = B.fp(K);
    bool IsWake = B.ins(K) == detail::InsertOutcome::Wake;
    F.Choices = planChoices(M, B.state(K), Ample, std::move(Ready),
                            B.sleep(K), IsWake, B.wake(K), F.Por, Result);
    if (F.Choices.empty())
      return true; // every transition here is covered elsewhere (sleep)
    std::swap(F.S, B.state(K)); // recycle the frame's old state buffer
    F.Verdicts = Verdicts;
    F.PathLen = Path.size();
    F.NextGen = 0;
    F.NextLane = 0;
    F.Batch.clear();
    if (Ample)
      ++OnStack[F.Por.Fp];
    ++Depth;
    return true;
  };

  detail::FrontierBatch Root;
  if (!Root.generateRoot(M, Cfg.Por, Start, Path, Cex))
    return false;
  Root.fingerprint(M, Cn, Visited.hashFn());
  Root.probeMask(M, Visited); // the table is empty: always Fresh
  ++Result.StatesExplored;
  if (Result.StatesExplored >= Cfg.MaxStates || Visited.overBudget())
    Result.Exhausted = true;
  Path.insert(Path.end(), Root.suffix(0).begin(), Root.suffix(0).end());
  if (!EnterLane(Root, 0, nullptr))
    return false;

  while (Depth > 0) {
    BFrame &Top = Stack[Depth - 1];
    if (Top.NextLane >= Top.Batch.size()) {
      if (Top.NextGen >= Top.Choices.size() || Result.Exhausted) {
        if (Ample) {
          auto It = OnStack.find(Top.Por.Fp);
          if (--It->second == 0)
            OnStack.erase(It);
        }
        --Depth;
        if (Depth > 0)
          Path.resize(Stack[Depth - 1].PathLen);
        continue;
      }
      // Generate the next sub-batch of pending choices.
      Path.resize(Top.PathLen);
      unsigned NGen = static_cast<unsigned>(
          std::min<size_t>(Width, Top.Choices.size() - Top.NextGen));
      GenCtx.clear();
      GenSleep.clear();
      for (unsigned I = 0; I < NGen; ++I) {
        unsigned Ctx = Top.Choices[Top.NextGen + I];
        uint64_t CS = 0;
        if (Ample) {
          CS = detail::sleepAfter(M, Top.S, Ctx, Top.S.pc(Ctx),
                                  Top.Por.Sleep | Top.Por.Branched);
          Top.Por.Branched |= 1ull << Ctx;
        }
        GenCtx.push_back(Ctx);
        GenSleep.push_back(CS);
      }
      Top.NextGen += NGen;
      if (!Top.Batch.generate(M, Cfg.Por, Top.S, GenCtx.data(),
                              GenSleep.data(), NGen, Path, Cex))
        return false;
      Top.Batch.fingerprint(M, Cn, Visited.hashFn());
      // The C2 upgrade check runs against the on-stack set before the
      // probe, like the scalar PushState (which checks before each
      // child's insert; inserts never touch OnStack and the intervening
      // subtrees net out of it, so checking the whole sub-batch first is
      // equivalent).
      if (Ample && Top.Por.Reduced)
        for (unsigned K = 0; K < NGen && Top.Por.Reduced; ++K)
          if (OnStack.count(Top.Batch.fp(K)))
            upgradeToFull(Top.Por, Top.Choices, Result);
      Top.Batch.probeMask(M, Visited);
      for (unsigned K = 0; K < NGen; ++K) {
        if (Top.Batch.ins(K) == detail::InsertOutcome::Fresh) {
          ++Result.StatesExplored;
          if (Result.StatesExplored >= Cfg.MaxStates || Visited.overBudget())
            Result.Exhausted = true;
        } else {
          ++Result.StatesDeduped; // Prune, or partially-covered Wake
        }
      }
      Top.NextLane = 0;
      continue;
    }
    if (Result.Exhausted) {
      // Abandon the remaining lanes (their inserts were already counted),
      // like the scalar engines abandon remaining choices.
      Top.NextLane = static_cast<unsigned>(Top.Batch.size());
      continue;
    }
    unsigned K = Top.NextLane++;
    if (Top.Batch.ins(K) == detail::InsertOutcome::Prune)
      continue; // a prior visit covers this lane
    Path.resize(Top.PathLen);
    Path.insert(Path.end(), Top.Batch.suffix(K).begin(),
                Top.Batch.suffix(K).end());
    if (!EnterLane(Top.Batch, K, Top.Verdicts.data()))
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
               : Cfg.BatchWidth >= 2         ? dfsBatched(S0, Cex)
               : Cfg.UseUndoLog              ? dfsUndo(S0, Cex)
                                             : dfs(S0, Cex);
  Result.FingerprintCollisions = Visited.collisions();
  Result.VisitedBytes = Visited.keyBytes();
  Result.BudgetAborted = Visited.overBudget();
  if (Spill) {
    // The filters are RAM the spill tier owns — count them with the
    // in-memory tier so VisitedBytes + SpillBytes is the true
    // end-to-end footprint (docs/SPILL.md).
    Result.VisitedBytes += Spill->filterBytes();
    Result.SpilledStates = Spill->spilledStates();
    Result.SpillBytes = Spill->spillBytes();
    Result.RunMerges = Spill->runMerges();
    Result.FilterFalseHits = Spill->filterFalseHits();
    Result.SpillFallback = !Spill->ok();
  }
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
    // Batching likewise re-shapes the search tree (eager sibling
    // insertion), so a batched trace is re-derived scalar as well.
    bool SymActive = Canon && Canon->active();
    if ((Cfg.Por == PorMode::Ample || SymActive || Cfg.BatchWidth >= 2) &&
        Cfg.DeterministicCex) {
      CheckerConfig ReCfg = Cfg;
      if (ReCfg.Por == PorMode::Ample)
        ReCfg.Por = PorMode::Local;
      ReCfg.Symmetry = SymmetryMode::Off;
      ReCfg.BatchWidth = 1;
      CheckResult Seq = detail::checkCandidateSequential(M, ReCfg, false);
      Result.StatesExplored += Seq.StatesExplored;
      Result.StatesDeduped += Seq.StatesDeduped;
      Result.FingerprintCollisions += Seq.FingerprintCollisions;
      Result.VisitedBytes += Seq.VisitedBytes;
      Result.SpilledStates += Seq.SpilledStates;
      Result.SpillBytes += Seq.SpillBytes;
      Result.RunMerges += Seq.RunMerges;
      Result.FilterFalseHits += Seq.FilterFalseHits;
      Result.BudgetAborted = Result.BudgetAborted || Seq.BudgetAborted;
      Result.SpillFallback = Result.SpillFallback || Seq.SpillFallback;
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

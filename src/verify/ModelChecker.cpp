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

#include <cassert>
#include <memory>
#include <thread>

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
  if (Cfg.Order == SearchOrder::Bfs)
    return 1;
  if (Cfg.NumThreads != 0)
    return Cfg.NumThreads;
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

namespace {

class Checker {
public:
  Checker(const Machine &M, const CheckerConfig &Cfg, unsigned Workers,
          bool UseFalsifier)
      : M(M), Cfg(Cfg), Workers(Workers), UseFalsifier(UseFalsifier),
        Canon(makeCanon(M, Cfg)), Visited(&hashWords, activeCanon()) {}

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

  const Canonicalizer *activeCanon() const {
    return Canon && Canon->active() ? Canon.get() : nullptr;
  }

  const Machine &M;
  const CheckerConfig &Cfg;
  unsigned Workers;
  bool UseFalsifier;
  CheckResult Result;
  std::unique_ptr<Canonicalizer> Canon; ///< before Visited: it aliases this
  detail::VisitedTable Visited;         ///< one worker's table

  /// Exhaustive DFS by the undo-log core (detail::UndoDfs), the engine
  /// every parallel worker runs too. \returns true if no violation is
  /// reachable (within the budget).
  bool dfsUndo(const State &Start, Counterexample &Cex);

  /// Exhaustive BFS with state dedup: finds shortest counterexamples.
  /// Keeps per-node copies (parent links need live states), so it shares
  /// no undo logic with dfsUndo; tests/test_oracle.cpp uses it as the
  /// DFS core's independent reference.
  bool bfs(const State &Start, Counterexample &Cex);
};

/// One worker alone: the state budget is checked per state, and there is
/// nobody to donate to.
struct SoloDriver {
  CheckResult &R;
  uint64_t MaxStates;

  template <class Core> bool onFrame(Core &) const { return !R.Exhausted; }
  void onExplored() {
    if (R.StatesExplored >= MaxStates)
      R.Exhausted = true;
  }
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
    // Ample reduction: expand a singleton ample set alone. It needs no
    // cycle proviso: the state graph is acyclic (docs/POR.md §3).
    if (Ample && Ready.size() >= 2) {
      int AI = detail::selectAmple(M, Nodes[Head].S, Ready);
      if (AI >= 0) {
        ++Result.AmpleStates;
        Ready = {Ready[AI]};
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

bool Checker::dfsUndo(const State &Start, Counterexample &Cex) {
  SoloDriver Drv{Result, Cfg.MaxStates};
  detail::UndoDfs<detail::VisitedTable, SoloDriver> Core(M, Cfg, Visited, Drv,
                                                          Result);
  return Core.search(Start, Cex);
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
  if (Workers >= 2) {
    Result.WorkersUsed = Workers;
    Result.PerWorkerStates.assign(Workers, 0);
  }

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

  // Phase 2: cheap random falsification: one stream seeded from
  // Cfg.Seed, on the calling thread at every worker count, so verdict
  // and counterexample never depend on the worker count.
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
  bool Clean;
  if (Workers >= 2) {
    Clean = detail::parallelDfs(M, Cfg, Workers, S0, activeCanon(), Result,
                                Cex);
  } else {
    Clean = Cfg.Order == SearchOrder::Bfs ? bfs(S0, Cex) : dfsUndo(S0, Cex);
    Result.VisitedBytes = Visited.keyBytes();
  }
  if (!Clean) {
    Result.Ok = false;
    Result.Cex = std::move(Cex);
    // Which violation a search reaches first depends on worker timing
    // when several workers search, on the reduced graph under Ample, and
    // on orbit merging under an active symmetry; re-derive the canonical
    // trace with one worker and both reductions relaxed, so every worker
    // count and mode reports the same counterexample (reproducibility
    // contract; docs/POR.md and docs/SYMMETRY.md). The falsifier phase
    // needs no re-run: single schedules are identical under Local and
    // Ample, and it ran before this search anyway.
    if (Cfg.DeterministicCex &&
        (Workers >= 2 || Cfg.Por == PorMode::Ample || activeCanon())) {
      CheckerConfig ReCfg = Cfg;
      if (ReCfg.Por == PorMode::Ample)
        ReCfg.Por = PorMode::Local;
      ReCfg.Symmetry = SymmetryMode::Off;
      CheckResult Seq = Checker(M, ReCfg, 1, false).run();
      Result.StatesExplored += Seq.StatesExplored;
      Result.StatesDeduped += Seq.StatesDeduped;
      Result.VisitedBytes += Seq.VisitedBytes;
      if (!Seq.Ok && Seq.Cex)
        Result.Cex = std::move(Seq.Cex);
      else
        // The Local search hit its budget before reaching any violation:
        // keep the first trace (still a real execution) and surface the
        // budget caveat.
        Result.Exhausted = Result.Exhausted || Seq.Exhausted;
    }
    return Result;
  }
  Result.Ok = true;
  return Result;
}

} // namespace

CheckResult psketch::verify::checkCandidate(const Machine &M,
                                            const CheckerConfig &Cfg) {
  CheckResult Res =
      Checker(M, Cfg, resolvedNumThreads(Cfg), Cfg.UseRandomFalsifier).run();
  // Analysis-tuning observability lives on the Machine; stamp it here so
  // every engine (sequential, parallel, re-derivation) reports it.
  Res.TightenedBits = M.tightenedBits();
  Res.LockIndepPairs = M.lockIndepPairs();
  Res.PackEscapes = M.packEscapes();
  Res.ShapeSites = M.shapeSites();
  Res.SiteIndepPairs = M.siteIndepPairs();
  return Res;
}

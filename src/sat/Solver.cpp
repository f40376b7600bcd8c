//===- sat/Solver.cpp - A CDCL SAT solver ----------------------------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace psketch;
using namespace psketch::sat;

Solver::Solver() = default;

Var Solver::newVar() {
  Var V = static_cast<Var>(Assigns.size());
  Assigns.push_back(LBool::Undef);
  Polarity.push_back(1); // default phase: false, as in MiniSat
  Activity.push_back(0.0);
  Level.push_back(0);
  Reason.push_back(CRefUndef);
  Seen.push_back(0);
  HeapIndex.push_back(-1);
  Watches.resize(Watches.size() + 2);
  heapInsert(V);
  return V;
}

//===----------------------------------------------------------------------===//
// Branching heap (binary max-heap keyed on Activity).
//===----------------------------------------------------------------------===//

void Solver::heapInsert(Var V) {
  assert(HeapIndex[V] < 0 && "variable already in heap");
  HeapIndex[V] = static_cast<int>(Heap.size());
  Heap.push_back(V);
  heapPercolateUp(HeapIndex[V]);
}

void Solver::heapPercolateUp(int Index) {
  Var V = Heap[Index];
  while (Index > 0) {
    int Parent = (Index - 1) / 2;
    if (Activity[Heap[Parent]] >= Activity[V])
      break;
    Heap[Index] = Heap[Parent];
    HeapIndex[Heap[Index]] = Index;
    Index = Parent;
  }
  Heap[Index] = V;
  HeapIndex[V] = Index;
}

void Solver::heapPercolateDown(int Index) {
  Var V = Heap[Index];
  int Size = static_cast<int>(Heap.size());
  for (;;) {
    int Child = 2 * Index + 1;
    if (Child >= Size)
      break;
    if (Child + 1 < Size && Activity[Heap[Child + 1]] > Activity[Heap[Child]])
      ++Child;
    if (Activity[Heap[Child]] <= Activity[V])
      break;
    Heap[Index] = Heap[Child];
    HeapIndex[Heap[Index]] = Index;
    Index = Child;
  }
  Heap[Index] = V;
  HeapIndex[V] = Index;
}

Var Solver::heapRemoveMax() {
  assert(!Heap.empty() && "removing from an empty heap");
  Var Top = Heap[0];
  HeapIndex[Top] = -1;
  Var Last = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    Heap[0] = Last;
    HeapIndex[Last] = 0;
    heapPercolateDown(0);
  }
  return Top;
}

void Solver::varBumpActivity(Var V) {
  Activity[V] += VarInc;
  if (Activity[V] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  if (heapContains(V))
    heapPercolateUp(HeapIndex[V]);
}

void Solver::claBumpActivity(Clause C) {
  C.setActivity(C.activity() + ClauseInc);
  if (C.activity() > 1e20) {
    for (CRef L : Learnts) {
      Clause Other = CA[L];
      Other.setActivity(Other.activity() * 1e-20);
    }
    ClauseInc *= 1e-20;
  }
}

//===----------------------------------------------------------------------===//
// Watch pool (docs/SOLVER.md §7).
//===----------------------------------------------------------------------===//

void Solver::WatchPool::grow(WatchList &L) {
  // The list keeps its order: its watchers are copied to the front of the
  // new slot. Which slot that is, and which one the old slot serves next,
  // moves memory only.
  unsigned Class = L.Class + 1;
  assert(Class < 28 && "watch list too long for its header");
  uint32_t Addr = allocSlot(Class);
  if (L.Class != 0) {
    std::copy_n(at(L.Addr), L.Size, at(Addr));
    freeSlot(L.Addr, L.Class);
  }
  L.Addr = Addr;
  L.Class = Class;
}

uint32_t Solver::WatchPool::addBlock(uint32_t Watchers) {
  // A page, or a slot larger than a page: one allocation, entered in the
  // page table once per page it spans. Left uninitialized; watchers are
  // written before they are read.
  assert(Pages.size() + Watchers / PageWatchers <=
             (size_t(1) << (32 - PageBits)) &&
         "watch pool address space exhausted");
  uint32_t Addr = static_cast<uint32_t>(Pages.size()) << PageBits;
  auto *Mem =
      static_cast<Watcher *>(::operator new(Watchers * sizeof(Watcher)));
  Blocks.emplace_back(Mem);
  Pages.push_back(Mem);
  for (uint32_t Off = PageWatchers; Off < Watchers; Off += PageWatchers) {
    Blocks.emplace_back(nullptr);
    Pages.push_back(Mem + Off);
  }
  Allocated += Watchers;
  return Addr;
}

uint32_t Solver::WatchPool::allocSlot(unsigned Class) {
  uint32_t Watchers = 1u << (Class - 1);
  if (Watchers > PageWatchers)
    return addBlock(Watchers);
  if (uint32_t Addr = FreeHead[Class]; Addr != NoSlot) {
    FreeHead[Class] = at(Addr)->RefBits;
    return Addr;
  }
  if (BumpEnd - Bump < Watchers) {
    // Hand the rest of the page to the free lists, then start a new one.
    while (Bump < BumpEnd) {
      unsigned Rest = std::bit_width(BumpEnd - Bump); // the largest that fits
      freeSlot(Bump, Rest);
      Bump += 1u << (Rest - 1);
    }
    Bump = addBlock(PageWatchers);
    BumpEnd = Bump + PageWatchers;
  }
  uint32_t Addr = Bump;
  Bump += Watchers;
  return Addr;
}

void Solver::WatchPool::freeSlot(uint32_t Addr, unsigned Class) {
  uint32_t Watchers = 1u << (Class - 1);
  if (Watchers > PageWatchers) {
    // A block of its own goes back to the allocator; its addresses are
    // not reused.
    size_t First = Addr >> PageBits;
    Blocks[First].reset();
    std::fill_n(Pages.begin() + First, Watchers / PageWatchers, nullptr);
    Allocated -= Watchers;
    return;
  }
  at(Addr)->RefBits = FreeHead[Class];
  FreeHead[Class] = Addr;
}

size_t Solver::memoryBytes() const {
  auto Bytes = [](const auto &V) { return V.capacity() * sizeof(V[0]); };
  return Pool.memoryBytes() + Bytes(Watches) + CA.capacityBytes() +
         Bytes(Problem) + Bytes(Learnts) + Bytes(Assigns) + Bytes(Polarity) +
         Bytes(Activity) + Bytes(Level) + Bytes(Reason) + Bytes(Trail) +
         Bytes(Seen) + Bytes(Heap) + Bytes(HeapIndex) + Bytes(Model);
}

//===----------------------------------------------------------------------===//
// Clause database.
//===----------------------------------------------------------------------===//

void Solver::attachClause(CRef R) {
  const Clause C = CA[R];
  assert(C.size() >= 2 && "attaching too-short clause");
  bool Binary = C.size() == 2;
  Pool.push(Watches[(~C[0]).index()], Watcher(R, C[1], Binary));
  Pool.push(Watches[(~C[1]).index()], Watcher(R, C[0], Binary));
}

void Solver::detachClause(CRef R) {
  const Clause C = CA[R];
  for (uint32_t Slot = 0; Slot < 2; ++Slot) {
    WatchList &Head = Watches[(~C[Slot]).index()];
    std::span<Watcher> List = Pool[Head];
    for (size_t I = 0; I < List.size(); ++I) {
      if (List[I].cref() != R)
        continue;
      List[I] = List.back();
      --Head.Size;
      break;
    }
  }
}

CRef Solver::storeProblemClause(const std::vector<Lit> &Lits) {
  CRef C = CA.alloc(Lits.data(), static_cast<uint32_t>(Lits.size()),
                    /*Learnt=*/false);
  Problem.push_back(C);
  ++NumProblemClauses;
  attachClause(C);
  return C;
}

void Solver::relocateIfWasteful() {
  if (CA.wasted() > CA.size() / 5)
    relocateAll();
}

void Solver::relocateAll() {
  // Compacts the arena. Only CRef values change: Problem, Learnts and
  // every watch list keep their order, so the search trajectory does not.
  // A reason can outlive its clause only at the root, where reasons are
  // never read; it is cleared here, before the clause's words are reused.
  ++Stats.Relocations;
  ClauseArena To;
  To.reserve(CA.size() - CA.wasted());
  for (CRef &C : Problem)
    C = CA.relocate(C, To);
  for (CRef &C : Learnts)
    C = CA.relocate(C, To);
  for (const WatchList &Head : Watches)
    for (Watcher &W : Pool[Head])
      W.setCRef(CA.forward(W.cref()));
  for (CRef &R : Reason)
    if (R != CRefUndef)
      R = CA.dead(R) ? CRefUndef : CA.forward(R);
  CA = std::move(To);
}

bool Solver::addClause(std::span<const Lit> Lits) {
  if (!WarmStart)
    cancelUntil(0);
  if (!Ok)
    return false;

  // Normalize: sort, deduplicate, detect tautologies, drop root-false
  // literals, and notice root-true literals. Under warm start the trail
  // may be live, so only root-level (level-0) assignments may simplify
  // the clause — higher-level assignments are search state, not facts.
  // At decision level 0 rootValue() and value() coincide, so the legacy
  // path is unchanged. The kept literals are compacted in place.
  std::vector<Lit> &Kept = AddScratch;
  Kept.assign(Lits.begin(), Lits.end());
  std::sort(Kept.begin(), Kept.end());
  size_t NumKept = 0;
  Lit Prev = litUndef();
  for (Lit L : Kept) {
    assert(L.var() < numVars() && "clause mentions unknown variable");
    if (rootValue(L) == LBool::True || L == ~Prev)
      return true; // clause is already satisfied / tautological
    if (rootValue(L) == LBool::False || L == Prev)
      continue; // literal can never help / duplicate
    Kept[NumKept++] = L;
    Prev = L;
  }
  Kept.resize(NumKept);

  if (Kept.empty()) {
    Ok = false;
    return false;
  }
  if (Kept.size() == 1)
    return addUnitClause(Kept[0]);
  if (decisionLevel() > 0)
    return attachWarm(Kept); // warm start with a live trail

  storeProblemClause(Kept);
  return true;
}

bool Solver::addUnitClause(Lit L) {
  // Units are root facts: they always live at decision level 0, where
  // the trail records them without a stored clause. Under warm start the
  // undone decisions are saved first so the next search can replay them.
  if (decisionLevel() > 0) {
    saveReplay();
    cancelUntil(0);
    if (value(L) == LBool::True)
      return true;
    if (value(L) == LBool::False) {
      Ok = false;
      return false;
    }
  }
  uncheckedEnqueue(L, CRefUndef);
  if (propagate() != CRefUndef)
    Ok = false;
  return Ok;
}

bool Solver::attachWarm(std::vector<Lit> &Kept) {
  // Adding a clause while the trail is live (docs/SOLVER.md). The watches
  // go on the two "best" literals — non-false ones first, then the
  // deepest false levels, so a future backtrack un-falsifies the watched
  // slots first — and the solver backtracks only as far as the clause
  // forces: not at all when two literals are non-false, an in-place
  // propagation when the clause is unit under the trail, and past the
  // deepest false level when it is falsified outright.
  auto WatchRank = [this](Lit L) {
    return value(L) == LBool::False ? Level[L.var()] : numVars() + 1;
  };
  auto PlaceWatches = [&]() {
    for (size_t Slot = 0; Slot < 2; ++Slot) {
      size_t Best = Slot;
      for (size_t I = Slot + 1; I < Kept.size(); ++I)
        if (WatchRank(Kept[I]) > WatchRank(Kept[Best]))
          Best = I;
      std::swap(Kept[Slot], Kept[Best]);
    }
  };

  PlaceWatches();
  if (value(Kept[0]) == LBool::False) {
    // Falsified under the current trail: undo to the deepest level where
    // the clause regains an unassigned literal. When the two deepest
    // false literals share a level, backtracking below it frees both.
    saveReplay();
    int Deepest = Level[Kept[0].var()];
    int Second = Level[Kept[1].var()];
    cancelUntil(std::max(Second == Deepest ? Deepest - 1 : Second, 0));
    PlaceWatches();
  }

  CRef C = storeProblemClause(Kept);
  if (value(Kept[0]) == LBool::Undef && value(Kept[1]) == LBool::False) {
    // Unit under the trail: propagate in place at the current level.
    uncheckedEnqueue(Kept[0], C);
    if (propagate() != CRefUndef) {
      // The forced literal conflicts with the trail. There is no search
      // frame to learn in, so fall back to the root; the next solve
      // rebuilds the useful prefix from the replay queue.
      saveReplay();
      cancelUntil(0);
      if (propagate() != CRefUndef)
        Ok = false;
    }
  }
  return Ok;
}

void Solver::saveReplay() {
  if (!WarmStart)
    return;
  ReplayQueue.clear();
  ReplayHead = 0;
  for (size_t Lvl = 0; Lvl < TrailLim.size(); ++Lvl) {
    size_t Begin = static_cast<size_t>(TrailLim[Lvl]);
    size_t End = Lvl + 1 < TrailLim.size()
                     ? static_cast<size_t>(TrailLim[Lvl + 1])
                     : Trail.size();
    if (Begin >= End)
      continue; // dummy level opened for an already-satisfied assumption
    Lit D = Trail[Begin];
    if (Reason[D.var()] == CRefUndef)
      ReplayQueue.push_back(D);
  }
}

void Solver::setWarmStart(bool Enabled) {
  if (!Enabled && WarmStart) {
    // Leave the solver exactly where a from-scratch solve would expect
    // it: at the root with no pending replay.
    cancelUntil(0);
    ReplayQueue.clear();
    ReplayHead = 0;
  }
  WarmStart = Enabled;
}

void Solver::uncheckedEnqueue(Lit L, CRef From) {
  assert(value(L) == LBool::Undef && "enqueueing assigned literal");
  Var V = L.var();
  Assigns[V] = boolToLBool(!L.sign());
  Level[V] = decisionLevel();
  Reason[V] = From;
  Trail.push_back(L);
  ++Stats.Propagations;
}

CRef Solver::propagate() {
  CRef Conflict = CRefUndef;
  while (PropagateHead < Trail.size()) {
    Lit P = Trail[PropagateHead++]; // P is now true
    Lit FalseLit = ~P;
    // Rewatching pushes onto other lists; the pool never moves this one.
    WatchList &Head = Watches[P.index()];
    std::span<Watcher> List = Pool[Head];
    Watcher *Read = List.data(), *Write = Read, *End = Read + List.size();
    while (Read != End) {
      Watcher W = *Read++;
      // Cheap out: if the cached blocker is true, the clause is satisfied.
      if (value(W.Blocker) == LBool::True) {
        *Write++ = W;
        continue;
      }

      if (W.binary()) {
        // The blocker is the partner literal, so the clause is unit or
        // conflicting without reading it. A conflict is written out as
        // [partner, ~P], the order conflict analysis reads it in.
        *Write++ = W;
        if (value(W.Blocker) == LBool::False) {
          Clause C = CA[W.cref()];
          C.set(0, W.Blocker);
          C.set(1, FalseLit);
          Conflict = W.cref();
          PropagateHead = Trail.size();
          while (Read != End)
            *Write++ = *Read++;
        } else {
          uncheckedEnqueue(W.Blocker, W.cref());
        }
        continue;
      }

      Clause C = CA[W.cref()];
      if (C[0] == FalseLit)
        C.swap(0, 1);
      assert(C[1] == FalseLit && "watch invariant broken");

      Lit First = C[0];
      if (First != W.Blocker && value(First) == LBool::True) {
        *Write++ = Watcher(W.cref(), First, false);
        continue;
      }

      // Look for a replacement watch.
      bool Rewatched = false;
      for (uint32_t K = 2, N = C.size(); K < N; ++K) {
        if (value(C[K]) == LBool::False)
          continue;
        C.swap(1, K);
        Pool.push(Watches[(~C[1]).index()], Watcher(W.cref(), First, false));
        Rewatched = true;
        break;
      }
      if (Rewatched)
        continue;

      // Clause is unit or conflicting under the current assignment.
      *Write++ = Watcher(W.cref(), First, false);
      if (value(First) == LBool::False) {
        Conflict = W.cref();
        PropagateHead = Trail.size();
        while (Read != End)
          *Write++ = *Read++;
      } else {
        uncheckedEnqueue(First, W.cref());
      }
    }
    Head.Size = static_cast<uint32_t>(Write - List.data());
  }
  return Conflict;
}

//===----------------------------------------------------------------------===//
// Conflict analysis (first UIP with recursive clause minimization).
//===----------------------------------------------------------------------===//

// A reason clause contains its implied literal once, and the walks below
// skip it by variable: a long reason holds it in slot 0, but propagation
// never rewrites a binary reason, which may hold it in either slot.

static uint32_t abstractLevel(int Level) {
  return 1u << (Level & 31);
}

bool Solver::litRedundant(Lit P, uint32_t AbstractLevels) {
  AnalyzeStack.clear();
  AnalyzeStack.push_back(P);
  size_t Checkpoint = AnalyzeToClear.size();
  while (!AnalyzeStack.empty()) {
    Lit X = AnalyzeStack.back();
    AnalyzeStack.pop_back();
    assert(Reason[X.var()] != CRefUndef &&
           "redundancy check hit a decision literal");
    const Clause C = CA[Reason[X.var()]];
    for (uint32_t I = 0, N = C.size(); I < N; ++I) {
      Lit Q = C[I];
      if (Q.var() == X.var() || Seen[Q.var()] || Level[Q.var()] == 0)
        continue;
      if (Reason[Q.var()] != CRefUndef &&
          (abstractLevel(Level[Q.var()]) & AbstractLevels) != 0) {
        Seen[Q.var()] = 1;
        AnalyzeStack.push_back(Q);
        AnalyzeToClear.push_back(Q);
        continue;
      }
      // Not redundant: undo the speculative marks.
      for (size_t J = Checkpoint; J < AnalyzeToClear.size(); ++J)
        Seen[AnalyzeToClear[J].var()] = 0;
      AnalyzeToClear.resize(Checkpoint);
      return false;
    }
  }
  return true;
}

void Solver::analyze(CRef Conflict, std::vector<Lit> &Learnt,
                     int &BacktrackLevel, uint32_t &LBD) {
  Learnt.clear();
  Learnt.push_back(litUndef()); // slot for the asserting literal
  AnalyzeToClear.clear();

  int Pending = 0;
  Lit P = litUndef();
  int TrailIndex = static_cast<int>(Trail.size()) - 1;

  do {
    assert(Conflict != CRefUndef && "no reason clause during analysis");
    Clause C = CA[Conflict];
    if (C.learnt())
      claBumpActivity(C);
    for (uint32_t I = 0, N = C.size(); I < N; ++I) {
      Lit Q = C[I];
      Var V = Q.var();
      if (V == P.var() || Seen[V] || Level[V] == 0)
        continue;
      varBumpActivity(V);
      Seen[V] = 1;
      AnalyzeToClear.push_back(Q);
      if (Level[V] >= decisionLevel())
        ++Pending;
      else
        Learnt.push_back(Q);
    }
    // Walk back to the next marked literal on the trail.
    while (!Seen[Trail[TrailIndex--].var()])
      ;
    P = Trail[TrailIndex + 1];
    Conflict = Reason[P.var()];
    Seen[P.var()] = 0;
    --Pending;
  } while (Pending > 0);
  Learnt[0] = ~P;

  // Minimize: drop literals implied by the remainder of the clause.
  uint32_t AbstractLevels = 0;
  for (size_t I = 1; I < Learnt.size(); ++I)
    AbstractLevels |= abstractLevel(Level[Learnt[I].var()]);
  size_t Write = 1;
  for (size_t I = 1; I < Learnt.size(); ++I) {
    if (Reason[Learnt[I].var()] == CRefUndef ||
        !litRedundant(Learnt[I], AbstractLevels))
      Learnt[Write++] = Learnt[I];
  }
  Learnt.resize(Write);

  // Compute the backtrack level and move its literal to slot 1.
  if (Learnt.size() == 1) {
    BacktrackLevel = 0;
  } else {
    size_t MaxIndex = 1;
    for (size_t I = 2; I < Learnt.size(); ++I)
      if (Level[Learnt[I].var()] > Level[Learnt[MaxIndex].var()])
        MaxIndex = I;
    std::swap(Learnt[1], Learnt[MaxIndex]);
    BacktrackLevel = Level[Learnt[1].var()];
  }

  // Literal-block distance: the number of distinct decision levels.
  std::vector<int> Levels;
  Levels.reserve(Learnt.size());
  for (Lit L : Learnt)
    Levels.push_back(Level[L.var()]);
  std::sort(Levels.begin(), Levels.end());
  LBD = static_cast<uint32_t>(
      std::unique(Levels.begin(), Levels.end()) - Levels.begin());

  for (Lit L : AnalyzeToClear)
    Seen[L.var()] = 0;
  AnalyzeToClear.clear();
}

void Solver::cancelUntil(int TargetLevel) {
  if (decisionLevel() <= TargetLevel)
    return;
  for (int I = static_cast<int>(Trail.size()) - 1; I >= TrailLim[TargetLevel];
       --I) {
    Var V = Trail[I].var();
    Assigns[V] = LBool::Undef;
    Polarity[V] = static_cast<char>(Trail[I].sign());
    Reason[V] = CRefUndef;
    if (!heapContains(V))
      heapInsert(V);
  }
  PropagateHead = static_cast<size_t>(TrailLim[TargetLevel]);
  Trail.resize(static_cast<size_t>(TrailLim[TargetLevel]));
  TrailLim.resize(static_cast<size_t>(TargetLevel));
}

Lit Solver::pickBranchLit() {
  while (!Heap.empty()) {
    Var V = heapRemoveMax();
    if (value(V) == LBool::Undef)
      return Lit(V, Polarity[V] != 0);
  }
  return litUndef();
}

void Solver::reduceDB() {
  // Delete-first ordering: high LBD, then low activity.
  std::sort(Learnts.begin(), Learnts.end(), [this](CRef A, CRef B) {
    const Clause X = CA[A], Y = CA[B];
    if (X.lbd() != Y.lbd())
      return X.lbd() > Y.lbd();
    return X.activity() < Y.activity();
  });
  auto IsLocked = [this](CRef R) {
    Lit First = CA[R][0];
    return Reason[First.var()] == R && value(First) == LBool::True;
  };
  size_t Target = Learnts.size() / 2;
  size_t Write = 0;
  for (size_t I = 0; I < Learnts.size(); ++I) {
    CRef R = Learnts[I];
    const Clause C = CA[R];
    bool Deletable = I < Target && C.size() > 2 && C.lbd() > 2 && !IsLocked(R);
    if (Deletable) {
      detachClause(R);
      CA.free(R);
      ++Stats.DeletedClauses;
      continue;
    }
    Learnts[Write++] = R;
  }
  Learnts.resize(Write);
  relocateIfWasteful();
}

void Solver::removeSatisfiedLearnts() {
  assert(decisionLevel() == 0 && "root-level simplification only");
  // Root-level assignments never need their reasons again; clearing them
  // here keeps the clause database free to delete any satisfied clause.
  for (Lit L : Trail)
    Reason[L.var()] = CRefUndef;
  auto IsSatisfied = [this](CRef R) {
    const Clause C = CA[R];
    for (uint32_t I = 0, N = C.size(); I < N; ++I)
      if (value(C[I]) == LBool::True)
        return true;
    return false;
  };
  size_t Write = 0;
  for (CRef R : Learnts) {
    if (IsSatisfied(R)) {
      detachClause(R);
      CA.free(R);
      ++Stats.DeletedClauses;
      continue;
    }
    Learnts[Write++] = R;
  }
  Learnts.resize(Write);
  relocateIfWasteful();
}

//===----------------------------------------------------------------------===//
// Inprocessing (warm start): root-level simplification between solves.
//===----------------------------------------------------------------------===//

bool Solver::reinstallRoot(CRef R, bool IsProblem) {
  // Re-admit a currently-detached clause under the live root assignment:
  // delete it when satisfied, strip false literals, promote a survivor
  // of one literal to a root fact. \returns true iff the clause was
  // re-attached (the caller keeps it in its database).
  assert(decisionLevel() == 0 && "root-level reinstall only");
  auto Drop = [&]() {
    if (IsProblem)
      --NumProblemClauses;
    else
      ++Stats.DeletedClauses;
    CA.free(R);
    return false;
  };
  Clause C = CA[R];
  uint32_t Size = C.size();
  for (uint32_t I = 0; I < Size; ++I)
    if (value(C[I]) == LBool::True) {
      ++IStats.RemovedSatisfied;
      return Drop();
    }
  uint32_t Kept = 0;
  for (uint32_t I = 0; I < Size; ++I)
    if (value(C[I]) != LBool::False)
      C.set(Kept++, C[I]);
  CA.shrink(R, Kept);
  if (Kept == 0) {
    Ok = false;
    return Drop();
  }
  if (Kept == 1) {
    uncheckedEnqueue(C[0], CRefUndef);
    if (propagate() != CRefUndef)
      Ok = false;
    return Drop();
  }
  attachClause(R);
  return true;
}

void Solver::sweepSatisfied() {
  // The warm-start replacement for the per-solve removeSatisfiedLearnts:
  // also sweeps satisfied *problem* clauses, which appear when a closed
  // constraint scope's activation literal is forced false (melted).
  auto SweepAll = [this](std::vector<CRef> &Db, bool IsProblem) {
    size_t Write = 0;
    for (size_t I = 0; I < Db.size(); ++I) {
      CRef R = Db[I];
      if (!Ok) { // root conflict: stop simplifying, keep the rest as-is
        Db[Write++] = R;
        continue;
      }
      const Clause C = CA[R];
      bool Touched = false;
      for (uint32_t K = 0, N = C.size(); K < N; ++K)
        if (value(C[K]) != LBool::Undef) {
          Touched = true;
          break;
        }
      if (!Touched) {
        Db[Write++] = R;
        continue;
      }
      detachClause(R);
      if (reinstallRoot(R, IsProblem))
        Db[Write++] = R;
    }
    Db.resize(Write);
  };
  SweepAll(Learnts, /*IsProblem=*/false);
  SweepAll(Problem, /*IsProblem=*/true);
}

void Solver::strengthenSelfSubsume() {
  // Binary self-subsumption: a binary (¬l ∨ m) with m ∈ C resolves l out
  // of C; a binary (l ∨ m) with l, m ∈ C subsumes C outright. Marks use
  // the Seen scratch per variable: 1 = positive literal in C, 2 =
  // negative.
  //
  // The binary partners of every literal, in clause order, as one flat
  // table: literal L's partners are Partners[Start[L], Start[L + 1]).
  std::vector<uint32_t> Start(Watches.size() + 1, 0);
  auto ForEachBinary = [this](auto Visit) {
    for (const std::vector<CRef> *Db : {&Problem, &Learnts})
      for (CRef R : *Db) {
        const Clause C = CA[R];
        if (C.size() == 2)
          Visit(C[0], C[1]);
      }
  };
  ForEachBinary([&](Lit A, Lit B) {
    ++Start[A.index() + 1];
    ++Start[B.index() + 1];
  });
  for (size_t I = 1; I < Start.size(); ++I)
    Start[I] += Start[I - 1];
  std::vector<Lit> Partners(Start.back());
  {
    std::vector<uint32_t> Fill(Start.begin(), Start.end() - 1);
    ForEachBinary([&](Lit A, Lit B) {
      Partners[Fill[A.index()]++] = B;
      Partners[Fill[B.index()]++] = A;
    });
  }
  auto PartnersOf = [&](Lit L) {
    return std::span<const Lit>(Partners.data() + Start[L.index()],
                                Partners.data() + Start[L.index() + 1]);
  };

  auto Marked = [this](Lit L) {
    return Seen[L.var()] == (L.sign() ? 2 : 1);
  };
  // Partner scans are budgeted: hub literals (hole bits) can have long
  // binary lists, and this pass must stay cheap relative to the solves
  // it amortizes over.
  uint64_t ScanBudget = 2u << 20;
  std::vector<Lit> &Removable = ClauseScratch;

  auto Process = [&](std::vector<CRef> &Db, bool IsProblem) {
    size_t Write = 0;
    for (size_t I = 0; I < Db.size(); ++I) {
      CRef R = Db[I];
      Clause C = CA[R];
      uint32_t Size = C.size();
      if (!Ok || ScanBudget == 0 || Size == 2) {
        Db[Write++] = R;
        continue;
      }
      for (uint32_t K = 0; K < Size; ++K)
        Seen[C[K].var()] = C[K].sign() ? 2 : 1;

      bool Subsumed = false;
      Removable.clear();
      for (uint32_t K = 0; K < Size; ++K) {
        Lit L = C[K];
        for (Lit M : PartnersOf(L)) {
          if (ScanBudget > 0)
            --ScanBudget;
          if (Marked(M) && M != L) {
            Subsumed = true; // binary (L ∨ M) ⊆ C
            break;
          }
        }
        if (Subsumed)
          break;
        for (Lit M : PartnersOf(~L)) {
          if (ScanBudget > 0)
            --ScanBudget;
          if (Marked(M) && M.var() != L.var()) {
            Removable.push_back(L); // resolve C with (¬L ∨ M) on L
            break;
          }
        }
      }
      for (uint32_t K = 0; K < Size; ++K)
        Seen[C[K].var()] = 0;

      if (Subsumed) {
        ++IStats.SubsumedClauses;
        detachClause(R);
        if (IsProblem)
          --NumProblemClauses;
        else
          ++Stats.DeletedClauses;
        CA.free(R);
        continue;
      }
      if (Removable.empty() ||
          Size - Removable.size() < 2) { // keep at least a binary
        Db[Write++] = R;
        continue;
      }
      IStats.StrengthenedLits += Removable.size();
      detachClause(R);
      uint32_t Kept = 0;
      for (uint32_t K = 0; K < Size; ++K)
        if (std::find(Removable.begin(), Removable.end(), C[K]) ==
            Removable.end())
          C.set(Kept++, C[K]);
      CA.shrink(R, Kept);
      if (reinstallRoot(R, IsProblem))
        Db[Write++] = R;
    }
    Db.resize(Write);
  };
  Process(Learnts, /*IsProblem=*/false);
  Process(Problem, /*IsProblem=*/true);
}

bool Solver::vivifyOne(CRef R) {
  // Distillation: assume the negation of the clause literal by literal.
  // A conflict proves the assumed prefix is itself a clause; a literal
  // found true completes a shorter clause; a literal found false is
  // redundant. The clause is detached throughout so it cannot satisfy
  // itself via its own watches.
  assert(decisionLevel() == 0 && "root-level vivification only");
  detachClause(R);
  Clause C = CA[R];
  uint32_t Size = C.size();
  std::vector<Lit> &Prefix = ClauseScratch;
  Prefix.clear();
  for (uint32_t I = 0; I < Size; ++I) {
    Lit L = C[I];
    if (value(L) == LBool::True) {
      Prefix.push_back(L); // ¬prefix forces L: C shrinks to prefix + L
      break;
    }
    if (value(L) == LBool::False)
      continue; // ¬prefix refutes L: redundant
    if (I + 1 == Size) {
      Prefix.push_back(L); // last literal: nothing left to learn
      break;
    }
    TrailLim.push_back(static_cast<int>(Trail.size()));
    uncheckedEnqueue(~L, CRefUndef);
    Prefix.push_back(L);
    if (propagate() != CRefUndef)
      break; // ¬prefix is contradictory: prefix is a clause
  }
  cancelUntil(0);

  if (Prefix.size() >= Size) {
    attachClause(R);
    return true;
  }
  uint32_t NewSize = static_cast<uint32_t>(Prefix.size());
  IStats.VivifiedLits += Size - NewSize;
  for (uint32_t I = 0; I < NewSize; ++I)
    C.set(I, Prefix[I]);
  CA.shrink(R, NewSize);
  C.setLbd(std::min(C.lbd(), NewSize));
  return reinstallRoot(R, /*IsProblem=*/false);
}

void Solver::vivify() {
  // Budgeted: vivification pays a propagation cone per literal, so cap
  // the pass by propagations and focus on the clauses reduceDB would
  // keep anyway (small, low-LBD).
  const uint64_t PropagationBudget = 200000;
  uint64_t Start = Stats.Propagations;
  size_t Write = 0;
  for (size_t I = 0; I < Learnts.size(); ++I) {
    CRef R = Learnts[I];
    const Clause C = CA[R];
    bool Keep = true;
    if (Ok && Stats.Propagations - Start < PropagationBudget &&
        C.size() >= 3 && C.size() <= 16 && C.lbd() <= 6)
      Keep = vivifyOne(R);
    if (Keep)
      Learnts[Write++] = R;
  }
  Learnts.resize(Write);
}

void Solver::inprocess() {
  assert(decisionLevel() == 0 && "inprocessing is a root-level pass");
  if (!Ok)
    return;
  ++IStats.Passes;
  // Root assignments never need their reasons again; clearing them frees
  // every clause for deletion or rewriting.
  for (Lit L : Trail)
    Reason[L.var()] = CRefUndef;
  sweepSatisfied();
  if (Ok)
    strengthenSelfSubsume();
  if (Ok)
    vivify();
  // Learnt-DB policy tuned for incremental use: decay the budget so the
  // database tracks the live instance instead of ratcheting up forever.
  // (reduceDB keeps glue clauses — LBD <= 2 or binary — unconditionally.)
  MaxLearnts = std::max(static_cast<double>(NumProblemClauses) / 3.0 + 2000,
                        MaxLearnts * 0.95);
  relocateIfWasteful();
}

void Solver::exportClauses(std::vector<std::vector<Lit>> &Out) const {
  // A root-inconsistent instance may have dropped the offending clause
  // (a clause normalized to nothing is never stored): export the empty
  // clause so the snapshot is unsatisfiable like the live solver.
  if (!Ok) {
    Out.push_back({});
    return;
  }
  // Root facts first — addClause never stores unit clauses, it enqueues
  // them — then the problem clauses as currently stored (normalized
  // against those same root facts). Learnts are implied and omitted.
  size_t RootEnd =
      TrailLim.empty() ? Trail.size() : static_cast<size_t>(TrailLim[0]);
  for (size_t I = 0; I < RootEnd; ++I)
    Out.push_back({Trail[I]});
  for (CRef R : Problem) {
    const Clause C = CA[R];
    std::vector<Lit> &Lits = Out.emplace_back();
    Lits.reserve(C.size());
    for (uint32_t I = 0, N = C.size(); I < N; ++I)
      Lits.push_back(C[I]);
  }
}

//===----------------------------------------------------------------------===//
// Search.
//===----------------------------------------------------------------------===//

uint64_t psketch::sat::lubySequence(uint64_t Index) {
  // Find the finite subsequence containing Index and its position in it.
  uint64_t Size = 1, Seq = 0;
  while (Size < Index + 1) {
    ++Seq;
    Size = 2 * Size + 1;
  }
  while (Size - 1 != Index) {
    Size = (Size - 1) >> 1;
    --Seq;
    Index = Index % Size;
  }
  return 1ull << Seq;
}

bool Solver::search(uint64_t ConflictsBeforeRestart, bool &DoneOut) {
  DoneOut = true;
  uint64_t LocalConflicts = 0;
  std::vector<Lit> Learnt;

  for (;;) {
    CRef Conflict = propagate();
    if (Conflict != CRefUndef) {
      ++Stats.Conflicts;
      ++LocalConflicts;
      if (decisionLevel() == 0) {
        Ok = false;
        return false;
      }

      int BacktrackLevel = 0;
      uint32_t LBD = 0;
      analyze(Conflict, Learnt, BacktrackLevel, LBD);
      cancelUntil(BacktrackLevel);
      // A conflict means the saved trail has diverged for real; stop
      // replaying it and let phase saving carry the rest.
      abandonReplay();

      if (Learnt.size() == 1) {
        uncheckedEnqueue(Learnt[0], CRefUndef);
      } else {
        CRef C = CA.alloc(Learnt.data(), static_cast<uint32_t>(Learnt.size()),
                          /*Learnt=*/true);
        CA[C].setLbd(LBD);
        Learnts.push_back(C);
        attachClause(C);
        claBumpActivity(CA[C]);
        uncheckedEnqueue(Learnt[0], C);
      }
      Stats.LearntLiterals += Learnt.size();
      varDecayActivity();
      claDecayActivity();

      if (ConflictBudget != 0 &&
          Stats.Conflicts - SolveStartConflicts >= ConflictBudget) {
        BudgetExhausted = true;
        cancelUntil(0);
        return false;
      }
      continue;
    }

    // No conflict.
    if (LocalConflicts >= ConflictsBeforeRestart) {
      ++Stats.Restarts;
      cancelUntil(0);
      abandonReplay();
      DoneOut = false;
      return false;
    }
    if (static_cast<double>(Learnts.size()) >= MaxLearnts) {
      reduceDB();
      MaxLearnts *= 1.1;
    }

    // Respect assumptions, then branch.
    Lit Next = litUndef();
    while (decisionLevel() < static_cast<int>(CurrentAssumptions.size())) {
      Lit Assumption = CurrentAssumptions[decisionLevel()];
      if (value(Assumption) == LBool::True) {
        // Already satisfied: open a dummy decision level to keep the
        // level/assumption correspondence.
        TrailLim.push_back(static_cast<int>(Trail.size()));
        continue;
      }
      if (value(Assumption) == LBool::False)
        return false; // unsatisfiable under the assumptions
      Next = Assumption;
      break;
    }

    if (Next == litUndef()) {
      // Warm-start trail replay: re-apply the decisions undone by a
      // forced backtrack, skipping any that propagation re-derived. The
      // first literal the trail now contradicts abandons the queue — from
      // there the searches have genuinely diverged.
      while (ReplayHead < ReplayQueue.size()) {
        Lit Saved = ReplayQueue[ReplayHead];
        if (value(Saved) == LBool::True) {
          ++ReplayHead;
          continue;
        }
        if (value(Saved) == LBool::False) {
          abandonReplay();
          break;
        }
        ++ReplayHead;
        Next = Saved;
        ++Stats.Decisions;
        break;
      }
    }

    if (Next == litUndef()) {
      Next = pickBranchLit();
      if (Next == litUndef()) {
        Model = Assigns; // full model found
        return true;
      }
      ++Stats.Decisions;
    }
    TrailLim.push_back(static_cast<int>(Trail.size()));
    uncheckedEnqueue(Next, CRefUndef);
  }
}

bool Solver::solve() { return solve(std::vector<Lit>()); }

bool Solver::solve(const std::vector<Lit> &Assumptions) {
  Model.clear();
  BudgetExhausted = false;
  if (!Ok)
    return false;

  if (!WarmStart) {
    cancelUntil(0);
    if (propagate() != CRefUndef) {
      Ok = false;
      return false;
    }
    removeSatisfiedLearnts();
  } else {
    // Warm start: resume with the trail left by the previous solve and
    // the clause additions since. Assumption solves need the assumptions
    // installed at decision levels 1..k, so they restart from the root
    // (saving the trail for replay); plain solves continue in place.
    if (!Assumptions.empty() && decisionLevel() > 0) {
      saveReplay();
      cancelUntil(0);
    }
    if (decisionLevel() == 0) {
      if (propagate() != CRefUndef) {
        Ok = false;
        return false;
      }
      if (InprocessCadence != 0 &&
          ++SolvesSinceInprocess >= InprocessCadence) {
        SolvesSinceInprocess = 0;
        inprocess();
        if (!Ok)
          return false;
      }
    }
  }

  CurrentAssumptions = Assumptions;
  SolveStartConflicts = Stats.Conflicts;
  MaxLearnts =
      std::max(MaxLearnts, static_cast<double>(NumProblemClauses) / 3.0 + 2000);

  bool Result = false;
  bool Done = false;
  uint64_t Round = WarmStart ? RestartRound : 0;
  for (; !Done; ++Round) {
    uint64_t Budget = 100 * lubySequence(Round);
    Result = search(Budget, Done);
    if (BudgetExhausted)
      break;
  }
  if (WarmStart)
    RestartRound = Round;

  // A satisfiable plain warm-start solve keeps its trail (the model) so
  // the next iteration resumes from the shared prefix; every other exit
  // returns to the root.
  if (!WarmStart || !Result || !Assumptions.empty() || BudgetExhausted)
    cancelUntil(0);
  CurrentAssumptions.clear();
  ReplayQueue.clear();
  ReplayHead = 0;
  return Result;
}

LBool Solver::modelValue(Var V) const {
  if (V < 0 || static_cast<size_t>(V) >= Model.size())
    return LBool::Undef;
  return Model[V];
}

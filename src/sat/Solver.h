//===- sat/Solver.h - A CDCL SAT solver -------------------------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver in the MiniSat lineage:
/// two-literal watches, first-UIP learning with clause minimization, EVSIDS
/// branching with phase saving, Luby restarts, and LBD-based learnt-clause
/// database reduction. Clauses live in one flat arena, every watch list in
/// one pool of pages that never move, and binary clauses propagate from
/// their watchers alone (docs/SOLVER.md §7). The inductive
/// synthesizer (Section 6 of the paper) uses it incrementally: each
/// counterexample trace contributes clauses, and the accumulated instance
/// is re-solved to propose the next candidate.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_SAT_SOLVER_H
#define PSKETCH_SAT_SOLVER_H

#include "sat/SatTypes.h"

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <vector>

namespace psketch {
namespace sat {

/// Aggregate solver statistics, reported by the benchmark harness.
struct SolverStats {
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Conflicts = 0;
  uint64_t Restarts = 0;
  uint64_t LearntLiterals = 0;
  uint64_t DeletedClauses = 0;
  uint64_t Relocations = 0; ///< clause-arena compactions

  bool operator==(const SolverStats &) const = default;
};

/// Work done by the between-solve inprocessing passes (warm start only).
struct InprocessStats {
  uint64_t Passes = 0;
  uint64_t RemovedSatisfied = 0; ///< root-satisfied clauses swept
  uint64_t StrengthenedLits = 0; ///< removed by binary self-subsumption
  uint64_t SubsumedClauses = 0;  ///< deleted: a binary subsumes them
  uint64_t VivifiedLits = 0;     ///< removed by clause vivification
};

/// A CDCL SAT solver with incremental clause addition and assumption-based
/// solving.
///
/// Usage:
/// \code
///   Solver S;
///   Var A = S.newVar(), B = S.newVar();
///   S.addClause({Lit(A, false), Lit(B, true)});
///   if (S.solve())
///     bool AVal = S.modelValue(A) == LBool::True;
/// \endcode
class Solver {
public:
  Solver();

  Solver(const Solver &) = delete;
  Solver &operator=(const Solver &) = delete;

  /// Creates a fresh variable and \returns it.
  Var newVar();

  /// \returns the number of variables allocated so far.
  int numVars() const { return static_cast<int>(Assigns.size()); }

  /// \returns the number of problem (non-learnt) clauses.
  size_t numClauses() const { return NumProblemClauses; }

  /// \returns the number of currently live learnt clauses.
  size_t numLearnts() const { return Learnts.size(); }

  /// Adds a clause over existing variables. \returns false if the solver
  /// is already in an unsatisfiable state (the clause may be dropped).
  /// Duplicated literals are merged; tautologies are ignored. The literals
  /// are normalized in reused scratch space, so adding a clause does not
  /// allocate beyond the growth of the clause arena and watch lists.
  bool addClause(std::span<const Lit> Lits);

  /// Convenience overloads for literal lists and short clauses.
  bool addClause(std::initializer_list<Lit> Lits) {
    return addClause(std::span<const Lit>(Lits.begin(), Lits.size()));
  }
  bool addClause(Lit A) { return addClause(std::span<const Lit>(&A, 1)); }
  bool addClause(Lit A, Lit B) { return addClause({A, B}); }
  bool addClause(Lit A, Lit B, Lit C) { return addClause({A, B, C}); }

  /// Solves the current instance. \returns true iff satisfiable.
  bool solve();

  /// Solves under \p Assumptions (literals forced true for this call only).
  bool solve(const std::vector<Lit> &Assumptions);

  /// \returns the model value of \p V after a satisfiable solve().
  LBool modelValue(Var V) const;

  /// \returns the model value of \p L after a satisfiable solve().
  LBool modelValue(Lit L) const {
    return xorLBool(modelValue(L.var()), L.sign());
  }

  /// \returns false once the instance has been proven unsatisfiable at
  /// level zero (no future solve can succeed without new variables).
  bool okay() const { return Ok; }

  /// \returns cumulative statistics.
  const SolverStats &stats() const { return Stats; }

  /// Sets the conflict budget for the next solve (0 = unlimited). When the
  /// budget is exhausted solve() returns false and budgetExhausted() is
  /// true; callers must treat that as "unknown".
  void setConflictBudget(uint64_t Conflicts) { ConflictBudget = Conflicts; }

  /// \returns true if the previous solve stopped on the conflict budget
  /// rather than on a real SAT/UNSAT answer.
  bool budgetExhausted() const { return BudgetExhausted; }

  /// Enables warm-started incremental solving: consecutive solve() calls
  /// continue one search instead of restarting it. Clauses added between
  /// solves backtrack only as far as they force (saving the undone
  /// decisions for replay), the assignment trail survives a satisfiable
  /// plain solve, the Luby restart index persists across solves, and a
  /// periodic root-level inprocessing pass replaces the per-solve learnt
  /// sweep. Off (the default) reproduces the from-scratch trajectory
  /// bit-identically.
  void setWarmStart(bool Enabled);
  bool warmStart() const { return WarmStart; }

  /// Sets how many warm-started solves run between inprocessing passes
  /// (0 disables inprocessing entirely). Only consulted under warm start.
  void setInprocessCadence(unsigned SolvesBetweenPasses) {
    InprocessCadence = SolvesBetweenPasses;
  }

  /// Runs one root-level inprocessing pass now: sweep root-satisfied
  /// clauses, strengthen by binary self-subsumption, vivify learnt
  /// clauses, and decay the learnt-DB budget. Requires decision level 0
  /// (always true with warm start off; under warm start the solver calls
  /// this on its own cadence at root visits).
  void inprocess();

  /// \returns cumulative inprocessing statistics.
  const InprocessStats &inprocessStats() const { return IStats; }

  /// Appends the live instance to \p Out: the root-level facts as unit
  /// clauses (addClause never stores units, it enqueues them) followed by
  /// every problem clause as currently stored. Learnt clauses are implied
  /// and omitted. The result is equisatisfiable with everything added so
  /// far and has the same models over the allocated variables.
  void exportClauses(std::vector<std::vector<Lit>> &Out) const;

  /// \returns the bytes of storage the solver holds, as allocated
  /// capacity: the watch pool and list headers, the clause arena and
  /// clause lists, and the per-variable arrays. It follows from the
  /// sequence of calls alone, so it is deterministic.
  size_t memoryBytes() const;

private:
  // Watcher: clause plus a cached "blocker" literal that often avoids
  // touching the clause at all. For a binary clause the blocker is the
  // partner literal, so propagation never reads the clause itself.
  struct Watcher {
    Watcher() = default;
    Watcher(CRef C, Lit Blocker, bool Binary)
        : RefBits(C << 1 | static_cast<uint32_t>(Binary)), Blocker(Blocker) {}
    CRef cref() const { return RefBits >> 1; }
    bool binary() const { return (RefBits & 1) != 0; }
    void setCRef(CRef C) { RefBits = C << 1 | (RefBits & 1); }

    uint32_t RefBits = 0; // CRef << 1 | binary flag
    Lit Blocker;
  };

  // One literal's watch list (docs/SOLVER.md §7): the pool address of its
  // slot, the watchers in use, and the slot's size class. Class C > 0
  // holds 2^(C-1) watchers; class 0 means no slot yet.
  struct WatchList {
    uint32_t Addr = 0;
    uint32_t Size : 27 = 0;
    uint32_t Class : 5 = 0;
  };
  static_assert(sizeof(WatchList) == 8, "a list header is 8 bytes");

  // The store of every watch list. Each list lives in one power-of-two
  // slot; a full list moves to a slot twice its size, and a freed slot
  // goes on its class's free list. Slots up to a page are carved from
  // pages of PageWatchers watchers; a larger slot is a block of its own
  // spanning several page entries. No page or block ever moves, so a
  // pointer into one list stays valid while other lists grow: propagate
  // relies on this (docs/SOLVER.md §7).
  class WatchPool {
  public:
    WatchPool() { FreeHead.fill(NoSlot); }

    std::span<Watcher> operator[](const WatchList &L) {
      if (L.Class == 0)
        return {};
      return {at(L.Addr), L.Size};
    }
    void push(WatchList &L, Watcher W) {
      if (L.Size == capacity(L))
        grow(L);
      at(L.Addr)[L.Size++] = W;
    }

    /// Bytes of the pages and blocks, and of the page table.
    size_t memoryBytes() const {
      return Allocated * sizeof(Watcher) +
             Pages.capacity() * sizeof(Watcher *) +
             Blocks.capacity() * sizeof(Block);
    }

  private:
    static constexpr unsigned PageBits = 12;
    static constexpr uint32_t PageWatchers = 1u << PageBits;
    static constexpr uint32_t NoSlot = UINT32_MAX;
    struct FreeBlock {
      void operator()(Watcher *P) const { ::operator delete(P); }
    };
    using Block = std::unique_ptr<Watcher, FreeBlock>;

    static uint32_t capacity(const WatchList &L) {
      return L.Class == 0 ? 0 : 1u << (L.Class - 1);
    }
    Watcher *at(uint32_t Addr) {
      return Pages[Addr >> PageBits] + (Addr & (PageWatchers - 1));
    }
    void grow(WatchList &L);
    uint32_t allocSlot(unsigned Class);
    void freeSlot(uint32_t Addr, unsigned Class);
    uint32_t addBlock(uint32_t Watchers);

    std::vector<Watcher *> Pages; // indexed by Addr >> PageBits
    std::vector<Block> Blocks;    // owners, at each block's first page
    std::array<uint32_t, 32> FreeHead; // per class; linked through RefBits
    uint32_t Bump = 0, BumpEnd = 0;    // the uncarved rest of the last page
    size_t Allocated = 0;              // watchers in live pages and blocks
  };

  // Assignment trail and per-variable metadata.
  std::vector<LBool> Assigns;
  std::vector<char> Polarity;       // saved phase; 1 = last assigned false
  std::vector<double> Activity;     // EVSIDS activity
  std::vector<int> Level;           // decision level of assignment
  std::vector<CRef> Reason;         // implying clause (CRefUndef = decision)
  std::vector<Lit> Trail;
  std::vector<int> TrailLim;        // trail index per decision level
  size_t PropagateHead = 0;

  // Clause database (docs/SOLVER.md §7).
  ClauseArena CA;
  std::vector<CRef> Problem;
  std::vector<CRef> Learnts;
  size_t NumProblemClauses = 0;
  std::vector<WatchList> Watches; // indexed by Lit::index()
  WatchPool Pool;

  // Scratch reused across calls: addClause normalization, and the literal
  // lists of strengthening and vivification.
  std::vector<Lit> AddScratch;
  std::vector<Lit> ClauseScratch;

  // Branching heap (binary max-heap on Activity).
  std::vector<Var> Heap;
  std::vector<int> HeapIndex; // -1 = not in heap
  double VarInc = 1.0;
  double ClauseInc = 1.0;

  // Conflict-analysis scratch.
  std::vector<char> Seen;
  std::vector<Lit> AnalyzeStack;
  std::vector<Lit> AnalyzeToClear;

  // Per-solve state.
  std::vector<Lit> CurrentAssumptions;
  uint64_t SolveStartConflicts = 0;

  // Solver state.
  bool Ok = true;
  std::vector<LBool> Model;
  SolverStats Stats;
  uint64_t ConflictBudget = 0;
  bool BudgetExhausted = false;
  double MaxLearnts = 0.0;

  // Warm-start state (docs/SOLVER.md). ReplayQueue holds the decision
  // literals undone by a forced backtrack, replayed in order by the next
  // search to fast-forward to the shared prefix; RestartRound is the
  // persistent Luby index.
  bool WarmStart = false;
  uint64_t RestartRound = 0;
  std::vector<Lit> ReplayQueue;
  size_t ReplayHead = 0;
  unsigned InprocessCadence = 4;
  unsigned SolvesSinceInprocess = 0;
  InprocessStats IStats;

  // Internals.
  LBool value(Var V) const { return Assigns[V]; }
  LBool value(Lit L) const { return xorLBool(Assigns[L.var()], L.sign()); }
  int decisionLevel() const { return static_cast<int>(TrailLim.size()); }

  LBool rootValue(Lit L) const {
    if (Assigns[L.var()] == LBool::Undef || Level[L.var()] != 0)
      return LBool::Undef;
    return value(L);
  }

  CRef storeProblemClause(const std::vector<Lit> &Lits);
  void attachClause(CRef C);
  void detachClause(CRef C);
  void relocateIfWasteful();
  void relocateAll();
  bool addUnitClause(Lit L);
  bool attachWarm(std::vector<Lit> &Kept);
  void saveReplay();
  void abandonReplay() { ReplayHead = ReplayQueue.size(); }
  void uncheckedEnqueue(Lit L, CRef From);
  CRef propagate();
  void analyze(CRef Conflict, std::vector<Lit> &Learnt, int &BacktrackLevel,
               uint32_t &LBD);
  bool litRedundant(Lit L, uint32_t AbstractLevels);
  void cancelUntil(int TargetLevel);
  Lit pickBranchLit();
  bool search(uint64_t ConflictsBeforeRestart, bool &DoneOut);
  void reduceDB();
  void removeSatisfiedLearnts();

  // Inprocessing helpers (all root-level).
  bool reinstallRoot(CRef C, bool IsProblem);
  void sweepSatisfied();
  void strengthenSelfSubsume();
  void vivify();
  bool vivifyOne(CRef C);

  // Activity bookkeeping.
  void varBumpActivity(Var V);
  void varDecayActivity() { VarInc *= (1.0 / 0.95); }
  void claBumpActivity(Clause C);
  void claDecayActivity() { ClauseInc *= (1.0 / 0.999); }

  // Heap operations.
  void heapInsert(Var V);
  void heapPercolateUp(int Index);
  void heapPercolateDown(int Index);
  Var heapRemoveMax();
  bool heapContains(Var V) const { return HeapIndex[V] >= 0; }
};

/// \returns the Luby sequence value luby(Index) for restart scheduling.
uint64_t lubySequence(uint64_t Index);

} // namespace sat
} // namespace psketch

#endif // PSKETCH_SAT_SOLVER_H

//===- verify/ModelChecker.h - Explicit-state model checking ----*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verification procedure of the CEGIS loop: an explicit-state model
/// checker over all thread interleavings of one candidate, standing in for
/// the paper's use of SPIN [13]. It checks the same properties PSKETCH
/// delegates to its verifier: programmer assertions, implicit memory
/// safety, bounded termination (loop-bound asserts injected by the
/// flattener), and deadlock freedom; and it produces exactly what the
/// synthesizer needs — a bounded counterexample trace.
///
/// Two standard engineering devices (both ablatable, see DESIGN.md):
///  * a random-schedule falsifier runs first, because most bad candidates
///    die on one of a handful of cheap random schedules;
///  * a partial-order reduction (CheckerConfig::Por, docs/POR.md) prunes
///    interleavings that only reorder commuting steps: PorMode::Local
///    runs thread-local steps without a scheduling choice, PorMode::Ample
///    (the default) additionally expands a single thread alone wherever
///    its next step's static footprint (exec/Footprint.h) is independent
///    of everything the other threads may still do, with sleep sets
///    layered on in the DFS.
///
/// The exhaustive phase has two engines: the undo-log DFS core
/// (verify/SearchCore.h), which mutates one state in place, and a BFS
/// that copies every node's state and returns shortest counterexamples
/// (CheckerConfig::Order). The DFS is optionally multi-threaded
/// (CheckerConfig::NumThreads; the BFS always runs one worker, whatever
/// NumThreads asks for): each worker runs the same core over one
/// shared, sharded seen-state table; idle workers receive the untried
/// choices of a busy worker's shallowest frame, and the first violation
/// cancels every worker (docs/PARALLEL.md describes the design).
/// tests/test_oracle.cpp checks every engine, reduction and worker count
/// against one reference config.
///
/// Reproducibility contract
/// ------------------------
///  * Verdict, counterexample and RandomRunsUsed depend only on the
///    candidate and the config, never on NumThreads or on OS scheduling,
///    so CEGIS follows the same trajectory at every worker count. The
///    falsifier is one stream seeded directly from CheckerConfig::Seed,
///    run on the calling thread at every worker count. A violation found
///    by the exhaustive phase is (with DeterministicCex, the default)
///    re-derived by a one-worker search — in Local mode when Por is
///    Ample, since ample-mode traces are artifacts of the reduced graph —
///    whenever the first search was parallel, ran under Ample, or ran
///    under an active symmetry, so the reported counterexample is the
///    canonical trace one-worker Local mode reports. Por == Local at one
///    worker reproduces the pre-ample engine bit for bit.
///    StatesExplored, StatesDeduped and the POR counters depend only on
///    the candidate and the config at one worker. With NumThreads >= 2
///    they, Steals and PerWorkerStates are scheduling statistics: under
///    Ample which revisits the shared sleep masks prune depends on the
///    order in which workers reach a state.
///    Exception: runs that hit MaxStates (Result.Exhausted) explored a
///    budget-dependent subset of the space, so their "Ok up to the
///    budget" verdict carries the same caveat the budget itself does.
///    One worker stops at exactly MaxStates states; each of W >= 2
///    workers adds its count to the shared budget in batches of at most
///    256 states, so a parallel search stops fewer than 256 * W states
///    past the budget.
///  * SymmetryMode::Orbit (the default) keeps every clause: search states
///    stay raw (only visited-table probe keys are canonicalized), so
///    every reported trace is a real execution, and a violation found
///    under an active symmetry is (with DeterministicCex) re-derived
///    with Symmetry == Off — symmetry pruning, like ample reduction, can
///    change which violation a search reaches first, and the
///    re-derivation restores the canonical trace. Verdicts agree with
///    Off by the automorphism argument in docs/SYMMETRY.md; state counts
///    shrink by up to the orbit size.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_VERIFY_MODELCHECKER_H
#define PSKETCH_VERIFY_MODELCHECKER_H

#include "exec/Machine.h"
#include "verify/Trace.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace psketch {
namespace verify {

/// Exhaustive-search order. DFS is cheaper on memory; BFS returns
/// shortest counterexamples, which can be stronger observations for the
/// synthesizer (measured by bench_cex_ablation).
enum class SearchOrder : uint8_t { Dfs, Bfs };

/// Partial-order reduction mode (docs/POR.md). Verdicts agree across all
/// three modes by construction; state counts and (without
/// DeterministicCex) traces differ.
///  * Off: every ready context branches at every state — the unreduced
///    interleaving graph.
///  * Local: steps that touch only thread-local state (or whose dynamic
///    guard is false) run without a scheduling choice
///    (Machine::nextStepIsLocal). This is the pre-ample behaviour.
///  * Ample (default): Local, plus SPIN-class ample sets — a state whose
///    some ready context's next step is statically independent of every
///    other thread's remaining steps (Machine::singletonIndependent)
///    expands that context alone (the state graph is acyclic, so no cycle
///    proviso is needed); the DFS additionally prunes commuting
///    re-expansions via sleep sets.
/// Migration note: this enum replaces the old `bool UsePOR` — `false`
/// maps to Off, `true` to Local.
enum class PorMode : uint8_t { Off, Local, Ample };

/// Symmetry reduction (docs/SYMMETRY.md). Orthogonal to and composable
/// with PorMode: POR prunes interleavings, symmetry prunes states.
///  * Off: every state is its own visited-table key.
///  * Orbit (default): the checker runs the static symmetry inference
///    (analysis/SymmetryInfer.h) on the candidate; when it proves a
///    non-trivial thread orbit, every visited-table probe keys on the
///    lexicographically minimal image of the state under the accepted
///    automorphisms (verify/Canon.h), so states differing only by a
///    symmetric-thread permutation collapse to one representative. When
///    the inference refuses (asymmetric candidate, heap-owning bodies,
///    > 8 threads), Orbit behaves exactly like Off.
enum class SymmetryMode : uint8_t { Off, Orbit };

/// Tuning knobs for the checker.
struct CheckerConfig {
  bool UseRandomFalsifier = true; ///< try random schedules before DFS
  unsigned RandomRuns = 64;       ///< how many random schedules
  PorMode Por = PorMode::Ample;   ///< partial-order reduction (see enum)
  /// Symmetry reduction (see the SymmetryMode doc). Defaults to Orbit:
  /// canonicalization engages automatically whenever the inference
  /// proves a non-trivial orbit for the candidate, and is a no-op
  /// otherwise.
  SymmetryMode Symmetry = SymmetryMode::Orbit;
  SearchOrder Order = SearchOrder::Dfs;
  uint64_t MaxStates = 4000000;   ///< exploration safety net
  uint64_t Seed = 1;              ///< random falsifier seed
  /// Checker workers: 1 = exact legacy single-threaded behaviour,
  /// 0 = hardware concurrency, N = that many workers. Ignored when
  /// Order == Bfs: the BFS has no parallel form and runs one worker.
  unsigned NumThreads = 1;
  /// When true (default) a violation found by the exhaustive phase is
  /// re-derived by a deterministic sequential search so the reported
  /// counterexample is the canonical minimal trace regardless of worker
  /// timing — and, under Por == Ample, regardless of the reduction: the
  /// re-derivation runs in Local mode, so Ample reports the same trace
  /// Local would (see the reproducibility contract above and docs/POR.md).
  /// When false the first trace the search found is reported — faster on
  /// failing candidates, but ample traces are artifacts of the reduced
  /// graph, and with several workers the trace is the cexLess-minimal
  /// one among those the workers found before cancellation, which varies
  /// with timing. With NumThreads == 1 this only matters for Por == Ample
  /// or an active symmetry (plain Off/Local searches are already
  /// canonical).
  bool DeterministicCex = true;
};

/// \returns the worker count \p Cfg resolves to: 1 for a BFS, else
/// NumThreads, with 0 mapped to std::thread::hardware_concurrency() (at
/// least 1). CheckResult::WorkersUsed and CegisStats::CheckerWorkers
/// report it.
unsigned resolvedNumThreads(const CheckerConfig &Cfg);

/// The checker's verdict.
struct CheckResult {
  bool Ok = false;        ///< no violation found
  bool Exhausted = false; ///< hit MaxStates: Ok means "up to the budget"
  std::optional<Counterexample> Cex;
  uint64_t StatesExplored = 0;
  uint64_t StatesDeduped = 0;
  uint64_t RandomRunsUsed = 0;
  unsigned WorkersUsed = 1; ///< resolved worker count of this run
  uint64_t Steals = 0;      ///< donations between workers (0 for one)
  /// Parallel runs: states explored per worker. Empty for one worker.
  std::vector<uint64_t> PerWorkerStates;
  /// Bytes of visited-set memory owned at the end of the run — slot
  /// arrays, key-arena chunk capacity and stored sleep masks — summed
  /// across search phases: the bench's bytes/state numerator. Excludes
  /// the odd-key side map's bucket overhead.
  uint64_t VisitedBytes = 0;
  /// POR observability (PorMode::Ample; all zero otherwise). States with
  /// two or more ready contexts expanded through a singleton ample set /
  /// expanded in full (no independent candidate) / transitions skipped
  /// by the DFS's sleep sets.
  uint64_t AmpleStates = 0;
  uint64_t FullExpansions = 0;
  uint64_t SleepSkips = 0;
  /// Symmetry observability (SymmetryMode::Orbit; all zero otherwise).
  /// Thread orbits the inference proved for this candidate (0 = the
  /// inference did not run; numThreads = it ran but refused everything);
  /// states entered into the visited table whose canonical key came from
  /// a non-identity automorphism (once per state, however many probes it
  /// took); and the per-candidate setup cost in seconds
  /// (inference plus permutation-table compilation — probes themselves
  /// are not timed).
  unsigned SymmetryOrbits = 0;
  uint64_t CanonHits = 0;
  double CanonTime = 0;
  /// Analysis-tuning observability, stamped from the Machine (zero when
  /// the Machine carries no analysis facts). Bits the packed visited-key
  /// layout sheds per state; cross-thread step pairs the protectedBy
  /// channel newly classifies independent; entered states whose value
  /// escaped its proven interval, once per state (an analysis bug
  /// indicator — the state fell back to the raw key, costing memory,
  /// never soundness).
  unsigned TightenedBits = 0;
  uint64_t LockIndepPairs = 0;
  uint64_t PackEscapes = 0;
  /// Heap-partition observability, stamped from the Machine (zero when
  /// no HeapPartition tuning applied): allocation sites splitting the
  /// heap footprint bits, and cross-thread step pairs the split newly
  /// classifies independent.
  unsigned ShapeSites = 0;
  uint64_t SiteIndepPairs = 0;
};

/// Model-checks one candidate (a Machine is a program plus a hole
/// assignment).
CheckResult checkCandidate(const exec::Machine &M,
                           const CheckerConfig &Cfg = CheckerConfig());

} // namespace verify
} // namespace psketch

#endif // PSKETCH_VERIFY_MODELCHECKER_H

//===- verify/FrontierBatch.h - SoA successor batches -----------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal header: the batched frontier engine behind
/// CheckerConfig::BatchWidth (docs/BATCHING.md). A FrontierBatch owns up
/// to one batch of successor "lanes" of a single parent state: each lane
/// is the parent after one scheduling choice plus its POR local chain,
/// kept as a full AoS State (traces, expansion, and epilogue checks all
/// want whole states) while the scheduler-relevant prefixes are
/// additionally transposed into a word-major SoA SchedBlock — the shape
/// the batched orbit kernel (Canonicalizer::canonicalizeBatch), the
/// batched fingerprint (Machine::fingerprintBatchWith / hashWordsBatch),
/// and the batched visited probes (verify/Visited.h) consume directly.
///
/// The pipeline is generate() -> fingerprint() -> probeMask()/probeShared(),
/// then the caller walks the lanes (descending into live ones). Every
/// stage is element-wise bit-identical to the scalar path it replaces:
/// batching regroups work across sibling successors, it never changes
/// what any single successor computes. What it does change is *when*
/// siblings enter the visited table (eagerly, before the first sibling's
/// subtree is explored), which can re-shape the search tree — verdicts
/// are unaffected (the explored set argument in docs/BATCHING.md), and
/// under CheckerConfig::DeterministicCex the reported counterexample is
/// re-derived scalar, so it is byte-identical across batch widths.
///
/// classify() adds the batch engine's readiness memoization: a thread's
/// readiness is a function of its (normalized) pc and of the cells its
/// guard/wait conditions read — all contained in its static step
/// footprint. A lane re-evaluates a thread only when the lane's executed
/// chain stepped that thread or conflicts with that footprint; otherwise
/// the parent's cached verdict is reused.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_VERIFY_FRONTIERBATCH_H
#define PSKETCH_VERIFY_FRONTIERBATCH_H

#include "exec/Machine.h"
#include "verify/Canon.h"
#include "verify/SearchCore.h"
#include "verify/Visited.h"

#include <cstdint>
#include <vector>

namespace psketch {
namespace verify {
namespace detail {

/// One batch of successor lanes in SoA form (parallel arrays indexed by
/// lane). Buffers are grow-only and reused across generations, so a
/// steady-state search allocates nothing per batch.
class FrontierBatch {
public:
  /// Generates lanes 0..N-1: lane K is \p Parent after executing context
  /// Ctxs[K]'s next step, followed by its POR local chain (PorMode::Off
  /// chains nothing). ChildSleep[K] (null = all zero) is recorded for the
  /// later mask probe. Lanes are processed in order and the first
  /// violating one wins: \p Cex receives \p Path + the lane's executed
  /// steps and generate() returns false. NOTE the scalar DFS would have
  /// explored choice K's whole subtree before executing choice K+1, so a
  /// generation-time violation on a later lane can surface before a
  /// deeper violation on an earlier one — a trace (never verdict)
  /// divergence the DeterministicCex re-derivation erases.
  bool generate(const exec::Machine &M, PorMode Por,
                const exec::State &Parent, const unsigned *Ctxs,
                const uint64_t *ChildSleep, unsigned NIn,
                const std::vector<TraceStep> &Path, Counterexample &Cex);

  /// Multi-parent generation: lane K is *Parents[K] after executing
  /// context Ctxs[K]'s next step plus its POR local chain, with sleep
  /// masks all zero. This is the cross-parent pooling entry point: one
  /// parent yields at most numThreads() successors, so few-threaded
  /// programs can only fill wide (SIMD-profitable) batches by pooling
  /// successors of several frontier states — the batched BFS does. On a
  /// violating lane, \p Cex receives ONLY that lane's executed steps
  /// (the caller owns each parent's path and prepends it) and
  /// \p FailLane identifies the lane, then generateMulti returns false.
  bool generateMulti(const exec::Machine &M, PorMode Por,
                     const exec::State *const *Parents, const unsigned *Ctxs,
                     unsigned NIn, Counterexample &Cex, unsigned &FailLane);

  /// Generates the single root lane: no scheduling step, just \p Start's
  /// local chain (the suffix carries the chain steps). Classification of
  /// the root is always full (pass null parent verdicts).
  bool generateRoot(const exec::Machine &M, PorMode Por,
                    const exec::State &Start,
                    const std::vector<TraceStep> &Path, Counterexample &Cex);

  /// Computes every lane's (canonical) fingerprint with \p Hash. When
  /// \p Canon is active the lanes' scheduler prefixes are transposed
  /// into the SoA block, canonicalized as a batch, and hashed in one
  /// batched (SIMD-dispatched) sweep; fp(K) then serves both the
  /// visited probe and the DFS on-stack cycle-proviso key — one
  /// canonicalization and one hash pass per lane, like the scalar
  /// engine's single probe. With \p Canon inactive the block is
  /// never built: the lanes are hashed straight from their AoS words by
  /// the register-transposing kernel (hashWordsBatchPtrs) — a staging
  /// copy would cost more than it saves (measured; docs/BATCHING.md) —
  /// and the probes read the AoS states directly. Packed layouts also
  /// record which lanes' keys escaped, for noteEntered.
  void fingerprint(const exec::Machine &M, const Canonicalizer *Canon,
                   StateHashFn Hash);

  /// Sequential mask-aware probe: ins(K)/wake(K) afterwards match what
  /// VisitedTable::insertMask would have returned for lane K entered
  /// with sleep(K). Requires fingerprint() first (lane fingerprints
  /// place Exact-mode entries too). In Exact mode the whole batch of
  /// probes runs VisitedTable's prefetch-pipelined sweep; under
  /// VisitedStore::Spill the table additionally pre-answers the batch's
  /// disk-tier membership in one sorted sweep over the on-disk runs
  /// (VisitedCell::spillHints), so lanes that miss in RAM don't pay a
  /// cold binary search each (docs/SPILL.md).
  void probeMask(const exec::Machine &M, VisitedTable &Visited);

  /// Parallel probe (sleep-free): ins(K) is Fresh or Prune matching
  /// ShardedVisited::insert on lane K; each touched shard is locked once
  /// per batch. Requires fingerprint() first (the fingerprint picks the
  /// shard — in Exact mode too, and the spill shard with it: under
  /// VisitedStore::Spill each shard group's disk hints are batch-probed
  /// under the same single lock acquisition).
  void probeShared(const exec::Machine &M, ShardedVisited &Visited);

  /// Classifies lane \p K's threads into ReadyOut/BlockedOut and caches
  /// per-thread verdicts (Readiness bytes) in \p VerdictsOut, reusing
  /// \p ParentVerdicts (null = classify everything) where the lane's
  /// chain provably left a thread's readiness alone (file comment).
  /// \returns false and fills \p Cex (Steps = \p Path + the violating
  /// probe) when some wait/guard evaluation violates memory safety —
  /// identical to classifyAll.
  bool classify(unsigned K, const exec::Machine &M,
                const uint8_t *ParentVerdicts,
                std::vector<unsigned> &ReadyOut,
                std::vector<TraceStep> &BlockedOut,
                std::vector<uint8_t> &VerdictsOut,
                const std::vector<TraceStep> &Path, Counterexample &Cex);

  unsigned size() const { return N; }
  void clear() { N = 0; }

  exec::State &state(unsigned K) { return SArr[K]; }
  const std::vector<TraceStep> &suffix(unsigned K) const { return Suffix[K]; }
  uint64_t fp(unsigned K) const { return FpArr[K]; }
  InsertOutcome ins(unsigned K) const { return InsArr[K]; }
  uint64_t wake(unsigned K) const { return WakeArr[K]; }
  uint64_t sleep(unsigned K) const { return SleepArr[K]; }
  unsigned ctx(unsigned K) const { return CtxArr[K]; }

private:
  /// Re-shapes the parallel arrays for \p NIn lanes (grow-only).
  void grow(unsigned NIn);

  /// Runs lane \p K's local chain, folding executed steps into
  /// SteppedMask (and, when \p TrackFp, ChainFp). Shared by
  /// generate()/generateRoot().
  bool chainLane(const exec::Machine &M, PorMode Por, unsigned K,
                 const std::vector<TraceStep> &Path, Counterexample &Cex,
                 bool TrackFp);

  /// Counts every probed lane once into Machine::packEscapes and
  /// Canonicalizer::canonHits (the scalar tables' noteEntered; the
  /// batch probes leave the counting to their caller).
  void noteEntered(const exec::Machine &M) const;

  unsigned N = 0;
  std::vector<exec::State> SArr;
  std::vector<std::vector<TraceStep>> Suffix;
  std::vector<exec::Footprint> ChainFp;
  std::vector<uint64_t> SteppedMask;
  std::vector<uint64_t> SleepArr, WakeArr, FpArr;
  std::vector<unsigned> CtxArr, PermArr;
  std::vector<uint8_t> EscArr; ///< per lane: its packed key escaped
  std::vector<InsertOutcome> InsArr;
  std::vector<exec::ExecOutcome> Outcomes;
  std::vector<exec::Violation> Viols;
  std::vector<uint8_t> FreshArr;        ///< probeShared scratch
  std::vector<const int64_t *> WordPtrs; ///< probeMask fast-path scratch
  exec::SchedBlock Raw, Canonical;
  bool UseCanon = false; ///< which block fingerprint() probed through
  const Canonicalizer *Cn = nullptr; ///< the active canonicalizer, if any
};

} // namespace detail
} // namespace verify
} // namespace psketch

#endif // PSKETCH_VERIFY_FRONTIERBATCH_H

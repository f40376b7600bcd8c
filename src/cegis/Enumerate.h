//===- cegis/Enumerate.h - Multi-solution synthesis + autotuning -*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 8.3.1 notes that "the CEGIS algorithm can trivially produce
/// multiple correct candidates" and that one would then pick the best by
/// measuring each, as in autotuning [6]. This module implements that
/// extension: it runs ConcurrentCegis's loop and verify step
/// (cegis/Cegis.h), except that a verified candidate is measured,
/// recorded and excluded, and the loop goes on until the space is
/// exhausted or a budget is hit. Each solution is scored with a simple
/// deterministic cost model — the number of machine steps a round-robin
/// schedule executes — so callers can rank, e.g., the two incomparable
/// Dequeue variants the paper discusses at the end of Section 2.
///
/// Enumeration runs with CegisConfig::Prescreen and CegisConfig::AbsInt
/// off, whatever the caller's config says:
///  * the pre-pass (analysis::analyze) keeps one solution of a kind:
///    Prune bans a hole value that yields the same program as a smaller
///    one (an unused hole is pinned to 0), and reorder canonicalization
///    an assignment that realizes the same order as another, so those
///    correct candidates would never be enumerated;
///  * the per-candidate screen is sound here, but it would turn verifier
///    calls into interval prunes and change the census counts that
///    bench_autotune and bench_extension_stack report.
///
/// Up to its first solution, enumeration thus takes ConcurrentCegis's
/// steps under the same config: a warm-started solver opens the
/// exclusion scope only at the first exclusion (docs/SOLVER.md §3). The
/// checker's worker count never changes it (docs/PARALLEL.md §2).
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_CEGIS_ENUMERATE_H
#define PSKETCH_CEGIS_ENUMERATE_H

#include "cegis/Cegis.h"

#include <vector>

namespace psketch {
namespace cegis {

/// One verified solution with its measured cost.
struct Solution {
  ir::HoleAssignment Candidate;
  /// Steps executed by a deterministic round-robin schedule (prologue +
  /// parallel phase + epilogue). Lower = less work on this workload.
  uint64_t Cost = 0;
};

/// Result of an enumeration run.
struct EnumerateResult {
  std::vector<Solution> Solutions; ///< sorted by ascending cost
  bool Exhausted = false; ///< true: these are ALL correct candidates
  CegisStats Stats;       ///< aggregate over the whole run
};

/// Enumerates up to \p MaxSolutions verified implementations of the
/// sketch \p P. Defined in Cegis.cpp, beside the loop it runs. Flattens
/// \p P (so, like ConcurrentCegis, it must own the only flattening of
/// that program).
EnumerateResult enumerateSolutions(ir::Program &P, unsigned MaxSolutions,
                                   CegisConfig Cfg = CegisConfig());

/// Scores one candidate: deterministic round-robin execution step count.
/// \returns UINT64_MAX if the candidate does not complete cleanly (it
/// should, if it was verified).
uint64_t measureCandidate(const flat::FlatProgram &FP,
                          const ir::HoleAssignment &Candidate);

} // namespace cegis
} // namespace psketch

#endif // PSKETCH_CEGIS_ENUMERATE_H

//===- verify/Canon.h - Symmetry-canonical state representatives -*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The state canonicalizer behind CheckerConfig::Symmetry. Construction
/// runs the static symmetry inference (analysis/SymmetryInfer.h) on the
/// Machine's candidate and compiles every accepted thread automorphism
/// into a word-level permutation table over the scheduler-relevant state
/// prefix. canonicalize() then maps a state through each automorphism
/// and returns the lexicographically smallest image — the orbit
/// representative — which is what the visited tables key on, so states
/// differing only by a symmetric-thread permutation collapse.
///
/// Soundness (docs/SYMMETRY.md): each compiled permutation is an
/// automorphism of the transition system and of the violation predicate,
/// so if canon(t) == canon(s) then t = g(s) for some automorphism g in
/// the generated group, and every execution from s maps step-for-step to
/// an execution from t with corresponding violations. Merging s with t
/// therefore never hides a bug; search states themselves stay raw (only
/// probe keys are canonical), so every reported trace is a real
/// execution.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_VERIFY_CANON_H
#define PSKETCH_VERIFY_CANON_H

#include "analysis/SymmetryInfer.h"
#include "exec/Machine.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace psketch {
namespace verify {

class Canonicalizer {
public:
  /// The PermIdx value canonicalize() reports when the raw state already
  /// is its own orbit representative.
  static constexpr unsigned IdentityPerm = ~0u;

  /// Runs symmetry inference for \p M's program + candidate and compiles
  /// the accepted automorphisms. active() is false when no non-identity
  /// automorphism was proven (canonicalization would be the identity).
  explicit Canonicalizer(const exec::Machine &M);

  bool active() const { return !Perms.empty(); }
  unsigned numOrbits() const { return Plan.NumOrbits; }
  size_t numPerms() const { return Perms.size(); }
  const analysis::SymmetryPlan &plan() const { return Plan; }
  /// Inference plus table-compilation time, seconds (the per-candidate
  /// setup cost surfaced as CheckResult::CanonTime).
  double buildSeconds() const { return BuildSecs; }

  /// Maps the SchedWords-long prefix \p Words through every compiled
  /// automorphism and returns the lexicographic minimum (identity
  /// included). \p PermIdx receives the index of the chosen automorphism
  /// or IdentityPerm. The returned pointer either is \p Words itself or
  /// aliases a thread-local scratch buffer that stays valid until the
  /// next canonicalize() call on the same thread — consume it before
  /// probing again.
  const int64_t *canonicalize(const int64_t *Words, unsigned &PermIdx) const;

  /// Applies automorphism \p PermIdx to \p In (SchedWords words) into
  /// \p Out. Exposed for the canon(permute(s)) == canon(s) property test.
  void apply(unsigned PermIdx, const int64_t *In, int64_t *Out) const;

  /// Translates a per-thread bitmask (sleep/wake sets) into the
  /// coordinates of the canonical image chosen for a state: raw thread t
  /// becomes canonical thread CtxMap[t]. IdentityPerm is a no-op.
  uint64_t maskToCanonical(unsigned PermIdx, uint64_t Raw) const;
  /// The inverse translation (canonical thread c back to InvCtxMap[c]).
  uint64_t maskFromCanonical(unsigned PermIdx, uint64_t Canon) const;

  /// States a checker entered (offered to its visited table) whose
  /// canonical form came from a non-identity automorphism — i.e. how
  /// often canonicalization actually rewrote a key, once per entered
  /// state however many probes it took.
  uint64_t canonHits() const {
    return Hits.load(std::memory_order_relaxed);
  }

  /// Counts one entered state whose key canonicalization rewrote (the
  /// visited tables' insert paths call this; canonicalize() itself counts
  /// nothing, so extra membership probes never inflate the figure).
  void noteHit() const { Hits.fetch_add(1, std::memory_order_relaxed); }

private:
  /// One automorphism compiled against the StateLayout: canonical word w
  /// takes the (possibly value-mapped) content of raw word Src[w].
  struct Compiled {
    std::vector<uint32_t> Src;  ///< dst word -> src word (SchedWords long)
    std::vector<int32_t> Val;   ///< dst word -> ValTables index or -1
    std::vector<unsigned> CtxMap, InvCtxMap;
    /// Value maps (sorted by source value) referenced by Val.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> ValTables;
  };

  analysis::SymmetryPlan Plan;
  std::vector<Compiled> Perms;
  unsigned SchedWords = 0;
  double BuildSecs = 0;
  mutable std::atomic<uint64_t> Hits{0};
};

} // namespace verify
} // namespace psketch

#endif // PSKETCH_VERIFY_CANON_H

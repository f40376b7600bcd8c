//===- exec/Footprint.h - Static read/write sets per flat step --*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static footprint of a flat::Step: which shared cells it may read
/// and which it may write, as bitsets over a small universe the Machine
/// lays out per candidate (see Machine::stepFootprint). Two steps commute
/// — may be reordered without changing any reachable state — when neither
/// writes a cell the other touches; that independence relation is what
/// the ample-set partial-order reduction in src/verify is built on
/// (docs/POR.md).
///
/// The universe deliberately excludes thread-private storage (a context's
/// pc and locals): a step always writes its own pc and often its own
/// locals, but no other context can observe either, so they can never
/// create a dependence. Heap cells are conflated per field id (all pool
/// nodes' `next` fields are one bit) because pointers are dynamic;
/// global array elements are pinned to one slot only when the index is a
/// compile-time constant under the candidate. Both are sound
/// over-approximations: a footprint may claim more than a step touches,
/// never less — tests/test_por.cpp checks the write half against the
/// undo log of real executions.
///
/// The protectedBy channel (PR 6): when the lockset analysis proves
/// must-hold locks for a step (exec/Tuning.h), every bit the step touches
/// carries a mask of the locks held at the step's entry. A conflict
/// between two footprints is *discounted* when the conflicting bit's
/// masks intersect: both sides must-hold a common lock at their pcs, so
/// no reachable state has both steps pending — the conflict can never
/// materialize (docs/ANALYSIS.md gives the mutual-exclusion argument).
/// Suffix unions intersect the masks per bit, the conservative
/// direction: a cell is only suffix-protected by L if EVERY future
/// access to it holds L.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_EXEC_FOOTPRINT_H
#define PSKETCH_EXEC_FOOTPRINT_H

#include "support/Hash.h"

#include <cstdint>
#include <vector>

namespace psketch {
namespace exec {

/// A pair of bitsets (read set, write set) over a Machine-defined
/// universe of shared-cell indices. Plain value type; the Machine
/// precomputes one per (context, pc) plus suffix unions at construction.
class Footprint {
public:
  Footprint() = default;
  explicit Footprint(unsigned Bits) : Read((Bits + 63) / 64, 0),
                                      Write((Bits + 63) / 64, 0) {}

  void addRead(unsigned Bit) { Read[Bit / 64] |= 1ull << (Bit % 64); }
  void addWrite(unsigned Bit) { Write[Bit / 64] |= 1ull << (Bit % 64); }

  bool reads(unsigned Bit) const {
    return (Read[Bit / 64] >> (Bit % 64)) & 1;
  }
  bool writes(unsigned Bit) const {
    return (Write[Bit / 64] >> (Bit % 64)) & 1;
  }

  /// Unions \p O into this footprint (suffix accumulation). Protection
  /// masks intersect per bit: a union is only protected by a lock every
  /// constituent access holds. Untouched bits stay at the all-ones mask,
  /// the identity of intersection.
  void unionWith(const Footprint &O) {
    for (size_t I = 0; I < Read.size(); ++I) {
      Read[I] |= O.Read[I];
      Write[I] |= O.Write[I];
    }
    if (O.Prot.empty())
      return;
    if (Prot.empty())
      Prot.assign(Read.size() * 64, ~0u);
    for (size_t B = 0; B < Prot.size(); ++B)
      Prot[B] &= O.Prot[B];
  }

  /// True when the two steps do NOT commute: one writes a cell the other
  /// reads or writes. Read-read overlap is not a conflict.
  bool conflictsWith(const Footprint &O) const {
    for (size_t I = 0; I < Read.size(); ++I)
      if ((Write[I] & (O.Read[I] | O.Write[I])) | (Read[I] & O.Write[I]))
        return true;
    return false;
  }

  /// conflictsWith minus conflicts whose every bit is protected by a
  /// common must-held lock on both sides. Identical to conflictsWith when
  /// either side carries no protection channel.
  bool conflictsWithUnprotected(const Footprint &O) const {
    if (Prot.empty() || O.Prot.empty())
      return conflictsWith(O);
    for (size_t I = 0; I < Read.size(); ++I) {
      uint64_t Conflict = (Write[I] & (O.Read[I] | O.Write[I])) |
                          (Read[I] & O.Write[I]);
      while (Conflict) {
        unsigned Bit = static_cast<unsigned>(I * 64) +
                       static_cast<unsigned>(__builtin_ctzll(Conflict));
        if ((Prot[Bit] & O.Prot[Bit]) == 0)
          return true;
        Conflict &= Conflict - 1;
      }
    }
    return false;
  }

  /// Enables the protection channel: every bit starts fully protected
  /// (the intersection identity); the Machine then narrows the bits the
  /// step touches to its must-entry lock mask via protect().
  void enableProt() { Prot.assign(Read.size() * 64, ~0u); }

  /// Sets bit \p Bit's protection to exactly \p Mask (the lock set held
  /// at the owning step's entry).
  void protect(unsigned Bit, uint32_t Mask) { Prot[Bit] = Mask; }

  /// \returns bit \p Bit's protection mask (all-ones when untouched or
  /// when the channel is disabled).
  uint32_t protection(unsigned Bit) const {
    return Prot.empty() ? ~0u : Prot[Bit];
  }

  /// True when the protection channel is active on this footprint.
  bool hasProtection() const { return !Prot.empty(); }

  /// Equal read, write and protection vectors: the interning key of the
  /// Machine's footprint classes (two equal footprints conflict with
  /// exactly the same footprints).
  bool operator==(const Footprint &O) const {
    return Read == O.Read && Write == O.Write && Prot == O.Prot;
  }

  /// A hash consistent with operator==.
  uint64_t hash() const {
    uint64_t H = mix64(Read.size() ^ (Prot.size() << 32));
    for (size_t I = 0; I < Read.size(); ++I)
      H = mix64(H ^ Read[I]) ^ mix64(H + Write[I]);
    for (uint32_t M : Prot)
      H = mix64(H + M);
    return H;
  }

  bool empty() const {
    for (size_t I = 0; I < Read.size(); ++I)
      if (Read[I] | Write[I])
        return false;
    return true;
  }

private:
  std::vector<uint64_t> Read, Write;
  /// Per-bit must-held lock mask; empty = channel disabled. Sized to the
  /// word-rounded universe (Read.size() * 64) so ctz-derived bit indices
  /// never go out of range.
  std::vector<uint32_t> Prot;
};

} // namespace exec
} // namespace psketch

#endif // PSKETCH_EXEC_FOOTPRINT_H

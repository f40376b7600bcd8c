//===- exec/StateVec.h - Flat machine states and the undo log ---*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat state representation behind exec::Machine. A machine state is
/// one contiguous int64_t buffer laid out by a Machine-owned StateLayout
/// (globals, heap, allocation counter, then per-context pc + locals), so
/// state copy, comparison, and hashing are memcpy/memcmp-class operations
/// instead of walking a vector-of-vectors. All mutation goes through the
/// set* accessors, which also feed an optionally attached UndoLog: the
/// sequential DFS applies a step in place and reverts it on backtrack
/// instead of copying the state per successor.
///
/// The scheduler-relevant prefix (everything up to but excluding the
/// prologue/epilogue pc + locals, which cannot differ during the parallel
/// phase) is contiguous by construction — the visited-set key is a single
/// memcpy of StateLayout::SchedWords words, and the 64-bit fingerprint is
/// one pass of support/Hash.h over the same span.
///
/// PackedLayout (PR 6): when the abstract interpreter proves per-slot
/// value intervals (exec/Tuning.h), the Machine derives a bit-packed key
/// layout — each scheduler word contributes only the bits its interval
/// needs (zero for proven constants) — so visited keys shrink and the
/// fingerprint hashes fewer words. Packing is injective on
/// in-interval word vectors by construction; a value outside its interval
/// (an analysis bug) is detected during encoding and the state falls back
/// to the raw key with a trailing marker byte, whose length can never
/// collide with a packed key. See Machine::encodeWords.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_EXEC_STATEVEC_H
#define PSKETCH_EXEC_STATEVEC_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace psketch {
namespace exec {

/// Word offsets into a flat state buffer. Owned by the Machine (one per
/// program + candidate); every State produced by that Machine points back
/// at it. Layout, in words:
///
///   [ globals | heap | alloc-counter | ctx0 pc, ctx0 locals | ctx1 ... ]
///
/// with the thread contexts first and the prologue/epilogue contexts
/// last, so the scheduler-relevant visited key is the prefix of
/// SchedWords words.
struct StateLayout {
  unsigned GlobalsOff = 0;
  unsigned HeapOff = 0;
  unsigned AllocOff = 0;
  /// Per context: the word holding its pc; its locals follow directly.
  std::vector<unsigned> CtxOff;
  /// Per context: how many locals it has.
  std::vector<unsigned> LocalsCount;
  /// Length of the scheduler-relevant prefix (globals, heap, counter,
  /// thread pc + locals — excludes prologue/epilogue contexts).
  unsigned SchedWords = 0;
  /// Total words in a state.
  unsigned Words = 0;
};

/// A bit-packed rendering of the scheduler prefix, derived from proven
/// value intervals (see the file comment). One PackedSlot per scheduler
/// word: the word's value v is encoded as the Bits-bit unsigned quantity
/// v - Base, valid iff v - Base <= Range (checked in unsigned arithmetic,
/// so it also catches v < Base).
struct PackedLayout {
  struct PackedSlot {
    int64_t Base = 0;
    uint64_t Range = 0; ///< Hi - Lo as unsigned; 0 = proven constant
    uint8_t Bits = 0;   ///< bits needed for Range (0 drops the slot)
  };
  std::vector<PackedSlot> Slots; ///< one per scheduler word
  unsigned TotalBits = 0;        ///< sum of Slots[i].Bits
  unsigned KeyBytes = 0;         ///< packed Exact-key length
  unsigned KeyWords = 0;         ///< 64-bit words covering TotalBits
  bool Enabled = false;
};

/// A log of (word, previous value) pairs recorded by State's mutating
/// accessors, enabling O(changed-words) backtracking in the DFS.
class UndoLog {
public:
  using Mark = size_t;

  struct Entry {
    uint32_t Word;
    int64_t Old;
  };

  Mark mark() const { return Entries.size(); }
  void record(uint32_t Word, int64_t Old) { Entries.push_back({Word, Old}); }
  void clear() { Entries.clear(); }
  size_t size() const { return Entries.size(); }

  /// The recorded (word, previous value) pairs, oldest first. Read by the
  /// footprint-soundness property test: every word a step actually
  /// changed must fall inside its declared static footprint.
  const std::vector<Entry> &entries() const { return Entries; }

private:
  friend class State;
  std::vector<Entry> Entries;
};

/// A machine state: one flat int64_t buffer interpreted through a
/// StateLayout. Plain value type, copyable for search; copies are a
/// single allocation + memcpy. An attached UndoLog is deliberately NOT
/// propagated by copy/move/assignment — snapshots taken mid-search
/// (epilogue checks, child units, falsifier runs) must never write into
/// the parent's log.
class State {
public:
  State() = default;
  State(const StateLayout &L) : L(&L), V(L.Words, 0) {}

  State(const State &O) : L(O.L), V(O.V) {}
  State(State &&O) noexcept : L(O.L), V(std::move(O.V)) {}
  State &operator=(const State &O) {
    L = O.L;
    V = O.V;
    Log = nullptr;
    return *this;
  }
  State &operator=(State &&O) noexcept {
    L = O.L;
    V = std::move(O.V);
    Log = nullptr;
    return *this;
  }

  //===--------------------------------------------------------------------===//
  // Reads.
  //===--------------------------------------------------------------------===//

  int64_t global(unsigned Slot) const { return V[L->GlobalsOff + Slot]; }
  int64_t heap(size_t Slot) const { return V[L->HeapOff + Slot]; }
  int64_t allocCount() const { return V[L->AllocOff]; }
  uint32_t pc(unsigned Ctx) const {
    return static_cast<uint32_t>(V[L->CtxOff[Ctx]]);
  }
  int64_t local(unsigned Ctx, unsigned Slot) const {
    assert(Slot < L->LocalsCount[Ctx] && "bad local slot");
    return V[L->CtxOff[Ctx] + 1 + Slot];
  }
  unsigned numLocals(unsigned Ctx) const { return L->LocalsCount[Ctx]; }

  //===--------------------------------------------------------------------===//
  // Writes (logged when an UndoLog is attached).
  //===--------------------------------------------------------------------===//

  void setGlobal(unsigned Slot, int64_t Value) {
    set(L->GlobalsOff + Slot, Value);
  }
  void setHeap(size_t Slot, int64_t Value) {
    set(static_cast<uint32_t>(L->HeapOff + Slot), Value);
  }
  void setAllocCount(int64_t Value) { set(L->AllocOff, Value); }
  void setPc(unsigned Ctx, uint32_t Pc) {
    set(L->CtxOff[Ctx], static_cast<int64_t>(Pc));
  }
  void setLocal(unsigned Ctx, unsigned Slot, int64_t Value) {
    assert(Slot < L->LocalsCount[Ctx] && "bad local slot");
    set(L->CtxOff[Ctx] + 1 + Slot, Value);
  }

  //===--------------------------------------------------------------------===//
  // Undo log.
  //===--------------------------------------------------------------------===//

  /// Routes subsequent writes into \p NewLog (nullptr detaches). The log
  /// must outlive the attachment.
  void attachLog(UndoLog *NewLog) { Log = NewLog; }

  /// Rewinds the attached log to \p Mark, restoring every word it
  /// recorded since (in reverse, so multiply-written words end at their
  /// oldest value).
  void revertTo(UndoLog::Mark Mark) {
    assert(Log && "revertTo without an attached log");
    assert(Mark <= Log->Entries.size() && "mark from the future");
    for (size_t I = Log->Entries.size(); I-- > Mark;)
      V[Log->Entries[I].Word] = Log->Entries[I].Old;
    Log->Entries.resize(Mark);
  }

  //===--------------------------------------------------------------------===//
  // Whole-buffer access (keys, fingerprints, comparison).
  //===--------------------------------------------------------------------===//

  const int64_t *words() const { return V.data(); }
  unsigned numWords() const { return L ? L->Words : 0; }
  const StateLayout *layout() const { return L; }

  bool operator==(const State &O) const { return V == O.V; }
  bool operator!=(const State &O) const { return V != O.V; }

private:
  void set(uint32_t Word, int64_t Value) {
    int64_t &Slot = V[Word];
    if (Slot == Value)
      return; // unchanged words cost no log entry and no revert work
    if (Log)
      Log->record(Word, Slot);
    Slot = Value;
  }

  const StateLayout *L = nullptr;
  std::vector<int64_t> V;
  UndoLog *Log = nullptr;
};

} // namespace exec
} // namespace psketch

#endif // PSKETCH_EXEC_STATEVEC_H

//===- verify/Visited.h - Exact and fingerprint visited tables --*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal header: the seen-state tables behind CheckerConfig::Visited,
/// shared by the sequential checker (one VisitedTable) and the parallel
/// work-stealing engine (a 64-shard ShardedVisited). Both wrap the same
/// VisitedCell so Exact and Fingerprint dedup — including the optional
/// collision audit — behave identically in either engine.
///
/// Both tables see a state through one StateProbe: its canonical image,
/// packed and hashed once (Machine::stateKey), whose fingerprint the
/// sequential DFS also uses as its on-stack key. Exact mode owns the
/// full scheduler-relevant key (Machine::encodeState, 8 bytes per state
/// word, or the packed rendering), stored in a FlatExactTable: an
/// open-addressing slot array indexed by the state fingerprint plus a
/// chunked arena of key bytes. Exactness never rests on the fingerprint
/// (a slot hit is always confirmed by memcmp; a mismatch walks on) — the
/// fingerprint only places the entry. Fingerprint mode stores only the
/// 8-byte hash of the key; the audit (CheckerConfig::AuditFingerprints)
/// additionally keeps a bounded side-table of full keys per fingerprint
/// so a hash hit can be distinguished from a genuine revisit: a mismatch
/// increments the collision counter and the state is explored anyway
/// (Exact fallback).
///
/// Every entry also carries the sleep-set mask the state was (last)
/// entered with, for the sequential ample engine (docs/POR.md): plain
/// dedup is the mask-0 special case, so the pre-POR engines are
/// unchanged. A revisit with sleep set T of a state stored with mask B
/// is covered only when B is a subset of T (the prior visit explored
/// every transition this one would); otherwise the revisit must explore
/// the woken transitions B \ T and the stored mask shrinks to the
/// intersection — strictly, so re-expansion terminates.
///
/// Symmetry (CheckerConfig::Symmetry, docs/SYMMETRY.md): when a
/// Canonicalizer is attached, both tables key on the canonical image of
/// the state — computed here, *before* any fingerprinting, sharding, or
/// sleep-mask comparison, so all of those operate in canonical
/// coordinates. Sleep masks are per-thread bitsets in raw coordinates;
/// the chosen automorphism's CtxMap translates them into canonical
/// coordinates on the way in and back out on Wake, which is what makes
/// mask subset checks across symmetric revisits meaningful.
///
/// Spill tier (CheckerConfig::Store == VisitedStore::Spill,
/// docs/SPILL.md): each cell can be bounded by a byte budget and backed
/// by a SpillStore. Crossing the budget evicts the fingerprints of
/// mask-0 entries — whose revisits the in-memory table would always
/// Prune ((0 & ~Sleep) == 0 for every Sleep), so a disk hit reproduces
/// the in-memory decision exactly — to sorted on-disk runs; entries
/// carrying a live sleep mask stay resident. Probes consult the disk
/// tier only on an in-memory miss, BEFORE inserting, so a spilled
/// subtree is never re-explored and StatesExplored parity with Memory
/// mode is preserved. Without a budget or store this is all compiled
/// down to a null-pointer check per insert.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_VERIFY_VISITED_H
#define PSKETCH_VERIFY_VISITED_H

#include "exec/Machine.h"
#include "support/Hash.h"
#include "verify/Canon.h"
#include "verify/ModelChecker.h"
#include "verify/SpillStore.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>


namespace psketch {
namespace verify {
namespace detail {

/// Injectable fingerprint function over a state's scheduler-relevant
/// words. Production code uses hashWords; the forced-collision unit test
/// substitutes a degenerate hash.
using StateHashFn = uint64_t (*)(const int64_t *Words, size_t NumWords);

/// What a sleep-mask-aware insert decided (see the file comment).
enum class InsertOutcome : uint8_t {
  Fresh, ///< newly inserted: explore the state
  Prune, ///< revisit, prior visit covers this one: skip
  Wake,  ///< revisit, but some previously-slept transitions must now run
};

/// Open-addressing exact-key store: the Exact-mode backing of
/// VisitedCell. The slot array holds (fingerprint, entry index) pairs
/// placed by linear probing on the fingerprint; the key bytes live in
/// chunked arenas indexed by entry at a fixed stride (the first key's
/// length — one machine, one encoding), so keys never move and inserts
/// never allocate per key. A probe touches one slot cache line plus, on
/// a fingerprint match, the key bytes. A fingerprint match is always
/// confirmed by memcmp and a mismatch walks on, so dedup stays exact
/// under any hash, including the test suite's forced-collision one.
///
/// Keys of any other length — a packed layout's out-of-range escapes
/// render RawBytes+1 bytes where packed keys render KeyBytes
/// (exec/Machine.h) — land in a side map with plain string equality:
/// different lengths can never compare equal, so splitting by length
/// preserves exact dedup, and escapes are rare enough (PackEscapes) that
/// the map's extra cost never shows.
class FlatExactTable {
public:
  static constexpr uint32_t Absent = ~0u;

  /// Check-and-insert. \returns the entry's mask slot and whether the
  /// key was freshly inserted; a fresh entry's mask starts as \p Mask0.
  /// The pointer is valid until the next insert.
  std::pair<uint64_t *, bool> findOrInsert(uint64_t Fp, std::string_view Key,
                                           uint64_t Mask0) {
    if (Slots.empty())
      init(Key.size());
    if (Key.size() != KeyLen) {
      auto [It, New] = Odd.try_emplace(std::string(Key), Mask0);
      if (New)
        OddBytes += It->first.size() + sizeof(std::string) + sizeof(uint64_t);
      return {&It->second, New};
    }
    if ((Count + 1) * 10 > Slots.size() * 7)
      grow();
    size_t M = Slots.size() - 1;
    for (size_t I = Fp & M;; I = (I + 1) & M) {
      Slot &S = Slots[I];
      if (S.Idx == Absent) {
        assert(Count < Absent && "flat table full");
        S.Fp = Fp;
        S.Idx = static_cast<uint32_t>(Count);
        appendKey(Key);
        Masks.push_back(Mask0);
        ++Count;
        return {&Masks.back(), true};
      }
      if (S.Fp == Fp && std::memcmp(keyPtr(S.Idx), Key.data(), KeyLen) == 0)
        return {&Masks[S.Idx], false};
    }
  }

  /// True when \p Key is present (no insertion).
  bool find(uint64_t Fp, std::string_view Key) const {
    if (Slots.empty())
      return false;
    if (Key.size() != KeyLen)
      return Odd.count(std::string(Key)) != 0;
    size_t M = Slots.size() - 1;
    for (size_t I = Fp & M;; I = (I + 1) & M) {
      const Slot &S = Slots[I];
      if (S.Idx == Absent)
        return false;
      if (S.Fp == Fp && std::memcmp(keyPtr(S.Idx), Key.data(), KeyLen) == 0)
        return true;
    }
  }

  /// Bytes this table owns right now: the slot array, the key-arena
  /// chunks at their allocated (not just occupied) size, the mask array,
  /// and the odd-key side map. O(1) — it is the Exact-mode component of
  /// the in-RAM budget meter, consulted per insert.
  size_t ownedBytes() const {
    return Slots.size() * sizeof(Slot) +
           Arena.size() * std::max<size_t>(1, KeyLen << KeysPerChunkLog2) +
           Masks.size() * sizeof(uint64_t) + OddBytes;
  }

  /// Appends the fingerprint of every mask-0 entry to \p Out — the
  /// spill-eligible set: a mask-0 revisit always resolves to Prune, so
  /// a disk hit reproduces the in-memory decision exactly. Odd-length
  /// keys stay resident (they are rare packed-layout escapes). Does not
  /// modify the table: the caller commits via dropZeroMask() only after
  /// the spill succeeded, so an I/O failure loses nothing.
  void collectZeroMaskFps(std::vector<uint64_t> &Out) const {
    for (const Slot &S : Slots)
      if (S.Idx != Absent && Masks[S.Idx] == 0)
        Out.push_back(S.Fp);
  }

  /// Rebuilds the table retaining only entries with a nonzero stored
  /// mask (plus every odd-key entry) — the eviction commit paired with
  /// collectZeroMaskFps. Their key bytes are dropped: membership of the
  /// evicted set is answered by fingerprint from here on (docs/SPILL.md
  /// one-sided-error argument).
  void dropZeroMask() {
    if (Slots.empty())
      return;
    std::vector<Slot> OldSlots;
    OldSlots.swap(Slots);
    std::vector<std::unique_ptr<char[]>> OldArena;
    OldArena.swap(Arena);
    std::vector<uint64_t> OldMasks;
    OldMasks.swap(Masks);
    Count = 0;
    size_t Len = KeyLen;
    init(Len);
    for (const Slot &S : OldSlots) {
      if (S.Idx == Absent || OldMasks[S.Idx] == 0)
        continue;
      const char *K = OldArena[S.Idx >> KeysPerChunkLog2].get() +
                      (S.Idx & ((size_t(1) << KeysPerChunkLog2) - 1)) * Len;
      findOrInsert(S.Fp, std::string_view(K, Len), OldMasks[S.Idx]);
    }
  }

private:
  struct Slot {
    uint64_t Fp;
    uint32_t Idx; ///< arena entry, or Absent for an empty slot
    uint32_t Pad;
  };
  /// 8 Ki keys per arena chunk: large enough to amortize the chunk
  /// allocation, small enough that growth never copies key bytes.
  static constexpr size_t KeysPerChunkLog2 = 13;


  void init(size_t Len) {
    KeyLen = Len;
    Slots.assign(1024, Slot{0, Absent, 0});
  }

  void grow() {
    std::vector<Slot> Old(Slots.size() * 2, Slot{0, Absent, 0});
    Old.swap(Slots);
    size_t M = Slots.size() - 1;
    for (const Slot &S : Old) {
      if (S.Idx == Absent)
        continue;
      size_t I = S.Fp & M;
      while (Slots[I].Idx != Absent)
        I = (I + 1) & M;
      Slots[I] = S;
    }
  }

  const char *keyPtr(uint32_t Idx) const {
    return Arena[Idx >> KeysPerChunkLog2].get() +
           (Idx & ((size_t(1) << KeysPerChunkLog2) - 1)) * KeyLen;
  }

  void appendKey(std::string_view Key) {
    size_t Chunk = Count >> KeysPerChunkLog2;
    if (Chunk == Arena.size())
      Arena.push_back(std::make_unique<char[]>(
          std::max<size_t>(1, KeyLen << KeysPerChunkLog2)));
    std::memcpy(Arena[Chunk].get() +
                    (Count & ((size_t(1) << KeysPerChunkLog2) - 1)) * KeyLen,
                Key.data(), KeyLen);
  }

  std::vector<Slot> Slots; ///< power-of-two capacity
  std::vector<std::unique_ptr<char[]>> Arena;
  std::vector<uint64_t> Masks; ///< per entry: stored sleep mask
  std::unordered_map<std::string, uint64_t> Odd; ///< off-stride keys -> mask
  size_t Count = 0;
  size_t KeyLen = 0;
  size_t OddBytes = 0; ///< estimated bytes owned by Odd
};

/// One dedup domain: the whole table sequentially, one shard in the
/// parallel engine. Not synchronized — callers lock around it.
///
/// Key contract: \p Key must carry the exact key bytes whenever the
/// mode is Exact or the audit is on; a Fingerprint-mode call without
/// audit may pass an empty view (the bytes are never read), which is
/// what keeps that configuration allocation- and encoding-free.
class VisitedCell {
public:
  /// Attaches the disk tier (\p S null = VisitedStore::Memory) and the
  /// in-RAM byte budget (0 = unlimited; an abort watermark without a
  /// store, the eviction watermark with one). Called once, before any
  /// insert.
  void configure(SpillStore *S, uint64_t BudgetBytes) {
    Spill = S;
    Budget = BudgetBytes;
  }

  /// Mask-aware check-and-insert. \p Sleep is the sleep mask the state
  /// is being entered with (0 when sleep sets are off); on Wake,
  /// \p WakeOut receives the transitions a prior visit slept through
  /// that this one must explore. \p Fp is the state's fingerprint: the
  /// Fingerprint-mode key, the Exact-mode placement hint, and the spill
  /// tier's key. The disk tier is consulted only on an in-memory miss,
  /// BEFORE inserting — a spilled subtree is never re-explored, so
  /// Memory and Spill runs explore the same states.
  InsertOutcome insertMask(VisitedMode Mode, bool Audit, uint64_t AuditBudget,
                           uint64_t Fp, uint64_t Sleep, uint64_t &WakeOut,
                           std::string_view Key) {
    uint64_t *Slot = nullptr;
    if (Mode == VisitedMode::Exact) {
      // The extra find() is paid only once something has spilled: until
      // then diskHas() is false without touching the table.
      if (Spilled && !Flat.find(Fp, Key) && diskHas(Fp))
        return InsertOutcome::Prune;
      auto [MaskSlot, New] = Flat.findOrInsert(Fp, Key, Sleep);
      if (New) {
        maybeEnforceBudget();
        return InsertOutcome::Fresh;
      }
      Slot = MaskSlot;
    } else {
      auto It = Fps.find(Fp);
      if (It == Fps.end()) {
        if (diskHas(Fp))
          return InsertOutcome::Prune;
        It = Fps.emplace(Fp, Sleep).first;
        if (Audit && AuditEntries < AuditBudget) {
          AuditBytes += Key.size() + sizeof(std::string);
          AuditKeys[Fp].emplace_back(Key);
          ++AuditEntries;
        }
        maybeEnforceBudget();
        return InsertOutcome::Fresh;
      }
      // Fingerprint hit. When audited (and within budget at first sight)
      // compare exact bytes: a mismatch is a real collision — record it
      // and fall back to Exact behaviour, exploring the state. Colliding
      // states share one mask slot; mask decisions across a detected
      // collision inherit the same residual risk the audit already
      // counts.
      if (Audit) {
        auto AIt = AuditKeys.find(Fp);
        if (AIt != AuditKeys.end()) {
          bool Seen = false;
          for (const std::string &K : AIt->second)
            if (K == Key) {
              Seen = true;
              break;
            }
          if (!Seen) {
            ++Collisions;
            AuditBytes += Key.size() + sizeof(std::string);
            AIt->second.emplace_back(Key);
            return InsertOutcome::Fresh;
          }
        }
        // Over budget when first seen: indistinguishable from a revisit.
      }
      Slot = &It->second;
    }
    return resolveRevisit(*Slot, Sleep, WakeOut);
  }

  /// Plain check-and-insert (the mask-0 case). \returns true when the
  /// state was newly inserted (caller explores it), false on a revisit.
  bool insert(VisitedMode Mode, bool Audit, uint64_t AuditBudget, uint64_t Fp,
              std::string_view Key) {
    uint64_t Wake = 0;
    return insertMask(Mode, Audit, AuditBudget, Fp, /*Sleep=*/0, Wake, Key) ==
           InsertOutcome::Fresh;
  }

  /// Read-only membership probe (the parallel/BFS cycle proviso). In
  /// Fingerprint mode a collision can answer a false "yes", which only
  /// forces a sound full expansion — and so can a spilled-tier hit,
  /// for the same reason with the same consequence.
  bool contains(VisitedMode Mode, uint64_t Fp, std::string_view Key) const {
    if (Mode == VisitedMode::Exact)
      return Flat.find(Fp, Key) || diskHas(Fp);
    return Fps.count(Fp) != 0 || diskHas(Fp);
  }

  /// True once a Memory-mode budget was crossed (the abort watermark;
  /// never set in Spill mode, where the budget evicts instead).
  bool overBudget() const { return OverBudget; }

  uint64_t collisions() const { return Collisions; }

  /// Bytes the in-RAM tier owns right now — the exact table's
  /// slots/arena/masks, 8 per resident fingerprint, and the audit
  /// side-table. Computed (not cumulative), so eviction shrinks it;
  /// it is also the budget meter.
  uint64_t keyBytes() const {
    return Flat.ownedBytes() + Fps.size() * sizeof(uint64_t) + AuditBytes;
  }

private:
  /// The shared revisit tail: the prior visits explored everything
  /// outside the stored mask; covered iff that includes everything
  /// outside Sleep.
  static InsertOutcome resolveRevisit(uint64_t &Slot, uint64_t Sleep,
                                      uint64_t &WakeOut) {
    uint64_t Stored = Slot;
    if ((Stored & ~Sleep) == 0)
      return InsertOutcome::Prune;
    WakeOut = Stored & ~Sleep; // slept then, needed now
    Slot = Stored & Sleep;     // strictly shrinks: re-expansion terminates
    return InsertOutcome::Wake;
  }

  /// Is \p Fp in the disk tier? False without touching the store before
  /// anything spilled.
  bool diskHas(uint64_t Fp) const {
    return Spilled && Spill->contains(Fp & (SpillStore::NumShards - 1), Fp);
  }

  /// Budget watermark, consulted after every fresh insert. Memory mode:
  /// crossing it latches OverBudget (the engines abort like MaxStates).
  /// Spill mode: crossing it evicts. A failed store cannot accept
  /// evictions — everything stays in RAM (sound; surfaced as
  /// CheckResult::SpillFallback) and the budget is waived.
  void maybeEnforceBudget() {
    uint64_t Bytes;
    if (Budget == 0 || (Bytes = keyBytes()) <= Budget)
      return;
    if (!Spill) {
      OverBudget = true;
      return;
    }
    if (!Spill->ok() || Bytes < SpillRearmAt)
      return;
    spillNow();
    uint64_t After = keyBytes();
    // Hysteresis: when eviction freed little (mask-carrying entries
    // cannot spill), retry only after the tier has grown by a quarter
    // budget — never a full-table scan per insert.
    SpillRearmAt = After > Budget ? After + Budget / 4 + 1024 : 0;
  }

  /// Evicts every mask-0 fingerprint to the disk tier. All-or-nothing
  /// commit: the in-RAM entries are erased only after every shard's run
  /// was written, so an I/O failure mid-way loses nothing (some
  /// fingerprints then live in both tiers, which is sound — the
  /// in-memory probe answers first).
  void spillNow() {
    std::vector<uint64_t> Evict;
    for (const auto &KV : Fps)
      if (KV.second == 0)
        Evict.push_back(KV.first);
    Flat.collectZeroMaskFps(Evict);
    if (Evict.empty())
      return; // every resident entry carries a live sleep mask
    std::sort(Evict.begin(), Evict.end(), [](uint64_t A, uint64_t B) {
      unsigned SA = A & (SpillStore::NumShards - 1);
      unsigned SB = B & (SpillStore::NumShards - 1);
      return SA != SB ? SA < SB : A < B;
    });
    Evict.erase(std::unique(Evict.begin(), Evict.end()), Evict.end());
    Spilled = true;
    bool AllOk = true;
    for (size_t Lo = 0; Lo < Evict.size() && AllOk;) {
      unsigned Shard = Evict[Lo] & (SpillStore::NumShards - 1);
      size_t Hi = Lo + 1;
      while (Hi < Evict.size() &&
             (Evict[Hi] & (SpillStore::NumShards - 1)) == Shard)
        ++Hi;
      AllOk = Spill->spill(Shard, Evict.data() + Lo, Hi - Lo);
      Lo = Hi;
    }
    if (!AllOk)
      return; // store marked failed; every entry stays resident
    for (uint64_t Fp : Evict) {
      Fps.erase(Fp);
      auto It = AuditKeys.find(Fp);
      if (It == AuditKeys.end())
        continue;
      // The spilled set is fingerprint-grade: its audit keys go too.
      for (const std::string &K : It->second)
        AuditBytes -= K.size() + sizeof(std::string);
      AuditEntries -= It->second.size();
      AuditKeys.erase(It);
    }
    Flat.dropZeroMask();
  }

  FlatExactTable Flat;                        ///< Exact-mode store
  std::unordered_map<uint64_t, uint64_t> Fps; ///< fp -> sleep mask
  std::unordered_map<uint64_t, std::vector<std::string>> AuditKeys;
  uint64_t AuditEntries = 0;
  uint64_t Collisions = 0;
  uint64_t AuditBytes = 0;   ///< bytes owned by the audit side-table
  SpillStore *Spill = nullptr; ///< disk tier (null = Memory mode)
  uint64_t Budget = 0;         ///< in-RAM byte budget (0 = unlimited)
  bool Spilled = false;        ///< an eviction has run (disk may answer)
  uint64_t SpillRearmAt = 0;   ///< eviction hysteresis threshold
  bool OverBudget = false;     ///< Memory-mode abort watermark latched
};

/// One probe of a state: its canonical image (under an active symmetry),
/// packed and hashed once (Machine::stateKey). Key.Bytes views per-thread
/// scratch or the state itself, so a probe must be consumed before the
/// next probe, canonicalization or mutation of the state on its thread.
struct StateProbe {
  exec::Machine::StateKey Key;
  unsigned PermIdx = Canonicalizer::IdentityPerm;
};

/// Canonicalizes \p S once (when \p Canon is non-null) and renders its
/// key once: the single canonicalize-pack-hash both tables key on.
inline StateProbe probeState(const exec::Machine &M, const exec::State &S,
                             const Canonicalizer *Canon, StateHashFn Hash) {
  StateProbe P;
  const int64_t *W =
      Canon ? Canon->canonicalize(S.words(), P.PermIdx) : S.words();
  P.Key = M.stateKey(W, Hash);
  return P;
}

/// Counts one entered state's escape and canonical rewrite
/// (Machine::packEscapes, Canonicalizer::canonHits). Every insert path
/// calls this exactly once per state it is offered; membership probes
/// never do.
inline void noteEntered(const exec::Machine &M, const Canonicalizer *Canon,
                        const StateProbe &P) {
  if (P.Key.Escaped)
    M.notePackEscape();
  if (P.PermIdx != Canonicalizer::IdentityPerm)
    Canon->noteHit();
}

/// The sequential engine's visited table.
class VisitedTable {
public:
  explicit VisitedTable(const CheckerConfig &Cfg,
                        StateHashFn Hash = &hashWords,
                        const Canonicalizer *Canon = nullptr,
                        SpillStore *Spill = nullptr)
      : Mode(Cfg.Visited), Audit(Cfg.AuditFingerprints),
        AuditBudget(Cfg.AuditBudget), Hash(Hash), Canon(Canon) {
    Cell.configure(Spill, Cfg.VisitedBudgetBytes);
  }

  /// The state's single probe (canonical image, key bytes and
  /// fingerprint); the engines share it between the DFS cycle proviso
  /// and the insert below.
  StateProbe probe(const exec::Machine &M, const exec::State &S) const {
    return probeState(M, S, Canon, Hash);
  }

  /// \returns true when the probed state was newly inserted.
  bool insert(const exec::Machine &M, const StateProbe &P) {
    noteEntered(M, Canon, P);
    return Cell.insert(Mode, Audit, AuditBudget, P.Key.Fp, P.Key.Bytes);
  }
  bool insert(const exec::Machine &M, const exec::State &S) {
    return insert(M, probe(M, S));
  }

  /// Mask-aware insert for the sleep-set DFS (file comment). Sleep/wake
  /// masks are in raw thread coordinates; translation through the chosen
  /// automorphism happens here.
  InsertOutcome insertMask(const exec::Machine &M, const StateProbe &P,
                           uint64_t Sleep, uint64_t &WakeOut) {
    noteEntered(M, Canon, P);
    uint64_t CSleep = Canon ? Canon->maskToCanonical(P.PermIdx, Sleep) : Sleep;
    uint64_t CWake = 0;
    InsertOutcome Out = Cell.insertMask(Mode, Audit, AuditBudget, P.Key.Fp,
                                        CSleep, CWake, P.Key.Bytes);
    if (Out == InsertOutcome::Wake)
      WakeOut = Canon ? Canon->maskFromCanonical(P.PermIdx, CWake) : CWake;
    return Out;
  }
  InsertOutcome insertMask(const exec::Machine &M, const exec::State &S,
                           uint64_t Sleep, uint64_t &WakeOut) {
    return insertMask(M, probe(M, S), Sleep, WakeOut);
  }

  /// True when the probed state is already in the table (no insertion).
  bool contains(const StateProbe &P) const {
    return Cell.contains(Mode, P.Key.Fp, P.Key.Bytes);
  }
  bool contains(const exec::Machine &M, const exec::State &S) const {
    return contains(probe(M, S));
  }

  /// The injected word-hash (the undo DFS reuses the probe's
  /// fingerprint as its on-stack key only under the default hash).
  StateHashFn hashFn() const { return Hash; }

  uint64_t collisions() const { return Cell.collisions(); }
  uint64_t keyBytes() const { return Cell.keyBytes(); }

  /// True once a Memory-mode byte budget was crossed (the engines treat
  /// it exactly like hitting MaxStates).
  bool overBudget() const { return Cell.overBudget(); }

private:
  VisitedMode Mode;
  bool Audit;
  uint64_t AuditBudget;
  StateHashFn Hash;
  const Canonicalizer *Canon;
  VisitedCell Cell;
};

/// Mutex-striped seen-state table for the parallel engine. The stripe
/// count only needs to beat the worker count comfortably; 64 keeps
/// contention negligible without wasting cache. The fingerprint doubles
/// as the shard index (it is computed in both modes — in Exact mode it
/// also places the entry in the shard's flat table).
class ShardedVisited {
public:
  explicit ShardedVisited(const CheckerConfig &Cfg,
                          StateHashFn Hash = &hashWords,
                          const Canonicalizer *Canon = nullptr,
                          SpillStore *Spill = nullptr)
      : Mode(Cfg.Visited), Audit(Cfg.AuditFingerprints),
        AuditBudget(Cfg.AuditBudget / NumShards + 1), Hash(Hash),
        Canon(Canon) {
    // SpillStore::NumShards == our NumShards and both stripe on Fp & 63,
    // so cell k only ever touches spill shard k — always under cell k's
    // mutex, which is the store's whole synchronization story.
    static_assert(SpillStore::NumShards == NumShards,
                  "spill shards must mirror visited shards");
    uint64_t PerShard =
        Cfg.VisitedBudgetBytes ? Cfg.VisitedBudgetBytes / NumShards + 1 : 0;
    for (ShardT &S : Shards)
      S.Cell.configure(Spill, PerShard);
  }

  /// \returns true when \p S was newly inserted. Check-and-insert is
  /// atomic per shard. The state is probed once (canonical image, key
  /// bytes and the fingerprint that picks the shard) outside the lock.
  bool insert(const exec::Machine &M, const exec::State &S) {
    StateProbe P = probeState(M, S, Canon, Hash);
    noteEntered(M, Canon, P);
    ShardT &Shard = Shards[P.Key.Fp & (NumShards - 1)];
    std::lock_guard<std::mutex> Lock(Shard.Mu);
    bool Fresh = Shard.Cell.insert(Mode, Audit, AuditBudget, P.Key.Fp,
                                   P.Key.Bytes);
    if (Shard.Cell.overBudget())
      AnyOverBudget.store(true, std::memory_order_relaxed);
    return Fresh;
  }

  /// True when \p S is already in the table. Used by the parallel ample
  /// engine's cycle-proviso probe: insertion happens-before expansion
  /// under the shard mutex, so the last-expanded state on any reduced
  /// cycle is guaranteed to see its successor here (docs/POR.md).
  /// Canonicalization keeps that argument intact: both the insert and
  /// the probe key on the same canonical image.
  bool contains(const exec::Machine &M, const exec::State &S) const {
    StateProbe P = probeState(M, S, Canon, Hash);
    const ShardT &Shard = Shards[P.Key.Fp & (NumShards - 1)];
    std::lock_guard<std::mutex> Lock(Shard.Mu);
    return Shard.Cell.contains(Mode, P.Key.Fp, P.Key.Bytes);
  }

  uint64_t collisions() const {
    uint64_t Total = 0;
    for (const ShardT &Shard : Shards) {
      std::lock_guard<std::mutex> Lock(Shard.Mu);
      Total += Shard.Cell.collisions();
    }
    return Total;
  }
  uint64_t keyBytes() const {
    uint64_t Total = 0;
    for (const ShardT &Shard : Shards) {
      std::lock_guard<std::mutex> Lock(Shard.Mu);
      Total += Shard.Cell.keyBytes();
    }
    return Total;
  }

  /// True once ANY shard crossed a Memory-mode budget (one relaxed load
  /// — cheap enough for the workers' per-state abort check; the flag is
  /// set under the crossing shard's lock).
  bool overBudget() const {
    return AnyOverBudget.load(std::memory_order_relaxed);
  }

private:
  static constexpr size_t NumShards = 64;
  struct alignas(64) ShardT {
    mutable std::mutex Mu;
    VisitedCell Cell;
  };

  VisitedMode Mode;
  bool Audit;
  uint64_t AuditBudget;
  StateHashFn Hash;
  const Canonicalizer *Canon;
  std::atomic<bool> AnyOverBudget{false};
  ShardT Shards[NumShards];
};

} // namespace detail
} // namespace verify
} // namespace psketch

#endif // PSKETCH_VERIFY_VISITED_H

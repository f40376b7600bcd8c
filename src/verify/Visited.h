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
/// fingerprint only places the entry, which is what lets the batched
/// probes software-prefetch the slot line and the key bytes across a
/// whole batch of lanes (docs/BATCHING.md). Fingerprint mode stores only
/// the 8-byte hash of the key; the audit
/// (CheckerConfig::AuditFingerprints) additionally keeps a bounded
/// side-table of full keys per fingerprint so a hash hit can be
/// distinguished from a genuine revisit: a mismatch increments the
/// collision counter and the state is explored anyway (Exact fallback).
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
/// mode is preserved. Batched probes pre-compute per-lane disk hints in
/// one sorted sweep (spillHints); an eviction epoch invalidates hints
/// that predate a mid-batch spill. Without a budget or store this is
/// all compiled down to a null-pointer check per insert.
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
/// a fingerprint match, the key bytes — two dependent loads the batched
/// probe sweeps expose to software prefetch (VisitedTable::
/// insertMaskWordsBatch), overlapping across lanes the DRAM latency a
/// scalar probe chain serializes. A fingerprint match is always
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

  /// Prefetch stage 1: pull in \p Fp's slot line. Address arithmetic
  /// only, so it is the first sweep of a batch.
  void prefetchSlot(uint64_t Fp) const {
    if (!Slots.empty())
      __builtin_prefetch(&Slots[Fp & (Slots.size() - 1)]);
  }

  /// Pipeline stage 2: walk the probe chain for \p Fp and return the
  /// key bytes a later findOrInsert would memcmp against, or null when
  /// the window holds no fingerprint match. The walk's slot reads and
  /// the volatile touches of the key's first and last lines are real
  /// (demand) loads on purpose: a multi-hundred-MiB arena on 4 KiB
  /// pages misses the TLB on essentially every probe, and hardware
  /// drops __builtin_prefetch requests whose translation misses —
  /// demand loads instead start the page walks, and independent lanes'
  /// touches overlap in the out-of-order window. Bounded and
  /// side-effect-free; chains longer than the window just lose the
  /// warm-up, and the later real probe decides everything.
  const char *touchKey(uint64_t Fp) const {
    if (Slots.empty())
      return nullptr;
    size_t M = Slots.size() - 1;
    size_t I = Fp & M;
    for (unsigned P = 0; P < 8; ++P, I = (I + 1) & M) {
      const Slot &S = Slots[I];
      if (S.Idx == Absent)
        return nullptr;
      if (S.Fp == Fp) {
        const char *K = keyPtr(S.Idx);
        (void)*static_cast<const volatile char *>(K);
        (void)*static_cast<const volatile char *>(K + (KeyLen - 1));
        return K;
      }
    }
    return nullptr;
  }

  /// Pipeline stage 3: prefetch the interior lines of a key returned
  /// by touchKey. Its pages are translated (or translating) after the
  /// stage-2 touches, so these prefetches survive, and the whole
  /// batch's key bytes stream at bandwidth instead of serializing
  /// inside per-lane memcmp miss trains.
  void prefetchKeyLines(const char *K) const {
    for (size_t Off = 64; Off + 64 < KeyLen; Off += 64)
      __builtin_prefetch(K + Off);
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
  /// Disk-hint values for insertMask's trailing parameter: the batched
  /// pipeline pre-answers "is this fingerprint spilled?" for a whole
  /// batch in one sorted sweep (spillHints); HintUnknown makes the
  /// insert probe the disk itself (the scalar path).
  static constexpr uint8_t HintMiss = 0;
  static constexpr uint8_t HintHit = 1;
  static constexpr uint8_t HintUnknown = 2;

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
                           std::string_view Key,
                           uint8_t DiskHint = HintUnknown) {
    uint64_t *Slot = nullptr;
    if (Mode == VisitedMode::Exact) {
      // The extra find() is paid only once something has spilled: until
      // then diskHas() is false without touching the table.
      if (Spill && SpillEpoch != 0 && !Flat.find(Fp, Key) &&
          diskHas(Fp, DiskHint))
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
        if (diskHas(Fp, DiskHint))
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
              std::string_view Key, uint8_t DiskHint = HintUnknown) {
    uint64_t Wake = 0;
    return insertMask(Mode, Audit, AuditBudget, Fp, /*Sleep=*/0, Wake, Key,
                      DiskHint) == InsertOutcome::Fresh;
  }

  /// Read-only membership probe (the parallel/BFS cycle proviso). In
  /// Fingerprint mode a collision can answer a false "yes", which only
  /// forces a sound full expansion — and so can a spilled-tier hit,
  /// for the same reason with the same consequence.
  bool contains(VisitedMode Mode, uint64_t Fp, std::string_view Key) const {
    if (Mode == VisitedMode::Exact)
      return Flat.find(Fp, Key) || diskHas(Fp, HintUnknown);
    return Fps.count(Fp) != 0 || diskHas(Fp, HintUnknown);
  }

  /// Batched disk pre-probe over \p Lanes fingerprints (the frontier
  /// pipeline's spill sweep): fills Hint[K] with HintHit/HintMiss and
  /// returns the eviction epoch the answers are valid for. A lane whose
  /// insert runs after a newer eviction must downgrade its hint to
  /// HintUnknown — the eviction may have just spilled a sibling lane's
  /// fingerprint. Pre-probing every lane is safe because hints are only
  /// consulted on an in-memory miss. All-HintMiss (trivially valid)
  /// when nothing has spilled yet. Lanes are sorted by (shard, value)
  /// so every on-disk run is swept once, monotonically.
  uint64_t spillHints(const uint64_t *Fp, unsigned Lanes,
                      uint8_t *Hint) const {
    if (!Spill || SpillEpoch == 0) {
      std::fill(Hint, Hint + Lanes, HintMiss);
      return SpillEpoch;
    }
    static thread_local std::vector<std::pair<uint64_t, unsigned>> Order;
    static thread_local std::vector<uint64_t> SortedFp;
    static thread_local std::vector<uint8_t> SortedHit;
    Order.clear();
    for (unsigned K = 0; K < Lanes; ++K)
      Order.emplace_back(Fp[K], K);
    std::sort(Order.begin(), Order.end(), [](const auto &A, const auto &B) {
      unsigned SA = A.first & (SpillStore::NumShards - 1);
      unsigned SB = B.first & (SpillStore::NumShards - 1);
      return SA != SB ? SA < SB : A.first < B.first;
    });
    SortedFp.resize(Lanes);
    SortedHit.resize(Lanes);
    for (unsigned K = 0; K < Lanes; ++K)
      SortedFp[K] = Order[K].first;
    for (unsigned Lo = 0; Lo < Lanes;) {
      unsigned Shard = SortedFp[Lo] & (SpillStore::NumShards - 1);
      unsigned Hi = Lo + 1;
      while (Hi < Lanes &&
             (SortedFp[Hi] & (SpillStore::NumShards - 1)) == Shard)
        ++Hi;
      Spill->containsBatch(Shard, SortedFp.data() + Lo, Hi - Lo,
                           SortedHit.data() + Lo);
      Lo = Hi;
    }
    for (unsigned K = 0; K < Lanes; ++K)
      Hint[Order[K].second] = SortedHit[K] ? HintHit : HintMiss;
    return SpillEpoch;
  }

  /// Monotone eviction counter validating spillHints results.
  uint64_t spillEpoch() const { return SpillEpoch; }

  /// True once a Memory-mode budget was crossed (the abort watermark;
  /// never set in Spill mode, where the budget evicts instead).
  bool overBudget() const { return OverBudget; }

  /// Exact-mode batched-probe pipeline stages (no-ops on an empty
  /// table; meaningless but harmless in Fingerprint mode, where callers
  /// skip them).
  void prefetchSlot(uint64_t Fp) const { Flat.prefetchSlot(Fp); }
  const char *touchKey(uint64_t Fp) const { return Flat.touchKey(Fp); }
  void prefetchKeyLines(const char *K) const { Flat.prefetchKeyLines(K); }

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

  /// Is \p Fp in the disk tier? False before anything spilled; a valid
  /// batched hint answers without touching the store.
  bool diskHas(uint64_t Fp, uint8_t Hint) const {
    if (!Spill || SpillEpoch == 0)
      return false;
    if (Hint != HintUnknown)
      return Hint == HintHit;
    return Spill->contains(Fp & (SpillStore::NumShards - 1), Fp);
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
    ++SpillEpoch; // batched disk hints issued before this are now stale
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
  uint64_t SpillEpoch = 0;     ///< evictions so far (hint validity)
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
    Canon->noteHits(1);
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

  /// Batched mask-aware insert over an ALREADY-canonicalized word-major
  /// block (the frontier engine's probe): lane K's canonical words sit in
  /// \p B, its fingerprint — computed by the caller in one
  /// fingerprintBatchWith(B, Lanes, hashFn(), ...) sweep, so one hash pass
  /// serves both this table and the DFS on-stack set — in Fp[K], its
  /// chosen automorphism in PermIdx[K], its raw-coordinate sleep mask in
  /// Sleep[K]. Out[K] / WakeOut[K] match insertMask on lane K exactly.
  /// Exact mode prefetches the batch's slot lines and key bytes first,
  /// then gathers each lane into one reused scratch buffer and probes by
  /// view, so revisits allocate nothing. The batch entry points count no
  /// escapes or canonical rewrites: their caller (FrontierBatch) does.
  void insertMaskBatch(const exec::Machine &M, const exec::SchedBlock &B,
                       unsigned Lanes, const uint64_t *Fp,
                       const unsigned *PermIdx, const uint64_t *Sleep,
                       InsertOutcome *Out, uint64_t *WakeOut) {
    static thread_local std::vector<int64_t> Tmp;
    static thread_local std::vector<uint8_t> Hints;
    Tmp.resize(B.numWords());
    Hints.resize(Lanes);
    uint64_t Epoch = Cell.spillHints(Fp, Lanes, Hints.data());
    if (Mode == VisitedMode::Exact) {
      static thread_local std::vector<const char *> Keys;
      Keys.resize(Lanes);
      for (unsigned K = 0; K < Lanes; ++K)
        Cell.prefetchSlot(Fp[K]);
      for (unsigned K = 0; K < Lanes; ++K)
        Keys[K] = Cell.touchKey(Fp[K]);
      for (unsigned K = 0; K < Lanes; ++K)
        if (Keys[K])
          Cell.prefetchKeyLines(Keys[K]);
    }
    for (unsigned K = 0; K < Lanes; ++K) {
      uint64_t CSleep =
          Canon ? Canon->maskToCanonical(PermIdx[K], Sleep[K]) : Sleep[K];
      uint64_t CWake = 0;
      std::string_view Key;
      if (Mode == VisitedMode::Exact || Audit) {
        B.gatherLane(K, Tmp.data());
        Key = M.encodeWordsView(Tmp.data());
      }
      InsertOutcome O = Cell.insertMask(
          Mode, Audit, AuditBudget, Fp[K], CSleep, CWake, Key,
          Cell.spillEpoch() == Epoch ? Hints[K] : VisitedCell::HintUnknown);
      Out[K] = O;
      WakeOut[K] =
          O == InsertOutcome::Wake
              ? (Canon ? Canon->maskFromCanonical(PermIdx[K], CWake) : CWake)
              : 0;
    }
  }

  /// Batched mask-aware insert straight from per-lane scheduler words —
  /// the no-canonicalization fast path (FrontierBatch::probeMask): no
  /// SoA block involved at all. In Exact mode, three sweeps — slot
  /// prefetch, key prefetch, probe — overlap the probe chain's
  /// dependent cache misses across the batch. Lanes are probed in
  /// order, so an intra-batch duplicate resolves exactly like
  /// sequential insertMask calls; with no canonicalizer, sleep masks
  /// need no coordinate translation.
  void insertMaskWordsBatch(const exec::Machine &M,
                            const int64_t *const *W, const uint64_t *Fp,
                            const uint64_t *Sleep, unsigned Lanes,
                            InsertOutcome *Out, uint64_t *WakeOut) {
    assert(!Canon && "canonicalized batches go through insertMaskBatch");
    static thread_local std::vector<uint8_t> Hints;
    Hints.resize(Lanes);
    uint64_t Epoch = Cell.spillHints(Fp, Lanes, Hints.data());
    if (Mode == VisitedMode::Exact) {
      static thread_local std::vector<const char *> Keys;
      Keys.resize(Lanes);
      for (unsigned K = 0; K < Lanes; ++K)
        Cell.prefetchSlot(Fp[K]);
      for (unsigned K = 0; K < Lanes; ++K)
        Keys[K] = Cell.touchKey(Fp[K]);
      for (unsigned K = 0; K < Lanes; ++K)
        if (Keys[K])
          Cell.prefetchKeyLines(Keys[K]);
    }
    for (unsigned K = 0; K < Lanes; ++K) {
      uint64_t Wake = 0;
      Out[K] = Cell.insertMask(
          Mode, Audit, AuditBudget, Fp[K], Sleep[K], Wake, keyView(M, W[K]),
          Cell.spillEpoch() == Epoch ? Hints[K] : VisitedCell::HintUnknown);
      WakeOut[K] = Out[K] == InsertOutcome::Wake ? Wake : 0;
    }
  }

  /// The injected word-hash (batched callers pre-compute lane
  /// fingerprints with it).
  StateHashFn hashFn() const { return Hash; }

  /// Which dedup mode the table runs (batched callers route their
  /// probe through it).
  VisitedMode mode() const { return Mode; }

  uint64_t collisions() const { return Cell.collisions(); }
  uint64_t keyBytes() const { return Cell.keyBytes(); }

  /// True once a Memory-mode byte budget was crossed (the engines treat
  /// it exactly like hitting MaxStates).
  bool overBudget() const { return Cell.overBudget(); }

private:
  std::string_view keyView(const exec::Machine &M, const int64_t *W) const {
    // The exact bytes are only needed by Exact mode or the audit
    // (VisitedCell's key contract); the batch probes skip them otherwise.
    return Mode == VisitedMode::Exact || Audit ? M.encodeWordsView(W)
                                               : std::string_view();
  }

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

  /// Batched check-and-insert over an ALREADY-canonicalized word-major
  /// block: lane fingerprints — computed by the caller in one
  /// fingerprintBatchWith(B, Lanes, hashFn(), ...) sweep — pick the
  /// shards (in Exact mode too, exactly like insert()), lanes are grouped
  /// by target shard, and each touched shard is locked exactly once per
  /// batch — amortizing the per-state lock/unlock the scalar path pays.
  /// Within a shard group the Exact probe runs the same
  /// prefetch-slots/prefetch-keys/probe pipeline as the sequential
  /// batch. Fresh[K] matches what insert() on lane K would have
  /// returned. \p AoS, when non-null, points at the lanes' row-major
  /// states and must hold the same words as \p B (the
  /// no-canonicalization case): keys are then viewed straight from the
  /// states, skipping the per-lane SoA gather. Like the sequential batch
  /// probes, it leaves escape and rewrite counting to its caller.
  void insertBatch(const exec::Machine &M, const exec::SchedBlock &B,
                   unsigned Lanes, const uint64_t *Fp, uint8_t *Fresh,
                   const exec::State *AoS = nullptr) {
    static thread_local std::vector<int64_t> Tmp;
    static thread_local std::vector<uint8_t> Done;
    static thread_local std::vector<unsigned> Group;
    Tmp.resize(B.numWords());
    Done.assign(Lanes, 0);
    for (unsigned K = 0; K < Lanes; ++K) {
      if (Done[K])
        continue;
      size_t ShardIdx = Fp[K] & (NumShards - 1);
      Group.clear();
      for (unsigned J = K; J < Lanes; ++J)
        if (!Done[J] && (Fp[J] & (NumShards - 1)) == ShardIdx) {
          Done[J] = 1;
          Group.push_back(J);
        }
      ShardT &Shard = Shards[ShardIdx];
      std::lock_guard<std::mutex> Lock(Shard.Mu);
      // Disk hints for the whole group in one sorted sweep, under the
      // same lock the inserts run under; a mid-group eviction (epoch
      // bump) downgrades the remaining lanes to a scalar disk probe.
      static thread_local std::vector<uint64_t> GFp;
      static thread_local std::vector<uint8_t> GHint;
      GFp.clear();
      for (unsigned J : Group)
        GFp.push_back(Fp[J]);
      GHint.resize(Group.size());
      uint64_t Epoch = Shard.Cell.spillHints(
          GFp.data(), static_cast<unsigned>(Group.size()), GHint.data());
      if (Mode == VisitedMode::Exact) {
        for (unsigned J : Group)
          Shard.Cell.prefetchSlot(Fp[J]);
        for (unsigned J : Group)
          if (const char *K = Shard.Cell.touchKey(Fp[J]))
            Shard.Cell.prefetchKeyLines(K);
      }
      for (size_t GI = 0; GI < Group.size(); ++GI) {
        unsigned J = Group[GI];
        std::string_view Key;
        if (Mode == VisitedMode::Exact || Audit) {
          const int64_t *W;
          if (AoS) {
            W = AoS[J].words();
          } else {
            B.gatherLane(J, Tmp.data());
            W = Tmp.data();
          }
          Key = M.encodeWordsView(W);
        }
        Fresh[J] = Shard.Cell.insert(Mode, Audit, AuditBudget, Fp[J], Key,
                                     Shard.Cell.spillEpoch() == Epoch
                                         ? GHint[GI]
                                         : VisitedCell::HintUnknown);
      }
      if (Shard.Cell.overBudget())
        AnyOverBudget.store(true, std::memory_order_relaxed);
    }
  }

  /// The injected word-hash (batched callers pre-compute lane
  /// fingerprints with it).
  StateHashFn hashFn() const { return Hash; }

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

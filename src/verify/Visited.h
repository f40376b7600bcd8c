//===- verify/Visited.h - Exact visited tables ------------------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal header: the seen-state tables of the checker — one
/// VisitedTable for a single worker, one 64-shard ShardedVisited shared
/// by the workers of a parallel search. Both wrap the same VisitedCell
/// and offer the same insert / insertMask interface, so the undo-log DFS
/// core (verify/SearchCore.h) runs unchanged over either.
///
/// Both tables see a state through one StateProbe: its canonical image,
/// packed and hashed once (Machine::stateKey). A cell owns the full
/// scheduler-relevant key (Machine::encodeState, 8 bytes per state word,
/// or the packed rendering) in a chunked arena, found through an
/// open-addressing array of 8-byte slots, each a 32-bit fingerprint tag
/// and an arena index. Exactness never rests on the fingerprint (a tag
/// hit is always confirmed by memcmp; a mismatch walks on) — the
/// fingerprint only places the entry.
///
/// Every arena entry stores, in front of its key, the sleep-set mask the
/// state was (last) entered with, in as many bytes as the machine has
/// threads to name, for the ample engine's sleep sets (docs/POR.md):
/// plain dedup is the mask-0 special case. A revisit with sleep set T of a
/// state stored with mask B is covered only when B is a subset of T (the
/// prior visits explore every transition this one would); otherwise the
/// revisit must explore the woken transitions B \ T and the stored mask
/// shrinks to the intersection — strictly, so re-expansion terminates.
/// The sharded table runs the same protocol under the shard lock.
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
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_VERIFY_VISITED_H
#define PSKETCH_VERIFY_VISITED_H

#include "exec/Machine.h"
#include "support/Hash.h"
#include "verify/Canon.h"

#include <algorithm>
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

/// Sleep sets are per-thread bit masks; the DFS disables them
/// beyond 64 threads (far past anything the suite models).
constexpr unsigned MaxSleepThreads = 64;

/// Bytes of sleep mask a visited entry stores for machine \p M: one bit
/// per thread a sleep set can name.
inline unsigned maskBytesOf(const exec::Machine &M) {
  return (std::min(M.numThreads(), MaxSleepThreads) + 7) / 8;
}

/// One dedup domain: the whole table for one worker, one shard of the
/// shared table. Not synchronized — callers lock around it.
///
/// The slot array is open-addressed by linear probing. A slot is one
/// 64-bit word: the fingerprint's high 32 bits (the tag) over the entry
/// index plus one, 0 meaning empty. The home slot is the tag modulo the
/// capacity, so grow() re-places every entry from its slot word alone,
/// and the sharded table's shard choice (the fingerprint's low bits)
/// never correlates with the in-shard position.
///
/// Entries live in chunked arenas at a fixed stride: the entry's sleep
/// mask (MaskBytes little-endian bytes, fixed by the first insert: the
/// machine's thread count rounded up to bytes) followed by its key (the
/// first key's length — one machine, one encoding). Entries never move
/// and inserts never allocate per key. A probe touches one slot word
/// plus, on a tag match, one entry: the key bytes and the mask beside
/// them. A tag match is always confirmed by memcmp and a mismatch walks
/// on, so dedup stays exact under any hash, including the test suite's
/// forced-collision ones.
///
/// Keys of any other length — a packed layout's out-of-range escapes
/// render RawBytes+1 bytes where packed keys render KeyBytes
/// (exec/Machine.h) — land in a side map with plain string equality:
/// different lengths can never compare equal, so splitting by length
/// preserves exact dedup, and escapes are rare enough (PackEscapes) that
/// the map's extra cost never shows.
///
/// \p KeysPerChunkLog2 sizes the arena chunks: large enough to amortize
/// the chunk allocation, small enough that growth never copies entries.
/// Chunks are not zero-filled, so a page costs memory only once an entry
/// is written to it.
template <unsigned KeysPerChunkLog2> class VisitedCell {
public:
  /// Mask-aware check-and-insert of the state with key \p Key and
  /// fingerprint \p Fp; \p MaskBytes is maskBytesOf the machine. \p Sleep
  /// is the sleep mask the state is being entered with (0 when sleep sets
  /// are off); on Wake, \p WakeOut receives the transitions a prior visit
  /// slept through that this one must explore.
  InsertOutcome insertMask(uint64_t Fp, std::string_view Key,
                           unsigned MaskBytes, uint64_t Sleep,
                           uint64_t &WakeOut) {
    auto [Mask, New] = findOrInsert(Fp, Key, MaskBytes, Sleep);
    if (New)
      return InsertOutcome::Fresh;
    // The prior visits explored everything outside the stored mask;
    // covered iff that includes everything outside Sleep.
    uint64_t Stored = loadMask(Mask);
    if ((Stored & ~Sleep) == 0)
      return InsertOutcome::Prune;
    WakeOut = Stored & ~Sleep;       // slept then, needed now
    storeMask(Mask, Stored & Sleep); // strictly shrinks: re-expansion ends
    return InsertOutcome::Wake;
  }

  /// Plain check-and-insert (the mask-0 case). \returns true when the
  /// state was newly inserted (caller explores it), false on a revisit.
  bool insert(uint64_t Fp, std::string_view Key, unsigned MaskBytes) {
    return findOrInsert(Fp, Key, MaskBytes, /*Mask0=*/0).second;
  }

  /// Bytes this cell owns right now: the slot array, the arena chunks at
  /// their allocated (not just occupied) size, and the odd-key side map.
  uint64_t keyBytes() const {
    return Slots.size() * sizeof(uint64_t) + Arena.size() * chunkBytes() +
           OddBytes;
  }

private:
  /// Check-and-insert. \returns the entry's mask bytes and whether the
  /// key was freshly inserted; a fresh entry's mask starts as \p Mask0.
  /// The pointer is valid until the next insert.
  std::pair<unsigned char *, bool> findOrInsert(uint64_t Fp,
                                                std::string_view Key,
                                                unsigned MaskBytes,
                                                uint64_t Mask0) {
    if (Slots.empty()) {
      KeyLen = Key.size();
      this->MaskBytes = MaskBytes;
      Slots.assign(1024, 0);
    }
    assert(MaskBytes == this->MaskBytes && "one machine per table");
    assert((MaskBytes >= 8 || Mask0 >> (8 * MaskBytes) == 0) &&
           "sleep mask names a thread the machine does not have");
    if (Key.size() != KeyLen) {
      auto [It, New] = Odd.try_emplace(std::string(Key), 0);
      auto *Mask = reinterpret_cast<unsigned char *>(&It->second);
      if (New) {
        OddBytes += It->first.size() + sizeof(std::string) + sizeof(uint64_t);
        storeMask(Mask, Mask0);
      }
      return {Mask, New};
    }
    if ((Count + 1) * 10 > Slots.size() * 7)
      grow();
    uint64_t Tag = Fp >> 32;
    size_t M = Slots.size() - 1;
    for (size_t I = Tag & M;; I = (I + 1) & M) {
      uint64_t W = Slots[I];
      if (W == 0) {
        assert(Count + 1 < (uint64_t(1) << 32) && "flat table full");
        Slots[I] = Tag << 32 | (Count + 1);
        unsigned char *E = appendEntry(Key, Mask0);
        ++Count;
        return {E, true};
      }
      if (W >> 32 != Tag)
        continue;
      unsigned char *E = entryPtr(static_cast<uint32_t>(W) - 1);
      if (std::memcmp(E + MaskBytes, Key.data(), KeyLen) == 0)
        return {E, false};
    }
  }

  void grow() {
    std::vector<uint64_t> Old(Slots.size() * 2, 0);
    Old.swap(Slots);
    size_t M = Slots.size() - 1;
    for (uint64_t W : Old) {
      if (W == 0)
        continue;
      size_t I = (W >> 32) & M;
      while (Slots[I] != 0)
        I = (I + 1) & M;
      Slots[I] = W;
    }
  }

  /// Masks are stored little-endian in MaskBytes bytes (odd keys keep a
  /// full word, whose first MaskBytes bytes these read and write).
  uint64_t loadMask(const unsigned char *P) const {
    uint64_t Mask = 0;
    for (unsigned B = 0; B < MaskBytes; ++B)
      Mask |= uint64_t(P[B]) << (8 * B);
    return Mask;
  }
  void storeMask(unsigned char *P, uint64_t Mask) const {
    for (unsigned B = 0; B < MaskBytes; ++B)
      P[B] = static_cast<unsigned char>(Mask >> (8 * B));
  }

  size_t stride() const { return MaskBytes + KeyLen; }
  size_t chunkBytes() const {
    return std::max<size_t>(1, stride() << KeysPerChunkLog2);
  }

  unsigned char *entryPtr(uint32_t Idx) const {
    return Arena[Idx >> KeysPerChunkLog2].get() +
           (Idx & ((size_t(1) << KeysPerChunkLog2) - 1)) * stride();
  }

  unsigned char *appendEntry(std::string_view Key, uint64_t Mask0) {
    size_t Chunk = Count >> KeysPerChunkLog2;
    if (Chunk == Arena.size())
      Arena.push_back(
          std::make_unique_for_overwrite<unsigned char[]>(chunkBytes()));
    unsigned char *E = entryPtr(static_cast<uint32_t>(Count));
    storeMask(E, Mask0);
    std::memcpy(E + MaskBytes, Key.data(), KeyLen);
    return E;
  }

  std::vector<uint64_t> Slots; ///< power-of-two capacity; 0 is empty
  std::vector<std::unique_ptr<unsigned char[]>> Arena;
  std::unordered_map<std::string, uint64_t> Odd; ///< off-stride keys -> mask
  size_t Count = 0;
  size_t KeyLen = 0;
  unsigned MaskBytes = 0;
  size_t OddBytes = 0; ///< estimated bytes owned by Odd
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
/// calls this exactly once per state it is offered.
inline void noteEntered(const exec::Machine &M, const Canonicalizer *Canon,
                        const StateProbe &P) {
  if (P.Key.Escaped)
    M.notePackEscape();
  if (P.PermIdx != Canonicalizer::IdentityPerm)
    Canon->noteHit();
}

/// Translates sleep/wake masks between raw thread coordinates and the
/// coordinates of probe \p P's canonical image (identity without an
/// active symmetry).
inline uint64_t maskIn(const Canonicalizer *Canon, const StateProbe &P,
                       uint64_t Raw) {
  return Canon ? Canon->maskToCanonical(P.PermIdx, Raw) : Raw;
}
inline uint64_t maskOut(const Canonicalizer *Canon, const StateProbe &P,
                        uint64_t Canonical) {
  return Canon ? Canon->maskFromCanonical(P.PermIdx, Canonical) : Canonical;
}

/// A single worker's visited table. 8 Ki keys per arena chunk.
class VisitedTable {
public:
  explicit VisitedTable(StateHashFn Hash = &hashWords,
                        const Canonicalizer *Canon = nullptr)
      : Hash(Hash), Canon(Canon) {}

  /// \returns true when \p S was newly inserted.
  bool insert(const exec::Machine &M, const exec::State &S) {
    StateProbe P = probeState(M, S, Canon, Hash);
    noteEntered(M, Canon, P);
    return Cell.insert(P.Key.Fp, P.Key.Bytes, maskBytesOf(M));
  }

  /// Mask-aware insert for the sleep-set DFS (file comment). Sleep/wake
  /// masks are in raw thread coordinates; translation through the chosen
  /// automorphism happens here.
  InsertOutcome insertMask(const exec::Machine &M, const exec::State &S,
                           uint64_t Sleep, uint64_t &WakeOut) {
    StateProbe P = probeState(M, S, Canon, Hash);
    noteEntered(M, Canon, P);
    uint64_t CWake = 0;
    InsertOutcome Out = Cell.insertMask(P.Key.Fp, P.Key.Bytes, maskBytesOf(M),
                                        maskIn(Canon, P, Sleep), CWake);
    if (Out == InsertOutcome::Wake)
      WakeOut = maskOut(Canon, P, CWake);
    return Out;
  }

  uint64_t keyBytes() const { return Cell.keyBytes(); }

private:
  StateHashFn Hash;
  const Canonicalizer *Canon;
  VisitedCell<13> Cell;
};

/// Mutex-striped seen-state table shared by the workers of a parallel
/// search. The stripe count only needs to beat the worker count
/// comfortably; 64 keeps contention negligible without wasting cache.
/// The fingerprint's low 6 bits pick the shard; its high 32 bits place
/// the entry in the shard's cell, so every slot of a shard is some
/// state's home slot. Shard cells use 1 Ki-key arena chunks: 64 shards of
/// 8 Ki-key chunks would hold tens of megabytes whatever the state count.
class ShardedVisited {
public:
  explicit ShardedVisited(StateHashFn Hash = &hashWords,
                          const Canonicalizer *Canon = nullptr)
      : Hash(Hash), Canon(Canon) {}

  /// \returns true when \p S was newly inserted. Check-and-insert is
  /// atomic per shard. The state is probed once (canonical image, key
  /// bytes and the fingerprint that picks the shard) outside the lock.
  bool insert(const exec::Machine &M, const exec::State &S) {
    StateProbe P = probeState(M, S, Canon, Hash);
    noteEntered(M, Canon, P);
    ShardT &Shard = shardOf(P);
    std::lock_guard<std::mutex> Lock(Shard.Mu);
    return Shard.Cell.insert(P.Key.Fp, P.Key.Bytes, maskBytesOf(M));
  }

  /// VisitedTable::insertMask, with the check, the Prune/Wake decision
  /// and the mask shrink atomic under the shard lock.
  InsertOutcome insertMask(const exec::Machine &M, const exec::State &S,
                           uint64_t Sleep, uint64_t &WakeOut) {
    StateProbe P = probeState(M, S, Canon, Hash);
    noteEntered(M, Canon, P);
    ShardT &Shard = shardOf(P);
    uint64_t CSleep = maskIn(Canon, P, Sleep), CWake = 0;
    InsertOutcome Out;
    {
      std::lock_guard<std::mutex> Lock(Shard.Mu);
      Out = Shard.Cell.insertMask(P.Key.Fp, P.Key.Bytes, maskBytesOf(M),
                                  CSleep, CWake);
    }
    if (Out == InsertOutcome::Wake)
      WakeOut = maskOut(Canon, P, CWake);
    return Out;
  }

  uint64_t keyBytes() const {
    uint64_t Total = 0;
    for (const ShardT &Shard : Shards) {
      std::lock_guard<std::mutex> Lock(Shard.Mu);
      Total += Shard.Cell.keyBytes();
    }
    return Total;
  }

private:
  static constexpr size_t NumShards = 64;
  struct alignas(64) ShardT {
    mutable std::mutex Mu;
    VisitedCell<10> Cell;
  };

  ShardT &shardOf(const StateProbe &P) {
    return Shards[P.Key.Fp & (NumShards - 1)];
  }

  StateHashFn Hash;
  const Canonicalizer *Canon;
  ShardT Shards[NumShards];
};

} // namespace detail
} // namespace verify
} // namespace psketch

#endif // PSKETCH_VERIFY_VISITED_H

//===- verify/SpillStore.h - Disk-backed fingerprint tier -------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal header: the on-disk tier behind CheckerConfig::Store ==
/// VisitedStore::Spill (docs/SPILL.md). A SpillStore owns one search's
/// spilled visited fingerprints as 64 shards of log-structured, sorted,
/// append-only runs of 8-byte fingerprints, mmap'd read-only
/// (support/Mmap.h), each shard fronted by an in-memory tag filter with
/// CAS-word insert. The shard index is Fp & 63 — the SAME function the
/// parallel engine's ShardedVisited stripes on, so in the parallel
/// checker every operation on spill shard k happens under visited shard
/// k's mutex and the store needs no locking of its own; the sequential
/// checker is single-threaded and fans one cell out across all 64
/// shards, which keeps runs small and merges bounded either way.
///
/// Soundness shape (docs/SPILL.md extends the docs/PARALLEL.md §5
/// argument): only fingerprints of FULLY-EXPLORED states (stored sleep
/// mask 0) are ever spilled, so a disk hit is always a sound Prune; the
/// filter has NO false negatives over the spilled set (a spilled state
/// can never be silently re-explored forever — dedup completeness and
/// hence termination are preserved), and a filter false positive only
/// costs one wasted run probe, counted in filterFalseHits(). Spilled
/// entries are fingerprint-grade even when the in-memory tier is Exact:
/// dropping the key bytes is precisely the one-sided-error trade of
/// VisitedMode::Fingerprint, applied to the cold set only.
///
/// I/O failure is never fatal: any mkdir/write failure marks the store
/// failed, discards the partial run, and the visited tier simply stops
/// evicting (everything stays in RAM — the Memory-mode behaviour). The
/// destructor removes the store's own unique spill subdirectory.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_VERIFY_SPILLSTORE_H
#define PSKETCH_VERIFY_SPILLSTORE_H

#include "support/Mmap.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace psketch {
namespace verify {
namespace detail {

/// Compact membership filter over one spill shard's fingerprints: an
/// open-addressing array of 64-bit words, each holding four 16-bit tags,
/// inserted by CAS on the whole word — probes are wait-free loads and
/// inserts are lock-free, so the common "is this fingerprint spilled?"
/// path costs one or two cache lines and no lock beyond the visited
/// shard's own. Tags are bits 48..63 of the fingerprint (0 remapped to
/// 1 so 0 can mean "empty slot"); the home word comes from bits 6..
/// (bits 0..5 are constant within a shard — they picked it). A probe
/// walks words from the home word and stops at the first word with an
/// empty slot, exactly mirroring the insert walk, so every inserted
/// fingerprint is always found (no false negatives); two fingerprints
/// sharing a probe chain and a tag alias (p ~ chain length / 2^16) make
/// a false positive, answered definitively by the runs.
///
/// The filter cannot rehash from tags alone (16 bits don't recover the
/// home word of a larger table), so growth rebuilds from the shard's
/// runs — the durable copy of exactly the spilled set — via reset() +
/// insert() replay at spill time, under the shard's lock.
class TagFilter {
public:
  /// Discards everything and sizes the table for \p ExpectedEntries at
  /// a comfortable load factor.
  void reset(size_t ExpectedEntries) {
    size_t Want = 8;
    while (Want * 4 * 7 < ExpectedEntries * 10) // keep load under 70%
      Want *= 2;
    Words = std::make_unique<std::atomic<uint64_t>[]>(Want);
    for (size_t I = 0; I < Want; ++I)
      Words[I].store(0, std::memory_order_relaxed);
    NumWords = Want;
    Entries = 0;
  }

  /// True when the table would exceed its load factor after \p More
  /// additional entries (the caller then rebuilds from the runs).
  bool needsGrow(size_t More) const {
    return NumWords == 0 || (Entries + More) * 10 > NumWords * 4 * 7;
  }

  /// Inserts \p Fp's tag (idempotent). The caller guarantees capacity
  /// via needsGrow()/reset(); lock-free against concurrent probes.
  void insert(uint64_t Fp) {
    uint64_t Tag = tagOf(Fp);
    size_t Mask = NumWords - 1;
    for (size_t I = homeWord(Fp) & Mask;;) {
      uint64_t Cur = Words[I].load(std::memory_order_relaxed);
      int Free = -1;
      for (int S = 0; S < 4; ++S) {
        uint64_t T = (Cur >> (S * 16)) & 0xffff;
        if (T == Tag)
          return; // already present
        if (T == 0 && Free < 0)
          Free = S;
      }
      if (Free < 0) {
        I = (I + 1) & Mask;
        continue;
      }
      uint64_t New = Cur | (Tag << (Free * 16));
      if (Words[I].compare_exchange_weak(Cur, New,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
        ++Entries;
        return;
      }
      // CAS lost: re-examine the same word (the tag may have just been
      // inserted by the winner, or a different slot filled).
    }
  }

  /// May-contain probe: false is definitive (no false negatives), true
  /// means "check the runs". Wait-free.
  bool mayContain(uint64_t Fp) const {
    if (NumWords == 0)
      return false;
    uint64_t Tag = tagOf(Fp);
    size_t Mask = NumWords - 1;
    for (size_t I = homeWord(Fp) & Mask;; I = (I + 1) & Mask) {
      uint64_t W = Words[I].load(std::memory_order_acquire);
      bool HasEmpty = false;
      for (int S = 0; S < 4; ++S) {
        uint64_t T = (W >> (S * 16)) & 0xffff;
        if (T == Tag)
          return true;
        if (T == 0)
          HasEmpty = true;
      }
      if (HasEmpty)
        return false; // the insert walk would have stopped here too
    }
  }

  size_t bytes() const { return NumWords * sizeof(uint64_t); }
  size_t entries() const { return Entries; }

private:
  static uint64_t tagOf(uint64_t Fp) {
    uint64_t Tag = (Fp >> 48) & 0xffff;
    return Tag ? Tag : 1;
  }
  /// Bits 0..5 selected the shard; the home word must not reuse them.
  static size_t homeWord(uint64_t Fp) { return Fp >> 6; }

  std::unique_ptr<std::atomic<uint64_t>[]> Words; ///< 4 tags per word
  size_t NumWords = 0;                            ///< power of two
  size_t Entries = 0;
};

/// The disk tier: 64 shards of sorted fingerprint runs plus their
/// filters. See the file comment for the locking and soundness story.
class SpillStore {
public:
  static constexpr unsigned NumShards = 64;
  /// Runs per shard before they are merged into one (bounds probe read
  /// amplification at log2-of-run-size * MaxRunsPerShard).
  static constexpr unsigned MaxRunsPerShard = 8;

  /// Creates a unique spill-<pid>-<seq> subdirectory under \p BaseDir
  /// (empty = the system temp directory). Failure to create it marks
  /// the store failed — callers then run pure in-memory.
  explicit SpillStore(const std::string &BaseDir);

  /// Unmaps the runs and removes the store's own subdirectory.
  ~SpillStore();

  SpillStore(const SpillStore &) = delete;
  SpillStore &operator=(const SpillStore &) = delete;

  /// False after any I/O failure: no further spills will be accepted
  /// (the in-memory tier keeps everything), already-written runs keep
  /// answering probes.
  bool ok() const { return !Failed.load(std::memory_order_relaxed); }

  /// Appends one sorted run of \p N fingerprints (sorted ascending,
  /// duplicate-free — spillNow guarantees both) to \p Shard, updates
  /// the filter, and merges the shard's runs when MaxRunsPerShard is
  /// reached. \returns false on I/O failure (store marked failed, no
  /// partial run left behind; the caller keeps the fingerprints in
  /// memory). Caller must hold the visited shard's lock.
  bool spill(unsigned Shard, const uint64_t *Fps, size_t N);

  /// Membership probe: filter first (a definitive no), then the runs
  /// newest-first. A filter yes the runs refute counts one false hit.
  bool contains(unsigned Shard, uint64_t Fp) const;

  uint64_t spilledStates() const {
    return SpilledStates.load(std::memory_order_relaxed);
  }
  uint64_t spillBytes() const {
    return SpillBytes.load(std::memory_order_relaxed);
  }
  uint64_t runMerges() const {
    return RunMerges.load(std::memory_order_relaxed);
  }
  uint64_t filterFalseHits() const {
    return FilterFalseHits.load(std::memory_order_relaxed);
  }
  /// RAM owned by the filters (part of the in-memory budget story).
  uint64_t filterBytes() const;

  const std::string &dir() const { return Dir; }

  /// Test hook (crash/ENOSPC robustness coverage): writes fail once the
  /// store has written this many bytes in total. SIZE_MAX = off.
  static size_t TestFailAfterBytes;

private:
  struct Run {
    MappedFile Map;
    std::string Path;
    size_t count() const { return Map.size() / sizeof(uint64_t); }
    const uint64_t *begin() const {
      return static_cast<const uint64_t *>(Map.data());
    }
  };
  struct ShardState {
    TagFilter Filter;
    std::vector<Run> Runs;
    unsigned NextSeq = 0;
  };

  /// Writes \p N fingerprints to a fresh run file and maps it. On
  /// failure the partial file is unlinked and the store marked failed.
  bool writeRun(unsigned Shard, const uint64_t *Fps, size_t N, Run &Out);

  /// Streaming k-way merge of every run of \p Shard into one
  /// (duplicate-eliminating); on failure the old runs stay in place.
  bool mergeShard(unsigned Shard);

  /// Rebuilds the shard's filter from its runs plus \p Extra pending
  /// fingerprints (growth path; see TagFilter).
  void rebuildFilter(ShardState &S, const uint64_t *Extra, size_t N);

  std::string Dir;   ///< the unique subdirectory (empty when creation failed)
  ShardState Shards[NumShards];
  std::atomic<bool> Failed{false};
  std::atomic<uint64_t> SpilledStates{0};
  std::atomic<uint64_t> SpillBytes{0};
  std::atomic<uint64_t> RunMerges{0};
  mutable std::atomic<uint64_t> FilterFalseHits{0};
  mutable std::atomic<uint64_t> BytesWritten{0}; ///< test-hook meter
};

} // namespace detail
} // namespace verify
} // namespace psketch

#endif // PSKETCH_VERIFY_SPILLSTORE_H

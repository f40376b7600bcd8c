//===- verify/SpillStore.cpp -----------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "verify/SpillStore.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <filesystem>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace psketch;
using namespace psketch::verify::detail;
namespace fs = std::filesystem;

size_t SpillStore::TestFailAfterBytes = SIZE_MAX;

namespace {
/// Distinguishes spill directories of concurrent stores in one process
/// (the DeterministicCex re-derivation runs its own store while the
/// primary search's is still alive).
std::atomic<uint64_t> NextStoreSeq{0};

int processId() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<int>(::getpid());
#else
  return 0;
#endif
}
} // namespace

SpillStore::SpillStore(const std::string &BaseDir) {
  std::error_code Ec;
  fs::path Base =
      BaseDir.empty() ? fs::temp_directory_path(Ec) : fs::path(BaseDir);
  if (Ec) {
    Failed.store(true, std::memory_order_relaxed);
    return;
  }
  char Leaf[64];
  std::snprintf(Leaf, sizeof(Leaf), "psketch-spill-%d-%llu", processId(),
                static_cast<unsigned long long>(
                    NextStoreSeq.fetch_add(1, std::memory_order_relaxed)));
  fs::path P = Base / Leaf;
  fs::create_directories(P, Ec);
  if (Ec || !fs::is_directory(P, Ec)) {
    Failed.store(true, std::memory_order_relaxed);
    return;
  }
  // Probe writability up front: an unwritable directory should surface
  // as a construction-time fallback, not as a mid-search spill failure.
  fs::path Probe = P / ".probe";
  if (std::FILE *F = std::fopen(Probe.string().c_str(), "wb")) {
    std::fclose(F);
    fs::remove(Probe, Ec);
  } else {
    fs::remove_all(P, Ec);
    Failed.store(true, std::memory_order_relaxed);
    return;
  }
  Dir = P.string();
}

SpillStore::~SpillStore() {
  for (ShardState &S : Shards)
    S.Runs.clear(); // unmap before removing the files
  if (!Dir.empty()) {
    std::error_code Ec;
    fs::remove_all(Dir, Ec); // best effort; only our own subdirectory
  }
}

bool SpillStore::writeRun(unsigned Shard, const uint64_t *Fps, size_t N,
                          Run &Out) {
  char Leaf[32];
  std::snprintf(Leaf, sizeof(Leaf), "s%02u-r%06u.bin", Shard,
                Shards[Shard].NextSeq++);
  std::string Path = (fs::path(Dir) / Leaf).string();
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    Failed.store(true, std::memory_order_relaxed);
    return false;
  }
  size_t Bytes = N * sizeof(uint64_t);
  bool Ok =
      BytesWritten.fetch_add(Bytes, std::memory_order_relaxed) + Bytes <=
      TestFailAfterBytes;
  Ok = Ok && std::fwrite(Fps, sizeof(uint64_t), N, F) == N;
  Ok = std::fclose(F) == 0 && Ok;
  if (Ok) {
    Out.Path = Path;
    Ok = Out.Map.map(Path) && Out.count() == N;
  }
  if (!Ok) {
    // Mid-stream failure (ENOSPC-class): discard the partial run so the
    // on-disk state stays a set of complete sorted runs, and refuse
    // further spills. Already-written runs keep answering probes.
    Out.Map.reset();
    Out.Path.clear();
    std::error_code Ec;
    fs::remove(Path, Ec);
    Failed.store(true, std::memory_order_relaxed);
  }
  return Ok;
}

void SpillStore::rebuildFilter(ShardState &S, const uint64_t *Extra,
                               size_t N) {
  size_t Total = N;
  for (const Run &R : S.Runs)
    Total += R.count();
  S.Filter.reset(Total);
  for (const Run &R : S.Runs)
    for (size_t I = 0, E = R.count(); I < E; ++I)
      S.Filter.insert(R.begin()[I]);
  for (size_t I = 0; I < N; ++I)
    S.Filter.insert(Extra[I]);
}

bool SpillStore::spill(unsigned Shard, const uint64_t *Fps, size_t N) {
  assert(Shard < NumShards);
  if (N == 0)
    return true;
  if (!ok())
    return false;
  ShardState &S = Shards[Shard];
  Run R;
  if (!writeRun(Shard, Fps, N, R))
    return false;
  S.Runs.push_back(std::move(R));
  // Filter update: replay the new fingerprints, or rebuild from the runs
  // when the table would overflow (tags alone cannot rehash; the runs
  // are the durable copy of exactly the spilled set).
  if (S.Filter.needsGrow(N))
    rebuildFilter(S, nullptr, 0); // the new run is already in S.Runs
  else
    for (size_t I = 0; I < N; ++I)
      S.Filter.insert(Fps[I]);
  SpilledStates.fetch_add(N, std::memory_order_relaxed);
  SpillBytes.fetch_add(N * sizeof(uint64_t), std::memory_order_relaxed);
  if (S.Runs.size() >= MaxRunsPerShard)
    (void)mergeShard(Shard); // failure already marked the store
  return true;
}

bool SpillStore::mergeShard(unsigned Shard) {
  ShardState &S = Shards[Shard];
  if (S.Runs.size() < 2)
    return true;
  // Streaming k-way merge with duplicate elimination: the runs are
  // sorted, so one cursor per run and a bounded output buffer keep the
  // merge's RAM footprint constant regardless of shard size.
  char Leaf[32];
  std::snprintf(Leaf, sizeof(Leaf), "s%02u-r%06u.bin", Shard, S.NextSeq++);
  std::string Path = (fs::path(Dir) / Leaf).string();
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    Failed.store(true, std::memory_order_relaxed);
    return false;
  }
  struct Cursor {
    const uint64_t *At;
    const uint64_t *End;
  };
  std::vector<Cursor> Cur;
  for (const Run &R : S.Runs)
    if (R.count())
      Cur.push_back({R.begin(), R.begin() + R.count()});
  std::vector<uint64_t> Buf;
  Buf.reserve(1 << 13);
  size_t Merged = 0;
  bool Ok = true;
  uint64_t Last = 0;
  bool HaveLast = false;
  auto FlushBuf = [&]() {
    size_t Bytes = Buf.size() * sizeof(uint64_t);
    bool W =
        BytesWritten.fetch_add(Bytes, std::memory_order_relaxed) + Bytes <=
        TestFailAfterBytes;
    W = W && std::fwrite(Buf.data(), sizeof(uint64_t), Buf.size(), F) ==
                 Buf.size();
    Buf.clear();
    return W;
  };
  while (Ok && !Cur.empty()) {
    size_t Min = 0;
    for (size_t I = 1; I < Cur.size(); ++I)
      if (*Cur[I].At < *Cur[Min].At)
        Min = I;
    uint64_t V = *Cur[Min].At++;
    if (Cur[Min].At == Cur[Min].End)
      Cur.erase(Cur.begin() + Min);
    if (HaveLast && V == Last)
      continue; // a fingerprint can appear in several runs; keep one
    Last = V;
    HaveLast = true;
    ++Merged;
    Buf.push_back(V);
    if (Buf.size() == Buf.capacity())
      Ok = FlushBuf();
  }
  Ok = Ok && FlushBuf();
  Ok = std::fclose(F) == 0 && Ok;
  Run NewRun;
  if (Ok) {
    NewRun.Path = Path;
    Ok = NewRun.Map.map(Path) && NewRun.count() == Merged;
  }
  std::error_code Ec;
  if (!Ok) {
    fs::remove(Path, Ec);
    Failed.store(true, std::memory_order_relaxed);
    return false; // the unmerged runs stay valid and keep answering
  }
  for (Run &R : S.Runs) {
    R.Map.reset();
    fs::remove(R.Path, Ec);
  }
  S.Runs.clear();
  S.Runs.push_back(std::move(NewRun));
  RunMerges.fetch_add(1, std::memory_order_relaxed);
  // The merged file replaces the old runs byte-for-byte minus
  // duplicates; SpillBytes tracks live disk bytes.
  uint64_t Live = 0;
  for (unsigned Sh = 0; Sh < NumShards; ++Sh)
    for (const Run &R : Shards[Sh].Runs)
      Live += R.count() * sizeof(uint64_t);
  SpillBytes.store(Live, std::memory_order_relaxed);
  return true;
}

bool SpillStore::contains(unsigned Shard, uint64_t Fp) const {
  const ShardState &S = Shards[Shard];
  if (!S.Filter.mayContain(Fp))
    return false; // definitive: the filter has no false negatives
  for (auto It = S.Runs.rbegin(); It != S.Runs.rend(); ++It) {
    const uint64_t *B = It->begin(), *E = B + It->count();
    const uint64_t *P = std::lower_bound(B, E, Fp);
    if (P != E && *P == Fp)
      return true;
  }
  FilterFalseHits.fetch_add(1, std::memory_order_relaxed);
  return false;
}

uint64_t SpillStore::filterBytes() const {
  uint64_t B = 0;
  for (const ShardState &S : Shards)
    B += S.Filter.bytes();
  return B;
}

//===- support/Hash.h - State fingerprint hashing ---------------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 64-bit word-vector hash that places states in the checker's
/// visited tables (the exact key confirms every hit). One SplitMix64
/// finalizer round per word keeps the whole fingerprint a handful of
/// multiplies — cheap enough to compute on every dedup probe — while the
/// finalizer's avalanche gives full 64-bit diffusion per input word.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_SUPPORT_HASH_H
#define PSKETCH_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>

namespace psketch {

/// The SplitMix64 finalizer: a cheap bijective 64-bit mixer with full
/// avalanche (same constants as support/Rng.h uses for stream seeding).
inline uint64_t mix64(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Fingerprints \p N contiguous 64-bit words. The length is folded into
/// the seed so prefixes never collide with their extensions, and each
/// word passes through one full mixing round before being chained.
inline uint64_t hashWords(const int64_t *W, size_t N) {
  uint64_t H = 0x9e3779b97f4a7c15ull ^ static_cast<uint64_t>(N);
  for (size_t I = 0; I < N; ++I)
    H = mix64(H + 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(W[I]));
  return H;
}

/// The CPU's vector extension as benches record it in their JSON
/// provenance: "avx2" when the CPU reports AVX2, else "scalar". It
/// describes the machine, not a kernel choice: no code path depends on
/// it. Stable for the process lifetime.
const char *simdMode();

} // namespace psketch

#endif // PSKETCH_SUPPORT_HASH_H

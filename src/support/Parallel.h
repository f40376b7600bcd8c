//===- support/Parallel.h - Tiny fork-join helpers --------------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal fork-join loop for the embarrassingly parallel spots
/// (candidate batches in cegis/Enumerate, schedule measurement fan-out).
/// The heavy machinery — donation between search workers, sharded
/// dedup — lives in src/verify; this is deliberately just "run
/// f(0..N-1) on J threads".
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_SUPPORT_PARALLEL_H
#define PSKETCH_SUPPORT_PARALLEL_H

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace psketch {

/// Runs \p Fn(I) for every I in [0, N) across up to \p Jobs threads
/// (claimed dynamically). Jobs <= 1 or N <= 1 degrades to a plain loop.
/// \p Fn must be safe to call concurrently for distinct indices.
template <typename FnT>
void parallelFor(unsigned Jobs, size_t N, const FnT &Fn) {
  if (Jobs <= 1 || N <= 1) {
    for (size_t I = 0; I < N; ++I)
      Fn(I);
    return;
  }
  std::atomic<size_t> Next{0};
  auto Loop = [&]() {
    for (;;) {
      size_t I = Next.fetch_add(1);
      if (I >= N)
        return;
      Fn(I);
    }
  };
  size_t Spawn = static_cast<size_t>(Jobs) < N ? Jobs : N;
  std::vector<std::thread> Threads;
  for (size_t I = 1; I < Spawn; ++I)
    Threads.emplace_back(Loop);
  Loop();
  for (std::thread &T : Threads)
    T.join();
}

} // namespace psketch

#endif // PSKETCH_SUPPORT_PARALLEL_H

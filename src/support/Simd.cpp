//===- support/Simd.cpp - CPU vector-extension report ---------------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "support/Hash.h"

namespace psketch {

const char *simdMode() {
#if (defined(__x86_64__) || defined(__i386__)) &&                              \
    (defined(__GNUC__) || defined(__clang__))
  static const bool Avx2 = __builtin_cpu_supports("avx2");
  return Avx2 ? "avx2" : "scalar";
#else
  return "scalar";
#endif
}

} // namespace psketch

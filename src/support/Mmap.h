//===- support/Mmap.h - Read-only memory-mapped files -----------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal RAII wrapper over a read-only memory-mapped file, used by
/// the spill tier (verify/SpillStore.h) to binary-search sorted
/// fingerprint runs without read() syscalls or userspace buffering: the
/// page cache is the read cache, shared across probes and across run
/// generations. The mapping advises MADV_RANDOM — probe access is a
/// binary-search walk, so readahead would only pollute the cache.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_SUPPORT_MMAP_H
#define PSKETCH_SUPPORT_MMAP_H

#include <cstddef>
#include <string>

namespace psketch {

/// A read-only mapping of one file. Move-only; the destructor unmaps.
/// An empty or failed mapping has data() == nullptr and size() == 0, so
/// callers can treat "could not map" and "empty file" uniformly.
class MappedFile {
public:
  MappedFile() = default;
  ~MappedFile() { reset(); }

  MappedFile(MappedFile &&Other) noexcept
      : Data(Other.Data), Size(Other.Size) {
    Other.Data = nullptr;
    Other.Size = 0;
  }
  MappedFile &operator=(MappedFile &&Other) noexcept {
    if (this != &Other) {
      reset();
      Data = Other.Data;
      Size = Other.Size;
      Other.Data = nullptr;
      Other.Size = 0;
    }
    return *this;
  }
  MappedFile(const MappedFile &) = delete;
  MappedFile &operator=(const MappedFile &) = delete;

  /// Maps \p Path read-only. \returns false (leaving the object empty)
  /// when the file cannot be opened, stat'd, or mapped. Mapping a
  /// zero-length file succeeds with data() == nullptr.
  bool map(const std::string &Path);

  /// Unmaps (no-op when empty).
  void reset();

  const void *data() const { return Data; }
  size_t size() const { return Size; }

private:
  void *Data = nullptr;
  size_t Size = 0;
};

} // namespace psketch

#endif // PSKETCH_SUPPORT_MMAP_H

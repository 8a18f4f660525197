// FNV-1a 64-bit: the one byte-stream digest used for output identity checks
// (net wire digests, serve request digests, adaptation cache keys and the
// golden-digest test).
//
// Header-only for the same reason as common/error.h: net, serve and core all
// need it and none of them should link another for one loop.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ulayer {

inline constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ull;

// Folds `bytes` bytes of `data` into `basis` (pass a previous digest to chain
// several buffers into one).
inline uint64_t Fnv1a64(const void* data, size_t bytes, uint64_t basis = kFnv1a64Basis) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = basis;
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace ulayer

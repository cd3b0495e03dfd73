#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

/// \file fnv1a.hpp
/// FNV-1a 64, the one non-cryptographic hash behind every content key and
/// checksum in the tree: session keys, committed-route fingerprints, the
/// snapshot checksum and the stage-body digests the benches gate on.

namespace gcr::io {

/// The standard FNV-1a 64 offset basis and prime.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ull;

/// Folds \p bytes into \p h (start from kFnv1aBasis, or a caller's seed).
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::string_view bytes, std::uint64_t h = kFnv1aBasis) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

/// Folds \p v's eight little-endian bytes into \p h.
[[nodiscard]] constexpr std::uint64_t fnv1a_u64(std::uint64_t v,
                                                std::uint64_t h) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnv1aPrime;
  }
  return h;
}

/// \p h as 16 lowercase hex digits — the rendered form of every key.
[[nodiscard]] inline std::string hex16(std::uint64_t h) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[h & 0xf];
    h >>= 4;
  }
  return out;
}

}  // namespace gcr::io

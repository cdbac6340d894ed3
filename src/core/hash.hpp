// The library's two non-cryptographic hashes, defined once.
//
// splitmix64 is the finaliser behind every counter-based draw (core::Rng
// seeding and forking, ran::UePool, synth::sample): mixing a seed with a
// counter yields an independent value per slot with no generator state to
// share across threads. FNV-1a 64 digests byte strings: Rng fork labels and
// every manifest's config digest. Both are part of the output contract —
// changing either changes every sampled value and every digest.
#pragma once

#include <cstdint>
#include <string_view>

namespace wheels::core {

/// The FNV-1a 64 offset basis: fnv1a64(bytes) is the published hash.
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// splitmix64 finaliser.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits of a hash.
constexpr double u01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// FNV-1a 64 over `bytes`, starting from `basis`.
constexpr std::uint64_t fnv1a64(std::string_view bytes,
                                std::uint64_t basis = kFnv1a64Basis) {
  std::uint64_t h = basis;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace wheels::core

// 64-bit FNV-1a, the one hash behind the persisted checksums (ESS text
// streams, RQPCOLF1 column-file footers), the noisy oracle's per-plan
// error draw and the executor's join-key hash. The on-disk checksums
// depend on its exact bits.

#ifndef ROBUSTQP_COMMON_HASH_H_
#define ROBUSTQP_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace robustqp {

inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

/// One FNV-1a step: folds `v` (a byte, or a whole word for word-wise
/// hashing) into `h`.
inline uint64_t FnvMix(uint64_t h, uint64_t v) { return (h ^ v) * kFnvPrime; }

/// FNV-1a over `n` bytes, starting from `h`.
inline uint64_t Fnv1a(const void* data, size_t n,
                      uint64_t h = kFnvOffsetBasis) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = FnvMix(h, p[i]);
  return h;
}

inline uint64_t Fnv1a(std::string_view s, uint64_t h = kFnvOffsetBasis) {
  return Fnv1a(s.data(), s.size(), h);
}

}  // namespace robustqp

#endif  // ROBUSTQP_COMMON_HASH_H_

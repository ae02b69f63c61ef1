#include "core/batch_kernels.h"

#include <cstring>

#include "common/check.h"
#include "container/flat_hash_map.h"

// Kernel selection: AQUA_FORCE_SCALAR wins, then the widest ISA the TU is
// compiled for.  Exactly one of AQUA_KERNEL_{AVX2,SSE2,NEON,SCALAR} ends up
// defined.
#if defined(AQUA_FORCE_SCALAR)
#define AQUA_KERNEL_SCALAR 1
#elif defined(__AVX2__)
#define AQUA_KERNEL_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__)
#define AQUA_KERNEL_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON)
#define AQUA_KERNEL_NEON 1
#include <arm_neon.h>
#else
#define AQUA_KERNEL_SCALAR 1
#endif

namespace aqua {
namespace {

// SplitMix64 finalizer constants — must match IntegerHash exactly.
constexpr std::uint64_t kMul1 = 0xbf58476d1ce4e5b9ULL;
constexpr std::uint64_t kMul2 = 0x94d049bb133111ebULL;

inline std::uint64_t ScalarHash(std::uint64_t x) {
  x ^= x >> 30;
  x *= kMul1;
  x ^= x >> 27;
  x *= kMul2;
  x ^= x >> 31;
  return x;
}

#if defined(AQUA_KERNEL_AVX2)

// 64x64 -> low-64 multiply per lane.  AVX2 has no 64-bit multiply; build it
// from 32x32->64 partial products: lo*lo + ((lo*hi + hi*lo) << 32).  The
// high cross-product bits shifted past 2^64 drop out, which is exactly the
// mod-2^64 semantics of the scalar `*=`.
inline __m256i MulLo64(__m256i a, __m256i b, __m256i b_hi) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i lo_lo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                         _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(lo_lo, _mm256_slli_epi64(cross, 32));
}

void HashBatchImpl(const Value* values, std::size_t n, std::uint64_t* hashes) {
  const __m256i m1 = _mm256_set1_epi64x(static_cast<long long>(kMul1));
  const __m256i m1_hi = _mm256_srli_epi64(m1, 32);
  const __m256i m2 = _mm256_set1_epi64x(static_cast<long long>(kMul2));
  const __m256i m2_hi = _mm256_srli_epi64(m2, 32);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 30));
    x = MulLo64(x, m1, m1_hi);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 27));
    x = MulLo64(x, m2, m2_hi);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(hashes + i), x);
  }
  for (; i < n; ++i) {
    hashes[i] = ScalarHash(static_cast<std::uint64_t>(values[i]));
  }
}

#elif defined(AQUA_KERNEL_SSE2)

inline __m128i MulLo64(__m128i a, __m128i b, __m128i b_hi) {
  const __m128i a_hi = _mm_srli_epi64(a, 32);
  const __m128i lo_lo = _mm_mul_epu32(a, b);
  const __m128i cross =
      _mm_add_epi64(_mm_mul_epu32(a, b_hi), _mm_mul_epu32(a_hi, b));
  return _mm_add_epi64(lo_lo, _mm_slli_epi64(cross, 32));
}

void HashBatchImpl(const Value* values, std::size_t n, std::uint64_t* hashes) {
  const __m128i m1 = _mm_set1_epi64x(static_cast<long long>(kMul1));
  const __m128i m1_hi = _mm_srli_epi64(m1, 32);
  const __m128i m2 = _mm_set1_epi64x(static_cast<long long>(kMul2));
  const __m128i m2_hi = _mm_srli_epi64(m2, 32);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(values + i));
    x = _mm_xor_si128(x, _mm_srli_epi64(x, 30));
    x = MulLo64(x, m1, m1_hi);
    x = _mm_xor_si128(x, _mm_srli_epi64(x, 27));
    x = MulLo64(x, m2, m2_hi);
    x = _mm_xor_si128(x, _mm_srli_epi64(x, 31));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(hashes + i), x);
  }
  for (; i < n; ++i) {
    hashes[i] = ScalarHash(static_cast<std::uint64_t>(values[i]));
  }
}

#elif defined(AQUA_KERNEL_NEON)

// NEON 64x64 -> low-64 via the same 32-bit partial products: vmull_u32 on
// the narrowed low/high halves.
inline uint64x2_t MulLo64(uint64x2_t a, std::uint64_t b) {
  const uint32x2_t a_lo = vmovn_u64(a);
  const uint32x2_t a_hi = vshrn_n_u64(a, 32);
  const uint32x2_t b_lo = vdup_n_u32(static_cast<std::uint32_t>(b));
  const uint32x2_t b_hi = vdup_n_u32(static_cast<std::uint32_t>(b >> 32));
  uint64x2_t cross = vmull_u32(a_lo, b_hi);
  cross = vmlal_u32(cross, a_hi, b_lo);
  return vaddq_u64(vmull_u32(a_lo, b_lo), vshlq_n_u64(cross, 32));
}

void HashBatchImpl(const Value* values, std::size_t n, std::uint64_t* hashes) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t x =
        vld1q_u64(reinterpret_cast<const std::uint64_t*>(values + i));
    x = veorq_u64(x, vshrq_n_u64(x, 30));
    x = MulLo64(x, kMul1);
    x = veorq_u64(x, vshrq_n_u64(x, 27));
    x = MulLo64(x, kMul2);
    x = veorq_u64(x, vshrq_n_u64(x, 31));
    vst1q_u64(hashes + i, x);
  }
  for (; i < n; ++i) {
    hashes[i] = ScalarHash(static_cast<std::uint64_t>(values[i]));
  }
}

#else  // AQUA_KERNEL_SCALAR

void HashBatchImpl(const Value* values, std::size_t n, std::uint64_t* hashes) {
  for (std::size_t i = 0; i < n; ++i) {
    hashes[i] = ScalarHash(static_cast<std::uint64_t>(values[i]));
  }
}

#endif

// The prefix kernels load ValueCount pairs as raw 64-bit lanes.
static_assert(sizeof(ValueCount) == 2 * sizeof(std::int64_t),
              "ValueCount must be a packed {value, count} pair");

#if defined(AQUA_KERNEL_AVX2)

// Four counts per iteration: deinterleave counts out of the {value, count}
// pairs, run an in-register Hillis–Steele scan across the 4 lanes, add the
// running carry, store prefix[i+1 .. i+4].  Integer adds reassociate
// exactly, so the result matches the scalar loop bit-for-bit.
void ExclusivePrefixCountsImpl(const ValueCount* entries, std::size_t n,
                               std::int64_t* prefix) {
  prefix[0] = 0;
  std::size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  __m256i carry = zero;
  for (; i + 4 <= n; i += 4) {
    const __m256i e01 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(entries + i));
    const __m256i e23 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(entries + i + 2));
    // unpackhi within 128-bit halves gives [c0, c2, c1, c3]; permute to
    // stream order [c0, c1, c2, c3].
    __m256i x = _mm256_permute4x64_epi64(_mm256_unpackhi_epi64(e01, e23),
                                         _MM_SHUFFLE(3, 1, 2, 0));
    // Scan step 1: lane i += lane i-1 (lane 0 adds 0).
    __m256i s1 = _mm256_permute4x64_epi64(x, _MM_SHUFFLE(2, 1, 0, 0));
    s1 = _mm256_blend_epi32(s1, zero, 0x03);
    x = _mm256_add_epi64(x, s1);
    // Scan step 2: lane i += lane i-2 (lanes 0,1 add 0).
    __m256i s2 = _mm256_permute4x64_epi64(x, _MM_SHUFFLE(1, 0, 1, 0));
    s2 = _mm256_blend_epi32(s2, zero, 0x0F);
    x = _mm256_add_epi64(x, s2);
    x = _mm256_add_epi64(x, carry);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(prefix + i + 1), x);
    carry = _mm256_permute4x64_epi64(x, _MM_SHUFFLE(3, 3, 3, 3));
  }
  for (; i < n; ++i) prefix[i + 1] = prefix[i] + entries[i].count;
}

#elif defined(AQUA_KERNEL_SSE2)

void ExclusivePrefixCountsImpl(const ValueCount* entries, std::size_t n,
                               std::int64_t* prefix) {
  prefix[0] = 0;
  std::size_t i = 0;
  __m128i carry = _mm_setzero_si128();
  for (; i + 2 <= n; i += 2) {
    const __m128i e0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(entries + i));
    const __m128i e1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(entries + i + 1));
    __m128i x = _mm_unpackhi_epi64(e0, e1);          // [c0, c1]
    x = _mm_add_epi64(x, _mm_slli_si128(x, 8));      // [c0, c0+c1]
    x = _mm_add_epi64(x, carry);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(prefix + i + 1), x);
    carry = _mm_unpackhi_epi64(x, x);                // broadcast the total
  }
  for (; i < n; ++i) prefix[i + 1] = prefix[i] + entries[i].count;
}

#elif defined(AQUA_KERNEL_NEON)

void ExclusivePrefixCountsImpl(const ValueCount* entries, std::size_t n,
                               std::int64_t* prefix) {
  prefix[0] = 0;
  std::size_t i = 0;
  int64x2_t carry = vdupq_n_s64(0);
  for (; i + 2 <= n; i += 2) {
    // vld2 deinterleaves the pairs: val[0] = values, val[1] = counts.
    const int64x2x2_t de =
        vld2q_s64(reinterpret_cast<const std::int64_t*>(entries + i));
    int64x2_t x = de.val[1];                          // [c0, c1]
    x = vaddq_s64(x, vextq_s64(vdupq_n_s64(0), x, 1));  // [c0, c0+c1]
    x = vaddq_s64(x, carry);
    vst1q_s64(prefix + i + 1, x);
    carry = vdupq_n_s64(vgetq_lane_s64(x, 1));
  }
  for (; i < n; ++i) prefix[i + 1] = prefix[i] + entries[i].count;
}

#else  // AQUA_KERNEL_SCALAR

void ExclusivePrefixCountsImpl(const ValueCount* entries, std::size_t n,
                               std::int64_t* prefix) {
  prefix[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + entries[i].count;
  }
}

#endif

}  // namespace

std::string_view BatchKernelName() {
#if defined(AQUA_KERNEL_AVX2)
  return "avx2";
#elif defined(AQUA_KERNEL_SSE2)
  return "sse2";
#elif defined(AQUA_KERNEL_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

void HashBatch(std::span<const Value> values, std::uint64_t* hashes) {
  HashBatchImpl(values.data(), values.size(), hashes);
}

void ExclusivePrefixCounts(std::span<const ValueCount> entries,
                           std::int64_t* prefix) {
  ExclusivePrefixCountsImpl(entries.data(), entries.size(), prefix);
}

}  // namespace aqua

/**
 * @file
 * Compile-time-selected SIMD kernels for the encode hot path. CABLE
 * must compress at link speed (§IV), so the per-candidate inner
 * loops — 16-word equality (CBV construction, §III-C), 16-word
 * trivial-word classification (signature extraction, §III-A) and
 * one word against 16 (the rows of LBE's word-equality matrix) —
 * are expressed as whole-line mask kernels that vectorize to one or
 * two compare instructions per line.
 *
 * Backend selection happens at compile time from predefined macros:
 *
 *   AVX2   two 256-bit compares per line
 *   SSE2   four 128-bit compares per line (baseline on any x86-64)
 *   NEON   four 128-bit compares per line (aarch64)
 *   scalar portable fallback, also the differential-test reference
 *
 * Every kernel has an always-compiled `*Scalar` twin with identical
 * semantics; tests cross-check the dispatched kernel against it
 * bit-for-bit on randomized inputs (tests/test_simd.cc).
 *
 * All kernels are pure functions of their byte inputs: no alignment
 * requirement (unaligned loads), no FP, no flags — so results are
 * identical across backends and thread counts by construction.
 */

#ifndef CABLE_COMMON_SIMD_H
#define CABLE_COMMON_SIMD_H

#include <cstdint>
#include <cstring>

#include "common/bitops.h"

#if defined(__AVX2__)
#define CABLE_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) \
    || (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define CABLE_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__) \
    || (defined(__ARM_NEON) && defined(__LITTLE_ENDIAN__))
#define CABLE_SIMD_NEON 1
#include <arm_neon.h>
#else
#define CABLE_SIMD_SCALAR 1
#endif

namespace cable
{

/** Human-readable name of the compiled-in kernel backend. */
inline const char *
simdBackendName()
{
#if defined(CABLE_SIMD_AVX2)
    return "avx2";
#elif defined(CABLE_SIMD_SSE2)
    return "sse2";
#elif defined(CABLE_SIMD_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

/**
 * Reference kernel: bit i of the result is set iff 32-bit words
 * a[4i..4i+3] and b[4i..4i+3] are equal, for i in [0, 16).
 */
inline std::uint32_t
wordEqMask16Scalar(const std::uint8_t *a, const std::uint8_t *b)
{
    std::uint32_t mask = 0;
    for (unsigned i = 0; i < 16; ++i) {
        std::uint32_t wa, wb;
        std::memcpy(&wa, a + i * 4, 4);
        std::memcpy(&wb, b + i * 4, 4);
        if (wa == wb)
            mask |= 1u << i;
    }
    return mask;
}

/**
 * Reference kernel: bit i of the result is set iff 32-bit word
 * p[4i..4i+3] equals @p w, for i in [0, 16). One call yields 16
 * columns of one row of LBE's word-equality matrix.
 */
inline std::uint32_t
broadcastEqMask16Scalar(const std::uint8_t *p, std::uint32_t w)
{
    std::uint32_t mask = 0;
    for (unsigned i = 0; i < 16; ++i) {
        std::uint32_t v;
        std::memcpy(&v, p + i * 4, 4);
        if (v == w)
            mask |= 1u << i;
    }
    return mask;
}

/**
 * Reference kernel: bit i of the result is set iff word i of the
 * 64-byte block is trivial per §III-A — at least @p threshold
 * leading zeroes or leading ones.
 *
 * The vector backends use the closed form: for threshold t in
 * [2, 32] and K = 2^(32-t), a word v is trivial iff
 * (v + K) mod 2^32 < 2K. (v < K covers leading zeroes; v >= 2^32 - K
 * wraps into [0, K).) Thresholds 0 and 1 classify every word trivial
 * (any word has >= 1 leading zero or one) and thresholds > 32 none,
 * so those exit early in the dispatcher.
 */
inline std::uint32_t
trivialMask16Scalar(const std::uint8_t *p, unsigned threshold)
{
    std::uint32_t mask = 0;
    for (unsigned i = 0; i < 16; ++i) {
        std::uint32_t w;
        std::memcpy(&w, p + i * 4, 4);
        if (isTrivialWord(w, threshold))
            mask |= 1u << i;
    }
    return mask;
}

#if defined(CABLE_SIMD_AVX2)

inline std::uint32_t
wordEqMask16(const std::uint8_t *a, const std::uint8_t *b)
{
    __m256i a0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(a));
    __m256i a1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(a + 32));
    __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(b));
    __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(b + 32));
    unsigned lo = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(a0, b0))));
    unsigned hi = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(a1, b1))));
    return lo | (hi << 8);
}

inline std::uint32_t
broadcastEqMask16(const std::uint8_t *p, std::uint32_t w)
{
    const __m256i b = _mm256_set1_epi32(static_cast<int>(w));
    __m256i v0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(p));
    __m256i v1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(p + 32));
    unsigned lo = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(v0, b))));
    unsigned hi = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(v1, b))));
    return lo | (hi << 8);
}

inline std::uint32_t
trivialMask16(const std::uint8_t *p, unsigned threshold)
{
    if (threshold < 2)
        return 0xffffu;
    if (threshold > 32)
        return 0;
    const std::uint32_t k = 1u << (32 - threshold);
    // x <u C  <=>  (x ^ 0x80000000) <s (C ^ 0x80000000)
    const __m256i bias = _mm256_set1_epi32(
        static_cast<int>(0x80000000u));
    const __m256i koff = _mm256_set1_epi32(static_cast<int>(k));
    const __m256i lim = _mm256_set1_epi32(
        static_cast<int>((2 * k) ^ 0x80000000u));
    __m256i v0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(p));
    __m256i v1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(p + 32));
    __m256i s0 = _mm256_xor_si256(_mm256_add_epi32(v0, koff), bias);
    __m256i s1 = _mm256_xor_si256(_mm256_add_epi32(v1, koff), bias);
    unsigned lo = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(lim, s0))));
    unsigned hi = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(lim, s1))));
    return lo | (hi << 8);
}

#elif defined(CABLE_SIMD_SSE2)

namespace detail
{

/** The 16 dword lanes of four compare results as a 16-bit mask:
 *  two saturating packs narrow them to bytes, one pmovmskb reads
 *  them out (versus four movmskps and their shifts). */
inline std::uint32_t
packMask16(__m128i c0, __m128i c1, __m128i c2, __m128i c3)
{
    const __m128i bytes = _mm_packs_epi16(_mm_packs_epi32(c0, c1),
                                          _mm_packs_epi32(c2, c3));
    return static_cast<std::uint32_t>(_mm_movemask_epi8(bytes));
}

inline __m128i
load16(const std::uint8_t *p, unsigned q)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + q * 16));
}

} // namespace detail

inline std::uint32_t
wordEqMask16(const std::uint8_t *a, const std::uint8_t *b)
{
    using detail::load16;
    return detail::packMask16(
        _mm_cmpeq_epi32(load16(a, 0), load16(b, 0)),
        _mm_cmpeq_epi32(load16(a, 1), load16(b, 1)),
        _mm_cmpeq_epi32(load16(a, 2), load16(b, 2)),
        _mm_cmpeq_epi32(load16(a, 3), load16(b, 3)));
}

inline std::uint32_t
broadcastEqMask16(const std::uint8_t *p, std::uint32_t w)
{
    using detail::load16;
    const __m128i b = _mm_set1_epi32(static_cast<int>(w));
    return detail::packMask16(_mm_cmpeq_epi32(load16(p, 0), b),
                              _mm_cmpeq_epi32(load16(p, 1), b),
                              _mm_cmpeq_epi32(load16(p, 2), b),
                              _mm_cmpeq_epi32(load16(p, 3), b));
}

inline std::uint32_t
trivialMask16(const std::uint8_t *p, unsigned threshold)
{
    if (threshold < 2)
        return 0xffffu;
    if (threshold > 32)
        return 0;
    const std::uint32_t k = 1u << (32 - threshold);
    const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
    const __m128i koff = _mm_set1_epi32(static_cast<int>(k));
    const __m128i lim = _mm_set1_epi32(
        static_cast<int>((2 * k) ^ 0x80000000u));
    auto small = [&](unsigned q) {
        const __m128i v = detail::load16(p, q);
        return _mm_cmplt_epi32(_mm_xor_si128(_mm_add_epi32(v, koff), bias),
                               lim);
    };
    return detail::packMask16(small(0), small(1), small(2), small(3));
}

#elif defined(CABLE_SIMD_NEON)

namespace detail
{

/** Compresses a 4-lane all-ones/all-zeros mask to its low 4 bits. */
inline unsigned
neonMask4(uint32x4_t m)
{
    const uint32x4_t weights = {1u, 2u, 4u, 8u};
    return vaddvq_u32(vandq_u32(m, weights));
}

} // namespace detail

inline std::uint32_t
wordEqMask16(const std::uint8_t *a, const std::uint8_t *b)
{
    std::uint32_t mask = 0;
    for (unsigned q = 0; q < 4; ++q) {
        uint32x4_t va = vld1q_u32(
            reinterpret_cast<const std::uint32_t *>(a + q * 16));
        uint32x4_t vb = vld1q_u32(
            reinterpret_cast<const std::uint32_t *>(b + q * 16));
        mask |= detail::neonMask4(vceqq_u32(va, vb)) << (q * 4);
    }
    return mask;
}

inline std::uint32_t
broadcastEqMask16(const std::uint8_t *p, std::uint32_t w)
{
    const uint32x4_t b = vdupq_n_u32(w);
    std::uint32_t mask = 0;
    for (unsigned q = 0; q < 4; ++q) {
        uint32x4_t v = vld1q_u32(
            reinterpret_cast<const std::uint32_t *>(p + q * 16));
        mask |= detail::neonMask4(vceqq_u32(v, b)) << (q * 4);
    }
    return mask;
}

inline std::uint32_t
trivialMask16(const std::uint8_t *p, unsigned threshold)
{
    if (threshold < 2)
        return 0xffffu;
    if (threshold > 32)
        return 0;
    const std::uint32_t k = 1u << (32 - threshold);
    const uint32x4_t koff = vdupq_n_u32(k);
    const uint32x4_t lim = vdupq_n_u32(2 * k);
    std::uint32_t mask = 0;
    for (unsigned q = 0; q < 4; ++q) {
        uint32x4_t v = vld1q_u32(
            reinterpret_cast<const std::uint32_t *>(p + q * 16));
        uint32x4_t s = vaddq_u32(v, koff);
        mask |= detail::neonMask4(vcltq_u32(s, lim)) << (q * 4);
    }
    return mask;
}

#else // CABLE_SIMD_SCALAR

inline std::uint32_t
wordEqMask16(const std::uint8_t *a, const std::uint8_t *b)
{
    return wordEqMask16Scalar(a, b);
}

inline std::uint32_t
broadcastEqMask16(const std::uint8_t *p, std::uint32_t w)
{
    return broadcastEqMask16Scalar(p, w);
}

inline std::uint32_t
trivialMask16(const std::uint8_t *p, unsigned threshold)
{
    return trivialMask16Scalar(p, threshold);
}

#endif

} // namespace cable

#endif // CABLE_COMMON_SIMD_H

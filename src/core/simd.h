// Portable fixed-width SIMD substrate for the ML hot paths: an 8-lane
// float vector (`f32x8`) compiled to AVX2 (one 256-bit register), SSE2 or
// NEON (two 128-bit registers), or a plain scalar array — selected at
// build time from the target ISA. The build adds -mavx2 when the build
// host runs AVX2 (src/CMakeLists.txt); elsewhere the target's baseline
// stands (SSE2 on x86-64).
//
// Determinism contract (DESIGN.md §11): every backend executes the SAME
// sequence of IEEE-754 single-precision operations per lane —
// add/sub/mul/div/sqrt are correctly rounded and elementwise on every
// backend, mul_add is ALWAYS a separate multiply then add (never an FMA,
// which would skip the intermediate rounding), and the whole project
// builds with -ffp-contract=off so the compiler cannot re-introduce
// contraction behind our back. Reductions never reassociate freely:
// the helpers below accumulate into 8 strided partial sums
// (partial[l] = op over elements with index ≡ l mod 8, tail included)
// and combine them with the fixed `reduce8` tree. A kernel written
// against this header is therefore bit-identical on AVX2, SSE2, NEON and
// the scalar fallback — SIMD changes wall-clock, never output.
//
// Lane max uses the x86 MAXPS rule `a > b ? a : b` (returns b on equal or
// unordered); inputs are assumed non-NaN, which the training-loop
// divergence guards enforce upstream.
#pragma once

#include <cstddef>

#if defined(SUGAR_SIMD_FORCE_SCALAR)
// Testing hook: build the scalar emulation even where intrinsics exist.
#elif defined(__AVX2__)
#define SUGAR_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#define SUGAR_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define SUGAR_SIMD_NEON 1
#include <arm_neon.h>
#endif

#if !defined(SUGAR_SIMD_AVX2) && !defined(SUGAR_SIMD_SSE2) && \
    !defined(SUGAR_SIMD_NEON)
#define SUGAR_SIMD_SCALAR 1
#endif

#include <cmath>

namespace sugar::core::simd {

inline constexpr std::size_t kLanes = 8;

constexpr const char* backend_name() {
#if defined(SUGAR_SIMD_AVX2)
  return "avx2";
#elif defined(SUGAR_SIMD_SSE2)
  return "sse2";
#elif defined(SUGAR_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

// ---- f32x8: 8 IEEE-754 floats, one op per lane ---------------------------

#if defined(SUGAR_SIMD_AVX2)

struct f32x8 {
  __m256 v;
};

inline f32x8 zeros() { return {_mm256_setzero_ps()}; }
inline f32x8 broadcast(float x) { return {_mm256_set1_ps(x)}; }
inline f32x8 loadu(const float* p) { return {_mm256_loadu_ps(p)}; }
inline void storeu(float* p, f32x8 a) { _mm256_storeu_ps(p, a.v); }
inline f32x8 add(f32x8 a, f32x8 b) { return {_mm256_add_ps(a.v, b.v)}; }
inline f32x8 sub(f32x8 a, f32x8 b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline f32x8 mul(f32x8 a, f32x8 b) { return {_mm256_mul_ps(a.v, b.v)}; }
inline f32x8 div(f32x8 a, f32x8 b) { return {_mm256_div_ps(a.v, b.v)}; }
inline f32x8 sqrt(f32x8 a) { return {_mm256_sqrt_ps(a.v)}; }
inline f32x8 vmax(f32x8 a, f32x8 b) { return {_mm256_max_ps(a.v, b.v)}; }
/// Lanes > 0 keep their value, the rest become +0.0f.
inline f32x8 relu(f32x8 a) {
  __m256 gt = _mm256_cmp_ps(a.v, _mm256_setzero_ps(), _CMP_GT_OQ);
  return {_mm256_and_ps(a.v, gt)};
}
/// 1.0f where the lane is > 0, else 0.0f.
inline f32x8 step01(f32x8 a) {
  __m256 gt = _mm256_cmp_ps(a.v, _mm256_setzero_ps(), _CMP_GT_OQ);
  return {_mm256_and_ps(_mm256_set1_ps(1.0f), gt)};
}

#elif defined(SUGAR_SIMD_SSE2)

struct f32x8 {
  __m128 lo, hi;
};

inline f32x8 zeros() { return {_mm_setzero_ps(), _mm_setzero_ps()}; }
inline f32x8 broadcast(float x) { return {_mm_set1_ps(x), _mm_set1_ps(x)}; }
inline f32x8 loadu(const float* p) {
  return {_mm_loadu_ps(p), _mm_loadu_ps(p + 4)};
}
inline void storeu(float* p, f32x8 a) {
  _mm_storeu_ps(p, a.lo);
  _mm_storeu_ps(p + 4, a.hi);
}
inline f32x8 add(f32x8 a, f32x8 b) {
  return {_mm_add_ps(a.lo, b.lo), _mm_add_ps(a.hi, b.hi)};
}
inline f32x8 sub(f32x8 a, f32x8 b) {
  return {_mm_sub_ps(a.lo, b.lo), _mm_sub_ps(a.hi, b.hi)};
}
inline f32x8 mul(f32x8 a, f32x8 b) {
  return {_mm_mul_ps(a.lo, b.lo), _mm_mul_ps(a.hi, b.hi)};
}
inline f32x8 div(f32x8 a, f32x8 b) {
  return {_mm_div_ps(a.lo, b.lo), _mm_div_ps(a.hi, b.hi)};
}
inline f32x8 sqrt(f32x8 a) { return {_mm_sqrt_ps(a.lo), _mm_sqrt_ps(a.hi)}; }
inline f32x8 vmax(f32x8 a, f32x8 b) {
  // _mm_max_ps(a, b): lane rule a > b ? a : b (returns b on equal).
  return {_mm_max_ps(a.lo, b.lo), _mm_max_ps(a.hi, b.hi)};
}
inline f32x8 relu(f32x8 a) {
  __m128 z = _mm_setzero_ps();
  return {_mm_and_ps(a.lo, _mm_cmpgt_ps(a.lo, z)),
          _mm_and_ps(a.hi, _mm_cmpgt_ps(a.hi, z))};
}
inline f32x8 step01(f32x8 a) {
  __m128 z = _mm_setzero_ps();
  __m128 one = _mm_set1_ps(1.0f);
  return {_mm_and_ps(one, _mm_cmpgt_ps(a.lo, z)),
          _mm_and_ps(one, _mm_cmpgt_ps(a.hi, z))};
}

#elif defined(SUGAR_SIMD_NEON)

struct f32x8 {
  float32x4_t lo, hi;
};

inline f32x8 zeros() { return {vdupq_n_f32(0.0f), vdupq_n_f32(0.0f)}; }
inline f32x8 broadcast(float x) { return {vdupq_n_f32(x), vdupq_n_f32(x)}; }
inline f32x8 loadu(const float* p) { return {vld1q_f32(p), vld1q_f32(p + 4)}; }
inline void storeu(float* p, f32x8 a) {
  vst1q_f32(p, a.lo);
  vst1q_f32(p + 4, a.hi);
}
inline f32x8 add(f32x8 a, f32x8 b) {
  return {vaddq_f32(a.lo, b.lo), vaddq_f32(a.hi, b.hi)};
}
inline f32x8 sub(f32x8 a, f32x8 b) {
  return {vsubq_f32(a.lo, b.lo), vsubq_f32(a.hi, b.hi)};
}
inline f32x8 mul(f32x8 a, f32x8 b) {
  return {vmulq_f32(a.lo, b.lo), vmulq_f32(a.hi, b.hi)};
}
inline f32x8 div(f32x8 a, f32x8 b) {
#if defined(__aarch64__)
  return {vdivq_f32(a.lo, b.lo), vdivq_f32(a.hi, b.hi)};
#else
  float ta[8], tb[8];
  storeu(ta, a);
  storeu(tb, b);
  for (int i = 0; i < 8; ++i) ta[i] /= tb[i];
  return loadu(ta);
#endif
}
inline f32x8 sqrt(f32x8 a) {
#if defined(__aarch64__)
  return {vsqrtq_f32(a.lo), vsqrtq_f32(a.hi)};
#else
  float t[8];
  storeu(t, a);
  for (int i = 0; i < 8; ++i) t[i] = std::sqrt(t[i]);
  return loadu(t);
#endif
}
inline f32x8 vmax(f32x8 a, f32x8 b) {
  return {vmaxq_f32(a.lo, b.lo), vmaxq_f32(a.hi, b.hi)};
}
inline f32x8 relu(f32x8 a) {
  float32x4_t z = vdupq_n_f32(0.0f);
  return {vreinterpretq_f32_u32(
              vandq_u32(vreinterpretq_u32_f32(a.lo), vcgtq_f32(a.lo, z))),
          vreinterpretq_f32_u32(
              vandq_u32(vreinterpretq_u32_f32(a.hi), vcgtq_f32(a.hi, z)))};
}
inline f32x8 step01(f32x8 a) {
  float32x4_t z = vdupq_n_f32(0.0f);
  float32x4_t one = vdupq_n_f32(1.0f);
  return {vreinterpretq_f32_u32(
              vandq_u32(vreinterpretq_u32_f32(one), vcgtq_f32(a.lo, z))),
          vreinterpretq_f32_u32(
              vandq_u32(vreinterpretq_u32_f32(one), vcgtq_f32(a.hi, z)))};
}

#else  // scalar fallback: the same ops, one lane at a time

struct f32x8 {
  float v[8];
};

inline f32x8 zeros() { return {{0, 0, 0, 0, 0, 0, 0, 0}}; }
inline f32x8 broadcast(float x) { return {{x, x, x, x, x, x, x, x}}; }
inline f32x8 loadu(const float* p) {
  f32x8 r;
  for (int i = 0; i < 8; ++i) r.v[i] = p[i];
  return r;
}
inline void storeu(float* p, f32x8 a) {
  for (int i = 0; i < 8; ++i) p[i] = a.v[i];
}
inline f32x8 add(f32x8 a, f32x8 b) {
  f32x8 r;
  for (int i = 0; i < 8; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}
inline f32x8 sub(f32x8 a, f32x8 b) {
  f32x8 r;
  for (int i = 0; i < 8; ++i) r.v[i] = a.v[i] - b.v[i];
  return r;
}
inline f32x8 mul(f32x8 a, f32x8 b) {
  f32x8 r;
  for (int i = 0; i < 8; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}
inline f32x8 div(f32x8 a, f32x8 b) {
  f32x8 r;
  for (int i = 0; i < 8; ++i) r.v[i] = a.v[i] / b.v[i];
  return r;
}
inline f32x8 sqrt(f32x8 a) {
  f32x8 r;
  for (int i = 0; i < 8; ++i) r.v[i] = std::sqrt(a.v[i]);
  return r;
}
inline f32x8 vmax(f32x8 a, f32x8 b) {
  f32x8 r;
  for (int i = 0; i < 8; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  return r;
}
inline f32x8 relu(f32x8 a) {
  f32x8 r;
  for (int i = 0; i < 8; ++i) r.v[i] = a.v[i] > 0.0f ? a.v[i] : 0.0f;
  return r;
}
inline f32x8 step01(f32x8 a) {
  f32x8 r;
  for (int i = 0; i < 8; ++i) r.v[i] = a.v[i] > 0.0f ? 1.0f : 0.0f;
  return r;
}

#endif

/// Separate multiply then add — NEVER an FMA. The intermediate rounding is
/// part of the determinism contract: an FMA would make SIMD builds drift
/// from the scalar fallback by up to one ulp per accumulation step.
inline f32x8 mul_add(f32x8 a, f32x8 b, f32x8 c) { return add(mul(a, b), c); }

// ---- Fixed-order reductions ---------------------------------------------
//
// The strided-8 reduction spec: partial[l] accumulates the elements whose
// index ≡ l (mod 8) — the vector loop handles whole blocks of 8, the tail
// elements n8..n-1 land in lanes 0..(n%8)-1 — and the partials combine with
// the fixed `reduce8` tree below. Every consumer (dot products, squared
// distances, softmax row sums/maxima, loss sums) uses this exact order, so
// the result is a pure function of the input, not of the ISA.

/// The fixed combine tree: ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7)).
inline float reduce8(const float p[8]) {
  return ((p[0] + p[4]) + (p[2] + p[6])) + ((p[1] + p[5]) + (p[3] + p[7]));
}

/// Same tree with the lane-max rule instead of +.
inline float reduce8_max(const float p[8]) {
  auto mx = [](float a, float b) { return a > b ? a : b; };
  return mx(mx(mx(p[0], p[4]), mx(p[2], p[6])), mx(mx(p[1], p[5]), mx(p[3], p[7])));
}

/// dst[i] += src[i].
inline void vadd_inplace(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    storeu(dst + i, add(loadu(dst + i), loadu(src + i)));
  for (; i < n; ++i) dst[i] += src[i];
}

/// dst[i] *= src[i].
inline void vmul_inplace(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    storeu(dst + i, mul(loadu(dst + i), loadu(src + i)));
  for (; i < n; ++i) dst[i] *= src[i];
}

/// dst[i] *= s.
inline void vscale_inplace(float* dst, float s, std::size_t n) {
  const f32x8 vs = broadcast(s);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    storeu(dst + i, mul(loadu(dst + i), vs));
  for (; i < n; ++i) dst[i] *= s;
}

/// sum(a[i] * b[i]) in strided-8 order.
inline float dot(const float* a, const float* b, std::size_t n) {
  f32x8 acc = zeros();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    acc = mul_add(loadu(a + i), loadu(b + i), acc);
  float lanes[kLanes];
  storeu(lanes, acc);
  for (std::size_t t = i; t < n; ++t) lanes[t - i] += a[t] * b[t];
  return reduce8(lanes);
}

/// sum((a[i]-b[i])^2) in strided-8 order.
inline float squared_distance(const float* a, const float* b, std::size_t n) {
  f32x8 acc = zeros();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    f32x8 d = sub(loadu(a + i), loadu(b + i));
    acc = mul_add(d, d, acc);
  }
  float lanes[kLanes];
  storeu(lanes, acc);
  for (std::size_t t = i; t < n; ++t) {
    float d = a[t] - b[t];
    lanes[t - i] += d * d;
  }
  return reduce8(lanes);
}

/// sum(a[i]) in strided-8 order.
inline float sum(const float* a, std::size_t n) {
  f32x8 acc = zeros();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) acc = add(acc, loadu(a + i));
  float lanes[kLanes];
  storeu(lanes, acc);
  for (std::size_t t = i; t < n; ++t) lanes[t - i] += a[t];
  return reduce8(lanes);
}

/// max over a[0..n): strided-8 lanes + reduce8_max for n >= 8, a plain
/// forward scan below that. Requires n >= 1 and non-NaN input.
inline float max(const float* a, std::size_t n) {
  if (n < kLanes) {
    float m = a[0];
    for (std::size_t i = 1; i < n; ++i) m = a[i] > m ? a[i] : m;
    return m;
  }
  f32x8 acc = loadu(a);
  std::size_t i = kLanes;
  for (; i + kLanes <= n; i += kLanes) acc = vmax(loadu(a + i), acc);
  float lanes[kLanes];
  storeu(lanes, acc);
  for (std::size_t t = i; t < n; ++t) {
    std::size_t l = t - i;
    lanes[l] = a[t] > lanes[l] ? a[t] : lanes[l];
  }
  return reduce8_max(lanes);
}

/// sum(a[i]^2) over doubles in the same strided-8 order (tree histogram /
/// Gini sums are double-precision; the unrolled scalar form IS the spec —
/// there is no wide-double backend, so every build runs this exact code).
inline double sum_squares_f64(const double* a, std::size_t n) {
  double p[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (std::size_t l = 0; l < 8; ++l) p[l] += a[i + l] * a[i + l];
  for (std::size_t t = i; t < n; ++t) p[t - i] += a[t] * a[t];
  return ((p[0] + p[4]) + (p[2] + p[6])) + ((p[1] + p[5]) + (p[3] + p[7]));
}

}  // namespace sugar::core::simd

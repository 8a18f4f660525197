// SSE4.1 micro-kernels. Compiled with -msse4.1 -ffp-contract=off on x86 (the
// table degrades to a nullptr stub anywhere the flag is absent). SSE4.1 has
// no F16C, so the F16 tile reuses the scalar software-Half reference (which
// is the semantic contract anyway).
#if defined(__SSE4_1__)

#include <smmintrin.h>

#include <cstring>

#include "kernels/simd_internal.h"

namespace ulayer::simd::detail {
namespace {

// Force full unroll of the R <= 4 per-row loops so the accumulator arrays
// scalarize into vector registers instead of spilling to the stack (GCC 12
// at -O2 leaves constant-trip loops rolled; see simd_avx2.cc).
#define ULAYER_UNROLL_R _Pragma("GCC unroll 4")

// Unaligned 4-byte uint8 load widened to 4x int32.
inline __m128i LoadU8x4(const uint8_t* p) {
  int32_t raw;
  std::memcpy(&raw, p, sizeof(raw));
  return _mm_cvtepu8_epi32(_mm_cvtsi32_si128(raw));
}

template <int R>
void Qu8Tile(const uint8_t* const* a_rows, int64_t a_kstride, const int32_t* a_zp,
             const uint8_t* b, int64_t ldb, int64_t jn, int64_t k, int32_t* acc,
             int64_t acc_ld) {
  int64_t jb = 0;
  for (; jb + 8 <= jn; jb += 8) {
    __m128i acc0[R];
    __m128i acc1[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      int32_t* ar = acc + r * acc_ld + jb;
      acc0[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ar));
      acc1[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ar + 4));
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const uint8_t* brow = b + kk * ldb + jb;
      const __m128i bv0 = LoadU8x4(brow);
      const __m128i bv1 = LoadU8x4(brow + 4);
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const int32_t av =
            static_cast<int32_t>(a_rows[r][kk * a_kstride]) - a_zp[r];
        const __m128i avv = _mm_set1_epi32(av);
        acc0[r] = _mm_add_epi32(acc0[r], _mm_mullo_epi32(avv, bv0));
        acc1[r] = _mm_add_epi32(acc1[r], _mm_mullo_epi32(avv, bv1));
      }
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      int32_t* ar = acc + r * acc_ld + jb;
      _mm_storeu_si128(reinterpret_cast<__m128i*>(ar), acc0[r]);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(ar + 4), acc1[r]);
    }
  }
  for (; jb + 4 <= jn; jb += 4) {
    __m128i accv[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      accv[r] = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(acc + r * acc_ld + jb));
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m128i bv = LoadU8x4(b + kk * ldb + jb);
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const int32_t av =
            static_cast<int32_t>(a_rows[r][kk * a_kstride]) - a_zp[r];
        accv[r] = _mm_add_epi32(accv[r], _mm_mullo_epi32(_mm_set1_epi32(av), bv));
      }
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + r * acc_ld + jb),
                       accv[r]);
    }
  }
  if (jb < jn) {
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      const uint8_t* arow = a_rows[r];
      const int32_t zp = a_zp[r];
      int32_t* ar = acc + r * acc_ld;
      for (int64_t kk = 0; kk < k; ++kk) {
        const int32_t av = static_cast<int32_t>(arow[kk * a_kstride]) - zp;
        const uint8_t* brow = b + kk * ldb;
        for (int64_t j = jb; j < jn; ++j) {
          ar[j] += av * static_cast<int32_t>(brow[j]);
        }
      }
    }
  }
}

void Qu8Sse41(const uint8_t* const* a_rows, int64_t a_kstride, const int32_t* a_zp,
              const uint8_t* b, int64_t ldb, int64_t rows, int64_t jn, int64_t k,
              int32_t* acc, int64_t acc_ld) {
  switch (rows) {
    case 1:
      Qu8Tile<1>(a_rows, a_kstride, a_zp, b, ldb, jn, k, acc, acc_ld);
      break;
    case 2:
      Qu8Tile<2>(a_rows, a_kstride, a_zp, b, ldb, jn, k, acc, acc_ld);
      break;
    case 3:
      Qu8Tile<3>(a_rows, a_kstride, a_zp, b, ldb, jn, k, acc, acc_ld);
      break;
    case 4:
      Qu8Tile<4>(a_rows, a_kstride, a_zp, b, ldb, jn, k, acc, acc_ld);
      break;
    default:
      break;
  }
}

template <int R>
void F32Tile(const float* const* a_rows, int64_t a_kstride, const float* b,
             int64_t ldb, int64_t jn, int64_t k, float* const* c_rows) {
  int64_t jb = 0;
  for (; jb + 8 <= jn; jb += 8) {
    __m128 acc0[R];
    __m128 acc1[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      acc0[r] = _mm_loadu_ps(c_rows[r] + jb);
      acc1[r] = _mm_loadu_ps(c_rows[r] + jb + 4);
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* brow = b + kk * ldb + jb;
      const __m128 bv0 = _mm_loadu_ps(brow);
      const __m128 bv1 = _mm_loadu_ps(brow + 4);
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const float av = a_rows[r][kk * a_kstride];
        if (av != 0.0f) {
          const __m128 avv = _mm_set1_ps(av);
          acc0[r] = _mm_add_ps(acc0[r], _mm_mul_ps(avv, bv0));
          acc1[r] = _mm_add_ps(acc1[r], _mm_mul_ps(avv, bv1));
        }
      }
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      _mm_storeu_ps(c_rows[r] + jb, acc0[r]);
      _mm_storeu_ps(c_rows[r] + jb + 4, acc1[r]);
    }
  }
  for (; jb + 4 <= jn; jb += 4) {
    __m128 accv[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      accv[r] = _mm_loadu_ps(c_rows[r] + jb);
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m128 bv = _mm_loadu_ps(b + kk * ldb + jb);
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const float av = a_rows[r][kk * a_kstride];
        if (av != 0.0f) {
          accv[r] = _mm_add_ps(accv[r], _mm_mul_ps(_mm_set1_ps(av), bv));
        }
      }
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      _mm_storeu_ps(c_rows[r] + jb, accv[r]);
    }
  }
  if (jb < jn) {
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      const float* arow = a_rows[r];
      float* crow = c_rows[r];
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk * a_kstride];
        if (av == 0.0f) {
          continue;
        }
        const float* brow = b + kk * ldb;
        for (int64_t j = jb; j < jn; ++j) {
          crow[j] += av * brow[j];
        }
      }
    }
  }
}

void F32Sse41(const float* const* a_rows, int64_t a_kstride, const float* b,
              int64_t ldb, int64_t rows, int64_t jn, int64_t k, float* const* c_rows) {
  switch (rows) {
    case 1:
      F32Tile<1>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
      break;
    case 2:
      F32Tile<2>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
      break;
    case 3:
      F32Tile<3>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
      break;
    case 4:
      F32Tile<4>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
      break;
    default:
      break;
  }
}

// F32 GEMV: lane r is output row r of a 4-row group. Same per-lane chain
// and blend-after-add skip as the AVX2 variant.
inline __m128 GemvStep(__m128 acc, __m128 av, float bv) {
  const __m128 sum = _mm_add_ps(acc, _mm_mul_ps(av, _mm_set1_ps(bv)));
  return _mm_blendv_ps(sum, acc, _mm_cmpeq_ps(av, _mm_setzero_ps()));
}

// Columns kk..kk+3 of the 4-row group at `g` (lane r of col[j] is
// a(r, kk + j)), by a 4x4 transpose.
inline void GemvCols4(const float* g, int64_t k, int64_t kk, __m128 col[4]) {
  for (int r = 0; r < 4; ++r) {
    col[r] = _mm_loadu_ps(g + r * k + kk);
  }
  _MM_TRANSPOSE4_PS(col[0], col[1], col[2], col[3]);
}

inline __m128 GemvCol1(const float* g, int64_t k, int64_t kk) {
  return _mm_setr_ps(g[kk], g[k + kk], g[2 * k + kk], g[3 * k + kk]);
}

// G independent 4-row groups per pass, so G add chains overlap in flight.
template <int G>
void GemvGroups(const float* a, const float* b, int64_t k, float* c) {
  __m128 acc[G];
  ULAYER_UNROLL_R
  for (int g = 0; g < G; ++g) {
    acc[g] = _mm_loadu_ps(c + 4 * g);
  }
  int64_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    ULAYER_UNROLL_R
    for (int g = 0; g < G; ++g) {
      __m128 col[4];
      GemvCols4(a + 4 * g * k, k, kk, col);
      for (int j = 0; j < 4; ++j) {
        acc[g] = GemvStep(acc[g], col[j], b[kk + j]);
      }
    }
  }
  for (; kk < k; ++kk) {
    ULAYER_UNROLL_R
    for (int g = 0; g < G; ++g) {
      acc[g] = GemvStep(acc[g], GemvCol1(a + 4 * g * k, k, kk), b[kk]);
    }
  }
  ULAYER_UNROLL_R
  for (int g = 0; g < G; ++g) {
    _mm_storeu_ps(c + 4 * g, acc[g]);
  }
}

void GemvF32Sse41(const float* a, const float* b, int64_t rows, int64_t k, float* c) {
  int64_t i0 = 0;
  for (; i0 + 8 <= rows; i0 += 8) {
    GemvGroups<2>(a + i0 * k, b, k, c + i0);
  }
  for (; i0 + 4 <= rows; i0 += 4) {
    GemvGroups<1>(a + i0 * k, b, k, c + i0);
  }
  GemvF32Scalar(a + i0 * k, b, rows - i0, k, c + i0);
}

}  // namespace

const GemmMicroKernels* Sse41Table() {
  static const GemmMicroKernels table = {Isa::kSse41, Qu8Sse41, F32Sse41, F16Scalar,
                                         GemvF32Sse41};
  return &table;
}

}  // namespace ulayer::simd::detail

#else  // !defined(__SSE4_1__)

#include "kernels/simd_internal.h"

namespace ulayer::simd::detail {
const GemmMicroKernels* Sse41Table() { return nullptr; }
}  // namespace ulayer::simd::detail

#endif  // __SSE4_1__

// AVX2 + F16C micro-kernels. Compiled with -mavx2 -mf16c -ffp-contract=off
// on x86 (the table degrades to a nullptr stub anywhere those flags are
// absent; no -mfma: contraction would fuse the separate mul+add below and
// break bit-identity with the scalar reference). Only dispatched to when the
// CPU reports both avx2 and f16c.
#if defined(__AVX2__) && defined(__F16C__)

#include <immintrin.h>

#include "kernels/simd_internal.h"

namespace ulayer::simd::detail {
namespace {

constexpr int kRoundNearest = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

// Every per-row loop below runs R <= 4 iterations and is forced fully
// unrolled: without the pragma GCC 12 at -O2 leaves the loops rolled, which
// keeps the __m256 accumulator arrays addressable — they spill to the stack
// and the hot k loop round-trips every accumulator through memory per step
// (verified in the generated assembly). Unrolling scalarizes the arrays into
// ymm registers. It does not reorder any arithmetic: rows are independent and
// each row's op sequence is unchanged, so bit-identity is preserved.
#define ULAYER_UNROLL_R _Pragma("GCC unroll 4")

// ---- QU8: int32 accumulate tiles (exact in any order) ----------------------

template <int R>
void Qu8Tile(const uint8_t* const* a_rows, int64_t a_kstride, const int32_t* a_zp,
             const uint8_t* b, int64_t ldb, int64_t jn, int64_t k, int32_t* acc,
             int64_t acc_ld) {
  const uint8_t* arp[R];
  int32_t azp[R];
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    arp[r] = a_rows[r];
    azp[r] = a_zp[r];
  }
  int64_t jb = 0;
  for (; jb + 16 <= jn; jb += 16) {
    __m256i acc0[R];
    __m256i acc1[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      int32_t* arow = acc + r * acc_ld + jb;
      acc0[r] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow));
      acc1[r] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow + 8));
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const uint8_t* brow = b + kk * ldb + jb;
      const __m256i bv0 = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(brow)));
      const __m256i bv1 = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(brow + 8)));
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const int32_t av =
            static_cast<int32_t>(arp[r][kk * a_kstride]) - azp[r];
        const __m256i avv = _mm256_set1_epi32(av);
        acc0[r] = _mm256_add_epi32(acc0[r], _mm256_mullo_epi32(avv, bv0));
        acc1[r] = _mm256_add_epi32(acc1[r], _mm256_mullo_epi32(avv, bv1));
      }
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      int32_t* arow = acc + r * acc_ld + jb;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(arow), acc0[r]);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(arow + 8), acc1[r]);
    }
  }
  for (; jb + 8 <= jn; jb += 8) {
    __m256i accv[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      accv[r] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(acc + r * acc_ld + jb));
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256i bv = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + kk * ldb + jb)));
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const int32_t av =
            static_cast<int32_t>(arp[r][kk * a_kstride]) - azp[r];
        accv[r] = _mm256_add_epi32(
            accv[r], _mm256_mullo_epi32(_mm256_set1_epi32(av), bv));
      }
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * acc_ld + jb),
                          accv[r]);
    }
  }
  if (jb < jn) {
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

void Qu8Avx2(const uint8_t* const* a_rows, int64_t a_kstride, const int32_t* a_zp,
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

// ---- F32: separate mul+add, per-(row,k) zero skip --------------------------

// CHECK selects whether the per-(row, k) av == 0 skip test is emitted. The
// caller prescans the A tile: when no value is zero the skip can never fire,
// so the unchecked body executes the identical op sequence — but without
// four data-dependent branches per k step the compiler keeps the accumulator
// arrays in ymm registers and the loop runs at port throughput.
template <int R, bool CHECK>
void F32TileImpl(const float* const* a_rows, int64_t a_kstride, const float* b,
                 int64_t ldb, int64_t jn, int64_t k, float* const* c_rows) {
  const float* ar[R];
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    ar[r] = a_rows[r];
  }
  int64_t jb = 0;
  for (; jb + 16 <= jn; jb += 16) {
    __m256 acc0[R];
    __m256 acc1[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      acc0[r] = _mm256_loadu_ps(c_rows[r] + jb);
      acc1[r] = _mm256_loadu_ps(c_rows[r] + jb + 8);
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* brow = b + kk * ldb + jb;
      const __m256 bv0 = _mm256_loadu_ps(brow);
      const __m256 bv1 = _mm256_loadu_ps(brow + 8);
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const float av = ar[r][kk * a_kstride];
        if (!CHECK || av != 0.0f) {
          const __m256 avv = _mm256_set1_ps(av);
          acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(avv, bv0));
          acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(avv, bv1));
        }
      }
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(c_rows[r] + jb, acc0[r]);
      _mm256_storeu_ps(c_rows[r] + jb + 8, acc1[r]);
    }
  }
  for (; jb + 8 <= jn; jb += 8) {
    __m256 accv[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      accv[r] = _mm256_loadu_ps(c_rows[r] + jb);
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 bv = _mm256_loadu_ps(b + kk * ldb + jb);
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const float av = ar[r][kk * a_kstride];
        if (!CHECK || av != 0.0f) {
          accv[r] = _mm256_add_ps(accv[r], _mm256_mul_ps(_mm256_set1_ps(av), bv));
        }
      }
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(c_rows[r] + jb, accv[r]);
    }
  }
  if (jb < jn) {
    for (int r = 0; r < R; ++r) {
      const float* arow = a_rows[r];
      float* crow = c_rows[r];
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk * a_kstride];
        if (CHECK && av == 0.0f) {
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

template <int R>
void F32Tile(const float* const* a_rows, int64_t a_kstride, const float* b,
             int64_t ldb, int64_t jn, int64_t k, float* const* c_rows) {
  bool any_zero = false;
  for (int r = 0; r < R && !any_zero; ++r) {
    const float* arow = a_rows[r];
    for (int64_t kk = 0; kk < k; ++kk) {
      if (arow[kk * a_kstride] == 0.0f) {
        any_zero = true;
        break;
      }
    }
  }
  if (any_zero) {
    F32TileImpl<R, true>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
  } else {
    F32TileImpl<R, false>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
  }
}

void F32Avx2(const float* const* a_rows, int64_t a_kstride, const float* b,
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

// ---- F32 GEMV: one output row per lane -------------------------------------
//
// Lane r of every vector is output row r of an 8-row group and runs that
// row's own chain: sum = acc + a*b (separate mul and add, ascending k), and
// where a == 0 the blend keeps acc — the scalar skip. Blending after the add,
// instead of adding a masked product, keeps a skipped step an exact no-op for
// every accumulator value, -0.0 and NaN included.

inline __m256 GemvStep(__m256 acc, __m256 av, float bv) {
  const __m256 sum = _mm256_add_ps(acc, _mm256_mul_ps(av, _mm256_set1_ps(bv)));
  return _mm256_blendv_ps(sum, acc, _mm256_cmp_ps(av, _mm256_setzero_ps(), _CMP_EQ_OQ));
}

inline __m256 Join(__m128 lo, __m128 hi) {
  return _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1);
}

// Columns kk..kk+3 of the 8-row group starting at `g`: lane r of col[j] is
// a(r, kk + j). Rows are loaded in pairs (r, r + 4) and 4x4-transposed
// within each 128-bit lane.
inline void GemvCols4(const float* g, int64_t k, int64_t kk, __m256 col[4]) {
  __m256 v[4];
  for (int r = 0; r < 4; ++r) {
    v[r] = Join(_mm_loadu_ps(g + r * k + kk), _mm_loadu_ps(g + (r + 4) * k + kk));
  }
  const __m256d t0 = _mm256_castps_pd(_mm256_unpacklo_ps(v[0], v[1]));
  const __m256d t1 = _mm256_castps_pd(_mm256_unpackhi_ps(v[0], v[1]));
  const __m256d t2 = _mm256_castps_pd(_mm256_unpacklo_ps(v[2], v[3]));
  const __m256d t3 = _mm256_castps_pd(_mm256_unpackhi_ps(v[2], v[3]));
  col[0] = _mm256_castpd_ps(_mm256_unpacklo_pd(t0, t2));
  col[1] = _mm256_castpd_ps(_mm256_unpackhi_pd(t0, t2));
  col[2] = _mm256_castpd_ps(_mm256_unpacklo_pd(t1, t3));
  col[3] = _mm256_castpd_ps(_mm256_unpackhi_pd(t1, t3));
}

// Column kk alone (the k % 4 tail).
inline __m256 GemvCol1(const float* g, int64_t k, int64_t kk) {
  return _mm256_setr_ps(g[kk], g[k + kk], g[2 * k + kk], g[3 * k + kk], g[4 * k + kk],
                        g[5 * k + kk], g[6 * k + kk], g[7 * k + kk]);
}

// G independent 8-row groups per pass, so G add chains overlap in flight.
template <int G>
void GemvGroups(const float* a, const float* b, int64_t k, float* c) {
  __m256 acc[G];
  ULAYER_UNROLL_R
  for (int g = 0; g < G; ++g) {
    acc[g] = _mm256_loadu_ps(c + 8 * g);
  }
  int64_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    ULAYER_UNROLL_R
    for (int g = 0; g < G; ++g) {
      __m256 col[4];
      GemvCols4(a + 8 * g * k, k, kk, col);
      for (int j = 0; j < 4; ++j) {
        acc[g] = GemvStep(acc[g], col[j], b[kk + j]);
      }
    }
  }
  for (; kk < k; ++kk) {
    ULAYER_UNROLL_R
    for (int g = 0; g < G; ++g) {
      acc[g] = GemvStep(acc[g], GemvCol1(a + 8 * g * k, k, kk), b[kk]);
    }
  }
  ULAYER_UNROLL_R
  for (int g = 0; g < G; ++g) {
    _mm256_storeu_ps(c + 8 * g, acc[g]);
  }
}

void GemvF32Avx2(const float* a, const float* b, int64_t rows, int64_t k, float* c) {
  int64_t i0 = 0;
  for (; i0 + 16 <= rows; i0 += 16) {
    GemvGroups<2>(a + i0 * k, b, k, c + i0);
  }
  for (; i0 + 8 <= rows; i0 += 8) {
    GemvGroups<1>(a + i0 * k, b, k, c + i0);
  }
  GemvF32Scalar(a + i0 * k, b, rows - i0, k, c + i0);
}

// ---- F16: per-step round-to-binary16 via F16C ------------------------------
//
// Software Half computes c += a*b as
//   p = RN16(RN32(ToFloat(a) * ToFloat(b)))   (RN32 is exact: 11-bit mantissas)
//   c = RN16(RN32(ToFloat(c) + ToFloat(p)))
// which is exactly mul_ps / cvtps_ph / cvtph_ps / add_ps / cvtps_ph here —
// F16C conversions are IEEE round-to-nearest-even, the same rounding
// Half::FromFloat implements (half_test pins that equivalence).

template <int R>
void F16Tile(const Half* const* a_rows, int64_t a_kstride, const Half* b,
             int64_t ldb, int64_t jn, int64_t k, Half* const* c_rows) {
  const Half* ar[R];
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    ar[r] = a_rows[r];
  }
  int64_t jb = 0;
  for (; jb + 8 <= jn; jb += 8) {
    __m256 acc[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm256_cvtph_ps(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(c_rows[r] + jb)));
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 bv = _mm256_cvtph_ps(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + kk * ldb + jb)));
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const __m256 avv = _mm256_cvtph_ps(_mm_set1_epi16(
            static_cast<int16_t>(ar[r][kk * a_kstride].bits())));
        const __m256 prod = _mm256_mul_ps(avv, bv);
        const __m256 prod16 =
            _mm256_cvtph_ps(_mm256_cvtps_ph(prod, kRoundNearest));
        const __m256 sum = _mm256_add_ps(acc[r], prod16);
        acc[r] = _mm256_cvtph_ps(_mm256_cvtps_ph(sum, kRoundNearest));
      }
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(c_rows[r] + jb),
                       _mm256_cvtps_ph(acc[r], kRoundNearest));
    }
  }
  if (jb < jn) {
    for (int r = 0; r < R; ++r) {
      const Half* arow = a_rows[r];
      Half* crow = c_rows[r];
      for (int64_t kk = 0; kk < k; ++kk) {
        const Half av = arow[kk * a_kstride];
        const Half* brow = b + kk * ldb;
        for (int64_t j = jb; j < jn; ++j) {
          crow[j] += av * brow[j];
        }
      }
    }
  }
}

void F16Avx2(const Half* const* a_rows, int64_t a_kstride, const Half* b,
             int64_t ldb, int64_t rows, int64_t jn, int64_t k, Half* const* c_rows) {
  switch (rows) {
    case 1:
      F16Tile<1>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
      break;
    case 2:
      F16Tile<2>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
      break;
    case 3:
      F16Tile<3>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
      break;
    case 4:
      F16Tile<4>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
      break;
    default:
      break;
  }
}

}  // namespace

const GemmMicroKernels* Avx2Table() {
  static const GemmMicroKernels table = {Isa::kAvx2, Qu8Avx2, F32Avx2, F16Avx2,
                                         GemvF32Avx2};
  return &table;
}

}  // namespace ulayer::simd::detail

#else  // !(__AVX2__ && __F16C__)

#include "kernels/simd_internal.h"

namespace ulayer::simd::detail {
const GemmMicroKernels* Avx2Table() { return nullptr; }
}  // namespace ulayer::simd::detail

#endif  // __AVX2__ && __F16C__

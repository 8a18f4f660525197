// AVX2 + F16C micro-kernels. Compiled with -mavx2 -mf16c -ffp-contract=off
// on x86 (the table degrades to a nullptr stub anywhere those flags are
// absent; no -mfma: contraction would fuse the separate mul+add below and
// break bit-identity with the scalar reference). Only dispatched to when the
// CPU reports both avx2 and f16c.
#if defined(__AVX2__) && defined(__F16C__)

#include <immintrin.h>

#include <algorithm>

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

// ---- QU8: k-pair pmaddwd tiles (exact in any order) ------------------------
//
// _mm256_madd_epi16 multiplies 16 int16 lane pairs and adds each adjacent
// pair of products into one int32 lane. An A lane holding the int16 pair
// (a[k] - zp, a[k+1] - zp) against a B lane holding (b[k][j], b[k+1][j])
// therefore performs two k steps of column j in one instruction. Exact:
// |a - zp| <= 255 and 0 <= b <= 255, so a pair sum is at most
// 2 * 255 * 255 = 130050; pmaddwd saturates only when both products are
// (-32768) * (-32768), which these operands never reach. The int32 sums are
// exact (GemmQU8 bounds k so nothing overflows), so pairing k steps and
// reordering the adds reproduces the scalar tile bit for bit.

// k rows per pass of the QU8 tile. Even, so a k pair never straddles two
// passes: only the last pass of an odd k ends on an unpaired row. The A pairs
// of a pass are widened once (ap[p*R + r]) instead of once per column block.
constexpr int64_t kKChunkQu8 = 256;

// The int32 lane (lo, hi) of two int16 values, lo in the low half.
inline int32_t PackPair(int32_t lo, int32_t hi) {
  return static_cast<int32_t>(static_cast<uint32_t>(static_cast<uint16_t>(lo)) |
                              (static_cast<uint32_t>(static_cast<uint16_t>(hi)) << 16));
}

// 8*NC bytes of one B row (NC is 1 or 2).
template <int NC>
inline __m128i LoadBRow(const uint8_t* p) {
  if constexpr (NC == 2) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  } else {
    return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  }
}

// One k pair of a block: interleaves B rows k and k+1 bytewise and
// zero-extends them to int16 pairs, then per row broadcasts the A pair and
// does one madd and one add per 8 columns.
template <int R, int NC>
__attribute__((always_inline)) inline void Qu8PairStep(const int32_t* pair, __m128i row0,
                                                       __m128i row1, __m256i (&accv)[R][NC]) {
  __m256i bv[NC];
  bv[0] = _mm256_cvtepu8_epi16(_mm_unpacklo_epi8(row0, row1));
  if constexpr (NC == 2) {
    bv[1] = _mm256_cvtepu8_epi16(_mm_unpackhi_epi8(row0, row1));
  }
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    const __m256i av = _mm256_set1_epi32(pair[r]);
    ULAYER_UNROLL_R
    for (int v = 0; v < NC; ++v) {
      accv[r][v] = _mm256_add_epi32(accv[r][v], _mm256_madd_epi16(av, bv[v]));
    }
  }
}

// Columns [0, 8*NC) of one k pass over B rows b[kk*ldb], NC 8-lane int32
// accumulators per row. An odd final row pairs with zeros: its A pair's high
// half is 0 and B row kk+1 is never read.
template <int R, int NC>
void Qu8Block(const int32_t* ap, const uint8_t* b, int64_t ldb, int64_t kn, int32_t* acc,
              int64_t acc_ld) {
  __m256i accv[R][NC];
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    ULAYER_UNROLL_R
    for (int v = 0; v < NC; ++v) {
      accv[r][v] =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + r * acc_ld + 8 * v));
    }
  }
  const int32_t* pair = ap;
  const uint8_t* brow = b;
  for (int64_t p = 0; p < kn / 2; ++p) {
    Qu8PairStep<R, NC>(pair, LoadBRow<NC>(brow), LoadBRow<NC>(brow + ldb), accv);
    pair += R;
    brow += 2 * ldb;
  }
  if (kn % 2 != 0) {
    Qu8PairStep<R, NC>(pair, LoadBRow<NC>(brow), _mm_setzero_si128(), accv);
  }
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    ULAYER_UNROLL_R
    for (int v = 0; v < NC; ++v) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * acc_ld + 8 * v), accv[r][v]);
    }
  }
}

// The cols < 8 column tail of one k pass on the same 8-lane sequence, run on
// zero-padded copies of the valid B columns and accumulator columns; only the
// valid lanes are copied back, so no load or store touches a column at or
// past jn. The padding lanes compute on zeros and are discarded.
template <int R>
void Qu8TailBlock(const int32_t* ap, const uint8_t* b, int64_t ldb, int64_t cols, int64_t kn,
                  int32_t* acc, int64_t acc_ld) {
  // One zero-padded 8-column B row per k, byte j in bits [8j, 8j + 8)
  // (little-endian, as _mm_loadl_epi64 reads it back). Assembled byte by
  // byte: a memcpy of a variable 1..7 bytes would be a library call per row.
  uint64_t bpad[kKChunkQu8];
  for (int64_t kk = 0; kk < kn; ++kk) {
    const uint8_t* brow = b + kk * ldb;
    uint64_t row = 0;
    for (int64_t j = 0; j < cols; ++j) {
      row |= static_cast<uint64_t>(brow[j]) << (8 * j);
    }
    bpad[kk] = row;
  }
  alignas(32) int32_t lanes[R][8] = {};
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    std::copy_n(acc + r * acc_ld, cols, lanes[r]);
  }
  Qu8Block<R, 1>(ap, reinterpret_cast<const uint8_t*>(bpad), 8, kn, &lanes[0][0], 8);
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    std::copy_n(lanes[r], cols, acc + r * acc_ld);
  }
}

// Widens A values [k0, k0 + kn) of the tile into ap[p*R + r] = the pair
// (a(k0+2p, r) - zp[r], a(k0+2p+1, r) - zp[r]), the high half 0 past kn.
template <int R>
void WidenAPairs(const uint8_t* const* a_rows, int64_t a_kstride, const int32_t* a_zp,
                 int64_t k0, int64_t kn, int32_t* ap) {
  int64_t kk = 0;
  if constexpr (R == 4) {
    // A full tile of a packed panel (kernels/pack.h) stores each k as 4
    // consecutive row bytes, so 16 bytes hold k..k+3 of all four rows and one
    // shuffle puts them in pair order: (a(k,r), a(k+1,r)) for r = 0..3, then
    // the same for k+2, k+3 — ap for two pairs.
    if (a_kstride == 4 && a_rows[1] == a_rows[0] + 1 && a_rows[2] == a_rows[0] + 2 &&
        a_rows[3] == a_rows[0] + 3) {
      const __m128i pair_order =
          _mm_setr_epi8(0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 14, 11, 15);
      const auto zp = [&](int r) { return static_cast<int16_t>(a_zp[r]); };
      const __m256i zp_pairs =
          _mm256_setr_epi16(zp(0), zp(0), zp(1), zp(1), zp(2), zp(2), zp(3), zp(3), zp(0),
                            zp(0), zp(1), zp(1), zp(2), zp(2), zp(3), zp(3));
      for (; kk + 4 <= kn; kk += 4) {
        const __m128i raw =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a_rows[0] + (k0 + kk) * 4));
        const __m256i pairs = _mm256_cvtepu8_epi16(_mm_shuffle_epi8(raw, pair_order));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(ap + (kk / 2) * 4),
                            _mm256_sub_epi16(pairs, zp_pairs));
      }
    }
  }
  for (; kk < kn; kk += 2) {
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      const uint8_t* a = a_rows[r] + (k0 + kk) * a_kstride;
      const int32_t lo = static_cast<int32_t>(a[0]) - a_zp[r];
      const int32_t hi = kk + 1 < kn ? static_cast<int32_t>(a[a_kstride]) - a_zp[r] : 0;
      ap[(kk / 2) * R + r] = PackPair(lo, hi);
    }
  }
}

template <int R>
void Qu8Tile(const uint8_t* const* a_rows, int64_t a_kstride, const int32_t* a_zp,
             const uint8_t* b, int64_t ldb, int64_t jn, int64_t k, int32_t* acc,
             int64_t acc_ld) {
  int32_t ap[(kKChunkQu8 / 2) * R];
  for (int64_t k0 = 0; k0 < k; k0 += kKChunkQu8) {
    const int64_t kn = std::min(kKChunkQu8, k - k0);
    WidenAPairs<R>(a_rows, a_kstride, a_zp, k0, kn, ap);
    const uint8_t* bk = b + k0 * ldb;
    int64_t jb = 0;
    for (; jb + 16 <= jn; jb += 16) {
      Qu8Block<R, 2>(ap, bk + jb, ldb, kn, acc + jb, acc_ld);
    }
    for (; jb + 8 <= jn; jb += 8) {
      Qu8Block<R, 1>(ap, bk + jb, ldb, kn, acc + jb, acc_ld);
    }
    if (jb < jn) {
      Qu8TailBlock<R>(ap, bk + jb, ldb, jn - jb, kn, acc + jb, acc_ld);
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

inline __m256 LoadHalf8(const Half* p) {
  return _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

inline void StoreHalf8(Half* p, __m256 v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm256_cvtps_ph(v, kRoundNearest));
}

// One multiply-accumulate on 8 lanes: acc = RN16(acc + RN16(a*b)).
inline __m256 F16Step(__m256 acc, __m256 av, __m256 bv) {
  const __m256 prod16 = _mm256_cvtph_ps(_mm256_cvtps_ph(_mm256_mul_ps(av, bv), kRoundNearest));
  return _mm256_cvtph_ps(_mm256_cvtps_ph(_mm256_add_ps(acc, prod16), kRoundNearest));
}

// k rows per pass of the F16 tile. The A values of a pass are widened to
// float once (af[kk*R + r]) instead of once per column block, and the B rows
// of a pass (kKChunkF16 x n Halfs) stay cache-resident across the column
// blocks. Accumulators round-trip through C between passes exactly: they
// always hold binary16 values.
constexpr int64_t kKChunkF16 = 256;

// Columns [jb, jb + 8*NC) of one k pass, NC 8-lane accumulators per row.
template <int R, int NC>
void F16Block(const float* af, const Half* b, int64_t ldb, int64_t jb, int64_t kn,
              Half* const* c_rows) {
  __m256 acc[R][NC];
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    ULAYER_UNROLL_R
    for (int v = 0; v < NC; ++v) {
      acc[r][v] = LoadHalf8(c_rows[r] + jb + 8 * v);
    }
  }
  for (int64_t kk = 0; kk < kn; ++kk) {
    __m256 bv[NC];
    ULAYER_UNROLL_R
    for (int v = 0; v < NC; ++v) {
      bv[v] = LoadHalf8(b + kk * ldb + jb + 8 * v);
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      const __m256 avv = _mm256_broadcast_ss(af + kk * R + r);
      ULAYER_UNROLL_R
      for (int v = 0; v < NC; ++v) {
        acc[r][v] = F16Step(acc[r][v], avv, bv[v]);
      }
    }
  }
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    ULAYER_UNROLL_R
    for (int v = 0; v < NC; ++v) {
      StoreHalf8(c_rows[r] + jb + 8 * v, acc[r][v]);
    }
  }
}

// The jn - jb < 8 column tail of one k pass on the same 8-lane sequence.
// Vectors are loaded from zero-padded copies of the valid B and C columns,
// and only the valid lanes are copied back, so no load or store touches a
// column at or past jn. The padding lanes compute on zeros and are
// discarded; lanes never mix.
template <int R>
void F16TailBlock(const float* af, const Half* b, int64_t ldb, int64_t jb, int64_t jn,
                  int64_t kn, Half* const* c_rows) {
  const size_t cols = static_cast<size_t>(jn - jb);
  alignas(16) Half bpad[kKChunkF16 * 8];  // Half() is +0: the padding lanes.
  for (int64_t kk = 0; kk < kn; ++kk) {
    std::copy_n(b + kk * ldb + jb, cols, bpad + kk * 8);
  }
  alignas(16) Half lanes[R][8];  // Zero-padded too.
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    std::copy_n(c_rows[r] + jb, cols, lanes[r]);
  }
  Half* lane_rows[R];
  for (int r = 0; r < R; ++r) {
    lane_rows[r] = lanes[r];
  }
  F16Block<R, 1>(af, bpad, 8, 0, kn, lane_rows);
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    std::copy_n(lanes[r], cols, c_rows[r] + jb);
  }
}

template <int R>
void F16Tile(const Half* const* a_rows, int64_t a_kstride, const Half* b,
             int64_t ldb, int64_t jn, int64_t k, Half* const* c_rows) {
  alignas(32) float af[kKChunkF16 * R];
  for (int64_t k0 = 0; k0 < k; k0 += kKChunkF16) {
    const int64_t kn = std::min(kKChunkF16, k - k0);
    for (int64_t kk = 0; kk < kn; ++kk) {
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        af[kk * R + r] = _cvtsh_ss(a_rows[r][(k0 + kk) * a_kstride].bits());
      }
    }
    const Half* bk = b + k0 * ldb;
    int64_t jb = 0;
    for (; jb + 16 <= jn; jb += 16) {
      F16Block<R, 2>(af, bk, ldb, jb, kn, c_rows);
    }
    for (; jb + 8 <= jn; jb += 8) {
      F16Block<R, 1>(af, bk, ldb, jb, kn, c_rows);
    }
    if (jb < jn) {
      F16TailBlock<R>(af, bk, ldb, jb, jn, kn, c_rows);
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

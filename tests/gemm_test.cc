#include "kernels/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include "kernels/pack.h"
#include "kernels/simd.h"
#include "tensor/rng.h"

namespace ulayer {
namespace {

// Naive reference GEMM in double precision.
std::vector<double> RefGemm(const std::vector<float>& a, const std::vector<float>& b, int64_t m,
                            int64_t n, int64_t k, const std::vector<float>* bias) {
  std::vector<double> c(static_cast<size_t>(m * n), 0.0);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = bias != nullptr ? static_cast<double>((*bias)[static_cast<size_t>(i)]) : 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[static_cast<size_t>(i * k + kk)]) *
               static_cast<double>(b[static_cast<size_t>(kk * n + j)]);
      }
      c[static_cast<size_t>(i * n + j)] = acc;
    }
  }
  return c;
}

std::vector<float> RandomVec(size_t n, uint64_t seed, float lo = -1.0f, float hi = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.Uniform(lo, hi);
  }
  return v;
}

TEST(GemmF32Test, MatchesReference) {
  const int64_t m = 7, n = 13, k = 19;
  const auto a = RandomVec(static_cast<size_t>(m * k), 1);
  const auto b = RandomVec(static_cast<size_t>(k * n), 2);
  const auto bias = RandomVec(static_cast<size_t>(m), 3);
  std::vector<float> c(static_cast<size_t>(m * n));
  GemmF32(a.data(), b.data(), c.data(), m, n, k, bias.data(), false);
  const auto ref = RefGemm(a, b, m, n, k, &bias);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-4) << i;
  }
}

TEST(GemmF32Test, ReluClampsNegatives) {
  const int64_t m = 4, n = 6, k = 8;
  const auto a = RandomVec(static_cast<size_t>(m * k), 4);
  const auto b = RandomVec(static_cast<size_t>(k * n), 5);
  std::vector<float> c(static_cast<size_t>(m * n));
  GemmF32(a.data(), b.data(), c.data(), m, n, k, nullptr, true);
  const auto ref = RefGemm(a, b, m, n, k, nullptr);
  bool saw_clamp = false;
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], std::max(ref[i], 0.0), 1e-4);
    saw_clamp |= ref[i] < 0.0;
  }
  EXPECT_TRUE(saw_clamp) << "test vector should exercise the clamp";
}

TEST(GemmF32Test, NoBiasMeansZeroInit) {
  const int64_t m = 2, n = 2, k = 1;
  const float a[] = {1.0f, 2.0f};
  const float b[] = {3.0f, 4.0f};
  float c[4] = {99.0f, 99.0f, 99.0f, 99.0f};  // Stale values must be overwritten.
  GemmF32(a, b, c, m, n, k, nullptr, false);
  EXPECT_FLOAT_EQ(c[0], 3.0f);
  EXPECT_FLOAT_EQ(c[1], 4.0f);
  EXPECT_FLOAT_EQ(c[2], 6.0f);
  EXPECT_FLOAT_EQ(c[3], 8.0f);
}

TEST(GemmF16Test, SmallValuesMatchF32Closely) {
  const int64_t m = 3, n = 5, k = 7;
  const auto a = RandomVec(static_cast<size_t>(m * k), 6, -0.5f, 0.5f);
  const auto b = RandomVec(static_cast<size_t>(k * n), 7, -0.5f, 0.5f);
  std::vector<Half> ah, bh;
  for (float v : a) ah.emplace_back(v);
  for (float v : b) bh.emplace_back(v);
  std::vector<Half> ch(static_cast<size_t>(m * n));
  GemmF16(ah.data(), bh.data(), ch.data(), m, n, k, nullptr, false);
  const auto ref = RefGemm(a, b, m, n, k, nullptr);
  for (size_t i = 0; i < ch.size(); ++i) {
    // F16 relative error per op ~2^-11; 7-term dot products stay within ~1%.
    EXPECT_NEAR(ch[i].ToFloat(), ref[i], std::fabs(ref[i]) * 0.02 + 0.01);
  }
}

TEST(GemmF16Test, AccumulationIsF16NotF32) {
  // Sum of 32 copies of 128.03125: in F16 the accumulator rounds each step,
  // diverging from the exact 4097. This pins the native-F16-ALU semantics.
  const int64_t k = 32;
  std::vector<Half> a(static_cast<size_t>(k), Half(128.03125f));
  std::vector<Half> b(static_cast<size_t>(k), Half(1.0f));
  Half c;
  GemmF16(a.data(), b.data(), &c, 1, 1, k, nullptr, false);
  EXPECT_NE(c.ToFloat(), 128.03125f * 32.0f);
  EXPECT_NEAR(c.ToFloat(), 4097.0f, 8.0f);
}

TEST(GemmQU8Test, MatchesDequantizedReference) {
  const int64_t m = 6, n = 9, k = 12;
  // Real-valued operands in [-1, 1], quantized with symmetric-ish ranges.
  const auto a_real = RandomVec(static_cast<size_t>(m * k), 8);
  const auto b_real = RandomVec(static_cast<size_t>(k * n), 9);
  const QuantParams a_qp = ChooseQuantParams(-1.0f, 1.0f);
  const QuantParams b_qp = ChooseQuantParams(-1.0f, 1.0f);
  const QuantParams c_qp = ChooseQuantParams(-6.0f, 6.0f);

  std::vector<uint8_t> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n));
  for (size_t i = 0; i < a.size(); ++i) a[i] = a_qp.Quantize(a_real[i]);
  for (size_t i = 0; i < b.size(); ++i) b[i] = b_qp.Quantize(b_real[i]);

  const RequantScale rs =
      ComputeRequantScale(static_cast<double>(a_qp.scale) * static_cast<double>(b_qp.scale) /
                          static_cast<double>(c_qp.scale));
  std::vector<uint8_t> c(static_cast<size_t>(m * n));
  GemmQU8(a.data(), a_qp.zero_point, b.data(), b_qp.zero_point, c.data(), c_qp.zero_point, rs, m,
          n, k, nullptr, false);

  // Reference on the *dequantized* operands (so only requantization error
  // and output rounding remain).
  std::vector<float> a_dq(a.size()), b_dq(b.size());
  for (size_t i = 0; i < a.size(); ++i) a_dq[i] = a_qp.Dequantize(a[i]);
  for (size_t i = 0; i < b.size(); ++i) b_dq[i] = b_qp.Dequantize(b[i]);
  const auto ref = RefGemm(a_dq, b_dq, m, n, k, nullptr);
  for (size_t i = 0; i < c.size(); ++i) {
    const float got = c_qp.Dequantize(c[i]);
    EXPECT_NEAR(got, ref[i], static_cast<double>(c_qp.scale) * 1.5) << i;
  }
}

TEST(GemmQU8Test, BiasIsAppliedInAccumulatorDomain) {
  const QuantParams a_qp{0.5f, 10};
  const QuantParams b_qp{0.25f, 20};
  const QuantParams c_qp{0.5f, 0};
  const int64_t k = 1;
  const uint8_t a = 14;  // real 2.0
  const uint8_t b = 28;  // real 2.0
  const int32_t bias = 8;  // real: 8 * (0.5*0.25) = 1.0
  const RequantScale rs = ComputeRequantScale(0.5 * 0.25 / 0.5);
  uint8_t c = 0;
  GemmQU8(&a, a_qp.zero_point, &b, b_qp.zero_point, &c, c_qp.zero_point, rs, 1, 1, k, &bias,
          false);
  // Expected real output: 2*2 + 1 = 5.0 -> q = 10.
  EXPECT_EQ(c, 10);
}

TEST(GemmQU8Test, QuantizedReluClampsAtZeroPoint) {
  const QuantParams qp{0.1f, 128};
  const int64_t k = 1;
  const uint8_t a = 100;  // real -2.8
  const uint8_t b = 200;  // real  7.2 -> product -20.16
  const RequantScale rs = ComputeRequantScale(0.1 * 0.1 / 0.1);
  uint8_t c_no_relu = 0, c_relu = 0;
  GemmQU8(&a, qp.zero_point, &b, qp.zero_point, &c_no_relu, qp.zero_point, rs, 1, 1, k, nullptr,
          false);
  GemmQU8(&a, qp.zero_point, &b, qp.zero_point, &c_relu, qp.zero_point, rs, 1, 1, k, nullptr,
          true);
  EXPECT_LT(c_no_relu, 128);  // Negative real value.
  EXPECT_EQ(c_relu, 128);     // Clamped to quantized zero.
}

// Property sweep: quantized GEMM error stays bounded across sizes.
class GemmQU8Property : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmQU8Property, ErrorBounded) {
  const auto [m, n, k] = GetParam();
  const auto a_real = RandomVec(static_cast<size_t>(m * k), static_cast<uint64_t>(m * 31 + n));
  const auto b_real = RandomVec(static_cast<size_t>(k * n), static_cast<uint64_t>(k * 17 + m));
  const QuantParams a_qp = ChooseQuantParams(-1.0f, 1.0f);
  const QuantParams b_qp = ChooseQuantParams(-1.0f, 1.0f);
  const float out_range = static_cast<float>(k) * 0.6f;
  const QuantParams c_qp = ChooseQuantParams(-out_range, out_range);
  std::vector<uint8_t> a(a_real.size()), b(b_real.size());
  for (size_t i = 0; i < a.size(); ++i) a[i] = a_qp.Quantize(a_real[i]);
  for (size_t i = 0; i < b.size(); ++i) b[i] = b_qp.Quantize(b_real[i]);
  const RequantScale rs =
      ComputeRequantScale(static_cast<double>(a_qp.scale) * static_cast<double>(b_qp.scale) /
                          static_cast<double>(c_qp.scale));
  std::vector<uint8_t> c(static_cast<size_t>(m) * static_cast<size_t>(n));
  GemmQU8(a.data(), a_qp.zero_point, b.data(), b_qp.zero_point, c.data(), c_qp.zero_point, rs, m,
          n, k, nullptr, false);
  std::vector<float> a_dq(a.size()), b_dq(b.size());
  for (size_t i = 0; i < a.size(); ++i) a_dq[i] = a_qp.Dequantize(a[i]);
  for (size_t i = 0; i < b.size(); ++i) b_dq[i] = b_qp.Dequantize(b[i]);
  const auto ref = RefGemm(a_dq, b_dq, m, n, k, nullptr);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c_qp.Dequantize(c[i]), ref[i], static_cast<double>(c_qp.scale) * 1.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GemmQU8Property,
                         ::testing::Values(std::make_tuple(1, 1, 64),
                                           std::make_tuple(16, 16, 16),
                                           std::make_tuple(3, 32, 128),
                                           std::make_tuple(32, 3, 9),
                                           std::make_tuple(8, 64, 27)));

// ---- SIMD dispatch matrix (DESIGN.md Section 13) ----------------------------
// Every ISA variant must reproduce the scalar reference exactly: the QU8 and
// F32 outputs byte-identical, the F16 output bit-identical per element. The
// shapes cover full 4-row tiles, partial tiles, vector-width tails, scalar
// column tails, single elements and empty ranges; the packed-panel variant
// must match the row-major one on every ISA too.

class IsaGuard {
 public:
  explicit IsaGuard(simd::Isa isa) { simd::ForceIsa(isa); }
  ~IsaGuard() { simd::ResetForcedIsa(); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
};

struct GemmShape {
  int64_t m, n, k;
};

const GemmShape kDispatchShapes[] = {
    {1, 1, 1},      // single element
    {3, 5, 7},      // partial row tile + scalar column tail
    {4, 16, 32},    // exact tiles
    {5, 257, 40},   // 4+1 rows, 16-wide blocks + 8-block + 1-col tail
    {8, 260, 33},   // vector tail columns, odd k
    {0, 8, 8},      // empty m
    {4, 8, 0},      // empty k (bias passthrough)
    {7, 129, 65},   // everything misaligned
    {64, 48, 96},   // several chunks worth of rows
    {37, 1, 1031},  // GEMV: row groups + row tail, k tail
    {1000, 1, 7},   // GEMV: one chunk of many row groups
    {96, 100, 40},  // one column block (B used in place), several chunks
    {96, 300, 40},  // several blocks packed up front, several chunks
};

// Naive i-k-j F32 GEMM with the av == 0 skip: the arithmetic contract of
// GemmF32 written out directly, sharing no code with GemmF32 itself or the
// micro-kernels, so a blocking bug cannot hide in the reference. (This file
// is built with -ffp-contract=off, like the kernels.)
std::vector<float> NaiveGemmF32(const std::vector<float>& a, const std::vector<float>& b,
                                int64_t m, int64_t n, int64_t k, const float* bias, bool relu) {
  std::vector<float> c(static_cast<size_t>(m * n));
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c.data() + i * n;
    std::fill(crow, crow + n, bias != nullptr ? bias[i] : 0.0f);
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = a[static_cast<size_t>(i * k + kk)];
      if (av == 0.0f) {
        continue;
      }
      for (int64_t j = 0; j < n; ++j) {
        crow[j] += av * b[static_cast<size_t>(kk * n + j)];
      }
    }
    if (relu) {
      for (int64_t j = 0; j < n; ++j) {
        crow[j] = std::max(crow[j], 0.0f);
      }
    }
  }
  return c;
}

template <typename T>
bool BytesEqual(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

TEST(SimdDispatchTest, SupportedIsasEndsWithScalar) {
  const auto isas = simd::SupportedIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.back(), simd::Isa::kScalar);
}

// Runs GemmF32 at every supported ISA, with row-major and with packed-only A
// (a == nullptr, which at n == 1 takes the blocked path instead of the
// GEMV), and requires each output to be byte-identical to `want`.
void ExpectF32MatchesOnEveryIsa(const std::vector<float>& a, const std::vector<float>& b,
                                const std::vector<float>& want, const GemmShape& s,
                                const float* bias, bool relu, const std::string& what) {
  std::vector<float> ap(static_cast<size_t>(PackedPanelElems(s.m, s.k)));
  PackRowPanels(a.data(), s.m, s.k, ap.data());
  for (const simd::Isa isa : simd::SupportedIsas()) {
    const IsaGuard g(isa);
    EXPECT_EQ(simd::ActiveGemmMicroKernels().isa, isa);
    std::vector<float> got(want.size(), -1.0f);
    GemmF32(a.data(), b.data(), got.data(), s.m, s.n, s.k, bias, relu);
    EXPECT_TRUE(BytesEqual(want, got))
        << what << " " << simd::IsaName(isa) << " m=" << s.m << " n=" << s.n << " k=" << s.k;
    std::vector<float> got_packed(want.size(), -2.0f);
    GemmF32(ap.empty() ? a.data() : nullptr, b.data(), got_packed.data(), s.m, s.n, s.k,
            bias, relu, ap.empty() ? nullptr : ap.data());
    EXPECT_TRUE(BytesEqual(want, got_packed)) << what << " " << simd::IsaName(isa)
                                              << " packed m=" << s.m << " n=" << s.n
                                              << " k=" << s.k;
  }
}

TEST(SimdDispatchTest, F32ByteIdenticalAcrossIsas) {
  for (const GemmShape& s : kDispatchShapes) {
    auto a = RandomVec(static_cast<size_t>(s.m * s.k), 11);
    // Sprinkle exact zeros so the per-(row, k) skip path fires on some rows
    // while others stay zero-free (the prescanned fast path).
    for (size_t i = 0; i < a.size(); i += 7) {
      a[i] = 0.0f;
    }
    const auto b = RandomVec(static_cast<size_t>(s.k * s.n), 12);
    const auto bias = RandomVec(static_cast<size_t>(s.m), 13);
    const auto want = NaiveGemmF32(a, b, s.m, s.n, s.k, bias.data(), true);
    ExpectF32MatchesOnEveryIsa(a, b, want, s, bias.data(), true, "dispatch");
  }
}

// B of 10 column blocks (k = 16384 gives 16-column blocks, 8 per up-front
// packing group) under two row chunks: two packing passes, the second short.
TEST(SimdDispatchTest, F32PackingGroupsMatchNaiveReference) {
  const GemmShape s{40, 150, 16384};
  ASSERT_LT(GemmF32ScratchElems(s.n, s.k), s.n * s.k);
  auto a = RandomVec(static_cast<size_t>(s.m * s.k), 61);
  for (size_t i = 0; i < a.size(); i += 9) {
    a[i] = 0.0f;
  }
  const auto b = RandomVec(static_cast<size_t>(s.k * s.n), 62);
  const auto bias = RandomVec(static_cast<size_t>(s.m), 63);
  const auto want = NaiveGemmF32(a, b, s.m, s.n, s.k, bias.data(), true);
  ExpectF32MatchesOnEveryIsa(a, b, want, s, bias.data(), true, "packing groups");
}

TEST(SimdDispatchTest, F32GemvMatchesNaiveReference) {
  for (const int64_t m : {1, 3, 4, 5, 37, 1000}) {
    for (const int64_t k : {1, 3, 4, 7, 1031, 4096}) {
      const GemmShape s{m, 1, k};
      auto a = RandomVec(static_cast<size_t>(m * k), 41);
      for (size_t i = 0; i < a.size(); i += 5) {
        a[i] = 0.0f;
      }
      const auto b = RandomVec(static_cast<size_t>(k), 42);
      const auto bias = RandomVec(static_cast<size_t>(m), 43);
      for (const bool with_bias : {false, true}) {
        for (const bool relu : {false, true}) {
          const float* bp = with_bias ? bias.data() : nullptr;
          const auto want = NaiveGemmF32(a, b, m, 1, k, bp, relu);
          ExpectF32MatchesOnEveryIsa(a, b, want, s, bp, relu,
                                     std::string("gemv bias=") + (with_bias ? "1" : "0") +
                                         " relu=" + (relu ? "1" : "0"));
        }
      }
    }
  }
}

// Values where reassociating, fusing, masking the product instead of the
// step, or clamping with the wrong max operand order changes the bytes.
TEST(SimdDispatchTest, F32AdversarialValuesMatchNaiveReference) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const int64_t m = 37, k = 1031;
  // Every row's A is exactly 0 at these k (head, a 4-block interior, the
  // k % 4 tail), and B holds inf, -inf and NaN there: the skip must keep
  // them out of every sum.
  const int64_t skip_k[] = {0, 501, 1030};
  const float skip_b[] = {inf, -inf, nan};
  for (const int64_t n : {1, 5, 300}) {
    const GemmShape s{m, n, k};
    auto a = RandomVec(static_cast<size_t>(m * k), 51);
    auto b = RandomVec(static_cast<size_t>(k * n), 52);
    auto bias = RandomVec(static_cast<size_t>(m), 53);
    for (int t = 0; t < 3; ++t) {
      for (int64_t i = 0; i < m; ++i) {
        a[static_cast<size_t>(i * k + skip_k[t])] = 0.0f;
      }
      for (int64_t j = 0; j < n; ++j) {
        b[static_cast<size_t>(skip_k[t] * n + j)] = skip_b[t];
      }
    }
    // Row 2 is all zeros under a -0.0 bias: every step is skipped, and ReLU
    // must keep -0.0 (std::max(c, 0.0f) returns c when the two compare equal).
    std::fill(a.begin() + 2 * k, a.begin() + 3 * k, 0.0f);
    bias[2] = -0.0f;
    // Rows 9 and 20 start from a NaN accumulator (their products are finite,
    // so the NaN has a single source and one payload).
    bias[9] = nan;
    bias[20] = -nan;
    for (const bool relu : {false, true}) {
      const auto want = NaiveGemmF32(a, b, m, n, k, bias.data(), relu);
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          const float v = want[static_cast<size_t>(i * n + j)];
          EXPECT_EQ(std::isnan(v), i == 9 || i == 20) << "row " << i;
        }
      }
      EXPECT_TRUE(std::signbit(want[static_cast<size_t>(2 * n)]) &&
                  want[static_cast<size_t>(2 * n)] == 0.0f);
      ExpectF32MatchesOnEveryIsa(a, b, want, s, bias.data(), relu,
                                 std::string("adversarial relu=") + (relu ? "1" : "0"));
    }
  }
}

// Naive F16 GEMM: one Half register accumulator per output element, j outer
// and k inner — c = RN16(c + RN16(a*b)) over ascending k in software Half,
// sharing no code with GemmF16 or the micro-kernels.
std::vector<Half> NaiveGemmF16(const std::vector<Half>& a, const std::vector<Half>& b,
                               int64_t m, int64_t n, int64_t k, const Half* bias, bool relu) {
  const Half zero(0.0f);
  std::vector<Half> c(static_cast<size_t>(m * n));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      Half acc = bias != nullptr ? bias[i] : zero;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a[static_cast<size_t>(i * k + kk)] * b[static_cast<size_t>(kk * n + j)];
      }
      if (relu && acc < zero) {
        acc = zero;
      }
      c[static_cast<size_t>(i * n + j)] = acc;
    }
  }
  return c;
}

std::vector<Half> ToHalfs(const std::vector<float>& v) {
  std::vector<Half> h(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    h[i] = Half(v[i]);
  }
  return h;
}

// Runs GemmF16 at every supported ISA, with row-major and with packed A, and
// requires each output to be bit-identical to `want`.
void ExpectF16MatchesOnEveryIsa(const std::vector<Half>& a, const std::vector<Half>& b,
                                const std::vector<Half>& want, const GemmShape& s,
                                const Half* bias, bool relu, const std::string& what) {
  std::vector<Half> ap(static_cast<size_t>(PackedPanelElems(s.m, s.k)));
  PackRowPanels(a.data(), s.m, s.k, ap.data());
  for (const simd::Isa isa : simd::SupportedIsas()) {
    const IsaGuard g(isa);
    std::vector<Half> got(want.size(), Half(-1.0f));
    GemmF16(a.data(), b.data(), got.data(), s.m, s.n, s.k, bias, relu);
    EXPECT_TRUE(BytesEqual(want, got))
        << what << " " << simd::IsaName(isa) << " m=" << s.m << " n=" << s.n << " k=" << s.k;
    std::vector<Half> got_packed(want.size(), Half(-2.0f));
    GemmF16(a.data(), b.data(), got_packed.data(), s.m, s.n, s.k, bias, relu,
            ap.empty() ? nullptr : ap.data());
    EXPECT_TRUE(BytesEqual(want, got_packed)) << what << " " << simd::IsaName(isa)
                                              << " packed m=" << s.m << " n=" << s.n
                                              << " k=" << s.k;
  }
}

// F16 column tails: n % 16 in {1, 4, 7, 8, 9, 15} (a 16-wide block, an
// 8-wide block and/or a sub-8 vector tail), k across the tile's 256-row
// passes, plus GoogLeNet@112's 7x7 (inception 4e 1x1) and 14x14 (inception
// 3b 3x3) shapes.
const GemmShape kF16TailShapes[] = {
    {5, 17, 9},  {4, 20, 12},   {3, 7, 5},     {6, 24, 10},
    {4, 25, 3},  {9, 31, 33},   {2, 4, 300},   {7, 15, 513},
    {64, 49, 528}, {32, 196, 1152},
};

TEST(SimdDispatchTest, F16BitIdenticalAcrossIsas) {
  std::vector<GemmShape> shapes(std::begin(kDispatchShapes), std::end(kDispatchShapes));
  shapes.insert(shapes.end(), std::begin(kF16TailShapes), std::end(kF16TailShapes));
  for (const GemmShape& s : shapes) {
    const auto a = ToHalfs(RandomVec(static_cast<size_t>(s.m * s.k), 21));
    const auto b = ToHalfs(RandomVec(static_cast<size_t>(s.k * s.n), 22));
    const auto bias = ToHalfs(RandomVec(static_cast<size_t>(s.m), 23));
    const auto want = NaiveGemmF16(a, b, s.m, s.n, s.k, bias.data(), true);
    ExpectF16MatchesOnEveryIsa(a, b, want, s, bias.data(), true, "dispatch");
  }
}

// Values where a lane-wise F16 chain differs from a wider one: products that
// overflow to +-inf, inf * 0 = NaN, subnormal and underflowing products, and
// round-half-even ties in both the product and the sum. They fill every
// column, so each lands in the 16-wide blocks, the 8-wide block and the
// vector tail.
TEST(SimdDispatchTest, F16AdversarialValuesMatchNaiveReference) {
  const float inf = std::numeric_limits<float>::infinity();
  const float a_vals[] = {
      60000.0f,            // x 2 or x 60000: overflows to inf
      -60000.0f,           //
      inf,                 // x 0: NaN
      0.0f,                // x inf: NaN
      1.0f + 0x1p-10f,     // x 1.5: the exact product is a tie, rounds to even
      0x1p-12f,            // x 0x1p-13: half the smallest subnormal, ties to 0
      0x1p-10f,            // x 0x1p-10 or 0x1p-13: subnormal products
      3.0f,                // x 0x1p-13: near the bottom of the normal range
      1.0f,                // 2048 + 1 and 2048 + 3: sum ties, to even
      -1.0f,
  };
  const float b_vals[] = {2.0f,     1.5f,     0x1p-13f, 0x1p-10f, 3.0f * 0x1p-14f,
                          0.0f,     -0.0f,    60000.0f, inf,      1.0f,
                          -2.0f,    0.5f,     -inf};
  const float bias_vals[] = {2048.0f, 65504.0f, -0.0f, 0.0f, -2048.0f, 1.0f, 0x1p-24f};
  constexpr size_t kNa = sizeof(a_vals) / sizeof(a_vals[0]);
  constexpr size_t kNb = sizeof(b_vals) / sizeof(b_vals[0]);
  constexpr size_t kNbias = sizeof(bias_vals) / sizeof(bias_vals[0]);
  for (const int64_t n : {4, 7, 15, 49}) {
    const GemmShape s{9, n, 11};
    std::vector<Half> a(static_cast<size_t>(s.m * s.k)), b(static_cast<size_t>(s.k * s.n));
    std::vector<Half> bias(static_cast<size_t>(s.m));
    // Co-prime strides walk every (a, b) value pair across rows, columns and k.
    for (size_t i = 0; i < a.size(); ++i) a[i] = Half(a_vals[(i * 7) % kNa]);
    for (size_t i = 0; i < b.size(); ++i) b[i] = Half(b_vals[(i * 5) % kNb]);
    for (size_t i = 0; i < bias.size(); ++i) bias[i] = Half(bias_vals[i % kNbias]);
    for (const bool relu : {false, true}) {
      const auto want = NaiveGemmF16(a, b, s.m, s.n, s.k, bias.data(), relu);
      int infs = 0, nans = 0;
      for (const Half h : want) {
        infs += std::isinf(h.ToFloat()) ? 1 : 0;
        nans += std::isnan(h.ToFloat()) ? 1 : 0;
      }
      EXPECT_GT(nans, 0) << "n=" << n;
      EXPECT_GT(infs, 0) << "n=" << n;
      ExpectF16MatchesOnEveryIsa(a, b, want, s, bias.data(), relu,
                                 std::string("adversarial relu=") + (relu ? "1" : "0"));
    }
  }
  // A single chain that stays subnormal: 0x1p-10 * 0x1p-10 = 0x1p-20 per
  // step, four steps from a zero bias.
  const GemmShape s{1, 3, 4};
  const std::vector<Half> a(4, Half(0x1p-10f));
  const std::vector<Half> b(12, Half(0x1p-10f));
  const auto want = NaiveGemmF16(a, b, s.m, s.n, s.k, nullptr, false);
  EXPECT_EQ(want[0].ToFloat(), 0x1p-18f);
  ExpectF16MatchesOnEveryIsa(a, b, want, s, nullptr, false, "subnormal chain");
}

// A buffer of n T values that ends exactly at an inaccessible page: any load
// or store past its last element faults.
template <typename T>
class Guarded {
 public:
  explicit Guarded(size_t n) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t data_bytes = (n * sizeof(T) + page - 1) / page * page;
    map_bytes_ = data_bytes + page;
    void* map = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
    EXPECT_NE(map, MAP_FAILED);
    base_ = static_cast<char*>(map);
    EXPECT_EQ(mprotect(base_ + data_bytes, page, PROT_NONE), 0);
    data_ = reinterpret_cast<T*>(base_ + data_bytes) - n;
  }
  ~Guarded() { munmap(base_, map_bytes_); }
  Guarded(const Guarded&) = delete;
  Guarded& operator=(const Guarded&) = delete;
  T* data() { return data_; }

 private:
  char* base_ = nullptr;
  size_t map_bytes_ = 0;
  T* data_ = nullptr;
};

// The f16 micro-kernel called directly on a B panel wider than the produced
// columns (ldb > jn). B columns at and past jn hold NaN, C columns past jn
// hold a sentinel, and the last B row and the last C row end at a guard page.
// Every ISA must produce the naive values in [0, jn), leave the sentinels
// alone and never fault: the column tail neither reads nor writes past jn.
TEST(SimdDispatchTest, F16TileTouchesNothingPastJn) {
  const Half nan = Half::FromBits(0x7e00);
  const Half sentinel(-7.0f);
  for (const int64_t rows : {1, 2, 3, 4}) {
    for (const int64_t jn : {1, 4, 7, 9, 15, 17, 23}) {
      for (const int64_t k : {1, 3, 300}) {
        const int64_t ldb = jn + 5;
        const int64_t ldc = jn + 3;
        const auto a = ToHalfs(RandomVec(static_cast<size_t>(rows * k), 71));
        const auto bvals = ToHalfs(RandomVec(static_cast<size_t>(k * jn), 72));
        const auto c0 = ToHalfs(RandomVec(static_cast<size_t>(rows * jn), 73));
        // Reference: the naive chain from each C start value (as bias), on
        // the dense jn-column B.
        std::vector<Half> want(static_cast<size_t>(rows * jn));
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t j = 0; j < jn; ++j) {
            Half acc = c0[static_cast<size_t>(r * jn + j)];
            for (int64_t kk = 0; kk < k; ++kk) {
              acc += a[static_cast<size_t>(r * k + kk)] * bvals[static_cast<size_t>(kk * jn + j)];
            }
            want[static_cast<size_t>(r * jn + j)] = acc;
          }
        }
        for (const simd::Isa isa : simd::SupportedIsas()) {
          Guarded<Half> b(static_cast<size_t>((k - 1) * ldb + jn));
          Guarded<Half> c(static_cast<size_t>((rows - 1) * ldc + jn));
          for (int64_t kk = 0; kk < k; ++kk) {
            for (int64_t j = 0; j < (kk + 1 < k ? ldb : jn); ++j) {
              b.data()[kk * ldb + j] = j < jn ? bvals[static_cast<size_t>(kk * jn + j)] : nan;
            }
          }
          const Half* a_rows[simd::kRowTile];
          Half* c_rows[simd::kRowTile];
          for (int64_t r = 0; r < rows; ++r) {
            a_rows[r] = a.data() + r * k;
            c_rows[r] = c.data() + r * ldc;
            for (int64_t j = 0; j < (r + 1 < rows ? ldc : jn); ++j) {
              c_rows[r][j] = j < jn ? c0[static_cast<size_t>(r * jn + j)] : sentinel;
            }
          }
          simd::GemmMicroKernelsFor(isa).f16(a_rows, 1, b.data(), ldb, rows, jn, k, c_rows);
          for (int64_t r = 0; r < rows; ++r) {
            for (int64_t j = 0; j < (r + 1 < rows ? ldc : jn); ++j) {
              const Half expect = j < jn ? want[static_cast<size_t>(r * jn + j)] : sentinel;
              EXPECT_EQ(c_rows[r][j].bits(), expect.bits())
                  << simd::IsaName(isa) << " rows=" << rows << " jn=" << jn << " k=" << k
                  << " r=" << r << " j=" << j;
            }
          }
        }
      }
    }
  }
}

// Naive QU8 GEMM: per output element an int32 sum over ascending k of
// (a - a_zp)(b - b_zp), i-j-k order, plus bias, then RequantizeOne and the
// quantized ReLU — the gemmlowp formulation written out directly, without
// GemmQU8's row-sum zero-point hoist, its column blocks or the micro-kernels.
struct QU8Gemm {
  std::vector<uint8_t> a, b;
  int32_t a_zp = 0, b_zp = 0, c_zp = 0;
  RequantScale rs{};
  std::vector<int32_t> bias;
  bool relu = false;
};

std::vector<uint8_t> NaiveGemmQU8(const QU8Gemm& g, const GemmShape& s) {
  std::vector<uint8_t> c(static_cast<size_t>(s.m * s.n));
  for (int64_t i = 0; i < s.m; ++i) {
    for (int64_t j = 0; j < s.n; ++j) {
      int32_t acc = g.bias[static_cast<size_t>(i)];
      for (int64_t kk = 0; kk < s.k; ++kk) {
        acc += (static_cast<int32_t>(g.a[static_cast<size_t>(i * s.k + kk)]) - g.a_zp) *
               (static_cast<int32_t>(g.b[static_cast<size_t>(kk * s.n + j)]) - g.b_zp);
      }
      uint8_t q = RequantizeOne(acc, g.rs, g.c_zp);
      if (g.relu && q < g.c_zp) {
        q = static_cast<uint8_t>(g.c_zp);
      }
      c[static_cast<size_t>(i * s.n + j)] = q;
    }
  }
  return c;
}

// Runs GemmQU8 at every supported ISA, with row-major and with packed A (and
// the precomputed row sums a prepared model passes with it), and requires
// each output to be byte-identical to the naive reference.
void ExpectQU8MatchesNaiveOnEveryIsa(const QU8Gemm& g, const GemmShape& s,
                                     const std::string& what) {
  const auto want = NaiveGemmQU8(g, s);
  std::vector<uint8_t> ap(static_cast<size_t>(PackedPanelElems(s.m, s.k)));
  PackRowPanels(g.a.data(), s.m, s.k, ap.data());
  std::vector<int32_t> rowsum(static_cast<size_t>(s.m), 0);
  for (int64_t i = 0; i < s.m; ++i) {
    for (int64_t kk = 0; kk < s.k; ++kk) {
      rowsum[static_cast<size_t>(i)] += g.a[static_cast<size_t>(i * s.k + kk)];
    }
  }
  for (const simd::Isa isa : simd::SupportedIsas()) {
    const IsaGuard guard(isa);
    std::vector<uint8_t> got(want.size(), 0xAA);
    GemmQU8(g.a.data(), g.a_zp, g.b.data(), g.b_zp, got.data(), g.c_zp, g.rs, s.m, s.n, s.k,
            g.bias.data(), g.relu);
    EXPECT_TRUE(BytesEqual(want, got))
        << what << " " << simd::IsaName(isa) << " m=" << s.m << " n=" << s.n << " k=" << s.k;
    std::vector<uint8_t> got_packed(want.size(), 0x55);
    GemmQU8(nullptr, g.a_zp, g.b.data(), g.b_zp, got_packed.data(), g.c_zp, g.rs, s.m, s.n,
            s.k, g.bias.data(), g.relu, rowsum.data(), ap.data());
    EXPECT_TRUE(BytesEqual(want, got_packed)) << what << " " << simd::IsaName(isa)
                                              << " packed m=" << s.m << " n=" << s.n
                                              << " k=" << s.k;
  }
}

// QU8 k and column edges of the AVX2 k-pair tile: odd k (an unpaired last
// row), k across its 256-row passes (255, 257, 513), column tails with
// n % 16 in {1, 4, 7, 8, 9, 15}, partial row tiles, and GoogLeNet@112's
// inception 4e and 5a 3x3 shapes (49 and 9 columns).
const GemmShape kQU8EdgeShapes[] = {
    {5, 17, 1},   {4, 20, 3},    {3, 7, 255},    {6, 24, 257},  {9, 25, 513},
    {4, 31, 2},   {7, 4, 300},   {2, 15, 9},     {320, 49, 1440}, {320, 9, 1440},
};

TEST(SimdDispatchTest, QU8ByteIdenticalAcrossIsas) {
  const QuantParams a_qp = ChooseQuantParams(-1.0f, 1.0f);
  const QuantParams b_qp = ChooseQuantParams(-1.0f, 1.0f);
  std::vector<GemmShape> shapes(std::begin(kDispatchShapes), std::end(kDispatchShapes));
  shapes.insert(shapes.end(), std::begin(kQU8EdgeShapes), std::end(kQU8EdgeShapes));
  for (const GemmShape& s : shapes) {
    const auto a_real = RandomVec(static_cast<size_t>(s.m * s.k), 31);
    const auto b_real = RandomVec(static_cast<size_t>(s.k * s.n), 32);
    QU8Gemm g;
    g.a.resize(a_real.size());
    g.b.resize(b_real.size());
    for (size_t i = 0; i < g.a.size(); ++i) g.a[i] = a_qp.Quantize(a_real[i]);
    for (size_t i = 0; i < g.b.size(); ++i) g.b[i] = b_qp.Quantize(b_real[i]);
    g.a_zp = a_qp.zero_point;
    g.b_zp = b_qp.zero_point;
    g.bias.resize(static_cast<size_t>(s.m));
    for (size_t i = 0; i < g.bias.size(); ++i) g.bias[i] = static_cast<int32_t>(i * 3) - 5;
    const QuantParams c_qp = ChooseQuantParams(-static_cast<float>(s.k) * 0.6f - 1.0f,
                                               static_cast<float>(s.k) * 0.6f + 1.0f);
    g.c_zp = c_qp.zero_point;
    g.rs = ComputeRequantScale(static_cast<double>(a_qp.scale) *
                               static_cast<double>(b_qp.scale) /
                               static_cast<double>(c_qp.scale));
    g.relu = true;
    ExpectQU8MatchesNaiveOnEveryIsa(g, s, "dispatch");
  }
}

// The largest |a - a_zp| * b products: a = 0 with a_zp = 255 and a = 255
// with a_zp = 0 against b = 255 throughout, so every k pair sums to
// -+130050 — the pmaddwd operands' extremes (a zero-extended, never
// sign-extended, b). The requantization spans the whole accumulator range,
// so a wrong pair sum moves the output byte.
TEST(SimdDispatchTest, QU8ExtremeValuesMatchNaiveReference) {
  for (const auto& [a_val, a_zp] : {std::pair<uint8_t, int32_t>{0, 255}, {255, 0}}) {
    for (const GemmShape& s : kQU8EdgeShapes) {
      QU8Gemm g;
      g.a.assign(static_cast<size_t>(s.m * s.k), a_val);
      g.b.assign(static_cast<size_t>(s.k * s.n), 255);
      g.a_zp = a_zp;
      g.b_zp = 0;
      g.c_zp = 128;
      g.rs = ComputeRequantScale(100.0 / (255.0 * 255.0 * static_cast<double>(s.k)));
      g.bias.resize(static_cast<size_t>(s.m));
      for (size_t i = 0; i < g.bias.size(); ++i) g.bias[i] = static_cast<int32_t>(i * 7) - 9;
      g.relu = false;
      const auto want = NaiveGemmQU8(g, s);
      EXPECT_EQ(want[0], a_zp == 255 ? 28 : 228) << "k=" << s.k;
      ExpectQU8MatchesNaiveOnEveryIsa(g, s, "extreme a=" + std::to_string(a_val));
    }
  }
}

// The qu8 micro-kernel called directly on a B panel wider than the produced
// columns (ldb > jn), with per-row zero points. Accumulator columns past jn
// hold a sentinel, and the last B row ends at a guard page. Every ISA must
// produce the naive sums in [0, jn), leave the sentinels alone and never
// fault: neither the column tail nor an odd k reads or writes past its data.
TEST(SimdDispatchTest, QU8TileTouchesNothingPastJn) {
  constexpr int32_t kSentinel = -123456789;
  constexpr int64_t kAccLd = 40;
  const int32_t zps[simd::kRowTile] = {0, 255, 17, 128};
  for (const int64_t rows : {1, 2, 3, 4}) {
    for (const int64_t jn : {1, 4, 7, 9, 15, 17, 23, 33}) {
      for (const int64_t k : {1, 3, 256, 257, 513}) {
        const int64_t ldb = jn + 5;
        Rng rng(static_cast<uint64_t>(rows * 1000 + jn * 10 + k));
        std::vector<uint8_t> a(static_cast<size_t>(rows * k));
        for (uint8_t& v : a) v = static_cast<uint8_t>(rng.Below(256));
        std::vector<uint8_t> bvals(static_cast<size_t>(k * jn));
        for (uint8_t& v : bvals) v = static_cast<uint8_t>(rng.Below(256));
        std::vector<int32_t> acc0(static_cast<size_t>(rows * jn));
        for (int32_t& v : acc0) v = static_cast<int32_t>(rng.Below(200001)) - 100000;
        std::vector<int32_t> want(acc0);
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t j = 0; j < jn; ++j) {
            for (int64_t kk = 0; kk < k; ++kk) {
              want[static_cast<size_t>(r * jn + j)] +=
                  (static_cast<int32_t>(a[static_cast<size_t>(r * k + kk)]) - zps[r]) *
                  static_cast<int32_t>(bvals[static_cast<size_t>(kk * jn + j)]);
            }
          }
        }
        const uint8_t* a_rows[simd::kRowTile];
        for (int64_t r = 0; r < rows; ++r) {
          a_rows[r] = a.data() + r * k;
        }
        for (const simd::Isa isa : simd::SupportedIsas()) {
          Guarded<uint8_t> b(static_cast<size_t>((k - 1) * ldb + jn));
          for (int64_t kk = 0; kk < k; ++kk) {
            for (int64_t j = 0; j < (kk + 1 < k ? ldb : jn); ++j) {
              b.data()[kk * ldb + j] = j < jn ? bvals[static_cast<size_t>(kk * jn + j)] : 0xFF;
            }
          }
          std::vector<int32_t> acc(static_cast<size_t>(rows * kAccLd), kSentinel);
          for (int64_t r = 0; r < rows; ++r) {
            std::copy_n(acc0.data() + r * jn, jn, acc.data() + r * kAccLd);
          }
          simd::GemmMicroKernelsFor(isa).qu8(a_rows, 1, zps, b.data(), ldb, rows, jn, k,
                                             acc.data(), kAccLd);
          for (int64_t r = 0; r < rows; ++r) {
            for (int64_t j = 0; j < kAccLd; ++j) {
              const int32_t expect = j < jn ? want[static_cast<size_t>(r * jn + j)] : kSentinel;
              EXPECT_EQ(acc[static_cast<size_t>(r * kAccLd + j)], expect)
                  << simd::IsaName(isa) << " rows=" << rows << " jn=" << jn << " k=" << k
                  << " r=" << r << " j=" << j;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ulayer

#include "kernels/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

TEST(SimdDispatchTest, F16BitIdenticalAcrossIsas) {
  for (const GemmShape& s : kDispatchShapes) {
    const auto af = RandomVec(static_cast<size_t>(s.m * s.k), 21);
    const auto bf = RandomVec(static_cast<size_t>(s.k * s.n), 22);
    const auto biasf = RandomVec(static_cast<size_t>(s.m), 23);
    std::vector<Half> a(af.size()), b(bf.size()), bias(biasf.size());
    for (size_t i = 0; i < af.size(); ++i) a[i] = Half(af[i]);
    for (size_t i = 0; i < bf.size(); ++i) b[i] = Half(bf[i]);
    for (size_t i = 0; i < biasf.size(); ++i) bias[i] = Half(biasf[i]);
    std::vector<Half> ap(static_cast<size_t>(PackedPanelElems(s.m, s.k)));
    PackRowPanels(a.data(), s.m, s.k, ap.data());
    std::vector<Half> want(static_cast<size_t>(s.m * s.n));
    {
      const IsaGuard g(simd::Isa::kScalar);
      GemmF16(a.data(), b.data(), want.data(), s.m, s.n, s.k, bias.data(), true);
    }
    for (const simd::Isa isa : simd::SupportedIsas()) {
      const IsaGuard g(isa);
      std::vector<Half> got(want.size(), Half(-1.0f));
      GemmF16(a.data(), b.data(), got.data(), s.m, s.n, s.k, bias.data(), true);
      EXPECT_TRUE(BytesEqual(want, got))
          << simd::IsaName(isa) << " m=" << s.m << " n=" << s.n << " k=" << s.k;
      std::vector<Half> got_packed(want.size(), Half(-2.0f));
      GemmF16(a.data(), b.data(), got_packed.data(), s.m, s.n, s.k, bias.data(), true,
              ap.empty() ? nullptr : ap.data());
      EXPECT_TRUE(BytesEqual(want, got_packed))
          << simd::IsaName(isa) << " packed m=" << s.m << " n=" << s.n << " k=" << s.k;
    }
  }
}

TEST(SimdDispatchTest, QU8ByteIdenticalAcrossIsas) {
  const QuantParams a_qp = ChooseQuantParams(-1.0f, 1.0f);
  const QuantParams b_qp = ChooseQuantParams(-1.0f, 1.0f);
  for (const GemmShape& s : kDispatchShapes) {
    const auto a_real = RandomVec(static_cast<size_t>(s.m * s.k), 31);
    const auto b_real = RandomVec(static_cast<size_t>(s.k * s.n), 32);
    std::vector<uint8_t> a(a_real.size()), b(b_real.size());
    for (size_t i = 0; i < a.size(); ++i) a[i] = a_qp.Quantize(a_real[i]);
    for (size_t i = 0; i < b.size(); ++i) b[i] = b_qp.Quantize(b_real[i]);
    std::vector<int32_t> bias(static_cast<size_t>(s.m));
    for (size_t i = 0; i < bias.size(); ++i) bias[i] = static_cast<int32_t>(i * 3) - 5;
    const QuantParams c_qp = ChooseQuantParams(-static_cast<float>(s.k) * 0.6f - 1.0f,
                                               static_cast<float>(s.k) * 0.6f + 1.0f);
    const RequantScale rs =
        ComputeRequantScale(static_cast<double>(a_qp.scale) * static_cast<double>(b_qp.scale) /
                            static_cast<double>(c_qp.scale));
    std::vector<uint8_t> ap(static_cast<size_t>(PackedPanelElems(s.m, s.k)));
    PackRowPanels(a.data(), s.m, s.k, ap.data());
    std::vector<uint8_t> want(static_cast<size_t>(s.m * s.n));
    {
      const IsaGuard g(simd::Isa::kScalar);
      GemmQU8(a.data(), a_qp.zero_point, b.data(), b_qp.zero_point, want.data(),
              c_qp.zero_point, rs, s.m, s.n, s.k, bias.data(), true);
    }
    for (const simd::Isa isa : simd::SupportedIsas()) {
      const IsaGuard g(isa);
      std::vector<uint8_t> got(want.size(), 0xAA);
      GemmQU8(a.data(), a_qp.zero_point, b.data(), b_qp.zero_point, got.data(),
              c_qp.zero_point, rs, s.m, s.n, s.k, bias.data(), true);
      EXPECT_TRUE(BytesEqual(want, got))
          << simd::IsaName(isa) << " m=" << s.m << " n=" << s.n << " k=" << s.k;
      std::vector<uint8_t> got_packed(want.size(), 0x55);
      GemmQU8(a.data(), a_qp.zero_point, b.data(), b_qp.zero_point, got_packed.data(),
              c_qp.zero_point, rs, s.m, s.n, s.k, bias.data(), true, nullptr,
              ap.empty() ? nullptr : ap.data());
      EXPECT_TRUE(BytesEqual(want, got_packed))
          << simd::IsaName(isa) << " packed m=" << s.m << " n=" << s.n << " k=" << s.k;
    }
  }
}

}  // namespace
}  // namespace ulayer

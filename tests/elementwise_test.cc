#include "kernels/elementwise.h"

#include <cmath>

#include <gtest/gtest.h>

#include "quant/quantize.h"
#include "tensor/rng.h"

namespace ulayer {
namespace {

TEST(ReluTest, F32ClampsInPlace) {
  Tensor t(Shape(1, 2, 3, 3), DType::kF32);
  FillUniform(t, 1, -1.0f, 1.0f);
  Tensor orig = t;
  ReluF32(t);
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(t.Data<float>()[i], std::max(orig.Data<float>()[i], 0.0f));
  }
}

TEST(ReluTest, ChannelRangeOnlyTouchesSlice) {
  Tensor t(Shape(1, 4, 2, 2), DType::kF32);
  FillUniform(t, 2, -1.0f, -0.5f);  // All negative.
  ReluF32(t, 1, 3);
  const Shape& s = t.shape();
  for (int64_t c = 0; c < 4; ++c) {
    for (int64_t i = 0; i < 4; ++i) {
      const float v = t.Data<float>()[s.Offset(0, c, i / 2, i % 2)];
      if (c >= 1 && c < 3) {
        EXPECT_EQ(v, 0.0f);
      } else {
        EXPECT_LT(v, 0.0f);
      }
    }
  }
}

TEST(ReluTest, QU8ClampsAtZeroPoint) {
  Tensor t(Shape(1, 1, 1, 4), DType::kQUInt8);
  t.set_quant_params(0.1f, 100);
  t.Data<uint8_t>()[0] = 50;   // real -5.0
  t.Data<uint8_t>()[1] = 100;  // real  0.0
  t.Data<uint8_t>()[2] = 150;  // real  5.0
  t.Data<uint8_t>()[3] = 0;    // real -10.0
  ReluQU8(t);
  EXPECT_EQ(t.Data<uint8_t>()[0], 100);
  EXPECT_EQ(t.Data<uint8_t>()[1], 100);
  EXPECT_EQ(t.Data<uint8_t>()[2], 150);
  EXPECT_EQ(t.Data<uint8_t>()[3], 100);
}

TEST(LrnTest, MatchesClosedForm) {
  // Single spatial position, known channels: verify the AlexNet formula
  // out_c = in_c / (k + alpha/n * sum window in^2)^beta.
  Tensor in(Shape(1, 3, 1, 1), DType::kF32);
  in.Data<float>()[0] = 1.0f;
  in.Data<float>()[1] = 2.0f;
  in.Data<float>()[2] = 3.0f;
  LrnParams p;
  p.local_size = 3;
  p.alpha = 0.5f;
  p.beta = 1.0f;
  p.k = 1.0f;
  Tensor out(in.shape(), DType::kF32);
  LrnF32(in, p, out);
  // c=0 window {0,1}: denom = 1 + 0.5/3*(1+4) = 1.8333...
  EXPECT_NEAR(out.Data<float>()[0], 1.0f / (1.0f + 0.5f / 3.0f * 5.0f), 1e-5f);
  // c=1 window {0,1,2}: denom = 1 + 0.5/3*14
  EXPECT_NEAR(out.Data<float>()[1], 2.0f / (1.0f + 0.5f / 3.0f * 14.0f), 1e-5f);
  // c=2 window {1,2}: denom = 1 + 0.5/3*13
  EXPECT_NEAR(out.Data<float>()[2], 3.0f / (1.0f + 0.5f / 3.0f * 13.0f), 1e-5f);
}

TEST(LrnTest, ChannelSlicesCompose) {
  Tensor in(Shape(1, 8, 4, 4), DType::kF32);
  FillUniform(in, 3);
  LrnParams p;
  Tensor full(in.shape(), DType::kF32);
  LrnF32(in, p, full);
  Tensor split_out(in.shape(), DType::kF32);
  LrnF32(in, p, split_out, 0, 5);
  LrnF32(in, p, split_out, 5, 8);
  EXPECT_EQ(MaxAbsDiff(full, split_out), 0.0f);
}

TEST(LrnTest, QU8TracksF32) {
  Tensor in(Shape(1, 6, 3, 3), DType::kF32);
  FillUniform(in, 4, -1.0f, 1.0f);
  LrnParams p;
  Tensor ref(in.shape(), DType::kF32);
  LrnF32(in, p, ref);

  const Tensor in_q = QuantizeTensor(in, ChooseQuantParams(-1.0f, 1.0f));
  Tensor out_q(in.shape(), DType::kQUInt8);
  const QuantParams out_qp = ChooseQuantParams(-1.0f, 1.0f);
  out_q.set_quant_params(out_qp.scale, out_qp.zero_point);
  LrnQU8(in_q, p, out_q);
  EXPECT_LT(MaxAbsDiff(DequantizeTensor(out_q), ref), 0.03f);
}

TEST(ConcatTest, StacksChannelsInOrder) {
  Tensor a(Shape(1, 2, 2, 2), DType::kF32);
  Tensor b(Shape(1, 3, 2, 2), DType::kF32);
  FillUniform(a, 5);
  FillUniform(b, 6);
  Tensor out(Shape(1, 5, 2, 2), DType::kF32);
  ConcatChannels({a, b}, {0, 1}, out);
  for (int64_t i = 0; i < a.NumElements(); ++i) {
    EXPECT_EQ(out.Data<float>()[i], a.Data<float>()[i]);
  }
  for (int64_t i = 0; i < b.NumElements(); ++i) {
    EXPECT_EQ(out.Data<float>()[a.NumElements() + i], b.Data<float>()[i]);
  }
}

TEST(ConcatTest, BatchedCopiesPerImage) {
  Tensor a(Shape(2, 1, 2, 2), DType::kF32);
  Tensor b(Shape(2, 1, 2, 2), DType::kF32);
  FillUniform(a, 7);
  FillUniform(b, 8);
  Tensor out(Shape(2, 2, 2, 2), DType::kF32);
  ConcatChannels({a, b}, {0, 1}, out);
  const Shape& os = out.shape();
  for (int64_t ni = 0; ni < 2; ++ni) {
    for (int64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(out.Data<float>()[os.Offset(ni, 0, i / 2, i % 2)],
                a.Data<float>()[a.shape().Offset(ni, 0, i / 2, i % 2)]);
      EXPECT_EQ(out.Data<float>()[os.Offset(ni, 1, i / 2, i % 2)],
                b.Data<float>()[b.shape().Offset(ni, 0, i / 2, i % 2)]);
    }
  }
}

TEST(ConcatTest, QU8RequantizesMismatchedInputs) {
  Tensor a(Shape(1, 1, 1, 2), DType::kQUInt8);
  a.set_quant_params(0.1f, 0);
  a.Data<uint8_t>()[0] = 10;  // real 1.0
  a.Data<uint8_t>()[1] = 20;  // real 2.0
  Tensor b(Shape(1, 1, 1, 2), DType::kQUInt8);
  b.set_quant_params(0.2f, 10);
  b.Data<uint8_t>()[0] = 20;  // real 2.0
  b.Data<uint8_t>()[1] = 30;  // real 4.0
  Tensor out(Shape(1, 2, 1, 2), DType::kQUInt8);
  out.set_quant_params(0.1f, 0);
  ConcatChannels({a, b}, {0, 1}, out);
  EXPECT_EQ(out.Data<uint8_t>()[0], 10);
  EXPECT_EQ(out.Data<uint8_t>()[1], 20);
  EXPECT_EQ(out.Data<uint8_t>()[2], 20);  // 2.0 / 0.1
  EXPECT_EQ(out.Data<uint8_t>()[3], 40);  // 4.0 / 0.1
}

TEST(SoftmaxTest, NormalizesAndOrdersF32) {
  Tensor in(Shape(1, 4, 1, 1), DType::kF32);
  in.Data<float>()[0] = 1.0f;
  in.Data<float>()[1] = 3.0f;
  in.Data<float>()[2] = 2.0f;
  in.Data<float>()[3] = -1.0f;
  Tensor out(in.shape(), DType::kF32);
  Softmax(in, out);
  float sum = 0.0f;
  for (int i = 0; i < 4; ++i) {
    sum += out.Data<float>()[i];
  }
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  EXPECT_GT(out.Data<float>()[1], out.Data<float>()[2]);
  EXPECT_GT(out.Data<float>()[2], out.Data<float>()[0]);
  EXPECT_GT(out.Data<float>()[0], out.Data<float>()[3]);
}

TEST(SoftmaxTest, LargeLogitsDoNotOverflow) {
  Tensor in(Shape(1, 3, 1, 1), DType::kF32);
  in.Data<float>()[0] = 1000.0f;
  in.Data<float>()[1] = 999.0f;
  in.Data<float>()[2] = 0.0f;
  Tensor out(in.shape(), DType::kF32);
  Softmax(in, out);
  EXPECT_FALSE(std::isnan(out.Data<float>()[0]));
  EXPECT_GT(out.Data<float>()[0], out.Data<float>()[1]);
  EXPECT_NEAR(out.Data<float>()[2], 0.0f, 1e-6f);
}

TEST(SoftmaxTest, AcceptsQuantizedInput) {
  Tensor in(Shape(1, 3, 1, 1), DType::kQUInt8);
  in.set_quant_params(0.05f, 0);
  in.Data<uint8_t>()[0] = 100;
  in.Data<uint8_t>()[1] = 50;
  in.Data<uint8_t>()[2] = 0;
  Tensor out(in.shape(), DType::kF32);
  Softmax(in, out);
  EXPECT_GT(out.Data<float>()[0], out.Data<float>()[1]);
  EXPECT_GT(out.Data<float>()[1], out.Data<float>()[2]);
}


TEST(EltwiseAddTest, F32SumsAndRelus) {
  Tensor a(Shape(1, 2, 2, 2), DType::kF32);
  Tensor b(Shape(1, 2, 2, 2), DType::kF32);
  FillUniform(a, 40, -1.0f, 1.0f);
  FillUniform(b, 41, -1.0f, 1.0f);
  Tensor out(a.shape(), DType::kF32);
  EltwiseAddF32(a, b, out, /*relu=*/false);
  for (int64_t i = 0; i < out.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(out.Data<float>()[i], a.Data<float>()[i] + b.Data<float>()[i]);
  }
  Tensor out_relu(a.shape(), DType::kF32);
  EltwiseAddF32(a, b, out_relu, /*relu=*/true);
  for (int64_t i = 0; i < out.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(out_relu.Data<float>()[i], std::max(out.Data<float>()[i], 0.0f));
  }
}

TEST(EltwiseAddTest, ChannelSlicesCompose) {
  Tensor a(Shape(1, 6, 4, 4), DType::kF32);
  Tensor b(Shape(1, 6, 4, 4), DType::kF32);
  FillUniform(a, 42);
  FillUniform(b, 43);
  Tensor full(a.shape(), DType::kF32);
  EltwiseAddF32(a, b, full, true);
  Tensor split_out(a.shape(), DType::kF32);
  EltwiseAddF32(a, b, split_out, true, 0, 4);
  EltwiseAddF32(a, b, split_out, true, 4, 6);
  EXPECT_EQ(MaxAbsDiff(full, split_out), 0.0f);
}

TEST(EltwiseAddTest, QU8RescalesOperands) {
  Tensor a(Shape(1, 1, 1, 2), DType::kQUInt8);
  a.set_quant_params(0.1f, 0);
  a.Data<uint8_t>()[0] = 10;  // 1.0
  a.Data<uint8_t>()[1] = 30;  // 3.0
  Tensor b(Shape(1, 1, 1, 2), DType::kQUInt8);
  b.set_quant_params(0.2f, 10);
  b.Data<uint8_t>()[0] = 20;  // 2.0
  b.Data<uint8_t>()[1] = 0;   // -2.0
  Tensor out(a.shape(), DType::kQUInt8);
  out.set_quant_params(0.5f, 0);
  EltwiseAddQU8(a, b, out, /*relu=*/false);
  EXPECT_EQ(out.Data<uint8_t>()[0], 6);  // 3.0 / 0.5
  EXPECT_EQ(out.Data<uint8_t>()[1], 2);  // 1.0 / 0.5
}

TEST(EltwiseAddTest, F16TracksF32) {
  Tensor a(Shape(1, 2, 3, 3), DType::kF32);
  Tensor b(Shape(1, 2, 3, 3), DType::kF32);
  FillUniform(a, 44, -2.0f, 2.0f);
  FillUniform(b, 45, -2.0f, 2.0f);
  Tensor ref(a.shape(), DType::kF32);
  EltwiseAddF32(a, b, ref, true);
  Tensor out16(a.shape(), DType::kF16);
  EltwiseAddF16(ToF16Tensor(a), ToF16Tensor(b), out16, true);
  EXPECT_LT(MaxAbsDiff(F16ToF32Tensor(out16), ref), 0.01f);
}

}  // namespace
}  // namespace ulayer

#include "kernels/im2col.h"

#include <vector>

#include <gtest/gtest.h>

#include "quant/quantize.h"
#include "tensor/rng.h"

namespace ulayer {
namespace {

// Index-based oracle: cols[(c*kh*kw + ki)*out_spatial + (oh*out_w + ow)]
// must equal input[c][oh*s - p + ki_h][ow*s - p + ki_w] (or pad). The
// parameter sets cover horizontal strides 1-3, pads wider than some taps'
// reach, and a kernel wider than the image, so some rows have no in-image
// columns at all.
TEST(Im2ColTest, MatchesIndexOracle) {
  const int channels = 3, height = 5, width = 6;
  struct Geometry {
    int kernel_h, kernel_w, stride_h, stride_w, pad_h, pad_w;
  };
  const Geometry kGeometries[] = {
      {3, 2, 2, 1, 1, 0}, {3, 3, 1, 2, 1, 1}, {1, 5, 1, 3, 0, 2},
      {2, 7, 1, 1, 0, 3}, {3, 9, 2, 2, 1, 4}, {7, 4, 2, 3, 3, 3},
  };
  for (const Geometry& geo : kGeometries) {
    Conv2DParams p;
    p.kernel_h = geo.kernel_h;
    p.kernel_w = geo.kernel_w;
    p.stride_h = geo.stride_h;
    p.stride_w = geo.stride_w;
    p.pad_h = geo.pad_h;
    p.pad_w = geo.pad_w;
    std::vector<float> input(static_cast<size_t>(channels * height * width));
    Rng rng(1);
    for (float& v : input) {
      v = rng.Uniform(-1.0f, 1.0f);
    }
    const int out_h = p.OutH(height);
    const int out_w = p.OutW(width);
    ASSERT_GT(out_h, 0);
    ASSERT_GT(out_w, 0);
    std::vector<float> cols(static_cast<size_t>(channels * p.kernel_h * p.kernel_w) *
                            static_cast<size_t>(out_h * out_w));
    Im2ColF32(input.data(), channels, height, width, p, cols.data(), -99.0f);

    for (int c = 0; c < channels; ++c) {
      for (int kh = 0; kh < p.kernel_h; ++kh) {
        for (int kw = 0; kw < p.kernel_w; ++kw) {
          for (int oh = 0; oh < out_h; ++oh) {
            for (int ow = 0; ow < out_w; ++ow) {
              const int row = (c * p.kernel_h + kh) * p.kernel_w + kw;
              const float got =
                  cols[static_cast<size_t>(row * out_h * out_w + oh * out_w + ow)];
              const int ih = oh * p.stride_h - p.pad_h + kh;
              const int iw = ow * p.stride_w - p.pad_w + kw;
              if (ih < 0 || ih >= height || iw < 0 || iw >= width) {
                EXPECT_EQ(got, -99.0f) << "expected pad value, kernel_w=" << p.kernel_w;
              } else {
                EXPECT_EQ(got, input[static_cast<size_t>((c * height + ih) * width + iw)])
                    << "kernel_w=" << p.kernel_w;
              }
            }
          }
        }
      }
    }
  }
}

TEST(Im2ColTest, OneByOneKernelIsIdentity) {
  const int channels = 2, height = 3, width = 3;
  Conv2DParams p;  // 1x1, stride 1, no pad.
  std::vector<float> input(18);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(i);
  }
  std::vector<float> cols(18);
  Im2ColF32(input.data(), channels, height, width, p, cols.data());
  EXPECT_EQ(cols, input);
}

TEST(Im2ColTest, QU8UsesZeroPointPadding) {
  const int channels = 1, height = 2, width = 2;
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  std::vector<uint8_t> input = {10, 20, 30, 40};
  std::vector<uint8_t> cols(9 * 4);
  Im2ColQU8(input.data(), channels, height, width, p, cols.data(), /*pad_value=*/128);
  // Center kernel tap of the first output position is input[0]=10; the
  // top-left tap is padding.
  EXPECT_EQ(cols[4 * 4 + 0], 10);  // row (kh=1,kw=1), col 0
  EXPECT_EQ(cols[0 * 4 + 0], 128);
  // Count of pad entries: 3x3 window at each of 4 positions over a 2x2
  // image with pad 1 -> each position sees 5 pads.
  int pads = 0;
  for (uint8_t v : cols) {
    pads += v == 128 ? 1 : 0;
  }
  EXPECT_EQ(pads, 20);
}

TEST(Im2ColTest, F16PreservesBitPatterns) {
  const int channels = 1, height = 4, width = 4;
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 2;
  std::vector<Half> input(16);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = Half(0.1f * static_cast<float>(i));
  }
  const int out = 3 * 3;
  std::vector<Half> cols(static_cast<size_t>(4 * out));
  Im2ColF16(input.data(), channels, height, width, p, cols.data());
  // Element (kh=0,kw=0) at output (0,0) is input (0,0): bit-identical copy.
  EXPECT_EQ(cols[0].bits(), input[0].bits());
  EXPECT_EQ(cols[static_cast<size_t>(3 * out + out - 1)].bits(),
            input[15].bits());  // (kh=1,kw=1) at (2,2) -> input (3,3)
}

}  // namespace
}  // namespace ulayer

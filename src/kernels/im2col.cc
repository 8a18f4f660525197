#include "kernels/im2col.h"

#include <algorithm>

namespace ulayer {
namespace {

// Smallest x >= 0 with x * b >= a (b > 0).
int FirstAtLeast(int a, int b) { return a <= 0 ? 0 : (a + b - 1) / b; }

// Shared implementation across element types. Per (c, kh, kw) row, the
// output columns whose input column lies inside the image, [ow_lo, ow_hi),
// are the same for every output row oh, so each output row is a run of pad
// values, a gather (a plain copy at stride 1) and another run of pad values
// — no per-element bounds test.
template <typename T>
void Im2ColImpl(const T* input, int channels, int height, int width, const Conv2DParams& p,
                T* cols, T pad_value) {
  const int out_h = p.OutH(height);
  const int out_w = p.OutW(width);
  const int64_t out_spatial = static_cast<int64_t>(out_h) * out_w;
  int64_t row = 0;
  for (int c = 0; c < channels; ++c) {
    const T* in_c = input + static_cast<int64_t>(c) * height * width;
    for (int kh = 0; kh < p.kernel_h; ++kh) {
      for (int kw = 0; kw < p.kernel_w; ++kw, ++row) {
        // iw = ow * stride_w - pad_w + kw is in [0, width) iff ow in [ow_lo, ow_hi).
        const int ow_lo = std::min(FirstAtLeast(p.pad_w - kw, p.stride_w), out_w);
        const int ow_hi =
            std::clamp(FirstAtLeast(width + p.pad_w - kw, p.stride_w), ow_lo, out_w);
        T* out_row = cols + row * out_spatial;
        for (int oh = 0; oh < out_h; ++oh) {
          T* dst = out_row + static_cast<int64_t>(oh) * out_w;
          const int ih = oh * p.stride_h - p.pad_h + kh;
          if (ih < 0 || ih >= height) {
            std::fill(dst, dst + out_w, pad_value);
            continue;
          }
          const T* in_row = in_c + static_cast<int64_t>(ih) * width;
          std::fill(dst, dst + ow_lo, pad_value);
          if (p.stride_w == 1 && ow_lo < ow_hi) {
            std::copy_n(in_row + (ow_lo - p.pad_w + kw), ow_hi - ow_lo, dst + ow_lo);
          } else {
            for (int ow = ow_lo; ow < ow_hi; ++ow) {
              dst[ow] = in_row[ow * p.stride_w - p.pad_w + kw];
            }
          }
          std::fill(dst + ow_hi, dst + out_w, pad_value);
        }
      }
    }
  }
}

}  // namespace

void Im2ColF32(const float* input, int channels, int height, int width, const Conv2DParams& p,
               float* cols, float pad_value) {
  Im2ColImpl(input, channels, height, width, p, cols, pad_value);
}

void Im2ColF16(const Half* input, int channels, int height, int width, const Conv2DParams& p,
               Half* cols, Half pad_value) {
  Im2ColImpl(input, channels, height, width, p, cols, pad_value);
}

void Im2ColQU8(const uint8_t* input, int channels, int height, int width, const Conv2DParams& p,
               uint8_t* cols, uint8_t pad_value) {
  Im2ColImpl(input, channels, height, width, p, cols, pad_value);
}

AccessRange Im2ColWriteRange(int channels, int height, int width, const Conv2DParams& p,
                             int64_t elem_bytes) {
  const int64_t rows = static_cast<int64_t>(channels) * p.kernel_h * p.kernel_w;
  const int64_t out_spatial = static_cast<int64_t>(p.OutH(height)) * p.OutW(width);
  return AccessRange{0, rows * out_spatial * elem_bytes};
}

}  // namespace ulayer

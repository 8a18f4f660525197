#include "kernels/elementwise.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "parallel/thread_pool.h"
#include "quant/half.h"
#include "quant/quantize.h"

namespace ulayer {
namespace {

int64_t ResolveEnd(int64_t end, int64_t limit) {
  const int64_t e = end < 0 ? limit : end;
  assert(e <= limit);
  return e;
}

}  // namespace

void ReluF32(Tensor& t, int64_t c_begin, int64_t c_end) {
  assert(t.dtype() == DType::kF32);
  const Shape& s = t.shape();
  c_end = ResolveEnd(c_end, s.c);
  for (int64_t ni = 0; ni < s.n; ++ni) {
    float* p = t.Data<float>() + s.Offset(ni, c_begin, 0, 0);
    const int64_t count = (c_end - c_begin) * s.h * s.w;
    parallel::ParallelFor(0, count, parallel::GrainForOps(1.0), [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) {
        p[i] = std::max(p[i], 0.0f);
      }
    });
  }
}

void ReluF16(Tensor& t, int64_t c_begin, int64_t c_end) {
  assert(t.dtype() == DType::kF16);
  const Shape& s = t.shape();
  c_end = ResolveEnd(c_end, s.c);
  const Half zero(0.0f);
  for (int64_t ni = 0; ni < s.n; ++ni) {
    Half* p = t.Data<Half>() + s.Offset(ni, c_begin, 0, 0);
    const int64_t count = (c_end - c_begin) * s.h * s.w;
    parallel::ParallelFor(0, count, parallel::GrainForOps(1.0), [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) {
        if (p[i] < zero) {
          p[i] = zero;
        }
      }
    });
  }
}

void ReluQU8(Tensor& t, int64_t c_begin, int64_t c_end) {
  assert(t.dtype() == DType::kQUInt8);
  const Shape& s = t.shape();
  c_end = ResolveEnd(c_end, s.c);
  const uint8_t zp = static_cast<uint8_t>(t.zero_point());
  for (int64_t ni = 0; ni < s.n; ++ni) {
    uint8_t* p = t.Data<uint8_t>() + s.Offset(ni, c_begin, 0, 0);
    const int64_t count = (c_end - c_begin) * s.h * s.w;
    parallel::ParallelFor(0, count, parallel::GrainForOps(1.0), [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) {
        p[i] = std::max(p[i], zp);
      }
    });
  }
}

namespace {

// Shared F32 LRN core; `load`/`store` adapt the element type.
template <typename Load, typename Store>
void LrnCore(const Shape& s, const LrnParams& p, int64_t c_begin, int64_t c_end, Load load,
             Store store) {
  const int half_size = p.local_size / 2;
  // Rows are independent (the window only spans channels); parallelize over h.
  const double ops_per_row =
      static_cast<double>(s.w) * static_cast<double>(c_end - c_begin) * p.local_size;
  for (int64_t ni = 0; ni < s.n; ++ni) {
    parallel::ParallelFor(0, s.h, parallel::GrainForOps(ops_per_row), [&](int64_t hb,
                                                                          int64_t he) {
      for (int64_t hi = hb; hi < he; ++hi) {
        for (int64_t wi = 0; wi < s.w; ++wi) {
          for (int64_t c = c_begin; c < c_end; ++c) {
            const int64_t lo = std::max<int64_t>(0, c - half_size);
            const int64_t hi_c = std::min<int64_t>(s.c - 1, c + half_size);
            float sum_sq = 0.0f;
            for (int64_t cc = lo; cc <= hi_c; ++cc) {
              const float v = load(ni, cc, hi, wi);
              sum_sq += v * v;
            }
            const float denom =
                std::pow(p.k + p.alpha / static_cast<float>(p.local_size) * sum_sq, p.beta);
            store(ni, c, hi, wi, load(ni, c, hi, wi) / denom);
          }
        }
      }
    });
  }
}

}  // namespace

void LrnF32(const Tensor& input, const LrnParams& p, Tensor& output, int64_t c_begin,
            int64_t c_end) {
  assert(input.dtype() == DType::kF32);
  const Shape& s = input.shape();
  c_end = ResolveEnd(c_end, s.c);
  const float* in = input.Data<float>();
  float* out = output.Data<float>();
  LrnCore(
      s, p, c_begin, c_end, [&](int64_t n, int64_t c, int64_t h, int64_t w) {
        return in[s.Offset(n, c, h, w)];
      },
      [&](int64_t n, int64_t c, int64_t h, int64_t w, float v) { out[s.Offset(n, c, h, w)] = v; });
}

void LrnF16(const Tensor& input, const LrnParams& p, Tensor& output, int64_t c_begin,
            int64_t c_end) {
  assert(input.dtype() == DType::kF16);
  const Shape& s = input.shape();
  c_end = ResolveEnd(c_end, s.c);
  const Half* in = input.Data<Half>();
  Half* out = output.Data<Half>();
  LrnCore(
      s, p, c_begin, c_end, [&](int64_t n, int64_t c, int64_t h, int64_t w) {
        return in[s.Offset(n, c, h, w)].ToFloat();
      },
      [&](int64_t n, int64_t c, int64_t h, int64_t w, float v) {
        out[s.Offset(n, c, h, w)] = Half(v);
      });
}

void LrnQU8(const Tensor& input, const LrnParams& p, Tensor& output, int64_t c_begin,
            int64_t c_end) {
  assert(input.dtype() == DType::kQUInt8 && output.dtype() == DType::kQUInt8);
  const Shape& s = input.shape();
  c_end = ResolveEnd(c_end, s.c);
  const QuantParams in_qp{input.scale(), input.zero_point()};
  const QuantParams out_qp{output.scale(), output.zero_point()};
  const uint8_t* in = input.Data<uint8_t>();
  uint8_t* out = output.Data<uint8_t>();
  LrnCore(
      s, p, c_begin, c_end, [&](int64_t n, int64_t c, int64_t h, int64_t w) {
        return in_qp.Dequantize(in[s.Offset(n, c, h, w)]);
      },
      [&](int64_t n, int64_t c, int64_t h, int64_t w, float v) {
        out[s.Offset(n, c, h, w)] = out_qp.Quantize(v);
      });
}

void ConcatChannels(const std::vector<Tensor>& tensors, const std::vector<int>& inputs,
                    Tensor& output) {
  assert(!inputs.empty());
  const Shape& os = output.shape();
  int64_t c_off = 0;
  for (const int id : inputs) {
    const Tensor& in = tensors[static_cast<size_t>(id)];
    const Shape& is = in.shape();
    assert(is.n == os.n && is.h == os.h && is.w == os.w);
    assert(in.dtype() == output.dtype());
    if (output.dtype() == DType::kQUInt8 &&
        (in.scale() != output.scale() || in.zero_point() != output.zero_point())) {
      // Requantize into the output's parameters. A uint8 has 256 values, so
      // this is a lookup in a table built with the per-element expression
      // out_qp.Quantize(in_qp.Dequantize(q)) — the same bytes by construction.
      const QuantParams in_qp{in.scale(), in.zero_point()};
      const QuantParams out_qp{output.scale(), output.zero_point()};
      uint8_t table[256];
      for (int q = 0; q < 256; ++q) {
        table[q] = out_qp.Quantize(in_qp.Dequantize(static_cast<uint8_t>(q)));
      }
      for (int64_t ni = 0; ni < is.n; ++ni) {
        const uint8_t* src = in.Data<uint8_t>() + is.Offset(ni, 0, 0, 0);
        uint8_t* dst = output.Data<uint8_t>() + os.Offset(ni, c_off, 0, 0);
        const int64_t count = is.c * is.h * is.w;
        for (int64_t i = 0; i < count; ++i) {
          dst[i] = table[src[i]];
        }
      }
    } else {
      const int64_t elem = DTypeSize(output.dtype());
      for (int64_t ni = 0; ni < is.n; ++ni) {
        const uint8_t* src = in.raw() + is.Offset(ni, 0, 0, 0) * elem;
        uint8_t* dst = output.raw() + os.Offset(ni, c_off, 0, 0) * elem;
        std::memcpy(dst, src, static_cast<size_t>(is.c * is.h * is.w * elem));
      }
    }
    c_off += is.c;
  }
  assert(c_off == os.c);
}

void EltwiseAddF32(const Tensor& a, const Tensor& b, Tensor& output, bool relu, int64_t c_begin,
                   int64_t c_end) {
  assert(a.dtype() == DType::kF32 && b.dtype() == DType::kF32);
  assert(a.shape() == b.shape() && a.shape() == output.shape());
  const Shape& s = a.shape();
  c_end = ResolveEnd(c_end, s.c);
  for (int64_t ni = 0; ni < s.n; ++ni) {
    const int64_t off = s.Offset(ni, c_begin, 0, 0);
    const int64_t count = (c_end - c_begin) * s.h * s.w;
    const float* pa = a.Data<float>() + off;
    const float* pb = b.Data<float>() + off;
    float* po = output.Data<float>() + off;
    parallel::ParallelFor(0, count, parallel::GrainForOps(1.0), [&](int64_t bb, int64_t be) {
      for (int64_t i = bb; i < be; ++i) {
        const float v = pa[i] + pb[i];
        po[i] = relu ? std::max(v, 0.0f) : v;
      }
    });
  }
}

void EltwiseAddF16(const Tensor& a, const Tensor& b, Tensor& output, bool relu, int64_t c_begin,
                   int64_t c_end) {
  assert(a.dtype() == DType::kF16 && b.dtype() == DType::kF16);
  const Shape& s = a.shape();
  c_end = ResolveEnd(c_end, s.c);
  const Half zero(0.0f);
  for (int64_t ni = 0; ni < s.n; ++ni) {
    const int64_t off = s.Offset(ni, c_begin, 0, 0);
    const int64_t count = (c_end - c_begin) * s.h * s.w;
    const Half* pa = a.Data<Half>() + off;
    const Half* pb = b.Data<Half>() + off;
    Half* po = output.Data<Half>() + off;
    parallel::ParallelFor(0, count, parallel::GrainForOps(1.0), [&](int64_t bb, int64_t be) {
      for (int64_t i = bb; i < be; ++i) {
        Half v = pa[i] + pb[i];
        if (relu && v < zero) {
          v = zero;
        }
        po[i] = v;
      }
    });
  }
}

void EltwiseAddQU8(const Tensor& a, const Tensor& b, Tensor& output, bool relu, int64_t c_begin,
                   int64_t c_end) {
  assert(a.dtype() == DType::kQUInt8 && b.dtype() == DType::kQUInt8);
  assert(output.dtype() == DType::kQUInt8);
  const Shape& s = a.shape();
  c_end = ResolveEnd(c_end, s.c);
  const QuantParams a_qp{a.scale(), a.zero_point()};
  const QuantParams b_qp{b.scale(), b.zero_point()};
  const QuantParams o_qp{output.scale(), output.zero_point()};
  const uint8_t o_zp = static_cast<uint8_t>(output.zero_point());
  for (int64_t ni = 0; ni < s.n; ++ni) {
    const int64_t off = s.Offset(ni, c_begin, 0, 0);
    const int64_t count = (c_end - c_begin) * s.h * s.w;
    const uint8_t* pa = a.Data<uint8_t>() + off;
    const uint8_t* pb = b.Data<uint8_t>() + off;
    uint8_t* po = output.Data<uint8_t>() + off;
    parallel::ParallelFor(0, count, parallel::GrainForOps(1.0), [&](int64_t bb, int64_t be) {
      for (int64_t i = bb; i < be; ++i) {
        uint8_t q = o_qp.Quantize(a_qp.Dequantize(pa[i]) + b_qp.Dequantize(pb[i]));
        if (relu && q < o_zp) {
          q = o_zp;
        }
        po[i] = q;
      }
    });
  }
}

namespace {

// Softmax over channels of F32 values read through `in(i)` (i a flat element
// offset of the input), so a quantized or F16 input is converted where it is
// read instead of into a temporary tensor.
template <typename Read>
void SoftmaxCore(const Shape& s, const Read& in, float* out) {
  for (int64_t ni = 0; ni < s.n; ++ni) {
    for (int64_t hi = 0; hi < s.h; ++hi) {
      for (int64_t wi = 0; wi < s.w; ++wi) {
        float max_v = in(s.Offset(ni, 0, hi, wi));
        for (int64_t c = 1; c < s.c; ++c) {
          max_v = std::max(max_v, in(s.Offset(ni, c, hi, wi)));
        }
        float sum = 0.0f;
        for (int64_t c = 0; c < s.c; ++c) {
          const float e = std::exp(in(s.Offset(ni, c, hi, wi)) - max_v);
          out[s.Offset(ni, c, hi, wi)] = e;
          sum += e;
        }
        for (int64_t c = 0; c < s.c; ++c) {
          out[s.Offset(ni, c, hi, wi)] /= sum;
        }
      }
    }
  }
}

}  // namespace

void Softmax(const Tensor& input, Tensor& output) {
  assert(output.dtype() == DType::kF32);
  const Shape& s = input.shape();
  assert(output.shape() == s);
  float* out = output.Data<float>();
  if (input.dtype() == DType::kQUInt8) {
    const QuantParams qp{input.scale(), input.zero_point()};
    const uint8_t* in = input.Data<uint8_t>();
    SoftmaxCore(s, [&](int64_t i) { return qp.Dequantize(in[i]); }, out);
  } else if (input.dtype() == DType::kF16) {
    const Half* in = input.Data<Half>();
    SoftmaxCore(s, [&](int64_t i) { return in[i].ToFloat(); }, out);
  } else {
    const float* in = input.Data<float>();
    SoftmaxCore(s, [&](int64_t i) { return in[i]; }, out);
  }
}

AccessSpec ReluAccessSpec(DType storage, const Shape& shape, int64_t c_begin, int64_t c_end) {
  c_end = ResolveEnd(c_end, shape.c);
  const int64_t elem = DTypeSize(storage);
  AccessSpec spec;
  spec.has_spec = true;
  spec.writes = ChannelSliceRanges(shape, elem, c_begin, c_end);
  spec.reads.push_back(ChannelSliceRanges(shape, elem, c_begin, c_end));
  LoopSpec loop = ElementwiseLoopSpec((c_end - c_begin) * shape.h * shape.w, elem, 0);
  loop.bases.clear();
  for (int64_t ni = 0; ni < shape.n; ++ni) {
    loop.bases.push_back(shape.Offset(ni, c_begin, 0, 0) * elem);
  }
  spec.loops.push_back(loop);
  return spec;
}

AccessSpec LrnAccessSpec(DType storage, const Shape& shape, const LrnParams& p, int64_t c_begin,
                         int64_t c_end) {
  c_end = ResolveEnd(c_end, shape.c);
  const int64_t elem = DTypeSize(storage);
  const int64_t half_size = p.local_size / 2;
  AccessSpec spec;
  spec.has_spec = true;
  spec.writes = ChannelSliceRanges(shape, elem, c_begin, c_end);
  spec.reads.push_back(ChannelSliceRanges(shape, elem,
                                          std::max<int64_t>(0, c_begin - half_size),
                                          std::min<int64_t>(shape.c, c_end + half_size)));
  // LrnCore parallelizes over rows: iteration hi writes row hi of every
  // output channel in [c_begin, c_end) of every batch — one base per (ni, c).
  LoopSpec loop;
  loop.begin = 0;
  loop.end = shape.h;
  loop.grain = parallel::GrainForOps(static_cast<double>(shape.w) *
                                     static_cast<double>(c_end - c_begin) * p.local_size);
  loop.stride_bytes = shape.w * elem;
  loop.iter_bytes = shape.w * elem;
  for (int64_t ni = 0; ni < shape.n; ++ni) {
    for (int64_t c = c_begin; c < c_end; ++c) {
      loop.bases.push_back(shape.Offset(ni, c, 0, 0) * elem);
    }
  }
  spec.loops.push_back(loop);
  return spec;
}

AccessSpec ConcatAccessSpec(const std::vector<Shape>& input_shapes, DType storage,
                            const Shape& out_shape) {
  const int64_t elem = DTypeSize(storage);
  AccessSpec spec;
  spec.has_spec = true;
  spec.writes = {AccessRange{0, out_shape.NumElements() * elem}};
  spec.reads.reserve(input_shapes.size());
  for (const Shape& is : input_shapes) {
    spec.reads.push_back({AccessRange{0, is.NumElements() * elem}});
  }
  return spec;  // Serial: no parallel loops.
}

AccessSpec EltwiseAddAccessSpec(DType storage, const Shape& shape, int64_t c_begin,
                                int64_t c_end) {
  c_end = ResolveEnd(c_end, shape.c);
  const int64_t elem = DTypeSize(storage);
  AccessSpec spec;
  spec.has_spec = true;
  spec.writes = ChannelSliceRanges(shape, elem, c_begin, c_end);
  spec.reads.push_back(ChannelSliceRanges(shape, elem, c_begin, c_end));
  spec.reads.push_back(ChannelSliceRanges(shape, elem, c_begin, c_end));
  LoopSpec loop = ElementwiseLoopSpec((c_end - c_begin) * shape.h * shape.w, elem, 0);
  loop.bases.clear();
  for (int64_t ni = 0; ni < shape.n; ++ni) {
    loop.bases.push_back(shape.Offset(ni, c_begin, 0, 0) * elem);
  }
  spec.loops.push_back(loop);
  return spec;
}

AccessSpec SoftmaxAccessSpec(DType storage, const Shape& shape) {
  AccessSpec spec;
  spec.has_spec = true;
  // Output is always F32 (PreparedModel::ActivationDType); input is read
  // fully in the storage dtype. Serial: no parallel loops.
  spec.writes = {AccessRange{0, shape.NumElements() * int64_t{4}}};
  spec.reads.push_back({AccessRange{0, shape.NumElements() * DTypeSize(storage)}});
  return spec;
}

}  // namespace ulayer

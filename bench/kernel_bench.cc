// Kernel microbenchmark: pre-PR kernels vs the blocked/cached kernels
// (DESIGN.md Section 9).
//
// Measures GemmQU8 / GemmF32 and the QUInt8 conv paths at representative
// layer shapes (AlexNet conv2, VGG-16 conv3_1, GoogLeNet inception 3a, plus
// the VGG-16@64 FC GEMVs and conv5_1) on a single thread, comparing
// byte-for-byte-identical "legacy" replicas of the pre-optimization kernels
// (embedded below, copied from the previous implementation) against the
// current kernels fed the prepare-time caches and a scratch arena. Reports ns/op, effective GB/s and speedup, writes a
// machine-readable JSON summary, and exits non-zero if any optimized kernel
// fails to reproduce the legacy bytes.
//
// Flags:
//   --quick       1 trial x 1 iteration per case (CI smoke mode)
//   --out PATH    JSON output path (default: BENCH_kernels.json)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "kernels/conv.h"
#include "kernels/gemm.h"
#include "kernels/im2col.h"
#include "kernels/pack.h"
#include "kernels/simd.h"
#include "memory/arena.h"
#include "parallel/thread_pool.h"
#include "quant/half.h"
#include "quant/quantize.h"
#include "tensor/tensor.h"

namespace ulayer {
namespace legacy {

// The kernels below are verbatim replicas of the pre-optimization
// implementations (naive zero-point handling, per-call staging vectors).
// They are the baseline this benchmark compares against.

void GemmF32(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             const float* bias, bool relu) {
  parallel::ParallelFor(
      0, m, parallel::GrainForOps(static_cast<double>(n) * static_cast<double>(k)),
      [&](int64_t i_begin, int64_t i_end) {
        for (int64_t i = i_begin; i < i_end; ++i) {
          float* crow = c + i * n;
          const float b0 = bias != nullptr ? bias[i] : 0.0f;
          std::fill(crow, crow + n, b0);
          const float* arow = a + i * k;
          for (int64_t kk = 0; kk < k; ++kk) {
            const float av = arow[kk];
            if (av == 0.0f) {
              continue;
            }
            const float* brow = b + kk * n;
            for (int64_t j = 0; j < n; ++j) {
              crow[j] += av * brow[j];
            }
          }
          if (relu) {
            for (int64_t j = 0; j < n; ++j) {
              crow[j] = std::max(crow[j], 0.0f);
            }
          }
        }
      });
}

// Frozen replica of the column-blocked GemmF32 loop before the GEMV path
// and the once-per-call B packing: n == 1 runs the micro-kernel's scalar
// column tail, one dependent add chain per row, and every 32-row chunk
// zero-fills its own 1 MiB B panel and packs each column block into it. The
// f32 micro-kernel it calls is unchanged. Bit-identical to kernels::GemmF32.
void GemmF32Blocked(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
                    const float* bias, bool relu, const float* a_packed) {
  constexpr int64_t kRowTile = simd::kRowTile;
  constexpr int64_t kBPanelElems = int64_t{1} << 18;
  constexpr int64_t kKStripF32 = 64;
  int64_t jtile = (kBPanelElems / std::max<int64_t>(k, 1)) & ~int64_t{15};
  jtile = std::min<int64_t>(std::max<int64_t>(jtile, 16), 128);
  const int64_t g = parallel::GrainForOps(static_cast<double>(n) * static_cast<double>(k));
  const int64_t grain = std::max<int64_t>(((g + kRowTile - 1) / kRowTile) * kRowTile, 32);
  const simd::GemmMicroKernels& mk = simd::ActiveGemmMicroKernels();
  parallel::ParallelFor(0, m, grain, [&](int64_t i_begin, int64_t i_end) {
    const float* a_rows[kRowTile];
    float* c_rows[kRowTile];
    const bool pack_b = i_end - i_begin >= 4 * kRowTile;
    std::vector<float> bpanel(pack_b ? static_cast<size_t>(jtile * k) : 0);
    for (int64_t jc = 0; jc < n; jc += jtile) {
      const int64_t jn = std::min(jtile, n - jc);
      const float* bp = b + jc;
      int64_t bldb = n;
      if (pack_b) {
        for (int64_t kk = 0; kk < k; ++kk) {
          std::copy_n(b + kk * n + jc, jn, bpanel.data() + kk * jn);
        }
        bp = bpanel.data();
        bldb = jn;
      }
      for (int64_t i = i_begin; i < i_end; ++i) {
        std::fill(c + i * n + jc, c + i * n + jc + jn, bias != nullptr ? bias[i] : 0.0f);
      }
      for (int64_t ks = 0; ks < k; ks += kKStripF32) {
        const int64_t kn = std::min(kKStripF32, k - ks);
        for (int64_t i0 = i_begin; i0 < i_end; i0 += kRowTile) {
          const int64_t rows = std::min(kRowTile, i_end - i0);
          const int64_t a_kstride = a_packed != nullptr ? kRowTile : 1;
          for (int64_t r = 0; r < rows; ++r) {
            const float* row = a_packed != nullptr
                                   ? a_packed + (i0 / kRowTile) * (kRowTile * k) + r
                                   : a + (i0 + r) * k;
            a_rows[r] = row + ks * a_kstride;
            c_rows[r] = c + (i0 + r) * n + jc;
          }
          mk.f32(a_rows, a_kstride, bp + ks * bldb, bldb, rows, jn, kn, c_rows);
        }
      }
      if (relu) {
        for (int64_t i = i_begin; i < i_end; ++i) {
          for (int64_t j = 0; j < jn; ++j) {
            c[i * n + jc + j] = std::max(c[i * n + jc + j], 0.0f);
          }
        }
      }
    }
  });
}

void GemmQU8(const uint8_t* a, int32_t a_zp, const uint8_t* b, int32_t b_zp, uint8_t* c,
             int32_t c_zp, const RequantScale& rs, int64_t m, int64_t n, int64_t k,
             const int32_t* bias, bool relu) {
  parallel::ParallelFor(
      0, m, parallel::GrainForOps(static_cast<double>(n) * static_cast<double>(k)),
      [&](int64_t i_begin, int64_t i_end) {
        std::vector<int32_t> acc(static_cast<size_t>(n));
        for (int64_t i = i_begin; i < i_end; ++i) {
          const int32_t b0 = bias != nullptr ? bias[i] : 0;
          std::fill(acc.begin(), acc.end(), b0);
          const uint8_t* arow = a + i * k;
          for (int64_t kk = 0; kk < k; ++kk) {
            const int32_t av = static_cast<int32_t>(arow[kk]) - a_zp;
            if (av == 0) {
              continue;
            }
            const uint8_t* brow = b + kk * n;
            for (int64_t j = 0; j < n; ++j) {
              acc[static_cast<size_t>(j)] += av * (static_cast<int32_t>(brow[j]) - b_zp);
            }
          }
          uint8_t* crow = c + i * n;
          for (int64_t j = 0; j < n; ++j) {
            uint8_t q = RequantizeOne(acc[static_cast<size_t>(j)], rs, c_zp);
            if (relu && q < c_zp) {
              q = static_cast<uint8_t>(c_zp);
            }
            crow[j] = q;
          }
        }
      });
}

void Conv2DQU8(const Tensor& input, const Tensor& filters, const Tensor& bias,
               const Conv2DParams& p, Tensor& output) {
  const Shape& is = input.shape();
  const Shape& fs = filters.shape();
  const int out_h = p.OutH(static_cast<int>(is.h));
  const int out_w = p.OutW(static_cast<int>(is.w));
  const int64_t k = fs.c * fs.h * fs.w;
  const int64_t spatial = int64_t{out_h} * out_w;
  std::vector<uint8_t> cols(static_cast<size_t>(k * spatial));

  const double real_mult = static_cast<double>(input.scale()) *
                           static_cast<double>(filters.scale()) /
                           static_cast<double>(output.scale());
  const RequantScale rs = ComputeRequantScale(real_mult);
  const uint8_t in_pad = static_cast<uint8_t>(input.zero_point());

  const int32_t* bias_ptr = bias.empty() ? nullptr : bias.Data<int32_t>();
  for (int64_t ni = 0; ni < is.n; ++ni) {
    const uint8_t* img = input.Data<uint8_t>() + ni * is.c * is.h * is.w;
    Im2ColQU8(img, static_cast<int>(is.c), static_cast<int>(is.h), static_cast<int>(is.w), p,
              cols.data(), in_pad);
    uint8_t* out = output.Data<uint8_t>() + output.shape().Offset(ni, 0, 0, 0);
    legacy::GemmQU8(filters.Data<uint8_t>(), filters.zero_point(), cols.data(),
                    input.zero_point(), out, output.zero_point(), rs, fs.n, spatial, k, bias_ptr,
                    p.relu);
  }
}

// Frozen replica of the naive F16 GEMM: per-output-element, ascending-k Half
// accumulation. Bit-identical to the current kernels::GemmF16, but embedded
// so the via_f16 comparison keeps a fixed baseline when the live kernel is
// optimized — before this replica existed, Conv2DQU8ViaF16 below resolved to
// the live GemmF16 and the reported "speedup" was a self-comparison
// (~1.006x, noise).
void GemmF16(const Half* a, const Half* b, Half* c, int64_t m, int64_t n, int64_t k,
             const Half* bias, bool relu) {
  const Half zero(0.0f);
  parallel::ParallelFor(
      0, m, parallel::GrainForOps(static_cast<double>(n) * static_cast<double>(k)),
      [&](int64_t i_begin, int64_t i_end) {
        for (int64_t i = i_begin; i < i_end; ++i) {
          Half* crow = c + i * n;
          const Half b0 = bias != nullptr ? bias[i] : zero;
          const Half* arow = a + i * k;
          for (int64_t j = 0; j < n; ++j) {
            Half acc = b0;
            for (int64_t kk = 0; kk < k; ++kk) {
              acc += arow[kk] * b[kk * n + j];
            }
            if (relu && acc < zero) {
              acc = zero;
            }
            crow[j] = acc;
          }
        }
      });
}

void Conv2DQU8ViaF16(const Tensor& input, const Tensor& filters, const Tensor& bias,
                     const Conv2DParams& p, Tensor& output) {
  const Shape& is = input.shape();
  const Shape& fs = filters.shape();
  const int out_h = p.OutH(static_cast<int>(is.h));
  const int out_w = p.OutW(static_cast<int>(is.w));
  const QuantParams in_qp{input.scale(), input.zero_point()};
  const QuantParams w_qp{filters.scale(), filters.zero_point()};
  const QuantParams out_qp{output.scale(), output.zero_point()};
  const int64_t k = fs.c * fs.h * fs.w;
  const int64_t spatial = int64_t{out_h} * out_w;

  // Per-call operand conversion: the cost the prepare-time F16 caches remove.
  std::vector<Half> w16(static_cast<size_t>(fs.n * k));
  const uint8_t* wq = filters.Data<uint8_t>();
  for (size_t i = 0; i < w16.size(); ++i) {
    w16[i] = Half(w_qp.Dequantize(wq[i]));
  }
  std::vector<Half> bias16(static_cast<size_t>(fs.n));
  if (!bias.empty()) {
    const float* bp = bias.Data<float>();
    for (size_t i = 0; i < bias16.size(); ++i) {
      bias16[i] = Half(bp[i]);
    }
  }

  std::vector<Half> img16(static_cast<size_t>(is.c * is.h * is.w));
  std::vector<Half> cols(static_cast<size_t>(k * spatial));
  std::vector<Half> out16(static_cast<size_t>(fs.n * spatial));
  for (int64_t ni = 0; ni < is.n; ++ni) {
    const uint8_t* img = input.Data<uint8_t>() + ni * is.c * is.h * is.w;
    parallel::ParallelFor(0, static_cast<int64_t>(img16.size()), parallel::GrainForOps(1.0),
                          [&](int64_t b, int64_t e) {
                            for (int64_t i = b; i < e; ++i) {
                              img16[static_cast<size_t>(i)] = Half(in_qp.Dequantize(img[i]));
                            }
                          });
    Im2ColF16(img16.data(), static_cast<int>(is.c), static_cast<int>(is.h),
              static_cast<int>(is.w), p, cols.data());
    legacy::GemmF16(w16.data(), cols.data(), out16.data(), fs.n, spatial, k,
                    bias.empty() ? nullptr : bias16.data(), p.relu);
    uint8_t* out = output.Data<uint8_t>() + output.shape().Offset(ni, 0, 0, 0);
    parallel::ParallelFor(0, static_cast<int64_t>(out16.size()), parallel::GrainForOps(1.0),
                          [&](int64_t b, int64_t e) {
                            for (int64_t i = b; i < e; ++i) {
                              out[i] = out_qp.Quantize(out16[static_cast<size_t>(i)].ToFloat());
                            }
                          });
  }
}

}  // namespace legacy

namespace {

struct ConvCase {
  const char* name;
  int64_t ic, hw, oc;
  int kernel, pad;
};

// Representative layers from the paper's workload set.
constexpr ConvCase kCases[] = {
    {"alexnet_conv2", 96, 31, 256, 5, 0},      // k=2400, spatial=729
    {"vgg16_conv3_1", 128, 56, 256, 3, 1},     // k=1152, spatial=3136
    {"googlenet_3a_3x3", 96, 28, 128, 3, 1},   // k=864,  spatial=784
};

// Quantized conv operands plus every prepare-time cache, built the same way
// PreparedModel builds them.
struct Operands {
  Conv2DParams p;
  Tensor in_q, w_q, bias_i32, bias_f32;
  QuantParams out_qp;
  RequantScale rs;
  std::vector<int32_t> rowsum;
  std::vector<Half> w16, b16;
  std::vector<uint8_t> w_packed_q;  // Packed filter panels (kernels/pack.h),
  std::vector<Half> w_packed_16;    // as PreparedModel caches them.
  int64_t m, n, k;

  explicit Operands(const ConvCase& c, uint64_t seed) {
    p.kernel_h = p.kernel_w = c.kernel;
    p.pad_h = p.pad_w = c.pad;
    p.relu = true;
    Tensor in(Shape(1, c.ic, c.hw, c.hw), DType::kF32);
    Tensor w(Shape(c.oc, c.ic, c.kernel, c.kernel), DType::kF32);
    bias_f32 = Tensor(Shape(1, c.oc, 1, 1), DType::kF32);
    FillUniform(in, seed, -1.0f, 1.0f);
    FillUniform(w, seed + 1, -0.4f, 0.4f);
    FillUniform(bias_f32, seed + 2, -0.2f, 0.2f);
    const QuantParams in_qp = ChooseQuantParams(-1.0f, 1.0f);
    const QuantParams w_qp = ChooseQuantParams(-0.4f, 0.4f);
    in_q = QuantizeTensor(in, in_qp);
    w_q = QuantizeTensor(w, w_qp);
    bias_i32 = Tensor(bias_f32.shape(), DType::kInt32);
    for (int64_t i = 0; i < bias_f32.NumElements(); ++i) {
      bias_i32.Data<int32_t>()[i] = static_cast<int32_t>(
          std::lround(bias_f32.Data<float>()[i] / (in_qp.scale * w_qp.scale)));
    }
    out_qp = ChooseQuantParams(-8.0f, 8.0f);
    rs = ComputeRequantScale(static_cast<double>(in_qp.scale) *
                             static_cast<double>(w_qp.scale) /
                             static_cast<double>(out_qp.scale));
    m = c.oc;
    k = int64_t{c.ic} * c.kernel * c.kernel;
    n = int64_t{p.OutH(static_cast<int>(c.hw))} * p.OutW(static_cast<int>(c.hw));
    rowsum.resize(static_cast<size_t>(m));
    for (int64_t oc = 0; oc < m; ++oc) {
      int32_t raw = 0;
      for (int64_t kk = 0; kk < k; ++kk) {
        raw += static_cast<int32_t>(w_q.Data<uint8_t>()[oc * k + kk]);
      }
      rowsum[static_cast<size_t>(oc)] = raw;
    }
    w16.resize(static_cast<size_t>(w_q.NumElements()));
    for (int64_t i = 0; i < w_q.NumElements(); ++i) {
      w16[static_cast<size_t>(i)] = Half(w_qp.Dequantize(w_q.Data<uint8_t>()[i]));
    }
    b16.resize(static_cast<size_t>(bias_f32.NumElements()));
    for (int64_t i = 0; i < bias_f32.NumElements(); ++i) {
      b16[static_cast<size_t>(i)] = Half(bias_f32.Data<float>()[i]);
    }
    w_packed_q.resize(static_cast<size_t>(PackedPanelElems(m, k)));
    PackRowPanels(w_q.Data<uint8_t>(), m, k, w_packed_q.data());
    w_packed_16.resize(static_cast<size_t>(PackedPanelElems(m, k)));
    PackRowPanels(w16.data(), m, k, w_packed_16.data());
  }

  Tensor MakeOut() const {
    const Shape& is = in_q.shape();
    Tensor out(Shape(1, m, p.OutH(static_cast<int>(is.h)), p.OutW(static_cast<int>(is.w))),
               DType::kQUInt8);
    out.set_quant_params(out_qp.scale, out_qp.zero_point);
    return out;
  }

  ConvAux IntAux(memory::ScratchArena* arena) const {
    ConvAux aux;
    aux.scratch = arena;
    aux.requant = &rs;
    aux.filter_rowsum = rowsum.data();
    aux.filters_packed_qu8 = w_packed_q.data();
    return aux;
  }

  ConvAux F16Aux(memory::ScratchArena* arena) const {
    ConvAux aux;
    aux.scratch = arena;
    aux.filters_f16 = w16.data();
    aux.bias_f16 = b16.data();
    aux.filters_packed_f16 = w_packed_16.data();
    return aux;
  }
};

// Minimum wall time of `iters` consecutive calls across `trials` timed runs
// (one untimed warmup), in ns per call.
double BestNsPerCall(const std::function<void()>& fn, int iters, int trials) {
  fn();
  double best = 1e30;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      fn();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
        iters;
    best = std::min(best, ns);
  }
  return best;
}

struct Result {
  std::string name;
  int64_t m, n, k;
  int64_t bytes;  // Raw bytes moved per call — gbps without precision loss.
  double legacy_ns, new_ns, speedup, gbps;
  bool identical;
};

void FillBytes(std::vector<uint8_t>& v, uint64_t seed) {
  uint64_t s = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (auto& b : v) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<uint8_t>(s >> 56);
  }
}

}  // namespace
}  // namespace ulayer

int main(int argc, char** argv) {
  using namespace ulayer;
  bool quick = false;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  // Single-thread: the kernels under test are the per-core primitives; thread
  // scaling is benchmarked elsewhere (fig05/fig16).
  parallel::SetCpuThreads(1);
  const char* isa = simd::IsaName(simd::ActiveIsa());
  std::printf("simd isa: %s\n", isa);

  // Quick mode still takes the min of two trials: single-shot timings on a
  // busy CI machine are too noisy to gate on.
  const int iters = quick ? 1 : 3;
  const int trials = quick ? 2 : 3;
  std::vector<Result> results;

  const auto record = [&](const std::string& name, int64_t m, int64_t n, int64_t k,
                          int64_t bytes, double legacy_ns, double new_ns, bool identical) {
    Result r;
    r.name = name;
    r.m = m;
    r.n = n;
    r.k = k;
    r.bytes = bytes;
    r.legacy_ns = legacy_ns;
    r.new_ns = new_ns;
    r.speedup = legacy_ns / new_ns;
    r.gbps = static_cast<double>(bytes) / new_ns;  // bytes/ns == GB/s
    r.identical = identical;
    results.push_back(r);
    std::printf("%-28s m=%-4lld n=%-5lld k=%-5lld  legacy %10.0f ns  new %10.0f ns  "
                "speedup %5.2fx  %8.4g GB/s  %s\n",
                name.c_str(), static_cast<long long>(m), static_cast<long long>(n),
                static_cast<long long>(k), legacy_ns, new_ns, r.speedup, r.gbps,
                identical ? "bytes-identical" : "MISMATCH");
  };

  for (const ConvCase& c : kCases) {
    const Operands ops(c, 1000 + static_cast<uint64_t>(&c - kCases));
    const int64_t m = ops.m, n = ops.n, k = ops.k;

    // --- GemmQU8: naive zero-point formulation vs blocked row-sum hoist.
    {
      std::vector<uint8_t> b(static_cast<size_t>(k * n));
      FillBytes(b, 77);
      std::vector<uint8_t> c_legacy(static_cast<size_t>(m * n));
      std::vector<uint8_t> c_new(static_cast<size_t>(m * n));
      const uint8_t* a = ops.w_q.Data<uint8_t>();
      const int32_t a_zp = ops.w_q.zero_point();
      const int32_t b_zp = 5, c_zp = 3;
      const int32_t* bias = ops.bias_i32.Data<int32_t>();
      const double legacy_ns = BestNsPerCall(
          [&] {
            legacy::GemmQU8(a, a_zp, b.data(), b_zp, c_legacy.data(), c_zp, ops.rs, m, n, k,
                            bias, true);
          },
          iters, trials);
      const double new_ns = BestNsPerCall(
          [&] {
            GemmQU8(a, a_zp, b.data(), b_zp, c_new.data(), c_zp, ops.rs, m, n, k, bias, true,
                    ops.rowsum.data(), ops.w_packed_q.data());
          },
          iters, trials);
      const bool same = std::memcmp(c_legacy.data(), c_new.data(), c_new.size()) == 0;
      record(std::string("gemm_qu8_") + c.name, m, n, k, m * k + k * n + m * n, legacy_ns,
             new_ns, same);
    }

    // --- GemmF32: naive full-row streaming vs column-blocked (bit-identical).
    {
      std::vector<float> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n));
      std::vector<float> c_legacy(static_cast<size_t>(m * n)), c_new(static_cast<size_t>(m * n));
      Tensor af(Shape(1, 1, m, k), DType::kF32), bf(Shape(1, 1, k, n), DType::kF32);
      FillUniform(af, 31, -1.0f, 1.0f);
      FillUniform(bf, 32, -1.0f, 1.0f);
      std::memcpy(a.data(), af.Data<float>(), a.size() * sizeof(float));
      std::memcpy(b.data(), bf.Data<float>(), b.size() * sizeof(float));
      std::vector<float> a_packed(static_cast<size_t>(PackedPanelElems(m, k)));
      PackRowPanels(a.data(), m, k, a_packed.data());
      const double legacy_ns = BestNsPerCall(
          [&] { legacy::GemmF32(a.data(), b.data(), c_legacy.data(), m, n, k, nullptr, true); },
          iters, trials);
      const double new_ns = BestNsPerCall(
          [&] {
            GemmF32(a.data(), b.data(), c_new.data(), m, n, k, nullptr, true, a_packed.data());
          },
          iters, trials);
      const bool same =
          std::memcmp(c_legacy.data(), c_new.data(), c_new.size() * sizeof(float)) == 0;
      record(std::string("gemm_f32_") + c.name, m, n, k, (m * k + k * n + m * n) * 4,
             legacy_ns, new_ns, same);
    }

    // --- Conv2DQU8 end to end: per-call requant/rowsum/heap vs cached + arena.
    {
      Tensor out_legacy = ops.MakeOut();
      Tensor out_new = ops.MakeOut();
      memory::ScratchArena arena(static_cast<size_t>(
          Conv2DScratchBytes(DType::kQUInt8, DType::kQUInt8, ops.in_q.shape(), ops.w_q.shape(),
                             ops.p)));
      const ConvAux aux = ops.IntAux(&arena);
      const double legacy_ns = BestNsPerCall(
          [&] { legacy::Conv2DQU8(ops.in_q, ops.w_q, ops.bias_i32, ops.p, out_legacy); }, iters,
          trials);
      const double new_ns = BestNsPerCall(
          [&] {
            arena.Reset();
            Conv2DQU8(ops.in_q, ops.w_q, ops.bias_i32, ops.p, out_new, 0, -1, aux);
          },
          iters, trials);
      const bool same = std::memcmp(out_legacy.raw(), out_new.raw(),
                                    static_cast<size_t>(out_new.SizeBytes())) == 0;
      record(std::string("conv_qu8_") + c.name, m, n, k, m * k + k * n + m * n, legacy_ns,
             new_ns, same);
    }
  }

  // --- Conv2DQU8ViaF16 (the GPU-emulation path): per-call F16 operand
  // conversion vs prepare-time caches. One shape; software-F16 arithmetic
  // dominates, so the interesting signal is the removed conversion overhead.
  {
    const ConvCase& c = kCases[2];  // googlenet_3a_3x3
    const Operands ops(c, 2000);
    Tensor out_legacy = ops.MakeOut();
    Tensor out_new = ops.MakeOut();
    memory::ScratchArena arena(static_cast<size_t>(
        Conv2DScratchBytes(DType::kQUInt8, DType::kF16, ops.in_q.shape(), ops.w_q.shape(),
                           ops.p)));
    const ConvAux aux = ops.F16Aux(&arena);
    const double legacy_ns = BestNsPerCall(
        [&] { legacy::Conv2DQU8ViaF16(ops.in_q, ops.w_q, ops.bias_f32, ops.p, out_legacy); }, 1,
        quick ? 1 : 2);
    const double new_ns = BestNsPerCall(
        [&] {
          arena.Reset();
          Conv2DQU8ViaF16(ops.in_q, ops.w_q, ops.bias_f32, ops.p, out_new, 0, -1, aux);
        },
        1, quick ? 1 : 2);
    const bool same = std::memcmp(out_legacy.raw(), out_new.raw(),
                                  static_cast<size_t>(out_new.SizeBytes())) == 0;
    record(std::string("conv_qu8_via_f16_") + c.name, ops.m, ops.n, ops.k,
           ops.m * ops.k + ops.k * ops.n + ops.m * ops.n, legacy_ns, new_ns, same);
  }

  // --- GemmF32 on VGG-16@64 classifier and conv5 shapes: the pre-GEMV
  // blocked loop (frozen above) vs the live one. FC weights are row-major
  // (PreparedModel packs conv filters only); conv5_1 at 64x64 has 16 output
  // columns, one column block, so B is consumed in place.
  {
    struct F32Case {
      const char* name;
      int64_t m, n, k;
      bool packed_a;
    };
    constexpr F32Case kF32Cases[] = {
        {"gemv_f32_vgg16_fc6", 4096, 1, 2048, false},
        {"gemv_f32_vgg16_fc7", 4096, 1, 4096, false},
        {"gemm_f32_vgg16_conv5_1", 512, 16, 4608, true},
    };
    for (const F32Case& fc : kF32Cases) {
      const int64_t m = fc.m, n = fc.n, k = fc.k;
      Tensor af(Shape(1, 1, m, k), DType::kF32), bf(Shape(1, 1, k, n), DType::kF32);
      Tensor biasf(Shape(1, 1, 1, m), DType::kF32);
      FillUniform(af, 41, -0.05f, 0.05f);
      FillUniform(bf, 42, 0.0f, 1.0f);
      FillUniform(biasf, 43, -0.2f, 0.2f);
      const float* a = af.Data<float>();
      std::vector<float> a_packed;
      if (fc.packed_a) {
        a_packed.resize(static_cast<size_t>(PackedPanelElems(m, k)));
        PackRowPanels(a, m, k, a_packed.data());
      }
      const float* ap = fc.packed_a ? a_packed.data() : nullptr;
      std::vector<float> c_legacy(static_cast<size_t>(m * n)), c_new(static_cast<size_t>(m * n));
      const double legacy_ns = BestNsPerCall(
          [&] {
            legacy::GemmF32Blocked(a, bf.Data<float>(), c_legacy.data(), m, n, k,
                                   biasf.Data<float>(), true, ap);
          },
          iters, trials);
      const double new_ns = BestNsPerCall(
          [&] {
            GemmF32(a, bf.Data<float>(), c_new.data(), m, n, k, biasf.Data<float>(), true, ap);
          },
          iters, trials);
      const bool same =
          std::memcmp(c_legacy.data(), c_new.data(), c_new.size() * sizeof(float)) == 0;
      record(fc.name, m, n, k, (m * k + k * n + m * n) * 4, legacy_ns, new_ns, same);
    }
  }

  // JSON summary.
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"schema\": \"ulayer-kernel-bench-v2\",\n  \"isa\": \"%s\",\n"
                  "  \"quick\": %s,\n  \"threads\": 1,\n  \"results\": [\n",
               isa, quick ? "true" : "false");
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    // %.6g for gbps: %.3f truncated slow (software-F16) kernels to 0.000.
    // Each row repeats the run provenance (isa/quick/threads) so rows stay
    // self-describing when results from different runs are merged.
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"m\": %lld, \"n\": %lld, \"k\": %lld, "
                 "\"bytes\": %lld, \"legacy_ns\": %.0f, \"new_ns\": %.0f, "
                 "\"speedup\": %.3f, \"gbps\": %.6g, \"bytes_identical\": %s, "
                 "\"isa\": \"%s\", \"quick\": %s, \"threads\": 1}%s\n",
                 r.name.c_str(), static_cast<long long>(r.m), static_cast<long long>(r.n),
                 static_cast<long long>(r.k), static_cast<long long>(r.bytes), r.legacy_ns,
                 r.new_ns, r.speedup, r.gbps, r.identical ? "true" : "false", isa,
                 quick ? "true" : "false", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  for (const Result& r : results) {
    if (!r.identical) {
      std::fprintf(stderr, "FAIL: %s output differs from the legacy kernel\n", r.name.c_str());
      return 1;
    }
  }
  return 0;
}

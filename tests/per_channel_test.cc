#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/executor.h"
#include "core/reference.h"
#include "baselines/baselines.h"
#include "kernels/conv.h"
#include "kernels/pack.h"
#include "kernels/simd.h"
#include "tensor/rng.h"

namespace ulayer {
namespace {

TEST(PerChannelQuantTest, RoundTripTighterThanPerTensor) {
  // A filter tensor whose channels have wildly different ranges: per-channel
  // quantization must reconstruct it much more accurately.
  Tensor f(Shape(4, 2, 3, 3), DType::kF32);
  Rng rng(1);
  for (int64_t oc = 0; oc < 4; ++oc) {
    const float range = 0.01f * static_cast<float>(1 << (2 * oc));  // 0.01 .. 0.64
    float* p = f.Data<float>() + oc * 18;
    for (int i = 0; i < 18; ++i) {
      p[i] = rng.Uniform(-range, range);
    }
  }
  // Per-tensor.
  MinMaxObserver obs;
  obs.Observe(f);
  const Tensor q_tensor = QuantizeTensor(f, obs.Params());
  const float per_tensor_err = RmsDiff(DequantizeTensor(q_tensor), f);
  // Per-channel. (RMS, not max: the widest channel bounds the max error of
  // both schemes identically; per-channel wins on the narrow channels.)
  PerChannelParams params;
  const Tensor q_channel = QuantizeFiltersPerChannel(f, params);
  const float per_channel_err = RmsDiff(DequantizeFiltersPerChannel(q_channel, params), f);
  EXPECT_LT(per_channel_err, per_tensor_err * 0.65f)
      << "per-channel ranges should be much tighter on skewed channels";
}

TEST(PerChannelQuantTest, ParamsPerChannelCoverEachRange) {
  Tensor f(Shape(3, 1, 2, 2), DType::kF32);
  for (int64_t oc = 0; oc < 3; ++oc) {
    float* p = f.Data<float>() + oc * 4;
    for (int i = 0; i < 4; ++i) {
      p[i] = static_cast<float>(oc + 1) * (i % 2 == 0 ? 1.0f : -1.0f);
    }
  }
  PerChannelParams params;
  QuantizeFiltersPerChannel(f, params);
  ASSERT_EQ(params.channels.size(), 3u);
  EXPECT_LT(params.channels[0].scale, params.channels[2].scale);
}

TEST(PerChannelConvTest, MatchesF32CloserThanPerTensor) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  Tensor in(Shape(1, 4, 8, 8), DType::kF32);
  FillUniform(in, 10, -1.0f, 1.0f);
  // Skewed filter channel ranges (where per-channel shines).
  Tensor w(Shape(6, 4, 3, 3), DType::kF32);
  Rng rng(11);
  for (int64_t oc = 0; oc < 6; ++oc) {
    const float range = oc < 3 ? 0.02f : 0.5f;
    float* pw = w.Data<float>() + oc * 36;
    for (int i = 0; i < 36; ++i) {
      pw[i] = rng.Uniform(-range, range);
    }
  }
  Tensor bias;

  Tensor ref(Shape(1, 6, 8, 8), DType::kF32);
  Conv2DF32(in, w, bias, p, ref);
  MinMaxObserver out_obs;
  out_obs.Observe(ref);
  const QuantParams out_qp = out_obs.Params();
  const Tensor in_q = QuantizeTensor(in, ChooseQuantParams(-1.0f, 1.0f));

  // Per-tensor path.
  MinMaxObserver w_obs;
  w_obs.Observe(w);
  const Tensor w_q = QuantizeTensor(w, w_obs.Params());
  Tensor out_pt(ref.shape(), DType::kQUInt8);
  out_pt.set_quant_params(out_qp.scale, out_qp.zero_point);
  Conv2DQU8(in_q, w_q, bias, p, out_pt);

  // Per-channel path.
  PerChannelParams params;
  const Tensor w_qc = QuantizeFiltersPerChannel(w, params);
  Tensor out_pc(ref.shape(), DType::kQUInt8);
  out_pc.set_quant_params(out_qp.scale, out_qp.zero_point);
  Conv2DQU8PerChannel(in_q, w_qc, params, bias, p, out_pc);

  const float err_pt = RmsDiff(DequantizeTensor(out_pt), ref);
  const float err_pc = RmsDiff(DequantizeTensor(out_pc), ref);
  EXPECT_LT(err_pc, err_pt) << "per-channel should beat per-tensor on skewed filters";
}

TEST(PerChannelConvTest, ChannelSlicesComposeExactly) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  Tensor in(Shape(1, 3, 6, 6), DType::kF32);
  Tensor w(Shape(5, 3, 3, 3), DType::kF32);
  FillUniform(in, 20, -1.0f, 1.0f);
  FillUniform(w, 21, -0.5f, 0.5f);
  const Tensor in_q = QuantizeTensor(in, ChooseQuantParams(-1.0f, 1.0f));
  PerChannelParams params;
  const Tensor w_q = QuantizeFiltersPerChannel(w, params);
  const QuantParams out_qp = ChooseQuantParams(-4.0f, 4.0f);
  Tensor bias;
  Tensor full(Shape(1, 5, 6, 6), DType::kQUInt8);
  full.set_quant_params(out_qp.scale, out_qp.zero_point);
  Conv2DQU8PerChannel(in_q, w_q, params, bias, p, full);
  Tensor split_out(Shape(1, 5, 6, 6), DType::kQUInt8);
  split_out.set_quant_params(out_qp.scale, out_qp.zero_point);
  Conv2DQU8PerChannel(in_q, w_q, params, bias, p, split_out, 0, 2);
  Conv2DQU8PerChannel(in_q, w_q, params, bias, p, split_out, 2, 5);
  EXPECT_EQ(std::memcmp(full.raw(), split_out.raw(), static_cast<size_t>(full.SizeBytes())), 0);
}

// Conv2DQU8PerChannel at every ISA against a naive direct convolution with
// distinct per-channel filter zero points, 0 and 255 among them on channels
// whose weights sit at the opposite extreme (|w - zp| = 255), and inputs at
// 255 on one channel. k = 29 * 9 = 261 crosses the AVX2 tile's 256-row pass
// and ends on an unpaired row, 7x7 = 49 output columns end in a one-column
// tail, and 10 channels end in a partial row tile; row-major and packed
// filters.
TEST(PerChannelConvTest, EveryIsaMatchesNaiveConvolution) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  p.relu = true;
  const int64_t ic = 29, oc = 10, hw = 7, k = ic * 9;
  Rng rng(31);
  Tensor in_q(Shape(1, ic, hw, hw), DType::kQUInt8);
  in_q.set_quant_params(0.02f, 131);
  uint8_t* x = in_q.Data<uint8_t>();
  for (int64_t i = 0; i < in_q.NumElements(); ++i) {
    x[i] = i < hw * hw ? 255 : static_cast<uint8_t>(rng.Below(256));
  }
  const int32_t zps[oc] = {0, 255, 17, 128, 255, 0, 3, 250, 64, 200};
  PerChannelParams params;
  Tensor w_q(Shape(oc, ic, 3, 3), DType::kQUInt8);
  uint8_t* w = w_q.Data<uint8_t>();
  for (int64_t o = 0; o < oc; ++o) {
    params.channels.push_back({0.001f * static_cast<float>(o + 1), zps[o]});
    for (int64_t kk = 0; kk < k; ++kk) {
      w[o * k + kk] = o == 1 ? 0 : o == 5 ? 255 : static_cast<uint8_t>(rng.Below(256));
    }
  }
  Tensor bias(Shape(1, oc, 1, 1), DType::kInt32);
  for (int64_t o = 0; o < oc; ++o) {
    bias.Data<int32_t>()[o] = static_cast<int32_t>(rng.Below(2001)) - 1000;
  }
  const QuantParams out_qp{0.05f, 100};

  std::vector<uint8_t> want(static_cast<size_t>(oc * hw * hw));
  for (int64_t o = 0; o < oc; ++o) {
    const RequantScale rs =
        ComputeRequantScale(static_cast<double>(in_q.scale()) *
                            static_cast<double>(params.channels[static_cast<size_t>(o)].scale) /
                            static_cast<double>(out_qp.scale));
    for (int64_t oh = 0; oh < hw; ++oh) {
      for (int64_t ow = 0; ow < hw; ++ow) {
        int32_t acc = bias.Data<int32_t>()[o];
        for (int64_t c = 0; c < ic; ++c) {
          for (int64_t kh = 0; kh < 3; ++kh) {
            for (int64_t kw = 0; kw < 3; ++kw) {
              const int64_t ih = oh - 1 + kh, iw = ow - 1 + kw;
              if (ih < 0 || ih >= hw || iw < 0 || iw >= hw) {
                continue;  // Padding holds the input zero point: (x - x_zp) = 0.
              }
              acc += (static_cast<int32_t>(w[((o * ic + c) * 3 + kh) * 3 + kw]) - zps[o]) *
                     (static_cast<int32_t>(x[(c * hw + ih) * hw + iw]) - in_q.zero_point());
            }
          }
        }
        uint8_t q = RequantizeOne(acc, rs, out_qp.zero_point);
        if (q < out_qp.zero_point) {
          q = static_cast<uint8_t>(out_qp.zero_point);
        }
        want[static_cast<size_t>((o * hw + oh) * hw + ow)] = q;
      }
    }
  }
  int distinct = 0;
  for (int v = 0; v < 256; ++v) {
    distinct += std::count(want.begin(), want.end(), static_cast<uint8_t>(v)) > 0 ? 1 : 0;
  }
  ASSERT_GT(distinct, 50) << "the reference must not saturate";

  std::vector<uint8_t> packed(static_cast<size_t>(PackedPanelElems(oc, k)));
  PackRowPanels(w, oc, k, packed.data());
  ConvAux packed_aux;
  packed_aux.filters_packed_qu8 = packed.data();
  for (const simd::Isa isa : simd::SupportedIsas()) {
    simd::ForceIsa(isa);
    for (const ConvAux& aux : {ConvAux{}, packed_aux}) {
      Tensor out(Shape(1, oc, hw, hw), DType::kQUInt8);
      out.set_quant_params(out_qp.scale, out_qp.zero_point);
      Conv2DQU8PerChannel(in_q, w_q, params, bias, p, out, 0, -1, aux);
      EXPECT_EQ(std::memcmp(out.raw(), want.data(), want.size()), 0)
          << simd::IsaName(isa) << (aux.filters_packed_qu8 != nullptr ? " packed" : "");
    }
    simd::ResetForcedIsa();
  }
}

TEST(PerChannelEndToEnd, LeNetRunsWithPerChannelWeights) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  ExecConfig cfg = ExecConfig::ProcessorFriendly();
  cfg.per_channel_weights = true;
  PreparedModel pm(m, cfg);
  std::vector<Tensor> calib;
  for (int i = 0; i < 3; ++i) {
    Tensor t(Shape(1, 1, 28, 28), DType::kF32);
    FillUniform(t, 100 + static_cast<uint64_t>(i), -1.0f, 1.0f);
    calib.push_back(std::move(t));
  }
  pm.Calibrate(calib);
  Executor ex(pm, MakeExynos7420());
  Tensor in(Shape(1, 1, 28, 28), DType::kF32);
  FillUniform(in, 200, -1.0f, 1.0f);
  const RunResult r = ex.Run(MakeSingleProcessorPlan(m.graph, ProcKind::kCpu), &in);
  ASSERT_TRUE(r.output.has_value());
  const auto ref = ForwardF32(m, in);
  // Per-channel weights should track F32 at least as well as per-tensor.
  ExecConfig cfg_pt = ExecConfig::ProcessorFriendly();
  PreparedModel pm_pt(m, cfg_pt);
  pm_pt.Calibrate(calib);
  Executor ex_pt(pm_pt, MakeExynos7420());
  const RunResult r_pt = ex_pt.Run(MakeSingleProcessorPlan(m.graph, ProcKind::kCpu), &in);
  EXPECT_LE(RmsDiff(*r.output, ref.back()), RmsDiff(*r_pt.output, ref.back()) * 1.2f);
}

}  // namespace
}  // namespace ulayer

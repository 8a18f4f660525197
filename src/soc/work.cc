#include "soc/work.h"

#include <algorithm>
#include <cmath>

namespace ulayer {

LayerWork ComputeWork(const Graph& g, const Node& node, DType storage, int64_t c_begin,
                      int64_t c_end) {
  const double esize = static_cast<double>(DTypeSize(storage));
  LayerWork w;
  const Shape& out = node.out_shape;
  if (c_end < 0) {
    c_end = out.c;
  }
  const double oc = static_cast<double>(c_end - c_begin);
  const double out_spatial = static_cast<double>(out.n * out.h * out.w);

  switch (node.desc.kind) {
    case LayerKind::kInput:
      return w;
    case LayerKind::kConv:
    case LayerKind::kFullyConnected: {
      const Shape& in = g.node(node.inputs[0]).out_shape;
      const double k2ic = static_cast<double>(node.desc.conv.kernel_h) *
                          node.desc.conv.kernel_w * static_cast<double>(in.c);
      w.macs = oc * out_spatial * k2ic;
      // The whole input is shared by every channel slice (filters extend
      // through all input channels, Figure 7a).
      w.input_bytes = static_cast<double>(in.NumElements()) * esize;
      w.weight_bytes = oc * k2ic * esize;
      w.output_bytes = oc * out_spatial * esize;
      return w;
    }
    case LayerKind::kDepthwiseConv: {
      const double k2 =
          static_cast<double>(node.desc.conv.kernel_h) * node.desc.conv.kernel_w;
      const Shape& in = g.node(node.inputs[0]).out_shape;
      w.macs = oc * out_spatial * k2;
      // Channel c of the output needs only channel c of the input.
      w.input_bytes = oc * static_cast<double>(in.n * in.h * in.w) * esize;
      w.weight_bytes = oc * k2 * esize;
      w.output_bytes = oc * out_spatial * esize;
      return w;
    }
    case LayerKind::kPool: {
      const double k2 =
          static_cast<double>(node.desc.pool.kernel_h) * node.desc.pool.kernel_w;
      const Shape& in = g.node(node.inputs[0]).out_shape;
      // One compare/add per window element, counted as one MAC-equivalent.
      w.macs = oc * out_spatial * k2;
      w.input_bytes = oc * static_cast<double>(in.n * in.h * in.w) * esize;
      w.output_bytes = oc * out_spatial * esize;
      return w;
    }
    case LayerKind::kGlobalAvgPool: {
      const Shape& in = g.node(node.inputs[0]).out_shape;
      w.macs = oc * static_cast<double>(in.n * in.h * in.w);
      w.input_bytes = oc * static_cast<double>(in.n * in.h * in.w) * esize;
      w.output_bytes = oc * static_cast<double>(out.n) * esize;
      return w;
    }
    case LayerKind::kRelu: {
      w.macs = oc * out_spatial;
      w.input_bytes = oc * out_spatial * esize;
      w.output_bytes = oc * out_spatial * esize;
      return w;
    }
    case LayerKind::kLrn: {
      // local_size squared-accumulates + one pow/div per element; the pow is
      // folded into a small constant factor.
      const double per_elem = static_cast<double>(node.desc.lrn.local_size) + 8.0;
      w.macs = oc * out_spatial * per_elem;
      // Each output channel reads a local_size window of input channels.
      w.input_bytes = oc * out_spatial * esize * 2.0;
      w.output_bytes = oc * out_spatial * esize;
      return w;
    }
    case LayerKind::kConcat: {
      // Pure data movement: write the slice once (reads accounted on the
      // producers' output side would double-count; count read+write here and
      // treat producer writes as cache-resident).
      w.input_bytes = oc * out_spatial * esize;
      w.output_bytes = oc * out_spatial * esize;
      return w;
    }
    case LayerKind::kEltwiseAdd: {
      // One add per element; reads both operands, writes the sum.
      w.macs = oc * out_spatial;
      w.input_bytes = 2.0 * oc * out_spatial * esize;
      w.output_bytes = oc * out_spatial * esize;
      return w;
    }
    case LayerKind::kSoftmax: {
      w.macs = oc * out_spatial * 8.0;  // exp ~ a handful of MAC-equivalents
      w.input_bytes = oc * out_spatial * esize;
      w.output_bytes = oc * out_spatial * esize;
      return w;
    }
  }
  return w;
}

int64_t FractionChannels(const Node& node, double fraction) {
  const int64_t c = node.out_shape.c;
  if (c <= 0) {
    return 0;
  }
  return std::clamp<int64_t>(static_cast<int64_t>(std::llround(fraction * static_cast<double>(c))),
                             1, c);
}

double TotalMacs(const Graph& g) {
  double total = 0.0;
  for (const Node& n : g.nodes()) {
    total += ComputeWork(g, n, DType::kF32).macs;
  }
  return total;
}

}  // namespace ulayer

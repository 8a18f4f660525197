// LayerWork: the arithmetic and memory-traffic footprint of (a slice of) an
// NN layer, independent of which processor runs it.
#pragma once

#include <cstdint>

#include "nn/graph.h"
#include "tensor/dtype.h"

namespace ulayer {

struct LayerWork {
  double macs = 0.0;          // Multiply-accumulates (or equivalent ops).
  double input_bytes = 0.0;   // Activations read.
  double weight_bytes = 0.0;  // Filter/bias bytes read.
  double output_bytes = 0.0;  // Activations written.

  double TotalBytes() const { return input_bytes + weight_bytes + output_bytes; }
};

// Computes the work of executing output channels [c_begin, c_end) of `node`
// with activations and weights stored as `storage` dtype.
//
// Channel-slicing semantics follow Section 3.2: conv/FC slices share the
// whole input but read only their filter slice; pooling/depthwise/LRN slices
// read only their input channels. Concat/softmax are treated as pure memory
// traffic.
LayerWork ComputeWork(const Graph& g, const Node& node, DType storage, int64_t c_begin = 0,
                      int64_t c_end = -1);

// End of the channel range [0, c_end) covering the leading `fraction` of
// `node`'s output channels: llround(fraction * C) clamped to [1, C], so any
// positive fraction gets at least one channel. A corrupt graph can carry
// C == 0; std::clamp with hi < lo is UB, so such nodes map to the empty range.
int64_t FractionChannels(const Node& node, double fraction);

// Total MACs of the full network (for reporting).
double TotalMacs(const Graph& g);

}  // namespace ulayer

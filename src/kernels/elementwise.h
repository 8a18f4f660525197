// Element-wise and normalization kernels: ReLU, LRN, channel concat,
// softmax. Channel ranges follow the same distribution convention as
// conv/pool kernels.
#pragma once

#include <vector>

#include "kernels/access_spec.h"
#include "kernels/params.h"
#include "tensor/tensor.h"

namespace ulayer {

// In-place ReLU over channels [c_begin, c_end).
void ReluF32(Tensor& t, int64_t c_begin = 0, int64_t c_end = -1);
void ReluF16(Tensor& t, int64_t c_begin = 0, int64_t c_end = -1);
void ReluQU8(Tensor& t, int64_t c_begin = 0, int64_t c_end = -1);

// Local Response Normalization across channels (AlexNet/GoogLeNet).
// Note: each output channel reads a window of input channels, so the output
// channel range needs the full input — the executor accounts for that.
void LrnF32(const Tensor& input, const LrnParams& p, Tensor& output, int64_t c_begin = 0,
            int64_t c_end = -1);
void LrnF16(const Tensor& input, const LrnParams& p, Tensor& output, int64_t c_begin = 0,
            int64_t c_end = -1);
// Quantized LRN dequantizes, normalizes in F32, and requantizes with the
// output tensor's parameters (ACL-style fallback path).
void LrnQU8(const Tensor& input, const LrnParams& p, Tensor& output, int64_t c_begin = 0,
            int64_t c_end = -1);

// Concatenates tensors[inputs[0]], tensors[inputs[1]], ... along the channel
// dimension into `output` (the executor's activation table and a node's
// input ids, so a call builds no container). For QUInt8, inputs with
// differing quant params are requantized into the output's parameters.
void ConcatChannels(const std::vector<Tensor>& tensors, const std::vector<int>& inputs,
                    Tensor& output);

// Element-wise sum over channels [c_begin, c_end) of two same-shaped
// tensors, with optional fused ReLU (ResNet residual joins).
void EltwiseAddF32(const Tensor& a, const Tensor& b, Tensor& output, bool relu,
                   int64_t c_begin = 0, int64_t c_end = -1);
void EltwiseAddF16(const Tensor& a, const Tensor& b, Tensor& output, bool relu,
                   int64_t c_begin = 0, int64_t c_end = -1);
// Quantized add: both operands are rescaled into the output's quantization
// parameters before summing (TFLite-style ADD with per-input rescale).
void EltwiseAddQU8(const Tensor& a, const Tensor& b, Tensor& output, bool relu,
                   int64_t c_begin = 0, int64_t c_end = -1);

// Softmax across channels (per (n, h, w) position). QUInt8 input is
// dequantized; output of all variants is F32 class probabilities.
void Softmax(const Tensor& input, Tensor& output);

// --- Declared access specifications (kernels/access_spec.h) -----------------

// ReLU as the executor runs it (core/compute.cc): copy channels
// [c_begin, c_end) input -> output, then clamp in place. Reads and writes
// the channel slice symmetrically.
AccessSpec ReluAccessSpec(DType storage, const Shape& shape, int64_t c_begin, int64_t c_end);

// LRN writes channels [c_begin, c_end) but reads the input channel window
// [c_begin - local_size/2, c_end + local_size/2) clamped to [0, C).
AccessSpec LrnAccessSpec(DType storage, const Shape& shape, const LrnParams& p, int64_t c_begin,
                         int64_t c_end);

// Concat is serial and never channel-split: reads every input fully, writes
// the output fully.
AccessSpec ConcatAccessSpec(const std::vector<Shape>& input_shapes, DType storage,
                            const Shape& out_shape);

// Element-wise add reads channels [c_begin, c_end) of both operands and
// writes the same slice of the output.
AccessSpec EltwiseAddAccessSpec(DType storage, const Shape& shape, int64_t c_begin,
                                int64_t c_end);

// Softmax is serial and never channel-split; its output is always F32
// (see PreparedModel::ActivationDType).
AccessSpec SoftmaxAccessSpec(DType storage, const Shape& shape);

}  // namespace ulayer

// Reference GEMM kernels in the three data types ulayer executes.
//
// All matrices are row-major. The QUInt8 GEMM follows gemmlowp exactly:
// uint8 operands with zero points, int32 accumulation, then fixed-point
// requantization back to uint8 (see quant/quantize.h).
#pragma once

#include <cstdint>

#include "kernels/access_spec.h"
#include "quant/half.h"
#include "quant/quantize.h"
#include "tensor/dtype.h"

namespace ulayer {

// C[M,N] = A[M,K] * B[K,N] (+ bias[M] broadcast across columns, if non-null).
// Row-tiled over kernels/simd.h micro-kernels (runtime-dispatched SIMD);
// per-element accumulation order is unchanged (ascending k, separate
// mul+add, zero-skip preserved), so results are bit-identical to the naive
// loop on every ISA.
//
// `a_packed`, when non-null, is A repacked into kRowTile-interleaved panels
// (kernels/pack.h, PackedPanelElems(m, k) elements) — e.g. the prepare-time
// filter panels cached by PreparedModel. The plain `a` may then be null.
//
// n == 1 with row-major `a` (GEMV, every FC layer) runs the row-vectorized
// gemv_f32 kernel. Wider B is column-blocked; when it spans more than one
// block, each block is packed once per call into `b_scratch`
// (GemmF32ScratchElems(n, k) floats, contents ignored). Conv2DF32 always
// passes that buffer; a null `b_scratch` — for direct callers such as the
// tests and kernel_bench — makes the call allocate it itself, once.
void GemmF32(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             const float* bias = nullptr, bool relu = false,
             const float* a_packed = nullptr, float* b_scratch = nullptr);

// Floats of B-panel scratch a GemmF32 call with an n x k B packs into: 0
// when B is a single column block (consumed in place); otherwise one
// packing group — all blocks, capped at 8 MiB of whole blocks.
int64_t GemmF32ScratchElems(int64_t n, int64_t k);

// Same contract as GemmF32 but every multiply-accumulate rounds to binary16,
// emulating a native F16 ALU (accumulator is F16 as on Mali FP16 paths): per
// element c = RN16(c + RN16(a*b)) over ascending k. The AVX2+F16C variant
// implements the identical per-step rounding in hardware (DESIGN.md §13).
void GemmF16(const Half* a, const Half* b, Half* c, int64_t m, int64_t n, int64_t k,
             const Half* bias = nullptr, bool relu = false,
             const Half* a_packed = nullptr);

// Quantized GEMM: c_q[M,N] = requantize(sum_k (a[m,k]-a_zp)*(b[k,n]-b_zp)
//                                        + bias_i32[m]).
// `rs` encodes (a_scale*b_scale)/c_scale; `relu` clamps at c_zp (quantized 0).
//
// Implemented with the row-sum zero-point hoist (Jacob et al., gemmlowp):
//   sum_k (a-a_zp)(b-b_zp) = sum_k (a-a_zp)*b  -  b_zp * sum_k (a-a_zp),
// so the hot loop multiplies raw uint8 B values and the b_zp contribution is
// folded in once per (row, column tile) after the k loop. Integer arithmetic
// is exact, hence outputs are byte-identical to the naive formulation (see
// DESIGN.md Section 9 for the derivation and the overflow-bound argument).
//
// `a_rowsum`, when non-null, holds the precomputed raw row sums
// sum_k a[m,k] (uint8 values, int32 totals) — e.g. the prepare-time filter
// row sums cached by PreparedModel. When null they are computed on the fly.
// `a_packed` is the optional kRowTile-interleaved panel form of A
// (kernels/pack.h), as for GemmF32. Requires k <= INT32_MAX / 255^2 so int32
// accumulation cannot overflow (same bound as the naive kernel).
void GemmQU8(const uint8_t* a, int32_t a_zp, const uint8_t* b, int32_t b_zp, uint8_t* c,
             int32_t c_zp, const RequantScale& rs, int64_t m, int64_t n, int64_t k,
             const int32_t* bias = nullptr, bool relu = false,
             const int32_t* a_rowsum = nullptr, const uint8_t* a_packed = nullptr);

// Row grain of the GEMMs' ParallelFor over m for a dtype and an n x k B:
// GrainForOps(n*k) rounded up to a multiple of kRowTile, floored at 32 rows
// for F32 only (its B-panel blocking amortizes each panel over a chunk's row
// tiles). A pure function of dtype and shape; Conv2DQU8PerChannel uses the
// kQUInt8 grain too.
int64_t RowTileGrain(DType dtype, int64_t n, int64_t k);

// Declared write loop of the GEMMs above (see kernels/access_spec.h): the
// row-parallel ParallelFor over [0, m) where row i occupies
// [c_base_bytes + i*n*elem, +n*elem) of C. `dtype` selects the element size
// and the row grain (RowTileGrain) — exactly the values the kernels pass to
// ParallelFor.
LoopSpec GemmWriteLoopSpec(DType dtype, int64_t m, int64_t n, int64_t k, int64_t c_base_bytes);

// Declared B-packing loop a GemmF32 call with an n x k B runs before each
// pass of its write loop when it packs: one iteration per column block of a
// packing group, each writing one block's panel of the scratch buffer at
// `panels_base_bytes`. Empty (end == 0) when B is a single block.
LoopSpec GemmF32PackLoopSpec(int64_t n, int64_t k, int64_t panels_base_bytes);

}  // namespace ulayer

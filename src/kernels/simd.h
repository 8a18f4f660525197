// Runtime SIMD dispatch for the GEMM micro-kernels (DESIGN.md Section 13).
//
// One binary carries scalar, SSE4.1, AVX2(+F16C) and NEON variants of the
// inner GEMM tiles; the best ISA the CPU supports is picked once at startup
// (overridable with the ULAYER_SIMD environment variable, or ForceIsa() from
// tests). Every variant implements the *same arithmetic contract* as the
// scalar reference — byte-identical QU8/F32 results and value-identical
// per-step-rounded F16 results — so dispatch never changes output bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "quant/half.h"

namespace ulayer::simd {

enum class Isa { kScalar, kSse41, kAvx2, kNeon };

// Human-readable name ("scalar", "sse41", "avx2", "neon") — recorded in
// BENCH_kernels.json provenance.
const char* IsaName(Isa isa);

// The ISA micro-kernels dispatch to. Resolution order: ForceIsa() override if
// set, else the ULAYER_SIMD env var (scalar|sse41|avx2|neon|auto, read once),
// else the best ISA the CPU reports. Requests for an unsupported ISA fall
// back to the best supported one.
Isa ActiveIsa();

// All ISAs usable on this machine, best first; always ends with kScalar.
// Tests iterate this to run the dispatch matrix.
std::vector<Isa> SupportedIsas();

// Test/CI hook: pin dispatch to `isa` (clamped to a supported ISA) until
// ResetForcedIsa(). Not thread-safe; call only from test setup.
void ForceIsa(Isa isa);
void ResetForcedIsa();

// A-rows processed together by one micro-kernel tile; packed filter panels
// (kernels/pack.h) interleave rows in groups of kRowTile.
inline constexpr int64_t kRowTile = 4;

// Micro-kernel tile contracts. Common conventions:
//  - `a_rows[r]` points at element k=0 of A-row r; consecutive k elements are
//    `a_kstride` elements apart (1 for plain row-major A, kRowTile for packed
//    panels). 1 <= rows <= kRowTile.
//  - `b` is the row-major B panel top-left for this column block; B row kk
//    starts at b + kk*ldb. `jn` columns are produced, over `k` accumulation
//    steps.
//  - Accumulators are read-modify-write: callers pre-fill with bias.
struct GemmMicroKernels {
  Isa isa = Isa::kScalar;

  // QU8: acc[r*acc_ld + j] += sum_kk (a_rows[r][kk*a_kstride] - a_zp[r]) * b.
  // Pure int32 arithmetic — any summation order, exact by construction.
  // a_zp is per-row so the per-channel conv kernel can reuse the tile.
  void (*qu8)(const uint8_t* const* a_rows, int64_t a_kstride, const int32_t* a_zp,
              const uint8_t* b, int64_t ldb, int64_t rows, int64_t jn, int64_t k,
              int32_t* acc, int64_t acc_ld);

  // F32: c_rows[r][j] += a*b with ascending-k single-add order per element
  // and the av == 0.0f skip preserved per (row, k) — bit-identical to the
  // naive i-k-j loop (variants are built with -ffp-contract=off; no FMA).
  void (*f32)(const float* const* a_rows, int64_t a_kstride, const float* b,
              int64_t ldb, int64_t rows, int64_t jn, int64_t k, float* const* c_rows);

  // F16: per element, c = RN16(c + RN16(a*b)) ascending k — every
  // multiply-accumulate rounds to binary16 exactly like software Half
  // arithmetic (hardware F16C conversions implement the identical
  // round-to-nearest-even; see DESIGN.md Section 13).
  void (*f16)(const Half* const* a_rows, int64_t a_kstride, const Half* b,
              int64_t ldb, int64_t rows, int64_t jn, int64_t k, Half* const* c_rows);

  // F32 GEMV, the n == 1 case of GemmF32 (every FC layer):
  // c[i] += sum_kk a[i*k + kk] * b[kk] for 0 <= i < rows, A row-major, each
  // row under the f32 tile's contract — one ascending-k chain of separate
  // mul and add, the av == 0.0f skip per (row, k) — so results are
  // bit-identical to the naive loop. SIMD variants put one output row per
  // lane and transpose row blocks in registers; the k order within every
  // lane is unchanged.
  void (*gemv_f32)(const float* a, const float* b, int64_t rows, int64_t k, float* c);
};

// The table for ActiveIsa(). Resolve once per kernel call (cheap), before
// entering ParallelFor.
const GemmMicroKernels& ActiveGemmMicroKernels();

// The table for a specific ISA (scalar is always available; unsupported ISAs
// return the scalar table). Exposed for the bench and dispatch-matrix tests.
const GemmMicroKernels& GemmMicroKernelsFor(Isa isa);

}  // namespace ulayer::simd

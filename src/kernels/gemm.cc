#include "kernels/gemm.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>

#include "kernels/simd.h"
#include "parallel/thread_pool.h"

namespace ulayer {
namespace {

// Blocking parameters (DESIGN.md Sections 9 and 13).
//
// All three GEMMs process kRowTile A-rows per micro-kernel tile so each B
// panel read is amortized over four output rows. The QU8 kernel additionally
// blocks columns over kColTileQ-wide int32 accumulator tiles kept on the
// stack (1 KB per row: L1-resident, and no per-call heap allocation). The
// inner tiles themselves live in kernels/simd.h and are runtime-dispatched
// to the best available ISA.
constexpr int64_t kRowTile = simd::kRowTile;
constexpr int64_t kColTileQ = 256;

// Rounds a ParallelFor grain up to a multiple of kRowTile so chunk boundaries
// do not split row tiles (GrainForOps returns 1 for large n*k), then floors it
// at kMinGrainRows: the cache blocking below amortizes each L2-resident B
// panel over every row tile of a chunk, so a 4-row chunk (what GrainForOps
// alone yields on any real layer) would re-stream the panel once per tile.
// 32 rows = 8 row tiles per chunk still splits typical layer oc counts
// across a multi-core budget, and the grain stays a pure function of the
// shape — chunk boundaries never depend on the thread count (the determinism
// contract in parallel/thread_pool.h).
constexpr int64_t kMinGrainRows = 32;

int64_t RowTileGrain(double ops_per_row) {
  const int64_t g = parallel::GrainForOps(ops_per_row);
  const int64_t tiles = ((g + kRowTile - 1) / kRowTile) * kRowTile;
  return std::max(tiles, kMinGrainRows);
}

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Copies columns [jc, jc + jn) of row-major B (k x n) into a dense k x jn
// panel.
void PackBColumns(const float* b, int64_t n, int64_t k, int64_t jc, int64_t jn, float* panel) {
  for (int64_t kk = 0; kk < k; ++kk) {
    std::copy_n(b + kk * n + jc, jn, panel + kk * jn);
  }
}

// GemmF32 column-block width: the widest multiple of 16 whose k x jtile
// panel fits 1 MiB of floats, clamped to [16, 128].
int64_t F32ColTile(int64_t k) {
  constexpr int64_t kBPanelElems = int64_t{1} << 18;
  const int64_t jtile = (kBPanelElems / std::max<int64_t>(k, 1)) & ~int64_t{15};
  return std::min<int64_t>(std::max<int64_t>(jtile, 16), 128);
}

// Column blocks GemmF32 packs up front per row-loop pass: as many as fit
// kPackGroupElems floats (8 MiB), at least one.
constexpr int64_t kPackGroupElems = int64_t{1} << 21;
int64_t PackGroupBlocks(int64_t k) {
  return std::max<int64_t>(kPackGroupElems / (F32ColTile(k) * std::max<int64_t>(k, 1)), 1);
}

// Resolves the kRowTile row pointers for the tile starting at row i0: either
// into the packed panel (k-major interleaved groups of kRowTile rows,
// kernels/pack.h) or into plain row-major A. Returns the element stride
// between consecutive k values.
template <typename T>
int64_t TileRowPointers(const T* a, const T* a_packed, int64_t i0, int64_t rows,
                        int64_t k, const T* rows_out[]) {
  if (a_packed != nullptr) {
    assert(i0 % kRowTile == 0 && "packed panels require tile-aligned rows");
    const T* panel = a_packed + (i0 / kRowTile) * (kRowTile * k);
    for (int64_t r = 0; r < rows; ++r) {
      rows_out[r] = panel + r;
    }
    return kRowTile;
  }
  for (int64_t r = 0; r < rows; ++r) {
    rows_out[r] = a + (i0 + r) * k;
  }
  return 1;
}

}  // namespace

void GemmF32(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             const float* bias, bool relu, const float* a_packed, float* b_scratch) {
  // Rows are independent: parallelize over m in kRowTile groups. Within the
  // micro-kernels every C element accumulates over ascending k with one
  // sequential += per term and the naive kernel's av == 0 skip preserved per
  // (row, k), so float results stay bit-identical to the naive i-k-j loop
  // regardless of the dispatched ISA (skipping matters only for the sign of
  // zero, but the baseline skipped, so every variant must too).
  const simd::GemmMicroKernels& mk = simd::ActiveGemmMicroKernels();
  const int64_t grain = RowTileGrain(static_cast<double>(n) * static_cast<double>(k));
  if (n == 1 && a != nullptr) {
    // GEMV (every FC layer): the column tile would degenerate to one
    // dependent add chain per row, so the GEMV kernel vectorizes across
    // rows of row-major A instead. A call given only packed A (no caller in
    // src/ makes one) takes the blocked path below.
    parallel::ParallelFor(0, m, grain, [&](int64_t i_begin, int64_t i_end) {
      for (int64_t i = i_begin; i < i_end; ++i) {
        c[i] = bias != nullptr ? bias[i] : 0.0f;
      }
      mk.gemv_f32(a + i_begin * k, b, i_end - i_begin, k, c + i_begin);
      if (relu) {
        for (int64_t i = i_begin; i < i_end; ++i) {
          c[i] = std::max(c[i], 0.0f);
        }
      }
    });
    return;
  }

  // Cache blocking, two levels. Columns: one B panel (k x jtile floats,
  // jtile capped so a strip fits L1) stays L2-resident across all row tiles
  // of a chunk — without it the full B matrix streams from memory once per
  // row tile. k: each micro-kernel call covers a kKStripF32-row strip of B
  // (kstrip x jtile x 4B ~ 32 KB, L1-resident across the strip's column
  // sub-blocks; a full-k walk at row stride n*4 costs a TLB miss per touch
  // on large layers). Blocking only reorders whole (row, column, k-range)
  // units of work: each C element still accumulates its terms in ascending
  // k — partial sums round-trip through C exactly — and sees one bias-fill
  // and one relu, so outputs stay bit-identical to the unblocked loop.
  //
  // When B is wider than one column block, each block is packed once per
  // call into a contiguous (k x jn) panel of `b_scratch`: at large n the
  // strided panel spans one 4 KB page per couple of B rows, so a k-strip
  // walk touches more pages than the L1 dTLB holds and every row load stalls
  // on a translation; the packed panel is dense (a 32 KB strip covers 8
  // pages) and prefetch-friendly. Every row chunk walks every block, so
  // blocks are packed up front, in parallel, and shared read-only — a group
  // of at most kPackGroupElems floats at a time, one row-loop pass per
  // group, so a large B (VGG-16 conv1_2 at 224x224: 115 MB) does not double
  // the scratch. A single block is B itself (ldb == n == jn), so it is never
  // copied. Packing is pure data movement — the kernels consume the same
  // values in the same order via ldb.
  constexpr int64_t kKStripF32 = 64;
  const int64_t jtile = F32ColTile(k);
  const bool pack_b = n > jtile;
  const int64_t pass_cols = pack_b ? PackGroupBlocks(k) * jtile : n;
  std::unique_ptr<float[]> own;
  if (pack_b && b_scratch == nullptr) {
    own.reset(new float[static_cast<size_t>(GemmF32ScratchElems(n, k))]);
    b_scratch = own.get();
  }
  for (int64_t j0 = 0; j0 < n; j0 += pass_cols) {
    const int64_t j1 = std::min(n, j0 + pass_cols);
    if (pack_b) {
      parallel::ParallelFor(0, CeilDiv(j1 - j0, jtile), 1, [&](int64_t blk0, int64_t blk1) {
        for (int64_t blk = blk0; blk < blk1; ++blk) {
          const int64_t jc = j0 + blk * jtile;
          PackBColumns(b, n, k, jc, std::min(jtile, j1 - jc), b_scratch + blk * jtile * k);
        }
      });
    }
    parallel::ParallelFor(0, m, grain, [&](int64_t i_begin, int64_t i_end) {
      const float* a_rows[kRowTile];
      const float* a_rows_ks[kRowTile];
      float* c_rows[kRowTile];
      for (int64_t jc = j0; jc < j1; jc += jtile) {
        const int64_t jn = std::min(jtile, j1 - jc);
        const float* bp = b + jc;
        int64_t bldb = n;
        if (pack_b) {
          bp = b_scratch + (jc - j0) * k;
          bldb = jn;
        }
        // k strips outermost within the column block: one 32 KB B strip
        // stays L1-resident across every row tile instead of re-streaming
        // the whole panel from L2 once per tile. Each C element still sees
        // bias first, then its k terms in ascending order (strips ascend,
        // kk ascends within a strip), then one relu.
        for (int64_t i = i_begin; i < i_end; ++i) {
          float* crow = c + i * n + jc;
          const float b0 = bias != nullptr ? bias[i] : 0.0f;
          std::fill(crow, crow + jn, b0);
        }
        for (int64_t ks = 0; ks < k; ks += kKStripF32) {
          const int64_t kn = std::min(kKStripF32, k - ks);
          for (int64_t i0 = i_begin; i0 < i_end; i0 += kRowTile) {
            const int64_t rows = std::min(kRowTile, i_end - i0);
            const int64_t a_kstride = TileRowPointers(a, a_packed, i0, rows, k, a_rows);
            for (int64_t r = 0; r < rows; ++r) {
              a_rows_ks[r] = a_rows[r] + ks * a_kstride;
              c_rows[r] = c + (i0 + r) * n + jc;
            }
            mk.f32(a_rows_ks, a_kstride, bp + ks * bldb, bldb, rows, jn, kn, c_rows);
          }
        }
        if (relu) {
          for (int64_t i = i_begin; i < i_end; ++i) {
            float* crow = c + i * n + jc;
            for (int64_t j = 0; j < jn; ++j) {
              crow[j] = std::max(crow[j], 0.0f);
            }
          }
        }
      }
    });
  }
}

int64_t GemmF32ScratchElems(int64_t n, int64_t k) {
  const int64_t jtile = F32ColTile(k);
  if (n <= jtile) {
    return 0;
  }
  return std::min(CeilDiv(n, jtile), PackGroupBlocks(k)) * jtile * k;
}

LoopSpec GemmF32PackLoopSpec(int64_t n, int64_t k, int64_t panels_base_bytes) {
  const int64_t jtile = F32ColTile(k);
  LoopSpec loop;
  if (n > jtile) {
    // One iteration per column block of the largest group.
    loop.end = std::min(CeilDiv(n, jtile), PackGroupBlocks(k));
    loop.stride_bytes = jtile * k * int64_t{sizeof(float)};
    loop.iter_bytes = loop.stride_bytes;
    loop.bases = {panels_base_bytes};
    loop.writes_scratch = true;
  }
  return loop;
}

void GemmF16(const Half* a, const Half* b, Half* c, int64_t m, int64_t n, int64_t k,
             const Half* bias, bool relu, const Half* a_packed) {
  // Same row-tiled structure as GemmF32; the C row doubles as the running
  // Half accumulator, so per element the op chain is c = RN16(c + RN16(a*b))
  // over ascending k — exactly the naive register-accumulator sequence, and
  // the F16C variant implements the identical per-step rounding in hardware.
  const Half zero(0.0f);
  const simd::GemmMicroKernels& mk = simd::ActiveGemmMicroKernels();
  parallel::ParallelFor(
      0, m, RowTileGrain(static_cast<double>(n) * static_cast<double>(k)),
      [&](int64_t i_begin, int64_t i_end) {
        const Half* a_rows[kRowTile];
        Half* c_rows[kRowTile];
        for (int64_t i0 = i_begin; i0 < i_end; i0 += kRowTile) {
          const int64_t rows = std::min(kRowTile, i_end - i0);
          for (int64_t r = 0; r < rows; ++r) {
            c_rows[r] = c + (i0 + r) * n;
            const Half b0 = bias != nullptr ? bias[i0 + r] : zero;
            std::fill(c_rows[r], c_rows[r] + n, b0);
          }
          const int64_t a_kstride = TileRowPointers(a, a_packed, i0, rows, k, a_rows);
          mk.f16(a_rows, a_kstride, b, n, rows, n, k, c_rows);
          if (relu) {
            for (int64_t r = 0; r < rows; ++r) {
              Half* crow = c_rows[r];
              for (int64_t j = 0; j < n; ++j) {
                if (crow[j] < zero) {
                  crow[j] = zero;
                }
              }
            }
          }
        }
      });
}

void GemmQU8(const uint8_t* a, int32_t a_zp, const uint8_t* b, int32_t b_zp, uint8_t* c,
             int32_t c_zp, const RequantScale& rs, int64_t m, int64_t n, int64_t k,
             const int32_t* bias, bool relu, const int32_t* a_rowsum,
             const uint8_t* a_packed) {
  // Accumulation bound: every partial sum of (a - a_zp) * b terms is within
  // |bias| + 255*255*k, the same bound as the naive (a-a_zp)(b-b_zp) kernel,
  // because the b_zp correction is applied only after the k loop.
  assert(k <= INT32_MAX / (255 * 255) && "int32 accumulator would overflow");
  const simd::GemmMicroKernels& mk = simd::ActiveGemmMicroKernels();
  parallel::ParallelFor(
      0, m, RowTileGrain(static_cast<double>(n) * static_cast<double>(k)),
      [&](int64_t i_begin, int64_t i_end) {
        // Stack tiles: no per-chunk heap allocation (DESIGN.md Section 9).
        int32_t acc[kRowTile][kColTileQ];
        int32_t srow[kRowTile];  // Signed row sums: sum_k (a[i,k] - a_zp).
        int32_t zps[kRowTile];
        const uint8_t* a_rows[kRowTile];
        std::fill(zps, zps + kRowTile, a_zp);
        for (int64_t i0 = i_begin; i0 < i_end; i0 += kRowTile) {
          const int64_t rows = std::min(kRowTile, i_end - i0);
          const int64_t a_kstride = TileRowPointers(a, a_packed, i0, rows, k, a_rows);
          for (int64_t r = 0; r < rows; ++r) {
            int32_t raw = 0;
            if (a_rowsum != nullptr) {
              raw = a_rowsum[i0 + r];
            } else {
              const uint8_t* arow = a_rows[r];
              for (int64_t kk = 0; kk < k; ++kk) {
                raw += static_cast<int32_t>(arow[kk * a_kstride]);
              }
            }
            srow[r] = raw - static_cast<int32_t>(k) * a_zp;
          }
          for (int64_t jb = 0; jb < n; jb += kColTileQ) {
            const int64_t jn = std::min(kColTileQ, n - jb);
            for (int64_t r = 0; r < rows; ++r) {
              const int32_t b0 = bias != nullptr ? bias[i0 + r] : 0;
              std::fill(acc[r], acc[r] + jn, b0);
            }
            mk.qu8(a_rows, a_kstride, zps, b + jb, n, rows, jn, k, &acc[0][0],
                   kColTileQ);
            for (int64_t r = 0; r < rows; ++r) {
              const int32_t corr = b_zp * srow[r];
              uint8_t* crow = c + (i0 + r) * n + jb;
              for (int64_t j = 0; j < jn; ++j) {
                uint8_t q = RequantizeOne(acc[r][j] - corr, rs, c_zp);
                if (relu && q < c_zp) {
                  // Quantized ReLU: real zero is stored as c_zp.
                  q = static_cast<uint8_t>(c_zp);
                }
                crow[j] = q;
              }
            }
          }
        }
      });
}

LoopSpec GemmWriteLoopSpec(DType dtype, int64_t m, int64_t n, int64_t k, int64_t c_base_bytes) {
  const double ops = static_cast<double>(n) * static_cast<double>(k);
  LoopSpec loop;
  loop.begin = 0;
  loop.end = m;
  loop.grain = RowTileGrain(ops);  // All three GEMMs are row-tiled now.
  loop.stride_bytes = n * DTypeSize(dtype);
  loop.iter_bytes = n * DTypeSize(dtype);
  loop.bases = {c_base_bytes};
  return loop;
}

}  // namespace ulayer

// Scratch-arena / memory-planning tests (DESIGN.md Section 9):
//  - ScratchArena unit behavior: alignment, reset reuse, overflow growth.
//  - PackBuffers liveness packing: overlap disjointness, reuse, alignment.
//  - Kernel equivalence: prepare-time caches (row sums, requant multipliers,
//    F16 operands) must be byte-identical to the per-call fallbacks.
//  - Zero steady-state heap allocations inside warmed kernels (global
//    operator new counting, single-threaded so the serial ParallelFor path
//    makes the count deterministic).
//  - Executor arena reuse: repeated runs are stable and a mid-run throw
//    leaves the arena coherent. Zoo-wide output identity is pinned by
//    tests/golden_digest_test.cc.
#include "memory/arena.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/executor.h"
#include "core/prepared.h"
#include "half_split_plan.h"
#include "kernels/conv.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "kernels/pack.h"
#include "models/model.h"
#include "parallel/thread_pool.h"
#include "quant/quantize.h"
#include "tensor/rng.h"

// --- Global allocation counting ---------------------------------------------
// Replacing the global allocation functions lets tests assert that a code
// region performs no heap allocation. Counting is gated so gtest's own
// bookkeeping does not pollute the numbers.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<int64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAllocAligned(std::size_t n, std::size_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t padded = (n + align - 1) / align * align;
  void* p = std::aligned_alloc(align, padded == 0 ? align : padded);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAllocAligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAllocAligned(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace ulayer {
namespace {

using memory::BufferPlan;
using memory::BufferRequest;
using memory::PackBuffers;
using memory::ScratchArena;

class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { parallel::SetCpuThreads(n); }
  ~ScopedThreads() { parallel::SetCpuThreads(0); }
};

class ScopedAllocCount {
 public:
  ScopedAllocCount() {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
  }
  ~ScopedAllocCount() { g_count_allocs.store(false, std::memory_order_relaxed); }
  int64_t count() const { return g_alloc_count.load(std::memory_order_relaxed); }
};

// --- ScratchArena ------------------------------------------------------------

TEST(ScratchArenaTest, AllocationsAreCacheLineAligned) {
  ScratchArena arena(1024);
  for (const size_t n : {1u, 3u, 64u, 100u, 129u}) {
    void* p = arena.Alloc(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % ScratchArena::kAlignment, 0u) << n;
  }
}

TEST(ScratchArenaTest, ResetReusesTheSameBlock) {
  ScratchArena arena(4096);
  void* first = arena.Alloc(1000);
  arena.Reset();
  EXPECT_EQ(arena.used(), 0u);
  // Identical allocation pattern lands on identical addresses: the arena is
  // a bump pointer over one stable block.
  EXPECT_EQ(arena.Alloc(1000), first);
  EXPECT_EQ(arena.overflow_count(), 0);
}

TEST(ScratchArenaTest, UsedTracksAlignedConsumption) {
  ScratchArena arena(4096);
  arena.Alloc(1);
  EXPECT_EQ(arena.used(), ScratchArena::kAlignment);
  arena.Alloc(65);
  EXPECT_EQ(arena.used(), 3 * ScratchArena::kAlignment);
}

TEST(ScratchArenaTest, OverflowFallsBackAndResetCoalesces) {
  ScratchArena arena(128);
  void* a = arena.Alloc(128);
  void* b = arena.Alloc(4096);  // Does not fit: dedicated overflow block.
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.overflow_count(), 1);
  EXPECT_GE(arena.used(), 128u + 4096u);
  std::memset(b, 0xAB, 4096);  // Overflow memory must be writable.

  // Reset regrows the main block to the high-water mark: the same pattern
  // now fits in-block.
  arena.Reset();
  EXPECT_GE(arena.capacity(), 128u + 4096u);
  arena.Alloc(128);
  arena.Alloc(4096);
  EXPECT_EQ(arena.overflow_count(), 1) << "second pass must not overflow";
}

TEST(ScratchArenaTest, ZeroByteAllocationIsValid) {
  ScratchArena arena(64);
  EXPECT_NE(arena.Alloc(0), nullptr);
}

TEST(ScratchArenaTest, HighWaterIsLifetimeMax) {
  ScratchArena arena(1024);
  arena.Alloc(512);
  arena.Reset();
  arena.Alloc(64);
  EXPECT_EQ(arena.high_water(), 512u);
}

TEST(ScratchArenaTest, ResetToRewindsWhilePreservingEarlierBuffers) {
  ScratchArena arena(4096);
  uint8_t* staged = arena.AllocN<uint8_t>(256);
  std::memset(staged, 0x5A, 256);
  const ScratchArena::Mark mark = arena.MarkPoint();
  const size_t used_at_mark = arena.used();

  // Per-slice scratch allocated after the mark is recycled by ResetTo...
  void* slice1 = arena.Alloc(1024);
  ASSERT_NE(slice1, nullptr);
  arena.ResetTo(mark);
  EXPECT_EQ(arena.used(), used_at_mark);
  // ...so an identical post-mark pattern lands on identical addresses.
  EXPECT_EQ(arena.Alloc(1024), slice1);
  arena.ResetTo(mark);

  // The staged buffer below the mark survived both rewinds intact.
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(staged[i], 0x5A) << i;
  }
  EXPECT_EQ(arena.overflow_count(), 0);
}

TEST(ScratchArenaTest, ResetToReleasesPostMarkOverflowOnly) {
  ScratchArena arena(256);
  uint8_t* pre = arena.AllocN<uint8_t>(4096);  // Overflows before the mark.
  std::memset(pre, 0xC3, 4096);
  EXPECT_EQ(arena.overflow_count(), 1);
  const ScratchArena::Mark mark = arena.MarkPoint();
  const size_t used_at_mark = arena.used();

  // Overflow after the mark is discarded by ResetTo; overflow before the
  // mark must keep its block (pointers below the mark stay valid).
  void* post = arena.Alloc(8192);
  ASSERT_NE(post, nullptr);
  EXPECT_EQ(arena.overflow_count(), 2);
  arena.ResetTo(mark);
  EXPECT_EQ(arena.used(), used_at_mark);
  for (int i = 0; i < 4096; ++i) {
    ASSERT_EQ(pre[i], 0xC3) << i;
  }

  // ResetTo never regrows the main block; coalescing waits for full Reset().
  EXPECT_LT(arena.capacity(), 4096u);
  arena.Reset();
  EXPECT_GE(arena.capacity(), arena.high_water());
}

TEST(ScratchArenaTest, MarkAtZeroBehavesLikeReset) {
  ScratchArena arena(1024);
  const ScratchArena::Mark mark = arena.MarkPoint();
  void* a = arena.Alloc(512);
  arena.ResetTo(mark);
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.Alloc(512), a);
}

// --- PackBuffers -------------------------------------------------------------

// Two requests with overlapping live intervals must occupy disjoint byte
// ranges of the pool.
bool Disjoint(const BufferPlan& plan, const std::vector<BufferRequest>& reqs, size_t i,
              size_t j) {
  const int64_t ai = plan.offsets[i], bi = ai + reqs[i].bytes;
  const int64_t aj = plan.offsets[j], bj = aj + reqs[j].bytes;
  return bi <= aj || bj <= ai;
}

bool LiveOverlap(const BufferRequest& a, const BufferRequest& b) {
  return a.live_begin <= b.live_end && b.live_begin <= a.live_end;
}

TEST(PackBuffersTest, OverlappingLivenessGetsDisjointRanges) {
  const std::vector<BufferRequest> reqs = {
      {100, 0, 2}, {200, 1, 3}, {50, 2, 2}, {300, 3, 5}, {100, 4, 6}, {64, 0, 6},
  };
  const BufferPlan plan = PackBuffers(reqs);
  ASSERT_EQ(plan.offsets.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(plan.offsets[i] % static_cast<int64_t>(ScratchArena::kAlignment), 0) << i;
    EXPECT_LE(plan.offsets[i] + reqs[i].bytes, plan.pool_bytes) << i;
    for (size_t j = i + 1; j < reqs.size(); ++j) {
      if (LiveOverlap(reqs[i], reqs[j]) && reqs[i].bytes > 0 && reqs[j].bytes > 0) {
        EXPECT_TRUE(Disjoint(plan, reqs, i, j)) << i << " vs " << j;
      }
    }
  }
}

TEST(PackBuffersTest, DisjointLivenessSharesMemory) {
  // A simple chain a -> b -> c: a dies when b is produced, so c can reuse
  // a's bytes. The pool must be smaller than the sum of all buffers.
  const std::vector<BufferRequest> reqs = {{1000, 0, 1}, {1000, 1, 2}, {1000, 2, 3}};
  const BufferPlan plan = PackBuffers(reqs);
  EXPECT_LT(plan.pool_bytes, 3000);
  EXPECT_TRUE(Disjoint(plan, reqs, 0, 1));
  EXPECT_TRUE(Disjoint(plan, reqs, 1, 2));
}

TEST(PackBuffersTest, EmptyAndZeroByteRequests) {
  EXPECT_EQ(PackBuffers({}).pool_bytes, 0);
  const BufferPlan plan = PackBuffers({{0, 0, 5}, {128, 0, 5}});
  EXPECT_EQ(plan.offsets.size(), 2u);
  EXPECT_GE(plan.pool_bytes, 128);
}

// --- Kernel-cache equivalence ------------------------------------------------

struct QU8ConvFixture {
  Conv2DParams p;
  Tensor in_q, w_q, bias_i32, bias_f32;
  RequantScale rs;
  std::vector<int32_t> rowsum;
  std::vector<Half> w16, b16;

  explicit QU8ConvFixture(bool relu = true) {
    p.kernel_h = p.kernel_w = 3;
    p.pad_h = p.pad_w = 1;
    p.relu = relu;
    Tensor in(Shape(1, 4, 10, 10), DType::kF32);
    Tensor w(Shape(8, 4, 3, 3), DType::kF32);
    bias_f32 = Tensor(Shape(1, 8, 1, 1), DType::kF32);
    FillUniform(in, 21, -1.0f, 1.0f);
    FillUniform(w, 22, -0.4f, 0.4f);
    FillUniform(bias_f32, 23, -0.2f, 0.2f);
    const QuantParams in_qp = ChooseQuantParams(-1.0f, 1.0f);
    const QuantParams w_qp = ChooseQuantParams(-0.4f, 0.4f);
    in_q = QuantizeTensor(in, in_qp);
    w_q = QuantizeTensor(w, w_qp);
    bias_i32 = Tensor(bias_f32.shape(), DType::kInt32);
    for (int64_t i = 0; i < bias_f32.NumElements(); ++i) {
      bias_i32.Data<int32_t>()[i] = static_cast<int32_t>(
          std::lround(bias_f32.Data<float>()[i] / (in_qp.scale * w_qp.scale)));
    }
    // Prepare-time caches, built exactly as PreparedModel builds them.
    const QuantParams out_qp = ChooseQuantParams(-2.0f, 2.0f);
    rs = ComputeRequantScale(static_cast<double>(in_qp.scale) *
                             static_cast<double>(w_qp.scale) /
                             static_cast<double>(out_qp.scale));
    out_scale = out_qp;
    const int64_t k = w_q.shape().c * w_q.shape().h * w_q.shape().w;
    rowsum.resize(static_cast<size_t>(w_q.shape().n));
    for (int64_t o = 0; o < w_q.shape().n; ++o) {
      int32_t raw = 0;
      for (int64_t kk = 0; kk < k; ++kk) {
        raw += static_cast<int32_t>(w_q.Data<uint8_t>()[o * k + kk]);
      }
      rowsum[static_cast<size_t>(o)] = raw;
    }
    w16.resize(static_cast<size_t>(w_q.NumElements()));
    for (int64_t i = 0; i < w_q.NumElements(); ++i) {
      w16[static_cast<size_t>(i)] = Half(w_qp.Dequantize(w_q.Data<uint8_t>()[i]));
    }
    b16.resize(static_cast<size_t>(bias_f32.NumElements()));
    for (int64_t i = 0; i < bias_f32.NumElements(); ++i) {
      b16[static_cast<size_t>(i)] = Half(bias_f32.Data<float>()[i]);
    }
  }

  Tensor MakeOut() const {
    const Shape& is = in_q.shape();
    Tensor out(Shape(is.n, w_q.shape().n, p.OutH(static_cast<int>(is.h)),
                     p.OutW(static_cast<int>(is.w))),
               DType::kQUInt8);
    out.set_quant_params(out_scale.scale, out_scale.zero_point);
    return out;
  }

  ConvAux FullAux(ScratchArena* arena) {
    ConvAux aux;
    aux.scratch = arena;
    aux.requant = &rs;
    aux.filter_rowsum = rowsum.data();
    aux.filters_f16 = w16.data();
    aux.bias_f16 = b16.data();
    return aux;
  }

  QuantParams out_scale;
};

TEST(KernelCacheTest, GemmQU8RowSumMatchesOnTheFly) {
  const int64_t m = 7, n = 50, k = 30;
  std::vector<uint8_t> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n));
  std::vector<int32_t> bias(static_cast<size_t>(m));
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<uint8_t>((i * 37 + 11) % 256);
  for (size_t i = 0; i < b.size(); ++i) b[i] = static_cast<uint8_t>((i * 53 + 5) % 256);
  for (size_t i = 0; i < bias.size(); ++i) bias[i] = static_cast<int32_t>(i) * 91 - 200;
  std::vector<int32_t> rowsum(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    int32_t raw = 0;
    for (int64_t kk = 0; kk < k; ++kk) raw += a[static_cast<size_t>(i * k + kk)];
    rowsum[static_cast<size_t>(i)] = raw;
  }
  const RequantScale rs = ComputeRequantScale(0.0037);
  std::vector<uint8_t> c1(static_cast<size_t>(m * n)), c2(static_cast<size_t>(m * n));
  GemmQU8(a.data(), 121, b.data(), 7, c1.data(), 13, rs, m, n, k, bias.data(), true);
  GemmQU8(a.data(), 121, b.data(), 7, c2.data(), 13, rs, m, n, k, bias.data(), true,
          rowsum.data());
  EXPECT_EQ(std::memcmp(c1.data(), c2.data(), c1.size()), 0);
}

TEST(KernelCacheTest, ConvQU8AuxMatchesFallback) {
  QU8ConvFixture f;
  Tensor plain = f.MakeOut(), cached = f.MakeOut();
  Conv2DQU8(f.in_q, f.w_q, f.bias_i32, f.p, plain);
  ScratchArena arena;
  const ConvAux aux = f.FullAux(&arena);
  Conv2DQU8(f.in_q, f.w_q, f.bias_i32, f.p, cached, 0, -1, aux);
  EXPECT_EQ(std::memcmp(plain.raw(), cached.raw(), static_cast<size_t>(plain.SizeBytes())), 0);
}

TEST(KernelCacheTest, ConvQU8ViaF16AuxMatchesFallback) {
  QU8ConvFixture f;
  Tensor plain = f.MakeOut(), cached = f.MakeOut();
  Conv2DQU8ViaF16(f.in_q, f.w_q, f.bias_f32, f.p, plain);
  ScratchArena arena;
  const ConvAux aux = f.FullAux(&arena);
  Conv2DQU8ViaF16(f.in_q, f.w_q, f.bias_f32, f.p, cached, 0, -1, aux);
  EXPECT_EQ(std::memcmp(plain.raw(), cached.raw(), static_cast<size_t>(plain.SizeBytes())), 0);
}

TEST(KernelCacheTest, ConvQU8ViaF16NoBiasSkipsStaging) {
  QU8ConvFixture f;
  const Tensor no_bias;
  Tensor plain = f.MakeOut(), cached = f.MakeOut();
  Conv2DQU8ViaF16(f.in_q, f.w_q, no_bias, f.p, plain);
  ScratchArena arena;
  ConvAux aux = f.FullAux(&arena);
  aux.bias_f16 = nullptr;
  Conv2DQU8ViaF16(f.in_q, f.w_q, no_bias, f.p, cached, 0, -1, aux);
  EXPECT_EQ(std::memcmp(plain.raw(), cached.raw(), static_cast<size_t>(plain.SizeBytes())), 0);
}

// --- Zero steady-state allocations -------------------------------------------

TEST(AllocationCountTest, WarmedConvKernelsAllocateNothing) {
  // Single-threaded: ParallelFor takes the serial inline path, so the
  // allocation count is deterministic. The arena is sized by the same
  // prepare-time dry-run helper the executor uses, then warmed once.
  ScopedThreads threads(1);
  QU8ConvFixture f;
  ScratchArena arena(static_cast<size_t>(Conv2DScratchBytes(
      DType::kQUInt8, DType::kF16, f.in_q.shape(), f.w_q.shape(), f.p)));
  ConvAux aux = f.FullAux(&arena);
  Tensor out = f.MakeOut();

  // Warm up both paths (first calls may touch lazily initialized state).
  Conv2DQU8(f.in_q, f.w_q, f.bias_i32, f.p, out, 0, -1, aux);
  arena.Reset();
  Conv2DQU8ViaF16(f.in_q, f.w_q, f.bias_f32, f.p, out, 0, -1, aux);
  arena.Reset();

  {
    ScopedAllocCount counter;
    Conv2DQU8(f.in_q, f.w_q, f.bias_i32, f.p, out, 0, -1, aux);
    arena.Reset();
    Conv2DQU8ViaF16(f.in_q, f.w_q, f.bias_f32, f.p, out, 0, -1, aux);
    arena.Reset();
    EXPECT_EQ(counter.count(), 0)
        << "steady-state conv kernels must not touch the heap";
  }
  EXPECT_EQ(arena.overflow_count(), 0)
      << "dry-run sizing must cover the kernels' scratch requests";
}

// An F32 conv/FC call as the executor makes it: filters, bias, the
// prepare-time packed filter panels and an output tensor.
struct F32DenseFixture {
  Conv2DParams p;
  Tensor in, w, bias;
  std::vector<float> w_packed;

  F32DenseFixture(const Shape& in_shape, int64_t oc, int kernel, int pad) {
    p.kernel_h = p.kernel_w = kernel;
    p.pad_h = p.pad_w = pad;
    p.relu = true;
    in = Tensor(in_shape, DType::kF32);
    w = Tensor(Shape(oc, in_shape.c, kernel, kernel), DType::kF32);
    bias = Tensor(Shape(1, oc, 1, 1), DType::kF32);
    FillUniform(in, 61, -1.0f, 1.0f);
    FillUniform(w, 62, -0.4f, 0.4f);
    FillUniform(bias, 63, -0.2f, 0.2f);
    const int64_t k = in_shape.c * kernel * kernel;
    w_packed.resize(static_cast<size_t>(PackedPanelElems(oc, k)));
    PackRowPanels(w.Data<float>(), oc, k, w_packed.data());
  }

  Tensor MakeOut() const {
    const Shape& is = in.shape();
    return Tensor(Shape(is.n, w.shape().n, p.OutH(static_cast<int>(is.h)),
                        p.OutW(static_cast<int>(is.w))),
                  DType::kF32);
  }

  int64_t ScratchBytes() const {
    return Conv2DScratchBytes(DType::kF32, DType::kF32, in.shape(), w.shape(), p);
  }
};

TEST(AllocationCountTest, WarmedF32ConvAndFcAllocateNothing) {
  ScopedThreads threads(1);
  // 3x3 conv over 24x24: B is 72 x 576, wider than one column block, so
  // GemmF32 packs panels, for all 64 rows (two row chunks) and for the
  // 32-row slice (one chunk).
  F32DenseFixture conv(Shape(1, 8, 24, 24), 64, 3, 1);
  ASSERT_GT(GemmF32ScratchElems(24 * 24, 72), 0);
  // FC as the graph lowers it: a kernel covering the whole 4x4 input, so
  // n == 1 and the GEMV path runs.
  F32DenseFixture fc(Shape(1, 16, 4, 4), 100, 4, 0);
  ScratchArena arena(static_cast<size_t>(std::max(conv.ScratchBytes(), fc.ScratchBytes())));
  ConvAux conv_aux;
  conv_aux.scratch = &arena;
  conv_aux.filters_packed_f32 = conv.w_packed.data();
  ConvAux fc_aux;
  fc_aux.scratch = &arena;  // FC weights stay row-major: no packed panels.
  Tensor conv_out = conv.MakeOut();
  Tensor fc_out = fc.MakeOut();
  const auto run_all = [&] {
    Conv2DF32(conv.in, conv.w, conv.bias, conv.p, conv_out, 0, -1, conv_aux);
    arena.Reset();
    Conv2DF32(conv.in, conv.w, conv.bias, conv.p, conv_out, 0, 32, conv_aux);
    arena.Reset();
    Conv2DF32(fc.in, fc.w, fc.bias, fc.p, fc_out, 0, -1, fc_aux);
    arena.Reset();
  };
  run_all();  // Warm-up.
  {
    ScopedAllocCount counter;
    run_all();
    EXPECT_EQ(counter.count(), 0) << "warmed F32 conv/FC kernels must not touch the heap";
  }
  EXPECT_EQ(arena.overflow_count(), 0)
      << "Conv2DScratchBytes must cover GemmF32's packed B panels";
  // The arena-fed outputs equal the self-allocating ones.
  Tensor conv_ref = conv.MakeOut();
  Tensor fc_ref = fc.MakeOut();
  Conv2DF32(conv.in, conv.w, conv.bias, conv.p, conv_ref);
  Conv2DF32(fc.in, fc.w, fc.bias, fc.p, fc_ref);
  EXPECT_EQ(std::memcmp(conv_ref.raw(), conv_out.raw(), static_cast<size_t>(conv_ref.SizeBytes())),
            0);
  EXPECT_EQ(std::memcmp(fc_ref.raw(), fc_out.raw(), static_cast<size_t>(fc_ref.SizeBytes())), 0);
}

TEST(AllocationCountTest, ArenaLessGemmF32AllocatesAtMostOncePerCall) {
  ScopedThreads threads(1);
  // 256 rows = 8 row chunks over a B of 3 column blocks: the blocks are
  // packed once per call, not once per chunk.
  const int64_t m = 256, n = 300, k = 40;
  ASSERT_GT(GemmF32ScratchElems(n, k), 0);
  std::vector<float> a(static_cast<size_t>(m * k), 0.5f), b(static_cast<size_t>(k * n), 0.25f);
  std::vector<float> c(static_cast<size_t>(m * n));
  std::vector<float> gemv_c(static_cast<size_t>(m));
  GemmF32(a.data(), b.data(), c.data(), m, n, k);  // Warm-up.
  constexpr int kCalls = 3;
  {
    ScopedAllocCount counter;
    for (int i = 0; i < kCalls; ++i) {
      GemmF32(a.data(), b.data(), c.data(), m, n, k);
    }
    EXPECT_LE(counter.count(), kCalls);
  }
  {
    ScopedAllocCount counter;
    GemmF32(a.data(), b.data(), gemv_c.data(), m, 1, k);
    EXPECT_EQ(counter.count(), 0) << "the GEMV path needs no scratch";
  }
}

// The non-conv QU8 kernels of an inception join and the classifier head:
// ConcatChannels as the executor calls it (activation table plus input ids),
// with one input copied and one requantized through its table, and Softmax
// on QU8 and F16 inputs, which convert each element where they read it.
TEST(AllocationCountTest, WarmedConcatAndSoftmaxAllocateNothing) {
  ScopedThreads threads(1);
  std::vector<Tensor> act;
  act.emplace_back(Shape(1, 3, 4, 4), DType::kQUInt8);
  act.emplace_back(Shape(1, 5, 4, 4), DType::kQUInt8);
  act[0].set_quant_params(0.1f, 0);
  act[1].set_quant_params(0.2f, 10);
  for (Tensor& t : act) {
    for (int64_t i = 0; i < t.NumElements(); ++i) {
      t.Data<uint8_t>()[i] = static_cast<uint8_t>(i * 37);
    }
  }
  const std::vector<int> inputs = {0, 1};
  Tensor cat(Shape(1, 8, 4, 4), DType::kQUInt8);
  cat.set_quant_params(0.1f, 0);
  Tensor logits_q(Shape(1, 10, 1, 1), DType::kF32);
  FillUniform(logits_q, 71, -4.0f, 4.0f);
  const Tensor in_q = QuantizeTensor(logits_q, ChooseQuantParams(-4.0f, 4.0f));
  const Tensor in_16 = ToF16Tensor(logits_q);
  Tensor probs_q(in_q.shape(), DType::kF32), probs_16(in_16.shape(), DType::kF32);
  const auto run_all = [&] {
    ConcatChannels(act, inputs, cat);
    Softmax(in_q, probs_q);
    Softmax(in_16, probs_16);
  };
  run_all();  // Warm-up.
  {
    ScopedAllocCount counter;
    run_all();
    EXPECT_EQ(counter.count(), 0) << "warmed concat/softmax kernels must not touch the heap";
  }
  // The reads convert exactly as the dequantized tensors do.
  Tensor want_q(in_q.shape(), DType::kF32), want_16(in_16.shape(), DType::kF32);
  Softmax(DequantizeTensor(in_q), want_q);
  Softmax(F16ToF32Tensor(in_16), want_16);
  EXPECT_EQ(std::memcmp(want_q.raw(), probs_q.raw(), static_cast<size_t>(want_q.SizeBytes())), 0);
  EXPECT_EQ(std::memcmp(want_16.raw(), probs_16.raw(), static_cast<size_t>(want_16.SizeBytes())),
            0);
}

// --- Executor arena reuse ----------------------------------------------------

// Repeated runs on one executor must keep reusing the same plan and pool
// (outputs stable, no re-planning artifacts).
TEST(ArenaRegressionTest, RepeatedRunsAreStable) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  const Shape in_shape(1, 1, 28, 28);
  std::vector<Tensor> calib;
  Tensor t(in_shape, DType::kF32);
  FillUniform(t, 8400, -1.0f, 1.0f);
  calib.push_back(std::move(t));
  Tensor input(in_shape, DType::kF32);
  FillUniform(input, 8500, -1.0f, 1.0f);

  PreparedModel pm(m, ExecConfig::ProcessorFriendly());
  pm.Calibrate(calib);
  Executor ex(pm, MakeExynos7420());
  const Plan plan = MakeHalfSplitPlan(m.graph);
  RunResult first = ex.Run(plan, &input);
  ASSERT_TRUE(first.output.has_value());
  for (int i = 0; i < 3; ++i) {
    RunResult again = ex.Run(plan, &input);
    ASSERT_TRUE(again.output.has_value());
    EXPECT_EQ(std::memcmp(first.output->raw(), again.output->raw(),
                          static_cast<size_t>(first.output->SizeBytes())),
              0);
  }
  // The returned output must be detached from the executor's pool: mutating
  // it does not corrupt later runs.
  first.output->Zero();
  RunResult after = ex.Run(plan, &input);
  EXPECT_NE(std::memcmp(first.output->raw(), after.output->raw(),
                        static_cast<size_t>(after.output->SizeBytes())),
            0);
}

// Calibrate must reject degenerate scales instead of invoking UB in lround.
TEST(CalibrateGuardTest, ZeroScaleBiasThrows) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  // An input range around 1e-36 gives the input node a denormal scale, so
  // in_scale * w_scale under the first conv falls below FLT_MIN; dividing the
  // bias by it would send lround to UB.
  {
    PreparedModel pm(m, ExecConfig::AllQU8());
    std::vector<Tensor> calib;
    Tensor tiny(Shape(1, 1, 28, 28), DType::kF32);
    FillUniform(tiny, 8600, -1e-36f, 1e-36f);
    calib.push_back(std::move(tiny));
    try {
      pm.Calibrate(calib);
      ADD_FAILURE() << "Calibrate accepted a denormal in_scale * w_scale";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kQuantization);
    }
  }
  // An all-zero input is not degenerate: ChooseQuantParams gives the empty
  // range scale 1.0, and calibration succeeds.
  {
    PreparedModel pm(m, ExecConfig::AllQU8());
    std::vector<Tensor> calib;
    Tensor z(Shape(1, 1, 28, 28), DType::kF32);
    z.Zero();
    calib.push_back(std::move(z));
    EXPECT_NO_THROW(pm.Calibrate(calib));
    EXPECT_TRUE(pm.calibrated());
  }
}

// A mid-run throw must leave the arena and activation pool coherent: the
// abandoned run's partially written activations cannot bleed into the next
// run's output (DESIGN.md Section 10 exception safety, arena edition).
TEST(ArenaTest, ArenaStaysCoherentAfterMidRunThrow) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  Tensor input(Shape(1, 1, 28, 28), DType::kF32);
  FillUniform(input, 6400, -1.0f, 1.0f);

  ExecConfig cfg = ExecConfig::AllF32();
  cfg.fault_cpu_fallback = false;  // Let the fault escape mid-graph.
  cfg.fault_max_retries = 0;
  PreparedModel pm(m, cfg);
  const SocSpec soc = MakeExynos7420();
  const Plan plan = MakeHalfSplitPlan(m.graph);

  Executor ex(pm, soc);
  // Fail a GPU slice deep enough into the graph that several activation
  // buffers are already written when the run aborts.
  ex.SetFaultPlan(fault::FaultPlan::Parse("gpu.kernel@call:3=enqueue-failed"));
  EXPECT_THROW(ex.Run(plan, &input), Error);

  ex.SetFaultPlan(fault::FaultPlan{});
  const RunResult recovered = ex.Run(plan, &input);
  Executor fresh(pm, soc);
  const RunResult want = fresh.Run(plan, &input);
  ASSERT_TRUE(recovered.output.has_value());
  ASSERT_TRUE(want.output.has_value());
  ASSERT_EQ(recovered.output->SizeBytes(), want.output->SizeBytes());
  EXPECT_EQ(std::memcmp(recovered.output->raw(), want.output->raw(),
                        static_cast<size_t>(want.output->SizeBytes())),
            0);
  EXPECT_DOUBLE_EQ(recovered.latency_us, want.latency_us);
}

// --- Zero steady-state allocations in Run() ----------------------------------

// A warmed executor's timing-only RunInto must never touch the heap — for an
// all-cooperative plan, with a fault injector firing (retries, backoff,
// fallback), and with trace recording enabled. FaultInjector::ResetRun
// rewinds the RNG and event log at the top of every run, so repeated runs
// replay the identical fault trace and the warm-up runs size every vector.
TEST(AllocationCountTest, SteadyStateRunIntoAllocatesNothing) {
  ScopedThreads threads(1);
  Model m = MakeLeNet5();
  m.MaterializeWeights();

  for (const bool tracing : {false, true}) {
    ExecConfig cfg = ExecConfig::AllF32();
    cfg.cpu_threads = 1;
    cfg.verify = false;  // VerifyPlan builds a fresh Report (allocates).
    cfg.trace = tracing;
    PreparedModel pm(m, cfg);
    Executor ex(pm, MakeExynos7420());
    const Plan plan = MakeHalfSplitPlan(m.graph);
    ex.SetFaultPlan(fault::FaultPlan::Parse(
        "seed=11;gpu.any@prob:0.4=timeout:100;gpu.kernel@call:2=enqueue-failed;"
        "gpu.kernel@node:3=slow:1.7"));

    RunResult r;
    ex.RunInto(plan, nullptr, r);  // Warm-up: all capacity growth lands here.
    ex.RunInto(plan, nullptr, r);
    ASSERT_GT(r.degradation.retries + r.degradation.fallbacks, 0)
        << "the spec must inject faults for this test to mean anything";
    {
      ScopedAllocCount counter;
      ex.RunInto(plan, nullptr, r);
      EXPECT_EQ(counter.count(), 0)
          << "steady-state Run() must not allocate (trace=" << tracing << ")";
    }
    EXPECT_EQ(r.run_trace.enabled, tracing);
    if (tracing) {
      EXPECT_FALSE(r.run_trace.spans.empty());
    }
  }
}

}  // namespace
}  // namespace ulayer
